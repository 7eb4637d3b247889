"""Counter-based random streams keyed by (master_seed, path_index).

Each path owns Philox streams identified purely by their key, so any path
can be regenerated bit-for-bit in isolation and blocks of paths can be
simulated in any order (or in parallel) without consuming shared generator
state.  A path has one stream per purpose, in disjoint counter blocks of the
same key: its noise, its branch randomness (every step's draws from one
stream, row k for step k) and its branch-step choice.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# Counter-block tags. The third counter word selects the purpose of the
# stream; the two low words start at 0 and are left to the generator itself.
TAG_NOISE = 0
TAG_BRANCH = 1
TAG_CHOICE = 2


def stream(master_seed: int, path_index: int, *, tag: int = TAG_NOISE) -> np.random.Generator:
    """Return the Generator for one (seed, path) substream.

    Streams with different (master_seed, path_index, tag) are statistically
    independent; recreating a stream replays it exactly.
    """
    if master_seed < 0 or path_index < 0:
        raise ValueError("master_seed and path_index must be non-negative")
    # a uint64 array: numpy would turn a list holding a word >= 2**63 into
    # float64 and drop the key's low bits
    key = np.array([int(master_seed) & _MASK64, int(path_index) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=[0, 0, int(tag), 0], key=key))


def child_seed(master_seed: int, *parts: int) -> int:
    """Derive a sub-seed deterministically from a master seed and context ints."""
    ss = np.random.SeedSequence(entropy=[int(master_seed) & _MASK64] + [int(p) & _MASK64 for p in parts])
    return int(ss.generate_state(1, np.uint64)[0])


class _StreamPool:
    """Reusable Philox/Generator pair for tight per-path loops.

    Reassigning the bit-generator state is ~2x cheaper than constructing a
    fresh Generator per path and produces bit-identical output (covered by
    tests against :func:`stream`).  The state dict is built once; a rekey
    updates its counter and key arrays in place, and the setter copies them.
    """

    def __init__(self) -> None:
        self._bg = np.random.Philox(counter=[0, 0, 0, 0], key=[0, 0])
        self.generator = np.random.Generator(self._bg)
        self._counter = np.zeros(4, dtype=np.uint64)
        self._key = np.zeros(2, dtype=np.uint64)
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": self._counter, "key": self._key},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,  # empty buffer: the first draw starts at counter 0
            "has_uint32": 0,
            "uinteger": 0,
        }

    def rekey(self, master_seed: int, path_index: int, *, tag: int = TAG_NOISE) -> np.random.Generator:
        self._counter[2] = tag  # the other counter words stay 0
        self._key[0] = master_seed & _MASK64
        self._key[1] = path_index & _MASK64
        self._bg.state = self._state
        return self.generator
