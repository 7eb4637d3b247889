"""Counter-based random streams, one Philox key per group of G paths.

Path i reads row i % G of the draws of key (master_seed, i // G), which have
leading axis G = PATHS_PER_STREAM; so any path can be regenerated bit-for-bit
in isolation, at the cost of G rows, and blocks of paths can be simulated in
any order without consuming shared generator state.  Each key has one stream
per purpose, in disjoint counter blocks: the group's noise, its branch
randomness (every step's draws, column k for step k) and its branch steps.
"""

from __future__ import annotations

import numbers

import numpy as np

_MASK64 = (1 << 64) - 1

PATHS_PER_STREAM = 100  # divides every derived block size and the benchmark path counts

# Counter-block tags. The third counter word selects the purpose of the
# stream; the two low words start at 0 and are left to the generator itself.
TAG_NOISE = 0
TAG_BRANCH = 1
TAG_CHOICE = 2


def _check_key(*words: int) -> None:
    if not all(isinstance(w, numbers.Integral) for w in words):
        raise ValueError("master_seed, stream indices and seed parts must be integers")
    if not all(0 <= w <= _MASK64 for w in words):
        raise ValueError("master_seed, stream indices and seed parts must lie in [0, 2**64)")


def stream(master_seed: int, group: int, *, tag: int = TAG_NOISE) -> np.random.Generator:
    """Return the Generator of one (seed, group of G paths) substream.

    Streams with different (master_seed, group, tag) are statistically
    independent; recreating a stream replays it exactly.
    """
    _check_key(master_seed, group)
    # a uint64 array: numpy would turn a list holding a word >= 2**63 into
    # float64 and drop the key's low bits
    key = np.array([int(master_seed), int(group)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=[0, 0, int(tag), 0], key=key))


def group_streams(master_seed: int, path_indices, *, tag: int):
    """Walk the groups of contiguous path indices through one pool; yield, per
    group, its generator, the block rows it covers and the rows of its (G, ...)
    draws that those read (all G for a full group)."""
    _check_key(master_seed, path_indices[0])
    first, stop = int(path_indices[0]), int(path_indices[-1]) + 1
    pool = _StreamPool()
    for group in range(first // PATHS_PER_STREAM, (stop - 1) // PATHS_PER_STREAM + 1):
        base = group * PATHS_PER_STREAM
        lo, hi = max(first, base), min(stop, base + PATHS_PER_STREAM)
        yield (pool.rekey(master_seed, group, tag=tag), slice(lo - first, hi - first),
               slice(lo - base, hi - base))


def child_seed(master_seed: int, *parts: int) -> int:
    """Derive a sub-seed deterministically from a master seed and context ints,
    each an integer in [0, 2**64)."""
    _check_key(master_seed, *parts)
    words = [int(master_seed), *map(int, parts)]
    ss = np.random.SeedSequence(entropy=words)
    return int(ss.generate_state(1, np.uint64)[0])


class _StreamPool:
    """Reusable Philox/Generator pair for tight per-group loops.

    Reassigning the bit-generator state is ~2x cheaper than constructing a
    fresh Generator per group and produces bit-identical output (covered by
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

    def rekey(self, master_seed: int, group: int, *, tag: int = TAG_NOISE) -> np.random.Generator:
        self._counter[2] = tag  # the other counter words stay 0
        self._key[0] = master_seed
        self._key[1] = group
        self._bg.state = self._state
        return self.generator
