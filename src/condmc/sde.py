"""Euler-Maruyama simulation of parametric SDEs with pathwise Jacobians.

Models are dX_t = b(X_t, t; theta) dt + sigma(X_t, t) dW_t with a scalar
parameter theta entering the drift only.  The simulator returns a PathBatch,
the one type for simulated paths: the states and the noise behind them, of
one path or of a block with a leading path axis.  The first-variation process
Y_k (sensitivity of X_k to its starting point) and its inverse Z_k, from
which Malliavin derivatives of smooth path functionals are assembled
downstream, depend on nothing else: a PathBatch computes them on the first
read of its `jacobians` and keeps them.

Every model callable gets one grid time t, a scalar, and states x of shape
(..., n) with any leading (path) axes, over which it must broadcast; constant
coefficients may simply return (n,), (n, n) or (n, n, d) arrays.  Only
on_grid evaluates a coefficient along the grid, one model call per step.
Each Euler pass checks the diffusion's shape once, at its first step.

The block-wise estimators run their blocks through per_path, on as many
workers as there are usable CPUs and blocks, while each worker's block keeps
at least MIN_WORKER_ROWS rows: the calling thread and helper threads, each
simulating and handing on one block at a time.  The blocks in flight
together keep states plus increments within BLOCK_BYTES: a worker's block
has block_rows(model, grid) // workers rows, in whole stream groups.  No
result depends on the block size or the number of workers.

_apply_diffusion multiplies dW by a 1x1 sigma directly, one rounding as in the 1x1 product.

A model states two structural facts through its derivatives: a drift_dx
with no path axis, (n, n), means a drift affine in x, and an all-zero
diffusion_dx means a diffusion that does not depend on the state.  An Euler
step with both (_step_jacobian) is affine in the state under common noise,
with the same factor I + dt drift_dx on every path.

When every step is so (OU and the mean-reverting family), Y and Z are the
same on every path of a block.  They are then built once, as read-only
(M+1, n, n) arrays: a value that all paths share keeps its own shape, and
NumPy broadcasting applies it where it meets a per-path array.  A model that
is path-dependent at any step gets per-row Jacobians.  A zero diffusion_dx
adds +-0.0 to each step factor, so both ways give the same bits.  The
sum-over-k branch engine of weakderiv uses the same test to carry branches
to the horizon by products of the step factors.

Shared Jacobians, and a canonical weight with no path axis, are the same on
every block too (the SdeModel and PathFunctional contracts), so one
estimator call builds each of them once (call_shared): per_path keeps one
memo for its blocks and the blocks made from them, keyed by theta.

Euler steps on a step-major scratch copy of the states, (M+1, N, n), so
that each step reads and writes one contiguous (N, n) slice, in place and
in the operation order (x + dt b) + sigma dW of the path-major loop, and
writes the result back one stream group of rows at a time.  PathBatch
states stay path-major, (N, M+1, n): NumPy sums pairwise only along a
contiguous axis, so a sum over the steps of a step-major array would
change the bits of every Skorohod sum, energy and integral value.
"""

from __future__ import annotations

import contextvars
import math
import numbers
import os
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import CoefficientShapeError, NonFiniteEstimate, NonFiniteState, SingularJacobian
from .streams import PATHS_PER_STREAM, TAG_NOISE, group_streams, stream

_COND_LIMIT = 1e12

# bytes of states plus increments in one simulated block (block_rows)
BLOCK_BYTES = 16 * 2 ** 20

# fewest rows per worker's block for per_path to run more than one worker.
# Below it the per-step Python work of each block, which holds the GIL, is
# too large a share: against one worker, two on 2 vCPUs made random-k
# hj_gradient 1.3-1.4x slower at 300-1,300 rows per block, even at 2,600 and
# faster at 5,200 (OU, 100-1,600 steps)
MIN_WORKER_ROWS = 2_600


def fsum(values) -> float:
    """Exactly rounded sum of an array; immune to accumulation order."""
    return math.fsum(np.asarray(values, dtype=float).ravel())


def finite_fsum(values) -> float:
    """fsum of per-path values; NonFiniteEstimate when one of them is NaN or
    infinite or their exact sum overflows."""
    values = np.asarray(values, dtype=float).ravel()
    bad = np.count_nonzero(~np.isfinite(values))
    if bad:
        raise NonFiniteEstimate(f"{bad} of {values.size} per-path values are NaN or infinite")
    try:
        return math.fsum(values)
    except OverflowError as exc:
        raise NonFiniteEstimate("the sum of the per-path values overflows") from exc


def require_finite(what: str, *values) -> None:
    """NonFiniteEstimate when any of the given results is NaN or infinite."""
    if not all(np.isfinite(v).all() for v in values):
        raise NonFiniteEstimate(f"{what} is not finite")


def _check_count(name: str, value, least: int = 1) -> None:
    """ValueError unless value is an integer (a numbers.Integral) of at least
    least; int() would truncate 2.5 to 2."""
    if not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, not {value!r}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_M = horizon."""

    horizon: float
    steps: int

    def __post_init__(self) -> None:
        if self.horizon <= 0.0 or not math.isfinite(self.horizon):
            raise ValueError("horizon must be positive and finite")
        _check_count("steps", self.steps)

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @cached_property
    def times(self) -> np.ndarray:
        """The M+1 grid times, computed once per grid and read-only."""
        times = np.linspace(0.0, self.horizon, self.steps + 1)
        times.flags.writeable = False
        return times


@dataclass(frozen=True)
class NoisePath:
    """Brownian increments of one path, regenerable from (master_seed, path_index)."""

    increments: np.ndarray  # (M, d), N(0, dt) entries
    master_seed: int
    path_index: int


@dataclass(frozen=True)
class SdeModel:
    """Drift/diffusion coefficients and their derivatives for one SDE family.

    drift(x, t, theta) -> (..., n);  drift_dtheta the same shape;
    drift_dx(x, t, theta) -> (..., n, n) with [i, m] = d b_i / d x_m;
    diffusion(x, t) -> (..., n, d);
    diffusion_dx(x, t) -> (..., n, n, d) with [i, m, j] = d sigma_ij / d x_m.

    t is always one grid time (a scalar) and x has shape (..., n).

    The engines read structure from the derivatives' shapes and values: a
    drift_dx that returns (n, n) with no path axis declares a drift affine in
    x at that t, and an all-zero diffusion_dx declares a diffusion that does
    not depend on x.  Where both hold, Jacobians are shared across paths and
    sum-over-k branches are carried to the horizon by products, not by Euler.
    A step found so (_step_jacobian) at one block's states must be so, with
    the same drift_dx, at every state: an estimator call builds shared
    Jacobians on its first block and reuses them on every other.

    per_path may call the coefficients from several threads at once, each on
    its own block, so they must not mutate state they share.
    """

    drift: Callable
    drift_dtheta: Callable
    drift_dx: Callable
    diffusion: Callable
    diffusion_dx: Callable
    state_dim: int
    noise_dim: int
    name: str = "custom"


@dataclass(frozen=True)
class JacobianPath:
    """First-variation matrices Y_k and inverses Z_k along one path (or a block).

    y and z broadcast to (..., M+1, n, n).  When drift_dx has no path axis
    and diffusion_dx is zero at every step, every path of a block has the
    same Y, and y and z are then read-only (M+1, n, n) arrays; writing to
    them raises ValueError.
    """

    y: np.ndarray
    z: np.ndarray


@dataclass(frozen=True)
class PathBatch:
    """Simulated paths: states on the grid plus the noise that produced them.

    One path has states (M+1, n), increments (M, d) and an int path_indices;
    a block adds a leading path axis, and its row i is bit-identical to the
    single path generated from (master_seed, path_indices[i]).
    """

    model: SdeModel
    grid: TimeGrid
    theta: float
    states: np.ndarray       # (..., M+1, n)
    increments: np.ndarray   # (..., M, d)
    master_seed: int
    path_indices: np.ndarray | int  # (...)

    @property
    def n_paths(self) -> int:
        return math.prod(self.states.shape[:-2])

    @cached_property
    def jacobians(self) -> JacobianPath:
        """Y and Z of every path, computed on the first read and kept; shared
        ones once per estimator call (call_shared)."""
        return call_shared(self, "jacobians", self.model, lambda: _euler_jacobians(
            self.model, self.theta, self.grid, self.states, self.increments),
            lambda jac: jac.y.ndim == 3)

    def path(self, i: int) -> PathBatch:
        return PathBatch(self.model, self.grid, self.theta, self.states[i], self.increments[i],
                         self.master_seed, int(self.path_indices[i]))


class _CallMemo:
    """The values without a path axis of one estimator call's blocks.

    A value is built by the first block that asks for it, under a lock, so a
    worker that asks meanwhile waits for it rather than building it again.
    When that first value has a path axis, the key is marked per-row and
    every block builds its own, outside the lock.
    """

    def __init__(self, model: SdeModel, grid: TimeGrid) -> None:
        self.model = model
        self.grid = grid
        self._values = {}  # (kind, id(owner), theta) -> (owner, value or None if per-row)
        self._lock = threading.RLock()  # reentrant: a weight reads the Jacobians

    def get(self, kind: str, owner, theta: float, build: Callable, shared: Callable):
        # the owner is kept with its value, so its id names it for the whole call
        key = (kind, id(owner), float(theta).hex())
        if key not in self._values:
            with self._lock:
                if key not in self._values:
                    value = build()
                    self._values[key] = (owner, value if shared(value) else None)
                    return value
        value = self._values[key][1]
        return build() if value is None else value


# the memo of the estimator call (per_path) that runs in this context, if any
_CALL_MEMO = contextvars.ContextVar("condmc_call_memo", default=None)


def call_shared(batch: PathBatch, kind: str, owner, build: Callable, shared: Callable):
    """build() of a block, or the value it gave on an earlier block.

    Inside an estimator call (per_path), a value of kind and owner (say the
    model's Jacobians, or a functional's weight) that shared(value) finds
    without a path axis is built on the first block that asks and reused by
    every block of the call with the same model, grid and theta: the base
    blocks, the branch blocks made from them, and the blocks of other
    parameters keep apart.  This rests on the contracts of SdeModel and
    PathFunctional: a shared value is the same at every state.  Outside a
    call, and for one path, build() runs every time.
    """
    memo = _CALL_MEMO.get()
    if (memo is None or batch.model is not memo.model or batch.grid is not memo.grid
            or batch.states.ndim < 3):
        return build()
    return memo.get(kind, owner, batch.theta, build, shared)


# ---------------------------------------------------------------------------
# noise generation


def generate_noise(master_seed: int, path_index: int, grid: TimeGrid, noise_dim: int) -> NoisePath:
    """The (M, d) increments of one path: row path_index % G of its group's noise."""
    group, row = divmod(path_index, PATHS_PER_STREAM)
    rng = stream(master_seed, group, tag=TAG_NOISE)
    draws = rng.standard_normal((row + 1, grid.steps, noise_dim))
    return NoisePath(draws[row] * math.sqrt(grid.dt), master_seed, path_index)


def _noise_block(master_seed: int, path_indices, grid: TimeGrid, noise_dim: int) -> np.ndarray:
    """(N, M, d) increments of contiguous paths; row i == generate_noise(seed, indices[i])."""
    out = np.empty((len(path_indices), grid.steps, noise_dim))
    for rng, rows, part in group_streams(master_seed, path_indices, tag=TAG_NOISE):
        if part.stop - part.start == PATHS_PER_STREAM:
            rng.standard_normal(out=out[rows])
        else:
            out[rows] = rng.standard_normal((PATHS_PER_STREAM,) + out.shape[1:])[part]
    out *= math.sqrt(grid.dt)
    return out


# ---------------------------------------------------------------------------
# Euler engine


def _apply_diffusion(sig: np.ndarray, dw: np.ndarray) -> np.ndarray:
    # sig (n, d) constant or (..., n, d) state-dependent; dw (..., d)
    if sig.shape[-2:] == (1, 1):
        return dw * sig[..., 0, :]
    if sig.ndim == 2:
        return dw @ sig.T
    return np.einsum("...ij,...j->...i", sig, dw)


def _check_diffusion_shape(model: SdeModel, x: np.ndarray, t: float, sig: np.ndarray) -> None:
    """CoefficientShapeError unless the diffusion sig at states x broadcasts to
    (..., n, d) and the diffusion at one state of x is (n, d).  The second test
    tells a block value that dropped its noise axis, (N, n), from a constant
    (n, d) when N = n."""
    want = x.shape[:-1] + (model.state_dim, model.noise_dim)
    one = np.shape(model.diffusion(x[(0,) * (x.ndim - 1)], t))
    try:
        fits = np.broadcast_shapes(sig.shape, want) == want
    except ValueError:
        fits = False
    if one != want[-2:] or not fits:
        raise CoefficientShapeError(
            f"the diffusion returned shape {sig.shape} at states of shape {x.shape} and "
            f"{one} at one state; its contract is (..., {want[-2]}, {want[-1]})")


def _euler_continue(model: SdeModel, theta: float, grid: TimeGrid, states: np.ndarray,
                    increments: np.ndarray, from_step: int | np.ndarray) -> np.ndarray:
    """Fill states beyond from_step by Euler, given the state at from_step.

    from_step is one step for every path, or an (N,) array of per-row starts
    for an (N, M+1, n) block.  Each row is then filled beyond its own start
    and keeps the states it was given up to it; stepping begins at the
    smallest start, all rows advancing together under the model's scalar t.
    The steps run on a step-major scratch copy of states (module docstring).
    The diffusion's shape is checked once, at the first step.  NonFiniteState
    names the first step at which a filled state is NaN or infinite.
    """
    times = grid.times
    dt = grid.dt
    starts = np.asarray(from_step)
    first = int(starts.min())
    path_major = np.moveaxis(states[..., first:, :], -2, 0)
    scratch = np.empty(path_major.shape)
    scratch[0] = path_major[0]
    for k in range(first, grid.steps):
        x, x_next = scratch[k - first], scratch[k + 1 - first]
        b = np.asarray(model.drift(x, times[k], theta))
        sig = np.asarray(model.diffusion(x, times[k]))
        if k == first:
            _check_diffusion_shape(model, x, times[k], sig)
        # (x + dt b) + sigma dW in place; a sum in either order has the same bits
        np.multiply(b, dt, out=x_next)
        x_next += x
        x_next += _apply_diffusion(sig, increments[..., k, :])
        if starts.ndim:
            # rows not yet started take their given state into the next step
            np.copyto(x_next, path_major[k + 1 - first], where=(starts > k)[:, None])
    if states.ndim == 2:
        path_major[...] = scratch
    else:
        for rows in range(0, len(states), PATHS_PER_STREAM):
            group = slice(rows, rows + PATHS_PER_STREAM)
            path_major[:, group] = scratch[:, group]
    # NaN and inf persist under x + dt b + sigma dW, so a row's horizon state
    # shows whether any of its filled states went bad
    if not np.isfinite(states[..., -1, :][starts < grid.steps]).all():
        filled = np.arange(grid.steps + 1) > starts[..., None]
        bad = filled & ~np.isfinite(states).all(axis=-1)
        raise NonFiniteState(int(np.argmax(bad.reshape(-1, grid.steps + 1).any(axis=0))))
    return states


def on_grid(fn: Callable, states: np.ndarray, times: np.ndarray, core: tuple,
            *args) -> np.ndarray:
    """fn(states[..., k, :], times[k], *args) at every step k of states, as one
    read-only array that broadcasts to (..., K) + core: (K,) + core when no
    value has a path axis.  CoefficientShapeError when a value does not
    broadcast to (...,) + core."""
    rest = (slice(None),) * len(core)
    shared = out = np.empty(states.shape[-2:-1] + core)
    for k in range(len(shared)):
        value = np.asarray(fn(states[..., k, :], times[k], *args))
        if out is shared and value.ndim > len(core):  # the first value with a path axis
            out = np.empty(states.shape[:-2] + shared.shape)
            out[(..., slice(k)) + rest] = shared[:k]
        try:
            out[(..., k) + rest] = value
        except ValueError as exc:
            raise CoefficientShapeError(f"a coefficient value of shape {value.shape} does "
                                        f"not broadcast to {states.shape[:-2] + core}") from exc
    out.flags.writeable = False
    return out


def _step_jacobian(model: SdeModel, theta: float, x: np.ndarray, t: float):
    """(drift_dx, diffusion_dx, shared) at states x.  shared tells whether the
    Euler step's factor I + dt drift_dx + diffusion_dx . dW is the same on
    every path: drift_dx has no path axis and diffusion_dx is all zero, so the
    step is affine in the state under common noise."""
    jb = np.asarray(model.drift_dx(x, t, theta))
    js = np.asarray(model.diffusion_dx(x, t))
    return jb, js, jb.ndim == 2 and not js.any()


def _euler_jacobians(model: SdeModel, theta: float, grid: TimeGrid, states: np.ndarray,
                     increments: np.ndarray) -> JacobianPath:
    times = grid.times
    dt = grid.dt
    steps = grid.steps
    n = model.state_dim
    lead = states.shape[:-2]
    eye = np.eye(n)
    # a step whose factor is the same on every path (_step_jacobian) extends
    # one Y for all paths; from the first path-dependent step on, y holds every
    # row, its prefix copied from the shared one
    shared = np.empty((steps + 1, n, n))
    shared[0] = eye
    y = None
    for k in range(steps):
        jb, js, shared_step = _step_jacobian(model, theta, states[..., k, :], times[k])
        if y is None:
            if shared_step:
                shared[k + 1] = (dt * jb + eye) @ shared[k]
                continue
            y = np.empty(lead + (steps + 1, n, n))
            y[..., :k + 1, :, :] = shared[:k + 1]
            yk = y[..., k, :, :]
        yk = (dt * jb + np.einsum("...imj,...j->...im", js, increments[..., k, :]) + eye) @ yk
        y[..., k + 1, :, :] = yk
    y = shared if y is None else y
    if not np.all(np.isfinite(y)):
        raise SingularJacobian("non-finite first-variation matrix")
    if n == 1:
        if np.any(y == 0.0):
            raise SingularJacobian("first-variation matrix hit zero")
        z = 1.0 / y
    else:
        try:
            z = np.linalg.inv(y)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(f"first-variation matrix not invertible: {exc}") from exc
        cond = np.linalg.norm(y, axis=(-2, -1)) * np.linalg.norm(z, axis=(-2, -1))
        if np.any(cond > _COND_LIMIT):
            raise SingularJacobian(f"first-variation condition number exceeds {_COND_LIMIT:g}")
    if not np.all(np.isfinite(z)):
        raise SingularJacobian("first-variation inverse overflowed")
    if y is shared:
        y.flags.writeable = z.flags.writeable = False
    return JacobianPath(y, z)


def _simulate(model: SdeModel, theta: float, x0, grid: TimeGrid, increments: np.ndarray,
              master_seed: int, path_indices) -> PathBatch:
    """The paths that Euler runs from x0 under increments (..., M, d)."""
    states = np.empty(increments.shape[:-2] + (grid.steps + 1, model.state_dim))
    states[..., 0, :] = np.broadcast_to(np.asarray(x0, dtype=float), (model.state_dim,))
    _euler_continue(model, theta, grid, states, increments, 0)
    return PathBatch(model, grid, float(theta), states, increments, master_seed, path_indices)


def simulate_path(model: SdeModel, theta: float, x0, grid: TimeGrid,
                  noise: NoisePath) -> PathBatch:
    """Run the Euler recursion along one noise path."""
    increments = np.asarray(noise.increments, dtype=float)
    if increments.shape != (grid.steps, model.noise_dim):
        raise ValueError("noise increments do not match grid/model dimensions")
    return _simulate(model, theta, x0, grid, increments, noise.master_seed, noise.path_index)


def simulate_paths(model: SdeModel, theta: float, x0, grid: TimeGrid, n_paths: int,
                   master_seed: int, first_index: int = 0) -> PathBatch:
    """Simulate a block of paths with indices first_index .. first_index+n_paths-1."""
    _check_count("n_paths", n_paths)
    indices = np.arange(first_index, first_index + n_paths)
    increments = _noise_block(master_seed, indices, grid, model.noise_dim)
    return _simulate(model, theta, x0, grid, increments, master_seed, indices)


def block_rows(model: SdeModel, grid: TimeGrid) -> int:
    """Rows of one block whose states and increments fit in BLOCK_BYTES, in
    whole stream groups, and at least one group."""
    row_bytes = 8 * ((grid.steps + 1) * model.state_dim + grid.steps * model.noise_dim)
    return max(BLOCK_BYTES // row_bytes // PATHS_PER_STREAM, 1) * PATHS_PER_STREAM


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS keeps one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _block_plan(model: SdeModel, grid: TimeGrid, n_paths: int) -> tuple[int, int]:
    """(rows per block, workers) for paths 0 .. n_paths-1.

    Workers are the usable CPUs, but no more than there are blocks of
    block_rows(model, grid) rows, and no more than leave each worker's block
    MIN_WORKER_ROWS rows.  With more than one worker the blocks shrink to
    block_rows // workers rows, in whole stream groups, so that the blocks in
    flight together stay within BLOCK_BYTES.  ValueError unless n_paths is an
    integer of at least 2.
    """
    _check_count("n_paths", n_paths, 2)
    rows = block_rows(model, grid)
    workers = max(min(_usable_cpus(), -(-n_paths // rows), rows // MIN_WORKER_ROWS), 1)
    if workers > 1:
        rows = rows // workers // PATHS_PER_STREAM * PATHS_PER_STREAM
    return rows, workers


def per_path(model: SdeModel, theta: float, x0, grid: TimeGrid, n_paths: int,
             master_seed: int, terms) -> tuple:
    """Per-path arrays of paths 0 .. n_paths-1: terms(block) returns a tuple of
    arrays with the block's paths on axis 0, joined here in block order.

    Each block holds the rows of _block_plan, sized by the byte budget alone
    (the module's block_rows, looked up at each call), the last one the rest,
    and they run on its workers: the calling thread and workers - 1 helper
    threads, each taking the next block index under a lock, simulating that
    block (by the module's simulate_paths, looked up at each call) and
    handing it to terms, which so may run on several blocks at once; all
    of them share one memo of values with no path axis (call_shared).  A
    worker frees its block before it takes the next.  Helpers run in a copy
    of the caller's context and under the caller's np.errstate settings,
    which NumPy before 2.0 keeps per thread.  After a failure no block is
    taken, and the caller joins every helper.  An interrupt or exit (a
    BaseException that is not an Exception) is then raised ahead of any
    block's error; otherwise the error of the earliest failed block is
    raised, the error a one-block-at-a-time loop would raise, since blocks
    are taken in order.  With one worker no thread starts.
    """
    rows, workers = _block_plan(model, grid, n_paths)
    n_blocks = -(-n_paths // rows)
    parts = [None] * n_blocks
    pending = list(range(n_blocks - 1, -1, -1))  # popped from the end: block 0 first
    failed = {}  # block index -> the Exception its simulation or terms raised
    exits = []  # BaseExceptions, not Exceptions, that ended a helper
    lock = threading.Lock()
    errstate = dict(np.geterr(), call=np.geterrcall())

    def take():
        with lock:
            return pending.pop() if pending else None

    def stop():
        with lock:
            pending.clear()

    def work():
        while (i := take()) is not None:
            first = i * rows
            try:
                parts[i] = terms(simulate_paths(model, theta, x0, grid,
                                                min(rows, n_paths - first), master_seed,
                                                first_index=first))
            except Exception as exc:
                failed[i] = exc
                stop()

    def helper():
        try:
            with np.errstate(**errstate):
                work()
        except BaseException as exc:
            exits.append(exc)
            stop()

    helpers = []
    token = _CALL_MEMO.set(_CallMemo(model, grid))
    try:
        for _ in range(workers - 1):
            thread = threading.Thread(target=contextvars.copy_context().run, args=(helper,))
            thread.start()
            helpers.append(thread)
        work()
    finally:
        _CALL_MEMO.reset(token)
        stop()
        _join_all(helpers)
    if exits:
        raise exits[0]
    if failed:
        raise failed[min(failed)]
    return tuple(map(np.concatenate, zip(*parts)))


def _join_all(threads) -> None:
    """Join every thread, also when interrupted while joining; the last
    interrupt is raised once all have ended."""
    interrupt = None
    for thread in threads:
        while thread.is_alive():
            try:
                thread.join()
            except BaseException as exc:
                interrupt = exc
    if interrupt is not None:
        raise interrupt


def resume_path(bundle: PathBatch, from_step: int, new_state_at_step, noise: NoisePath) -> PathBatch:
    """Restart a path at a given step from a new state, reusing supplied noise.

    The result keeps the input states strictly before from_step, places
    new_state_at_step at from_step, and evolves by Euler with the supplied
    increments from from_step on.
    """
    model = bundle.model
    grid = bundle.grid
    if not 0 <= from_step <= grid.steps:
        raise ValueError("from_step outside the grid")
    increments = np.asarray(noise.increments, dtype=float)
    if increments.shape != (grid.steps, model.noise_dim):
        raise ValueError("noise increments do not match the bundle's grid")
    states = np.array(bundle.states, dtype=float)
    states[from_step] = np.broadcast_to(np.asarray(new_state_at_step, dtype=float),
                                        (model.state_dim,))
    _euler_continue(model, bundle.theta, grid, states, increments, from_step)
    return PathBatch(model, grid, bundle.theta, states, increments, noise.master_seed,
                     noise.path_index)


# ---------------------------------------------------------------------------
# built-in model library


def _constant_diffusion_matrix(sigma, n: int, d: int) -> np.ndarray:
    sig = np.zeros((n, d))
    np.fill_diagonal(sig, sigma)
    return sig


def ou_model(sigma: float = 1.0, dim: int = 1) -> SdeModel:
    """Ornstein-Uhlenbeck family dX = -theta X dt + sigma dW (diagonal, any dim)."""
    _check_count("dim", dim)
    n = int(dim)
    sig = _constant_diffusion_matrix(sigma, n, n)
    zeros3 = np.zeros((n, n, n))
    eye = np.eye(n)
    return SdeModel(
        drift=lambda x, t, theta: -theta * x,
        drift_dtheta=lambda x, t, theta: -x,
        drift_dx=lambda x, t, theta: -theta * eye,
        diffusion=lambda x, t: sig,
        diffusion_dx=lambda x, t: zeros3,
        state_dim=n,
        noise_dim=n,
        name="ou",
    )


def mean_reverting_model(mean: float = 1.0, sigma: float = 1.0, dim: int = 1) -> SdeModel:
    """Mean-reverting family dX = theta (mean - X) dt + sigma dW."""
    _check_count("dim", dim)
    n = int(dim)
    sig = _constant_diffusion_matrix(sigma, n, n)
    zeros3 = np.zeros((n, n, n))
    eye = np.eye(n)
    return SdeModel(
        drift=lambda x, t, theta: theta * (mean - x),
        drift_dtheta=lambda x, t, theta: mean - x,
        drift_dx=lambda x, t, theta: -theta * eye,
        diffusion=lambda x, t: sig,
        diffusion_dx=lambda x, t: zeros3,
        state_dim=n,
        noise_dim=n,
        name="mean-reverting",
    )


def validate_drift_gradient(model: SdeModel, theta: float, rng: np.random.Generator,
                            n_probes: int = 20, h: float = 1e-6) -> float:
    """Max relative gap between drift_dtheta and a central difference of drift.

    Probes randomized states/times; used as a model self-check in tests.
    """
    worst = 0.0
    for _ in range(n_probes):
        x = rng.standard_normal(model.state_dim) * 2.0
        t = float(rng.uniform(0.0, 1.0))
        fd = (np.asarray(model.drift(x, t, theta + h)) - np.asarray(model.drift(x, t, theta - h))) / (2.0 * h)
        an = np.asarray(model.drift_dtheta(x, t, theta))
        scale = max(float(np.max(np.abs(an))), 1.0)
        worst = max(worst, float(np.max(np.abs(fd - an))) / scale)
    return worst


# ---------------------------------------------------------------------------
# closed-form reference moments for the OU family (test oracles / CLI reference)


def ou_terminal_variance(theta: float, sigma: float, t: float) -> float:
    """Var(X_t) for dX = -theta X dt + sigma dW started at a point."""
    if theta == 0.0:
        return sigma * sigma * t
    return -sigma * sigma * math.expm1(-2.0 * theta * t) / (2.0 * theta)


def ou_conditional_second_moment(theta: float, sigma: float, t_cond: float, horizon: float) -> float:
    """E[X_T^2 | X_{t*} = 0] for the OU model: variance accumulated over T - t*."""
    if not 0.0 <= t_cond <= horizon:
        raise ValueError("conditioning time must lie in [0, horizon]")
    return ou_terminal_variance(theta, sigma, horizon - t_cond)
