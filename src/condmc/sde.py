"""Euler-Maruyama simulation of parametric SDEs with pathwise Jacobians.

Models are dX_t = b(X_t, t; theta) dt + sigma(X_t, t) dW_t with a scalar
parameter theta entering the drift only.  The simulator returns states and
the noise behind them.  The first-variation process Y_k (sensitivity of X_k
to its starting point) and its inverse Z_k, from which Malliavin derivatives
of smooth path functionals are assembled downstream, depend on nothing else:
a bundle computes them on the first read of its `jacobians` and keeps them.

Every model callable gets one grid time t, a scalar, and states x of shape
(..., n) with any leading (path) axes, over which it must broadcast; constant
coefficients may simply return (n,), (n, n) or (n, n, d) arrays.  Only
on_grid evaluates a coefficient along the grid, one model call per step.
Each Euler pass checks the diffusion's shape once, at its first step.

_apply_diffusion multiplies dW by a 1x1 sigma directly, one rounding as in the 1x1 product.

A model states two structural facts through its derivatives: a drift_dx
with no path axis, (n, n), means a drift affine in x, and an all-zero
diffusion_dx means a diffusion that does not depend on the state.  An Euler
step with both (_step_jacobian) is affine in the state under common noise,
with the same factor I + dt drift_dx on every path.

When every step is so (OU and the mean-reverting family), Y and Z are the
same on every path of a block.  They are then built once, as one (M+1, n, n)
product, and handed out as read-only views broadcast over the path axes;
shared_row recognises such a view downstream.  A model that is path-dependent
at any step gets per-row Jacobians.  A zero diffusion_dx adds +-0.0 to each
step factor, so both ways give the same bits.  The sum-over-k branch engine
of weakderiv uses the same test to carry branches to the horizon by
products of the step factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import CoefficientShapeError, NonFiniteEstimate, NonFiniteState, SingularJacobian
from .streams import PATHS_PER_STREAM, TAG_NOISE, group_streams, stream

_COND_LIMIT = 1e12

# paths per simulated block in the block-wise estimators; results do not
# depend on it, since every path reads its own row of its group's streams
DEFAULT_BLOCK_SIZE = 25_000


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


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_M = horizon."""

    horizon: float
    steps: int

    def __post_init__(self) -> None:
        if self.horizon <= 0.0 or not math.isfinite(self.horizon):
            raise ValueError("horizon must be positive and finite")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")

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

    When drift_dx has no path axis and diffusion_dx is zero at every step,
    every path of a block has the same Y.  y and z are then read-only views
    of one (M+1, n, n) array, broadcast over the leading axes; writing to
    them raises ValueError.
    """

    y: np.ndarray  # (..., M+1, n, n)
    z: np.ndarray  # (..., M+1, n, n)


@dataclass(frozen=True)
class PathBundle:
    """One simulated path: states on the grid plus the noise that produced them."""

    model: SdeModel
    grid: TimeGrid
    theta: float
    states: np.ndarray  # (M+1, n)
    noise: NoisePath

    @property
    def increments(self) -> np.ndarray:
        return self.noise.increments

    @cached_property
    def jacobians(self) -> JacobianPath:
        """Y and Z along the path, computed on the first read and kept."""
        return _euler_jacobians(self.model, self.theta, self.grid, self.states,
                                np.asarray(self.increments, dtype=float))


@dataclass(frozen=True)
class PathBatch:
    """A block of paths simulated together; row i is bit-identical to the
    single path generated from (master_seed, path_indices[i])."""

    model: SdeModel
    grid: TimeGrid
    theta: float
    states: np.ndarray       # (N, M+1, n)
    increments: np.ndarray   # (N, M, d)
    master_seed: int
    path_indices: np.ndarray  # (N,)

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @cached_property
    def jacobians(self) -> JacobianPath:
        """Y and Z of every row, computed on the first read and kept."""
        return _euler_jacobians(self.model, self.theta, self.grid, self.states, self.increments)

    def path(self, i: int) -> PathBundle:
        noise = NoisePath(self.increments[i], self.master_seed, int(self.path_indices[i]))
        return PathBundle(self.model, self.grid, self.theta, self.states[i], noise)


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
# Euler engine, shared by single-path and block simulation


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
    The diffusion's shape is checked once, at the first step.  NonFiniteState
    names the first step at which a filled state is NaN or infinite.
    """
    times = grid.times
    dt = grid.dt
    starts = np.asarray(from_step)
    first = int(starts.min())
    x = states[..., first, :]
    for k in range(first, grid.steps):
        b = np.asarray(model.drift(x, times[k], theta))
        sig = np.asarray(model.diffusion(x, times[k]))
        if k == first:
            _check_diffusion_shape(model, x, times[k], sig)
        x = x + dt * b + _apply_diffusion(sig, increments[..., k, :])
        if starts.ndim:
            # rows not yet started take their given state into the next step
            np.copyto(states[:, k + 1, :], x, where=(starts <= k)[:, None])
            x = states[:, k + 1, :]
        else:
            states[..., k + 1, :] = x
    # NaN and inf persist under x + dt b + sigma dW, so a row's horizon state
    # shows whether any of its filled states went bad
    if not np.isfinite(states[..., -1, :][starts < grid.steps]).all():
        filled = np.arange(grid.steps + 1) > starts[..., None]
        bad = filled & ~np.isfinite(states).all(axis=-1)
        raise NonFiniteState(int(np.argmax(bad.reshape(-1, grid.steps + 1).any(axis=0))))
    return states


def _euler_states(model: SdeModel, theta: float, x0: np.ndarray, grid: TimeGrid,
                  increments: np.ndarray) -> np.ndarray:
    lead = increments.shape[:-2]
    states = np.empty(lead + (grid.steps + 1, model.state_dim))
    states[..., 0, :] = x0
    return _euler_continue(model, theta, grid, states, increments, 0)


def shared_row(a: np.ndarray, core_ndim: int) -> np.ndarray | None:
    """The one core array every path shares when `a` is a view of it broadcast
    over its leading (path) axes, as shared Jacobians are; None otherwise."""
    lead = a.ndim - core_ndim
    if lead < 1 or any(a.strides[:lead]):
        return None
    return a[(0,) * lead]


def on_grid(fn: Callable, states: np.ndarray, times: np.ndarray, core: tuple,
            *args) -> np.ndarray:
    """fn(states[..., k, :], times[k], *args) at every step k of states, as one
    read-only (..., K) + core array; a view broadcast over the path axes (see
    shared_row) when no value has a path axis.  CoefficientShapeError when a
    value does not broadcast to (...,) + core."""
    rest = (slice(None),) * len(core)
    shared = np.empty(states.shape[-2:-1] + core)
    out = shared
    for k in range(len(shared)):
        value = np.asarray(fn(states[..., k, :], times[k], *args))
        if out is shared and value.ndim > len(core):  # the first value with a path axis
            out = np.empty(states.shape[:-2] + shared.shape)
            out[(..., slice(k)) + rest] = shared[:k]
        try:
            out[(..., k) + rest] = value
        except ValueError as exc:
            raise CoefficientShapeError(f"a coefficient value of shape {value.shape} does "
                                        f"not broadcast to {out[(..., k) + rest].shape}") from exc
    return np.broadcast_to(out, states.shape[:-2] + shared.shape)


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
    is_shared = y is None
    if is_shared:
        y = shared
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
    if is_shared:
        y = np.broadcast_to(y, lead + y.shape)
        z = np.broadcast_to(z, lead + z.shape)
    return JacobianPath(y, z)


def simulate_path(model: SdeModel, theta: float, x0, grid: TimeGrid,
                  noise: NoisePath) -> PathBundle:
    """Run the Euler recursion along one noise path."""
    increments = np.asarray(noise.increments, dtype=float)
    if increments.shape != (grid.steps, model.noise_dim):
        raise ValueError("noise increments do not match grid/model dimensions")
    x0 = np.broadcast_to(np.asarray(x0, dtype=float), (model.state_dim,))
    states = _euler_states(model, theta, x0, grid, increments)
    return PathBundle(model, grid, float(theta), states, noise)


def simulate_paths(model: SdeModel, theta: float, x0, grid: TimeGrid, n_paths: int,
                   master_seed: int, first_index: int = 0) -> PathBatch:
    """Simulate a block of paths with indices first_index .. first_index+n_paths-1."""
    indices = np.arange(first_index, first_index + n_paths)
    increments = _noise_block(master_seed, indices, grid, model.noise_dim)
    x0 = np.broadcast_to(np.asarray(x0, dtype=float), (model.state_dim,))
    states = _euler_states(model, theta, x0, grid, increments)
    return PathBatch(model, grid, float(theta), states, increments, master_seed, indices)


def simulate_blocks(model: SdeModel, theta: float, x0, grid: TimeGrid, n_paths: int,
                    master_seed: int, block_size: int = DEFAULT_BLOCK_SIZE):
    """Paths 0 .. n_paths-1 as simulate_paths blocks of at most block_size rows.

    The arguments are checked at the call; the blocks are simulated one at a
    time as they are drawn, and none is kept here once it has been handed out.
    """
    if n_paths < 2:
        raise ValueError("n_paths must be at least 2")
    if block_size < 1:
        raise ValueError("block_size must be at least 1")
    return (simulate_paths(model, theta, x0, grid, min(block_size, n_paths - first),
                           master_seed, first_index=first)
            for first in range(0, n_paths, block_size))


def resume_path(bundle: PathBundle, from_step: int, new_state_at_step, noise: NoisePath) -> PathBundle:
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
    return PathBundle(model, grid, bundle.theta, states, noise)


# ---------------------------------------------------------------------------
# built-in model library


def _constant_diffusion_matrix(sigma, n: int, d: int) -> np.ndarray:
    sig = np.zeros((n, d))
    np.fill_diagonal(sig, sigma)
    return sig


def ou_model(sigma: float = 1.0, dim: int = 1) -> SdeModel:
    """Ornstein-Uhlenbeck family dX = -theta X dt + sigma dW (diagonal, any dim)."""
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
