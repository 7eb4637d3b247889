"""Measure-splitting (weak-derivative) gradient estimation for Euler chains.

The theta-derivative of the one-step Gaussian transition kernel is a signed
measure; splitting it into its positive and negative parts expresses the
derivative as the difference of two proper transition kernels.  Per
coordinate the parts place the next state at the Gaussian mean shifted up or
down by a Rayleigh-distributed radius, weighted by the drift sensitivity.  A
gradient estimate follows by branching a simulated path at one step (or at
every step), propagating the coupled branch pair to the horizon with common
random numbers, and averaging the weighted difference of the functional
values.  The variance of this branch estimator stays bounded as the horizon
grows, unlike the score-function (likelihood-ratio) baseline, which is also
provided for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    NonDiagonalDiffusion,
    NonFiniteState,
    SingularDiffusion,
    ZeroSensitivity,
)
from .functionals import PathFunctional
from .reports import GradientReport
from .sde import (
    NoisePath,
    PathBatch,
    SdeModel,
    TimeGrid,
    _apply_diffusion,
    _euler_continue,
    _step_jacobian,
    finite_fsum,
    generate_noise,
    on_grid,
    per_path,
    require_finite,
    resume_path,
    simulate_path,
)
from .streams import PATHS_PER_STREAM, TAG_BRANCH, TAG_CHOICE, group_streams, stream

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# bytes of one (N, K, n) temporary of the branch placement pass (_placed_branches)
_PLACE_CHUNK_BYTES = 512 * 2 ** 10

GRADIENT_MODES = ("random-k", "sum-over-k")


@dataclass(frozen=True)
class HjComponent:
    """One coordinate's share of the split transition-kernel derivative."""

    index: int
    weight: float
    sign: float
    rayleigh_scale: float
    mean: float


@dataclass(frozen=True)
class HjDecomposition:
    """Split of the theta-derivative of one Euler transition kernel.

    scale is the total mass of either part (the positive and negative parts
    carry equal mass by construction); per_dimension lists the coordinates
    with nonzero drift sensitivity; mean is the nominal Gaussian mean
    x + dt*b; rayleigh_scales and dtheta_mean keep the per-coordinate
    sigma_i*sqrt(dt) and dt*(db/dtheta)_i for all coordinates.
    """

    scale: float
    per_dimension: tuple[HjComponent, ...]
    mean: np.ndarray
    rayleigh_scales: np.ndarray
    dtheta_mean: np.ndarray


def _diagonal(sig: np.ndarray) -> np.ndarray:
    """Signed diagonal of diffusion matrices (..., n, n); rejects non-diagonal ones."""
    if sig.shape[-2] != sig.shape[-1]:
        raise NonDiagonalDiffusion("kernel splitting needs a square diffusion matrix")
    if np.any((sig - sig * np.eye(sig.shape[-1])) != 0.0):
        raise NonDiagonalDiffusion("kernel splitting implemented for diagonal diffusion only")
    return np.diagonal(sig, axis1=-2, axis2=-1)


def hj_decompose(model: SdeModel, x, t: float, theta: float, dt: float) -> HjDecomposition:
    """Split d/dtheta of the Euler kernel N(x + dt*b, dt*sigma*sigma^T) at (x, t).

    Coordinates with zero drift sensitivity contribute nothing; when all are
    zero the decomposition is returned with scale 0 (the derivative measure
    is null there, so a branch contributes exactly zero and sampling it is an
    error).
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    x = np.asarray(x, dtype=float)
    diag = _diagonal(np.asarray(model.diffusion(x, t), dtype=float))
    b = np.asarray(model.drift(x, t, theta), dtype=float)
    db = np.broadcast_to(np.asarray(model.drift_dtheta(x, t, theta), dtype=float), x.shape)
    mean = x + dt * b
    dtheta_mean = dt * db
    scales = np.abs(diag) * math.sqrt(dt)
    if np.any((scales == 0.0) & (dtheta_mean != 0.0)):
        raise SingularDiffusion("drift sensitivity in a coordinate with zero diffusion")
    components = []
    total = 0.0
    for i in range(model.state_dim):
        if dtheta_mean[i] == 0.0:
            continue
        weight = abs(dtheta_mean[i]) / (scales[i] * _SQRT_2PI)
        components.append(HjComponent(i, weight, math.copysign(1.0, dtheta_mean[i]),
                                      scales[i], mean[i]))
        total += weight
    return HjDecomposition(total, tuple(components), mean, scales, dtheta_mean.copy())


def sample_branch_pair(decomp: HjDecomposition, rng: np.random.Generator):
    """Draw the coupled (positive, negative) branch states.

    One shared Rayleigh radius places the pair at mean +- sign*R in the
    branching coordinate (antithetic placement); the remaining coordinates
    share one set of nominal Gaussian draws.  Returns (x_plus, x_minus).
    """
    if decomp.scale == 0.0:
        raise ZeroSensitivity("no coordinate has drift sensitivity; nothing to branch")
    n = decomp.mean.size
    u = rng.random() if n > 1 else None
    r = rng.rayleigh(1.0)
    z = rng.standard_normal(n) if n > 1 else None
    return _branch_pair_from_draws(decomp, u, r, z)


def _branch_pair_from_draws(decomp: HjDecomposition, u, r, z):
    """(x_plus, x_minus) from one step's draws: the coordinate-choice uniform u,
    the unit Rayleigh radius r and the nominal normals z (u and z are None for
    a scalar state)."""
    n = decomp.mean.size
    if n > 1:
        target = u * decomp.scale
        acc = 0.0
        comp = decomp.per_dimension[-1]
        for cand in decomp.per_dimension:
            acc += cand.weight
            if target < acc:
                comp = cand
                break
    else:
        comp = decomp.per_dimension[0]
    radius = r * comp.rayleigh_scale
    base = decomp.mean + decomp.rayleigh_scales * z if n > 1 else decomp.mean.copy()
    x_plus, x_minus = base.copy(), base
    x_plus[comp.index] = comp.mean + comp.sign * radius
    x_minus[comp.index] = comp.mean - comp.sign * radius
    return x_plus, x_minus


def branch_densities(decomp: HjDecomposition, y):
    """Densities of the positive and negative branch states at points y.

    y has shape (..., n).  Each part is a mixture over the sensitive
    coordinates: the chosen coordinate carries the one-sided Rayleigh-shifted
    density, the others the nominal Gaussian.  Returns (rho_plus, rho_minus),
    each integrating to one when scale > 0.
    """
    y = np.asarray(y, dtype=float)
    lead = y.shape[:-1]
    if decomp.scale == 0.0:
        return np.zeros(lead), np.zeros(lead)
    mu = decomp.mean
    s = decomp.rayleigh_scales
    gauss = np.exp(-((y - mu) ** 2) / (2.0 * s ** 2)) / (s * _SQRT_2PI)
    rho_plus = np.zeros(lead)
    rho_minus = np.zeros(lead)
    for comp in decomp.per_dimension:
        i = comp.index
        dev = comp.sign * (y[..., i] - mu[i])
        lobe = np.abs(dev) / comp.rayleigh_scale ** 2 * np.exp(
            -(dev ** 2) / (2.0 * comp.rayleigh_scale ** 2))
        others = np.prod(np.delete(gauss, i, axis=-1), axis=-1)
        frac = comp.weight / decomp.scale
        rho_plus = rho_plus + frac * np.where(dev >= 0.0, lobe, 0.0) * others
        rho_minus = rho_minus + frac * np.where(dev <= 0.0, lobe, 0.0) * others
    return rho_plus, rho_minus


def signed_density(decomp: HjDecomposition, y) -> np.ndarray:
    """Evaluate scale * (rho_plus - rho_minus) at points y of shape (..., n).

    Reconstructs d/dtheta of the Gaussian Euler transition density at y from
    the two branch densities.
    """
    rho_plus, rho_minus = branch_densities(decomp, y)
    return decomp.scale * (rho_plus - rho_minus)


# ---------------------------------------------------------------------------
# batched decomposition and branch draws (shared by the gradient engines)


class SplitTerms(NamedTuple):
    """The split of the Euler kernel's theta-derivative at states (N, K, n):
    mean and weights are (N, K, n) and total is (N, K); the rest broadcast to
    (N, K, n), as (K, n) where every path shares them."""

    mean: np.ndarray        # nominal mean x + dt*b
    scales: np.ndarray      # Rayleigh scales |sigma_ii| * sqrt(dt)
    weights: np.ndarray     # |dt*db| / (scale * sqrt(2 pi))
    total: np.ndarray       # split scale, the weights' sum; perfbench/tracer.py reads terms[3]
    signs: np.ndarray       # sign(dt*db)
    drift_step: np.ndarray  # dt*b
    diag: np.ndarray        # signed sigma_ii


def _hj_terms_batch(model: SdeModel, x: np.ndarray, t, theta: float, dt: float) -> SplitTerms:
    """The SplitTerms of states x (N, K, n) at the K grid times t, each
    coefficient read once through on_grid (one model call per step, one
    scalar t; CoefficientShapeError for a value that does not broadcast).  A
    diffusion with no path axis is checked for diagonality once, as one
    (K, n, d) array."""
    n, d = model.state_dim, model.noise_dim
    sig = on_grid(model.diffusion, x, t, (n, d))
    b = on_grid(model.drift, x, t, (n,), theta)
    db = on_grid(model.drift_dtheta, x, t, (n,), theta)
    diag = _diagonal(sig)
    scales = np.abs(diag) * math.sqrt(dt)
    drift_step = dt * b
    mean = drift_step + x
    dtheta_mean = dt * db
    del b, db  # free the coefficient values before the weights are formed
    if not scales.all() and np.any((scales == 0.0) & (dtheta_mean != 0.0)):
        raise SingularDiffusion("drift sensitivity in a coordinate with zero diffusion")
    # |dt db| / (scale sqrt(2 pi)), 0 where dt db is; a zero scale meets only
    # a zero numerator here, so it divides as 1.  The weights get the path
    # axis of x even when db has none, so that total is (N, K)
    weights = np.abs(dtheta_mean, out=np.empty(x.shape))
    weights /= np.where(scales == 0.0, 1.0, scales)
    weights /= _SQRT_2PI
    total = np.sum(weights, axis=-1)
    signs = np.sign(dtheta_mean)
    return SplitTerms(mean, scales, weights, total, signs, drift_step, diag)


def _group_branch_draws(rng: np.random.Generator, steps: int, n_dim: int):
    """One group's branch randomness: row i for path i % G, column k for step k.

    Returns (choice uniforms (G, M), unit Rayleigh radii (G, M), nominal
    normals (G, M, n)), drawn in that order from the group's TAG_BRANCH
    stream; a scalar state draws only the radii and gets None for the others.
    """
    shape = (PATHS_PER_STREAM, steps)
    if n_dim == 1:
        return None, rng.rayleigh(1.0, shape), None
    return rng.random(shape), rng.rayleigh(1.0, shape), rng.standard_normal(shape + (n_dim,))


def _branch_draw_block(master_seed: int, path_indices: np.ndarray, steps: int, n_dim: int):
    """(N, M) / (N, M, n) branch randomness of contiguous path indices, one
    rekey per group; row i holds row indices[i] % G of its group's draws."""
    count = len(path_indices)
    r = np.empty((count, steps))
    u = np.empty((count, steps)) if n_dim > 1 else None
    z = np.empty((count, steps, n_dim)) if n_dim > 1 else None
    for rng, rows, part in group_streams(master_seed, path_indices, tag=TAG_BRANCH):
        for out, draws in zip((u, r, z), _group_branch_draws(rng, steps, n_dim)):
            if out is not None:
                out[rows] = draws[part]
    return u, r, z


def _draws_at(draws, rows, step):
    """The (u, r, z) draws of the given block rows at one step or a slice of
    steps; with step None, draws already taken at one step per row get a unit
    step axis."""
    return tuple(None if a is None else a[rows, step] for a in draws)


def _assemble_branch_states(terms: SplitTerms, u, r, z):
    """Vectorized analogue of sample_branch_pair over the (N, K) axes of the
    split terms, with the matching draws u, r (N, K) and z (N, K, n).  Every
    coordinate's candidate pair mean +- sign * (r * scale) is formed, and the
    chosen one kept.  Returns (plus, minus), each (N, K, n)."""
    mean, scales = terms.mean, terms.scales
    plus = r[..., None] * scales
    plus *= terms.signs
    minus = mean - plus
    plus += mean
    n_dim = mean.shape[-1]
    if n_dim > 1:  # the other coordinates take the nominal Gaussian draws
        cum = np.cumsum(terms.weights, axis=-1)
        chosen = np.minimum(np.sum(cum <= (u * terms.total)[..., None], axis=-1), n_dim - 1)
        others = chosen[..., None] != np.arange(n_dim)
        base = scales * z
        base += mean
        np.copyto(plus, base, where=others)
        np.copyto(minus, base, where=others)
    return plus, minus


# ---------------------------------------------------------------------------
# single-branch reference estimator


def hj_single_branch(model: SdeModel, theta: float, x0, grid: TimeGrid, branch_step: int,
                     functional: PathFunctional, master_seed: int, path_index: int) -> float:
    """Branch one simulated path at one step and return the weighted gap.

    Simulates the base path, splits the transition kernel at the branch step
    with the path's branch draws for that step (the ones the batched engines
    use), propagates the coupled pair to the horizon with the path's
    own remaining increments, and returns scale * (C(plus path) - C(minus path)).
    """
    if not 0 <= branch_step < grid.steps:
        raise ValueError("branch_step must lie in [0, steps)")
    noise = generate_noise(master_seed, path_index, grid, model.noise_dim)
    bundle = simulate_path(model, theta, x0, grid, noise)
    decomp = hj_decompose(model, bundle.states[branch_step], grid.times[branch_step],
                          theta, grid.dt)
    if decomp.scale == 0.0:
        return 0.0
    group, row = divmod(path_index, PATHS_PER_STREAM)
    draws = _group_branch_draws(stream(master_seed, group, tag=TAG_BRANCH), grid.steps,
                                model.state_dim)
    x_plus, x_minus = _branch_pair_from_draws(decomp, *_draws_at(draws, row, branch_step))
    diag = _diagonal(np.asarray(model.diffusion(bundle.states[branch_step],
                                                grid.times[branch_step]), dtype=float))
    values = []
    for x_new in (x_plus, x_minus):
        # record the increment the Euler step would have needed to reach the
        # branch state, keeping the branch bundle a consistent state/noise pair
        resid = x_new - decomp.mean
        with np.errstate(invalid="ignore", divide="ignore"):
            implied = np.where(diag != 0.0, resid / np.where(diag == 0.0, 1.0, diag), 0.0)
        increments = noise.increments.copy()
        increments[branch_step] = implied
        branch = resume_path(bundle, branch_step + 1, x_new,
                             NoisePath(increments, master_seed, path_index))
        values.append(float(np.asarray(functional.value(branch))))
    return decomp.scale * (values[0] - values[1])


# ---------------------------------------------------------------------------
# aggregated gradient estimators
#
# Each engine branches one simulated block of base paths and returns the
# block's per-path estimates and each row's sum of |gap| over its branches.
# A functional may return (N,) values or (N, m) columns; every column gets
# the bits a scalar run of it would.


def _per_row(v: np.ndarray, like: np.ndarray) -> np.ndarray:
    """v with trailing unit axes so that it broadcasts over the columns of like."""
    return v.reshape(v.shape + (1,) * (like.ndim - v.ndim))


def _step_sum(scale_k: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """Sum of scale_k * gaps over the step axis 1, one contiguous row per column."""
    weighted = np.moveaxis(_per_row(scale_k, gaps) * gaps, 1, -1)
    return np.sum(np.ascontiguousarray(weighted), axis=-1)


def _row_abs_sums(gaps: np.ndarray) -> np.ndarray:
    """Sum of |gaps| over all but the path axis 0, one contiguous row per path."""
    return np.sum(np.ascontiguousarray(np.abs(gaps).reshape(len(gaps), -1)), axis=-1)


def _placed_branches(batch: PathBatch):
    """The branch pair of every path at every step, as placed: entry [:, k] of
    the (N, M, n) arrays (plus, minus) is the pair split off at step k, at
    time k+1.  Returns (plus, minus, per-step scales (N, M)).

    The steps are taken in chunks whose (N, K, n) temporaries stay within
    _PLACE_CHUNK_BYTES each: a few numpy calls per chunk, not per step, at a
    peak memory that does not grow with the block.
    """
    model, grid, theta = batch.model, batch.grid, batch.theta
    steps = grid.steps
    n_dim = model.state_dim
    count = batch.n_paths
    draws = _branch_draw_block(batch.master_seed, batch.path_indices, steps, n_dim)
    plus = np.empty((count, steps, n_dim))
    minus = np.empty((count, steps, n_dim))
    scale_k = np.empty((count, steps))
    chunk = max(_PLACE_CHUNK_BYTES // (8 * count * n_dim), 1)
    for start in range(0, steps, chunk):
        at = slice(start, min(start + chunk, steps))
        terms = _hj_terms_batch(model, batch.states[:, at], grid.times[at], theta, grid.dt)
        plus[:, at], minus[:, at] = _assemble_branch_states(
            terms, *_draws_at(draws, slice(None), at))
        scale_k[:, at] = terms.total
        del terms  # two chunks of terms alive at once would raise the peak memory
    return plus, minus, scale_k


def _require_finite_branches(plus: np.ndarray, minus: np.ndarray, steps: int) -> None:
    # a non-finite state stays non-finite under Euler, so the horizon shows it
    if not (np.isfinite(plus).all() and np.isfinite(minus).all()):
        raise NonFiniteState(steps)


def _all_steps_branches(batch: PathBatch, before_step=None):
    """Branch every path at every step and carry all branch copies to the horizon.

    All live copies advance together under the base path's increments, so
    one (N, M, n) array per side holds every branch's current state; entry
    [:, k] is the branch taken at step k.  before_step(j, plus, minus), when
    given, sees the live copies [:, :j] at time j before they take step j.
    Returns the horizon states (plus, minus) and the per-step scales (N, M).
    """
    model, grid, theta = batch.model, batch.grid, batch.theta
    steps = grid.steps
    dt = grid.dt
    times = grid.times
    plus, minus, scale_k = _placed_branches(batch)
    for j in range(1, steps):
        if before_step is not None:
            before_step(j, plus[:, :j], minus[:, :j])
        dw = batch.increments[:, None, j, :]
        for side in (plus, minus):
            # an Euler step in place; the unnamed drift result is a
            # temporary that numpy scales by dt in place, so each side
            # holds one (N, j, n) array at a time
            x = side[:, :j]
            sig = np.asarray(model.diffusion(x, times[j]))
            x += dt * np.asarray(model.drift(x, times[j], theta))
            x += _apply_diffusion(sig, dw)
    _require_finite_branches(plus, minus, steps)
    return plus, minus, scale_k


def _affine_propagators(batch: PathBatch):
    """(M-1, n, n) products P[k] = (I + dt B_{M-1}) ... (I + dt B_{k+1}) when
    every Euler step from step 1 on is affine in the state under common noise
    (sde._step_jacobian, with B_j = drift_dx); None at the first step that is
    not.  The difference of two such chains takes the step factor I + dt B_j
    at each step, so P[k] carries a difference at time k+1 to the horizon."""
    model, grid = batch.model, batch.grid
    eye = np.eye(model.state_dim)
    props = np.empty((grid.steps - 1,) + eye.shape)
    prop = eye
    for j in range(grid.steps - 1, 0, -1):
        jb, _, shared = _step_jacobian(model, batch.theta, batch.states[:, j], grid.times[j])
        if not shared:
            return None
        prop = props[j - 1] = prop @ (grid.dt * jb + eye)
    return props


def _affine_branches(batch: PathBatch, props: np.ndarray):
    """_all_steps_branches for a model whose steps are affine in the state:
    the branch placed at time k+1 < M reaches the horizon at
    X_M + P[k] (x_branch - X_{k+1}), so no branch copy takes an Euler step."""
    plus, minus, scale_k = _placed_branches(batch)
    for side in (plus, minus):
        carried = side[:, :-1]  # the branches of the last step are placed at the horizon
        carried -= batch.states[:, 1:-1]
        carried[:] = np.matmul(props, carried[..., None])[..., 0]
        carried += batch.states[:, -1:]
    _require_finite_branches(plus, minus, batch.grid.steps)
    return plus, minus, scale_k


def _terminal_sum_over_k(batch: PathBatch, functional: PathFunctional):
    """All-steps engine for terminal-state functionals: the gap of each branch
    is the terminal value gap of its copies at the horizon.  On a model whose
    steps are affine in the state the copies get there by one product each,
    O(N M n^2) work, and otherwise by Euler, O(N M^2)."""
    props = _affine_propagators(batch)
    if props is None:
        plus, minus, scale_k = _all_steps_branches(batch)
    else:
        plus, minus, scale_k = _affine_branches(batch, props)
    gaps = (np.asarray(functional.terminal_value(plus))
            - np.asarray(functional.terminal_value(minus)))
    return _step_sum(scale_k, gaps), _row_abs_sums(gaps)


def _integral_sum_over_k(batch: PathBatch, functional: PathFunctional):
    """All-steps engine for left-point step-sum functionals.

    The shared prefix of each branch pair cancels in the value gap, so only
    per-step differences of step_value accumulate while the copies advance.
    """
    h = functional.step_value
    dt = batch.grid.dt
    gap_acc = np.zeros(np.shape(h(batch.states[:, :batch.grid.steps])))  # (N, M) or (N, M, m)

    def accumulate(j, live_plus, live_minus):
        gap_acc[:, :j] += dt * (np.asarray(h(live_plus)) - np.asarray(h(live_minus)))

    _, _, scale_k = _all_steps_branches(batch, accumulate)
    return _step_sum(scale_k, gap_acc), _row_abs_sums(gap_acc)


def _step_pair(batch: PathBatch, rows, k: int, draws):
    """The branch pair split off the given block rows at step k, with draws
    their (u, r, z) at that step as (R, 1[, n]) arrays: (per-row split scale,
    [(plus states, increments), (minus states, increments)]).

    The split is that of the one-step slice states[rows, k:k+1], and its
    terms give both sides' increments with no model call of their own.  A
    side's increment is the one its Euler step from X_k would have needed to
    reach its branch state, (x_new - X_k - dt*b) / sigma_ii, and 0 where
    sigma_ii is 0; it keeps a branched row a consistent state/noise pair.  A
    row with zero split scale has every sign 0, so its two sides coincide and
    its gap is 0.
    """
    grid = batch.grid
    x = batch.states[rows, k:k + 1]
    terms = _hj_terms_batch(batch.model, x, grid.times[k:k + 1], batch.theta, grid.dt)
    divisor = np.where(terms.diag == 0.0, 1.0, terms.diag)
    with np.errstate(invalid="ignore", divide="ignore"):
        return terms.total[:, 0], [
            (y[:, 0], np.where(terms.diag != 0.0, (y - x - terms.drift_step) / divisor, 0.0)[:, 0])
            for y in _assemble_branch_states(terms, *draws)]


def _branch_batch(base: PathBatch, starts: np.ndarray, new_states: np.ndarray,
                  new_increments: np.ndarray) -> PathBatch:
    """The block with row i branched at step starts[i]: its increment there
    becomes new_increments[i] and its state at starts[i] + 1 new_states[i]
    (a side of _step_pair), and it runs on by Euler from there.  One Euler
    pass covers the whole block; its Jacobians take one more pass, on the
    first read of the result's jacobians.
    """
    rows = np.arange(base.n_paths)
    states = base.states.copy()
    increments = base.increments.copy()
    states[rows, starts + 1] = new_states
    increments[rows, starts] = new_increments
    _euler_continue(base.model, base.theta, base.grid, states, increments, starts + 1)
    return PathBatch(base.model, base.grid, base.theta, states, increments, base.master_seed,
                     base.path_indices)


def _restarted_gaps(batch: PathBatch, functional: PathFunctional, starts: np.ndarray, draws):
    """(per-row split scale, value gap) of the branch pair split off each row
    i at step starts[i], with draws the rows' (u, r, z) at their steps.  The
    pairs are formed step group by step group (_step_pair); each side then
    restarts over the whole block in one pass (_branch_batch), and is valued
    and freed before the next, so the restarts add one block copy to the peak
    memory."""
    count = batch.n_paths
    total = np.empty(count)
    sides = np.empty((2, 2, count, batch.model.state_dim))  # (plus, minus) x (state, increment)
    for k in np.unique(starts):
        rows = np.nonzero(starts == k)[0]
        total[rows], sides[:, :, rows] = _step_pair(batch, rows, k, _draws_at(draws, rows, None))
    plus, minus = [np.asarray(functional.value(_branch_batch(batch, starts, *side)))
                   for side in sides]
    return total, plus - minus


def _grouped_random_k(batch: PathBatch, functional: PathFunctional):
    """One branch per path at a uniformly drawn step.

    A row with zero split scale at its branch step gets the coinciding pair,
    as in the sum-over-k engines, so its estimate and gap are exact +0.0.
    """
    steps = batch.grid.steps
    count = batch.n_paths
    ks = np.empty(count, dtype=np.intp)
    for rng, rows, part in group_streams(batch.master_seed, batch.path_indices, tag=TAG_CHOICE):
        ks[rows] = rng.integers(0, steps, PATHS_PER_STREAM)[part]
    # each row's draws at its branch step; the (N, M) draws are freed here
    draws = _draws_at(_branch_draw_block(batch.master_seed, batch.path_indices, steps,
                                         batch.model.state_dim), np.arange(count), ks)
    total, gaps = _restarted_gaps(batch, functional, ks, draws)
    return _per_row(steps * total, gaps) * gaps, _row_abs_sums(gaps)


def _generic_sum_over_k(batch: PathBatch, functional: PathFunctional):
    """Branch at every step with full branch re-propagation (any functional)."""
    block_vals = 0.0
    gap_rows = np.zeros(batch.n_paths)
    draws = _branch_draw_block(batch.master_seed, batch.path_indices, batch.grid.steps,
                               batch.model.state_dim)
    for k in range(batch.grid.steps):
        total, gaps = _restarted_gaps(batch, functional, np.full(batch.n_paths, k),
                                      _draws_at(draws, slice(None), k))
        block_vals = block_vals + _per_row(total, gaps) * gaps
        gap_rows += _row_abs_sums(gaps)
    return block_vals, gap_rows


def _hj_values(batch: PathBatch, functional: PathFunctional, mode: str):
    """Per-path branch estimates on one simulated block (mean-one-unbiased for
    d/dtheta E[C]), with the block's per-row |gap| sums."""
    if mode == "random-k":
        return _grouped_random_k(batch, functional)
    if functional.terminal_value is not None:
        return _terminal_sum_over_k(batch, functional)
    if functional.step_value is not None:
        return _integral_sum_over_k(batch, functional)
    return _generic_sum_over_k(batch, functional)


def _mean_branch_gap(values: np.ndarray, gap_rows: np.ndarray, mode: str, steps: int) -> float:
    """The mean |gap| over all branches behind the per-path values of _hj_values
    and their per-row |gap| sums: one branch per path and column in random-k,
    one per step in sum-over-k."""
    return finite_fsum(gap_rows) / (values.size * (1 if mode == "random-k" else steps))


def _column_moments(columns: np.ndarray):
    """(estimate, std_error, variance) arrays of the per-path values in each
    row of columns (m, N); NonFiniteEstimate when any of them is not finite."""
    n_paths = columns.shape[1]
    columns = [np.ascontiguousarray(c) for c in columns]
    estimate = np.array([finite_fsum(c) / n_paths for c in columns])
    with np.errstate(over="ignore"):
        variance = np.array([c.var(ddof=1) for c in columns])
    require_finite("the variance of the per-path values", variance)
    return estimate, np.sqrt(variance / n_paths), variance


def _gradient_report(values: np.ndarray, master_seed: int, mode: str,
                     branch_stats: float | None) -> GradientReport:
    """The report of per-path values (N,) or (N, m): plain floats for a scalar
    functional, (m,) arrays with each column as its own scalar run otherwise."""
    n_paths = len(values)
    estimate, std_error, variance = _column_moments(values.reshape(n_paths, -1).T)
    if values.ndim == 1:
        estimate, std_error, variance = (float(v[0]) for v in (estimate, std_error, variance))
    return GradientReport(estimate=estimate, std_error=std_error, n_paths=n_paths,
                          master_seed=master_seed, variance=variance, mode=mode,
                          branch_stats=branch_stats)


def hj_gradient(model: SdeModel, theta: float, x0, grid: TimeGrid,
                functional: PathFunctional, n_paths: int, mode: str = "random-k",
                master_seed: int = 0) -> GradientReport:
    """Estimate d/dtheta E[C(X)] by kernel splitting with coupled branches.

    mode 'random-k' branches each path once at a uniform step and scales the
    gap by the number of steps; 'sum-over-k' branches at every step of every
    path and sums, which costs more per path but its variance stays bounded
    as the horizon grows.  A functional with (N, m) values gets (m,) arrays
    for estimate, std_error and variance, each column as its own scalar run.
    """
    if mode not in GRADIENT_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    values, gap_rows = per_path(model, theta, x0, grid, n_paths, master_seed,
                                lambda batch: _hj_values(batch, functional, mode))
    return _gradient_report(values, master_seed, mode,
                            _mean_branch_gap(values, gap_rows, mode, grid.steps))


# ---------------------------------------------------------------------------
# score-function (likelihood-ratio) baseline


def score_function_gradient(model: SdeModel, theta: float, x0, grid: TimeGrid,
                            functional: PathFunctional, n_paths: int,
                            master_seed: int = 0) -> GradientReport:
    """Likelihood-ratio gradient: mean of C(path) times the path's score.

    The score accumulates (dt db/dtheta)^T (dt Sigma)^{-1} (X_{k+1}-X_k-dt b)
    over the steps; its variance grows with the horizon.  A functional with
    (N, m) values gets (m,) arrays, each column as its own scalar run.
    """
    dt = grid.dt
    n, d = model.state_dim, model.noise_dim

    def terms(batch):
        x_left = batch.states[:, :grid.steps, :]
        b = on_grid(model.drift, x_left, grid.times, (n,), theta)
        db = on_grid(model.drift_dtheta, x_left, grid.times, (n,), theta)
        resid = batch.states[:, 1:, :] - x_left - dt * b
        sig = on_grid(model.diffusion, x_left, grid.times, (n, d))
        if n == 1 and d == 1:
            var = dt * sig[..., 0, 0] ** 2
            if np.any(var == 0.0):
                raise SingularDiffusion("zero diffusion makes the transition degenerate")
            score = np.sum(dt * db[..., 0] * resid[..., 0] / var, axis=-1)
        else:
            cov = dt * (sig @ np.swapaxes(sig, -2, -1))
            try:
                solved = np.linalg.solve(cov, resid[..., None])[..., 0]
            except np.linalg.LinAlgError as exc:
                raise SingularDiffusion(f"transition covariance not invertible: {exc}") from exc
            score = np.sum(dt * db * solved, axis=(-2, -1))
        values = np.asarray(functional.value(batch))
        return (_per_row(score, values) * values,)

    (values,) = per_path(model, theta, x0, grid, n_paths, master_seed, terms)
    return _gradient_report(values, master_seed, "score-function", None)
