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

Which route a block's branches take follows from the model, the weight and
the functional, with no option to set (_hj_values):

- a functional with a probe (PathFunctional.probe) on a model whose Euler
  steps are affine in the state with shared factors (OU, mean-reverting):
  each branch copy is carried to the probe steps by step-factor products,
  X'_p = X_p + P_{k+1->p} (x_branch - X_{k+1}), and a weight's Ito sum by
  its one changed increment, in O(1) per branch for a fixed state size.
  Both modes take it: sum-over-k carries every step's pair a chunk at a
  time, random-k one pair per row.  The quotient integrand of the
  conditional-loss gradient has a probe when its canonical weight and the
  loss's derivative rows have no path axis;
- on any other model, sum-over-k carries the copies of a probe that reads
  the horizon alone, with no weight, by Euler to the horizon, and those of
  a step_value functional by Euler with its step sum;
- everything else, in either mode (a value-only functional, a weight with
  a path axis, a non-affine model in random-k), restarts each branch as a
  whole path and values it: random-k in one restart per side, sum-over-k
  in one per side and step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import (
    NonDiagonalDiffusion,
    NonFiniteState,
    SingularDiffusion,
    ZeroSensitivity,
)
from .functionals import PathFunctional, Probe, _grid_probe
from .malliavin import WeightProcess, skorohod_integral
from .reports import GradientReport
from .sde import (
    NoisePath,
    PathBatch,
    SdeModel,
    TimeGrid,
    _apply_diffusion,
    _euler_continue,
    _grid_step,
    _may_share,
    _step_jacobian,
    call_shared,
    chunk_len,
    finite_fsum,
    generate_noise,
    on_grid,
    on_steps,
    per_path,
    require_finite,
    resume_path,
    simulate_path,
)
from .streams import PATHS_PER_STREAM, TAG_BRANCH, TAG_CHOICE, group_streams, stream

_SQRT_2PI = math.sqrt(2.0 * math.pi)

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


def _hj_terms_batch(model: SdeModel, x: np.ndarray, t, theta: float, dt: float,
                    steps: np.ndarray | None = None) -> SplitTerms:
    """The SplitTerms of states x (N, K, n) at the K grid times t, each
    coefficient read once through on_grid (one model call per step, one
    scalar t; CoefficientShapeError for a value that does not broadcast).  A
    diffusion with no path axis is checked for diagonality once, as one
    (K, n, d) array.  Given per-row grid steps (N,), x is (N, 1, n) with row
    i at time t[steps[i]], and each coefficient is read once per distinct
    step, over the rows at that step (sde.on_steps)."""
    n, d = model.state_dim, model.noise_dim

    def read(fn, core, *args):
        if steps is None:
            return on_grid(fn, x, t, core, *args)
        return on_steps(fn, x[:, 0], steps, t, core, *args)[:, None]

    sig = read(model.diffusion, (n, d))
    b = read(model.drift, (n,), theta)
    db = read(model.drift_dtheta, (n,), theta)
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
    branch_step = _grid_step("branch_step", branch_step, grid.steps - 1)
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


def _row_abs_sums(gaps: np.ndarray) -> np.ndarray:
    """Sum of |gaps| over all but the path axis 0, one contiguous row per path."""
    return np.sum(np.ascontiguousarray(np.abs(gaps).reshape(len(gaps), -1)), axis=-1)


def _over_diagonal(resid: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """sigma^{-1} resid for a diagonal sigma, resid / sigma_ii, and 0 where
    sigma_ii is 0: the increment that absorbs a change of an Euler step."""
    divisor = np.where(diag == 0.0, 1.0, diag)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(diag != 0.0, resid / divisor, 0.0)


def _side_increments(terms: SplitTerms, x: np.ndarray, side: np.ndarray) -> np.ndarray:
    """The increment the Euler step from states x would have needed to reach
    the branch states side, (side - x - dt*b) / sigma_ii by _over_diagonal:
    it keeps a branched path a consistent state/noise pair."""
    return _over_diagonal(side - x - terms.drift_step, terms.diag)


def _placed_chunks(batch: PathBatch, increments: bool = False):
    """The branch pair of every path at every step, as placed, a chunk of K
    steps at a time: yields (steps, plus, minus, scales), entry [:, j] of the
    (N, K, n) plus and minus the pair split off at step steps.start + j, one
    step later, and scales (N, K) their split scales; with increments, the
    (N, K, d) increments of plus and of minus at their step follow
    (_side_increments).  A chunk's temporaries stay within sde.CHUNK_BYTES
    each, so the peak does not grow with the block."""
    model, grid, theta = batch.model, batch.grid, batch.theta
    n_dim = model.state_dim
    draws = _branch_draw_block(batch.master_seed, batch.path_indices, grid.steps, n_dim)
    chunk = chunk_len(8 * batch.n_paths * n_dim)
    for start in range(0, grid.steps, chunk):
        at = slice(start, min(start + chunk, grid.steps))
        x = batch.states[:, at]
        terms = _hj_terms_batch(model, x, grid.times[at], theta, grid.dt)
        pair = _assemble_branch_states(terms, *_draws_at(draws, slice(None), at))
        if increments:
            pair += tuple(_side_increments(terms, x, side) for side in pair)
        total = terms.total
        del terms  # two chunks of terms alive at once would raise the peak memory
        yield (at, *pair[:2], total, *pair[2:])
        del pair, total  # the caller frees its own before the next chunk


def _affine_propagators(batch: PathBatch, steps: tuple):
    """For each probe step p of steps, the (max(p - 1, 0), n, n) products
    P[k] = (I + dt B_{p-1}) ... (I + dt B_{k+1}) when every Euler step from
    step 1 to the last probe is affine in the state under common noise
    (sde._step_jacobian, with B_j = drift_dx); None at the first step, from
    the last one down, that is not.  The difference of two such chains takes
    the step factor I + dt B_j at each step, so P[k] carries a difference at
    time k+1 to time p.  Each step factor is read once, and the products are
    built once per estimator call, theta and steps (call_shared), None by
    every block."""
    model, grid, steps = batch.model, batch.grid, tuple(steps)

    def build():
        eye = np.eye(model.state_dim)
        factors = np.empty((max(steps, default=0),) + eye.shape)  # factors[j] = I + dt B_j
        for j in range(len(factors) - 1, 0, -1):
            jb, _, shared = _step_jacobian(model, batch.theta, batch.states[:, j], grid.times[j])
            if not shared:
                return None
            factors[j] = grid.dt * jb + eye
        products = []
        for p in steps:
            props = np.empty((max(p - 1, 0),) + eye.shape)
            prop = eye
            for j in range(p - 1, 0, -1):
                prop = props[j - 1] = prop @ factors[j]
            products.append(props)
        return tuple(products)

    return call_shared(batch, ("propagators", steps), model, build,
                       lambda props: props is not None)


def _carry(delta: np.ndarray, prop: np.ndarray, x_p: np.ndarray) -> np.ndarray:
    """x_p + prop delta, in delta's memory: for n = 1 by one multiply, several
    times faster than a 1x1 matmul and with its bits but for a zero's sign,
    which adding x_p drops unless x_p is -0.0."""
    if delta.shape[-1] == 1:
        delta *= prop[..., 0]
    else:
        delta[:] = np.matmul(prop, delta[..., None])[..., 0]
    delta += x_p
    return delta


def _at_probes(states: np.ndarray, props, steps, ks, side: np.ndarray) -> np.ndarray:
    """States at the probe steps of branch copies placed at time k + 1: of a
    chunk's copies side (N, K, n), with ks the slice of their K steps, as
    (N, K, P, n); or of one copy per row, side (N, n) with ks (N,) its steps,
    as (N, P, n).  A copy reaches a probe p > k + 1 at X_p + P[k] (side -
    X_{k+1}) (_affine_propagators' products props), is there at p = k + 1,
    and leaves X_p as it is for p <= k."""
    out = np.empty(side.shape[:-1] + (len(steps),) + side.shape[-1:])
    for i, (p, prop) in enumerate(zip(steps, props)):
        dest = out[..., i, :]
        x_p = states[:, p]
        if isinstance(ks, slice):  # copies [0, c) carried, copy c placed at p if c < K
            start, c = ks.start, min(max(p - 1 - ks.start, 0), side.shape[1])
            _carry(np.subtract(side[:, :c], states[:, start + 1:start + 1 + c], out=dest[:, :c]),
                   prop[start:start + c], x_p[:, None])
            dest[:, c:] = x_p[:, None]
            if c < side.shape[1] and start + c + 1 == p:
                dest[:, c] = side[:, c]
        else:
            dest[:] = x_p
            np.copyto(dest, side, where=(ks + 1 == p)[:, None])
            live = np.flatnonzero(ks + 1 < p)
            dest[live] = _carry(side[live] - states[live, ks[live] + 1], prop[ks[live]],
                                x_p[live])
    bad = ~np.isfinite(out).all(axis=tuple(range(out.ndim - 2)) + (-1,))
    if bad.any():
        raise NonFiniteState(steps[int(np.argmax(bad))])
    return out


def _probe_args(batch: PathBatch, probe: Probe, props, ks, sides, base_ito):
    """Per side, the arguments of probe.value for the branch copies of sides,
    a list of (states, increments) as _placed_chunks or _step_pair give them,
    at the steps ks (a chunk's slice or per-row steps, _at_probes): the
    states at the probe steps and, with a weight, the Ito sums base_ito (N,)
    of the base paths with each copy's increment at its step swapped in."""
    args = []
    for states, increments in sides:
        x = _at_probes(batch.states, props, probe.steps, ks, states)
        if probe.weight is None:
            args.append((x,))
            continue
        rows = slice(None) if isinstance(ks, slice) else np.arange(len(ks))
        swapped = increments - batch.increments[rows, ks]
        ito = base_ito[:, None] if isinstance(ks, slice) else base_ito
        args.append((x, ito + np.sum(probe.weight[ks] * swapped, axis=-1)))
    return args


def _ito_sums(batch: PathBatch, probe: Probe):
    """Per row, the Ito sum of the probe's weight along the block's
    increments (malliavin.skorohod_integral); None without a weight."""
    if probe.weight is None:
        return None
    return skorohod_integral(WeightProcess(probe.weight), batch)


def _carried_chunks(batch: PathBatch, probe: Probe | None = None, props=None,
                    step_value=None):
    """_placed_chunks with each chunk's branch copies carried on: yields
    (steps, plus, minus, scales) with plus and minus the tuples of
    probe.value's arguments for the copies, or, given a step_value h,
    (steps, gaps, scales) with gaps (N, K) or (N, K, m) each pair's sum of
    dt (h(plus) - h(minus)) over its copies' left points (the shared prefix
    of a pair cancels).

    With props, the probe's products (_affine_propagators), each copy gets
    to the probe steps by them (_at_probes), O(P n^2) work per branch, with
    the Ito sum of the probe's weight, if any, updated by the copy's one new
    increment.  Otherwise a chunk's copies advance together by Euler, in
    place under the base path's increments, copy k from step k+1 on, O(M)
    steps per branch, to the horizon, the one probe step such a probe may
    read.  NonFiniteState when a copy is not finite at a probe step or the
    horizon."""
    model, theta = batch.model, batch.theta
    steps, dt, times = batch.grid.steps, batch.grid.dt, batch.grid.times
    base_ito = None if props is None else _ito_sums(batch, probe)
    for at, plus, minus, scales, *increments in _placed_chunks(batch, base_ito is not None):
        if props is not None:
            sides = list(zip((plus, minus), increments or (None, None)))
            del plus, minus, increments
            yield (at, *_probe_args(batch, probe, props, at, sides, base_ito), scales)
            del sides, scales  # the caller frees its own before the next chunk
            continue
        # gaps of every column step_value gives; h of no state tells how many
        gaps = None if step_value is None else np.zeros(
            plus.shape[:2] + np.shape(step_value(plus[:, :0]))[2:])
        for j in range(at.start + 1, steps):
            live = slice(j - at.start)  # the copies placed at time j or before
            if gaps is not None:
                gaps[:, live] += dt * (np.asarray(step_value(plus[:, live]))
                                       - np.asarray(step_value(minus[:, live])))
            dw = batch.increments[:, None, j, :]
            for side in (plus, minus):
                # an Euler step in place; numpy scales the unnamed drift
                # result by dt in place, so a side holds one temporary
                x = side[:, live]
                sig = np.asarray(model.diffusion(x, times[j]))
                x += dt * np.asarray(model.drift(x, times[j], theta))
                x += _apply_diffusion(sig, dw)
        # a non-finite state stays non-finite under Euler, so the horizon shows it
        if not (np.isfinite(plus).all() and np.isfinite(minus).all()):
            raise NonFiniteState(steps)
        yield (at, (plus[:, :, None],), (minus[:, :, None],), scales) if gaps is None else (
            at, gaps, scales)
        del plus, minus, scales, gaps  # the caller frees its own before the next chunk


def _summed_over_k(batch: PathBatch, chunks, gap_of):
    """Per row, the sum over k of scale_k * gap_k and the sum of |gap_k|,
    from chunks (steps, *carried, scales) of _carried_chunks whose gaps,
    (N, K) or (N, K, m), are gap_of(*carried).  scale * gap and |gap| are
    laid out (N, m, M) and (N, M*m), so that each sum runs along one
    contiguous row, in the order of a whole-block sum of that layout."""
    count, steps = batch.n_paths, batch.grid.steps
    weighted = abs_gaps = None
    for at, *carried, scales in chunks:
        gaps = gap_of(*carried)
        del carried
        if weighted is None:
            weighted = np.empty((count,) + gaps.shape[2:] + (steps,))
            abs_gaps = np.empty((count, steps) + gaps.shape[2:])
        np.multiply(_per_row(scales, gaps), gaps, out=np.moveaxis(weighted, -1, 1)[:, at])
        np.abs(gaps, out=abs_gaps[:, at])
        del scales, gaps
    return np.sum(weighted, axis=-1), np.sum(abs_gaps.reshape(count, -1), axis=-1)


def _probe_gaps(probe: Probe, plus, minus) -> np.ndarray:
    """probe.value's gap between the argument tuples of a pair's two sides."""
    return np.asarray(probe.value(*plus)) - np.asarray(probe.value(*minus))


def _terminal_sum_over_k(batch: PathBatch, probe: Probe, props):
    """All-steps engine for functionals with a probe: the gap of each branch
    is the probe value gap of its copies at the probe steps, reached by the
    products props or, for a probe of the horizon alone (a terminal
    functional, the one-probe case), by Euler."""
    return _summed_over_k(batch, _carried_chunks(batch, probe, props),
                          lambda plus, minus: _probe_gaps(probe, plus, minus))


def _integral_sum_over_k(batch: PathBatch, functional: PathFunctional):
    """All-steps engine for left-point step-sum functionals: the gap of each
    branch accumulates while its copies advance."""
    return _summed_over_k(batch, _carried_chunks(batch, step_value=functional.step_value),
                          lambda gaps: gaps)


def _step_pair(batch: PathBatch, ks: np.ndarray, draws):
    """The branch pair split off each row i of the block at step ks[i], with
    draws their (u, r, z) at those steps as (N, 1[, n]) arrays: (per-row
    split scale, [(plus states, increments), (minus states, increments)]).

    The split is one pass over the rows (_hj_terms_batch), which reads each
    coefficient once per distinct step, and its terms give both sides'
    increments with no model call of their own (_side_increments).  A row
    with zero split scale has every sign 0, so its two sides coincide and
    its gap is 0.
    """
    grid = batch.grid
    x = batch.states[np.arange(batch.n_paths), ks][:, None]
    terms = _hj_terms_batch(batch.model, x, grid.times, batch.theta, grid.dt, ks)
    return terms.total[:, 0], [(y[:, 0], _side_increments(terms, x, y)[:, 0])
                               for y in _assemble_branch_states(terms, *draws)]


def _branch_batch(base: PathBatch, starts, new_states: np.ndarray,
                  new_increments: np.ndarray, out: PathBatch | None = None) -> PathBatch:
    """The block with each row branched at its start, one step for every
    row or an (N,) array of per-row steps: row i's increment there becomes
    new_increments[i] and its state one step later new_states[i] (a side of
    _step_pair or of a _placed_chunks step), and it runs on by Euler from
    there, in copies of base's arrays or in those of out, a block of base's
    shape.  One Euler pass covers the whole block; its Jacobians take one
    more pass, on the first read of the result's jacobians.
    """
    if out is None:
        states, increments = base.states.copy(), base.increments.copy()
    else:
        states, increments = out.states, out.increments
        np.copyto(states, base.states)
        np.copyto(increments, base.increments)
    rows = np.arange(base.n_paths)
    states[rows, starts + 1] = new_states
    increments[rows, starts] = new_increments
    _euler_continue(base.model, base.theta, base.grid, states, increments, starts + 1)
    return PathBatch(base.model, base.grid, base.theta, states, increments, base.master_seed,
                     base.path_indices)


def _restarted_gaps(batch: PathBatch, functional: PathFunctional, starts, sides):
    """The value gap of the branch pair split off each row at starts, one
    step for every row or one per row, with sides its [(plus states,
    increments), (minus states, increments)] (_step_pair, or a _placed_chunks
    step).  Each side restarts over the whole block in one pass
    (_branch_batch) and is valued, the minus side in the plus side's arrays
    with the base block copied back, so the restarts add one block copy to
    the peak memory.  A value that may share memory with those arrays is
    copied first."""
    values, out = [], None
    for side in sides:
        branch = _branch_batch(batch, starts, *side, out=out)
        out = out or replace(branch)  # its arrays, without what branch keeps
        value = np.asarray(functional.value(branch))
        values.append(np.array(value) if _may_share(value, out) else value)
        del branch  # with what it kept, such as per-row Jacobians
    return values[0] - values[1]


def _grouped_random_k(batch: PathBatch, functional: PathFunctional, probe: Probe | None,
                      props):
    """One branch per path at a uniformly drawn step: one split pass over
    the rows (_step_pair), then, given a probe with its products props, the
    copies carried to its steps (_at_probes, one copy per row), else both
    sides restarted (_restarted_gaps).

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
    total, sides = _step_pair(batch, ks, _draws_at(draws, slice(None), None))
    if props is None:
        gaps = _restarted_gaps(batch, functional, ks, sides)
    else:
        gaps = _probe_gaps(probe, *_probe_args(batch, probe, props, ks, sides,
                                               _ito_sums(batch, probe)))
    return _per_row(steps * total, gaps) * gaps, _row_abs_sums(gaps)


def _generic_sum_over_k(batch: PathBatch, functional: PathFunctional):
    """Branch at every step with full branch re-propagation (any functional):
    each step's pairs, as the placement pass gives them (_placed_chunks),
    restart from that step (_restarted_gaps), and their scaled gaps and
    |gaps| are summed step by step."""
    block_vals = 0.0
    gap_rows = np.zeros(batch.n_paths)
    for at, plus, minus, scales, plus_dw, minus_dw in _placed_chunks(batch, increments=True):
        for j, k in enumerate(range(at.start, at.stop)):
            gaps = _restarted_gaps(batch, functional, k, [(plus[:, j], plus_dw[:, j]),
                                                          (minus[:, j], minus_dw[:, j])])
            block_vals = block_vals + _per_row(scales[:, j], gaps) * gaps
            gap_rows += _row_abs_sums(gaps)
        del plus, minus, scales, plus_dw, minus_dw  # freed before the next chunk
    return block_vals, gap_rows


def _hj_values(batch: PathBatch, functional: PathFunctional, mode: str):
    """Per-path branch estimates on one simulated block (mean-one-unbiased for
    d/dtheta E[C]), with the block's per-row |gap| sums, by the route the
    module docstring names for the block's model, weight and functional."""
    probe = _grid_probe(functional, batch)
    props = None if probe is None else _affine_propagators(batch, probe.steps)
    if mode == "random-k":
        return _grouped_random_k(batch, functional, probe, props)
    if probe is not None and (props is not None or (
            tuple(probe.steps) == (batch.grid.steps,) and probe.weight is None)):
        return _terminal_sum_over_k(batch, probe, props)
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
    scalar = n == 1 and d == 1

    def terms(batch):
        # each step's dt db . (dt Sigma)^{-1} resid: (N, M) if n = d = 1, else (N, M, n)
        score_terms = np.empty((batch.n_paths, grid.steps) + (() if scalar else (n,)))
        chunk = chunk_len(8 * batch.n_paths * n)
        for start in range(0, grid.steps, chunk):
            at = slice(start, min(start + chunk, grid.steps))
            x, t = batch.states[:, at], grid.times[at]
            b = on_grid(model.drift, x, t, (n,), theta)
            db = on_grid(model.drift_dtheta, x, t, (n,), theta)
            resid = batch.states[:, start + 1:at.stop + 1] - x - dt * b
            sig = on_grid(model.diffusion, x, t, (n, d))
            if scalar:
                var = dt * sig[..., 0, 0] ** 2
                if np.any(var == 0.0):
                    raise SingularDiffusion("zero diffusion makes the transition degenerate")
                np.divide(dt * db[..., 0] * resid[..., 0], var, out=score_terms[:, at])
            else:
                cov = dt * (sig @ np.swapaxes(sig, -2, -1))
                try:
                    solved = np.linalg.solve(cov, resid[..., None])[..., 0]
                except np.linalg.LinAlgError as exc:
                    raise SingularDiffusion(
                        f"transition covariance not invertible: {exc}") from exc
                np.multiply(dt * db, solved, out=score_terms[:, at])
        score = np.sum(score_terms, axis=-1 if scalar else (-2, -1))
        values = np.asarray(functional.value(batch))
        return (_per_row(score, values) * values,)

    (values,) = per_path(model, theta, x0, grid, n_paths, master_seed, terms)
    return _gradient_report(values, master_seed, "score-function", None)
