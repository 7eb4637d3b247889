"""Admissible weight processes, Skorohod integrals, and the conditional-loss
quotient estimator (with its kernel-smoothing baseline).

The conditioning event {g(X) = 0} has probability zero, so the conditional
loss E[l(X) | g(X) = 0] is rewritten as a quotient of two unconditional
expectations built from an integration-by-parts weight u normalized so that
the time integral of <D_t g, u_t> equals one on every path.  Both the
numerator and denominator are plain Monte-Carlo means, so no bandwidth is
involved; the Gaussian-kernel baseline is provided for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import (
    DegenerateConstraint,
    DegenerateDenominator,
    EmptyKernelMass,
    NonAdaptedWithoutFactorization,
)
from .functionals import (PathFunctional, Probe, _grid_probe, _state_derivative_rows,
                          derivative_profile)
from .reports import ConditionalLossReport, EstimatorReport
from .sde import (PathBatch, SdeModel, TimeGrid, call_shared, chunk_len, finite_fsum, fsum,
                  per_path, require_finite)

_ENERGY_FLOOR = 1e-14


@dataclass(frozen=True)
class WeightProcess:
    """Weight u on the grid; values broadcasting to (..., M+1, d).

    adapted marks whether the Ito-sum evaluation of the Skorohod integral is
    valid as-is.
    """

    values: np.ndarray
    adapted: bool = True


def _energy(profile: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Left-point energy of D g per path; DegenerateConstraint when it is
    (near) zero."""
    energy = np.sum(profile[..., :grid.steps, :] ** 2, axis=(-2, -1)) * grid.dt
    if np.any(energy < _ENERGY_FLOOR):
        raise DegenerateConstraint("constraint derivative has (near-)zero energy on the grid")
    return energy


def make_weight_canonical(g: PathFunctional, bundle: PathBatch) -> WeightProcess:
    """u = D g / (left-point energy of D g); normalization holds by construction.

    It is the minimum-energy weight with that normalization.  A D g shared by
    every path, (M+1, d), gives one (M+1, d) weight, built once per estimator
    call (sde.call_shared).
    """

    def build():
        profile = derivative_profile(g, bundle)
        values = profile / _energy(profile, bundle.grid)[..., None, None]
        values.flags.writeable = False  # a shared weight serves every block of the call
        return WeightProcess(values)

    return call_shared(bundle, "canonical weight", g, build, lambda u: u.values.ndim == 2)


def weight_from_rule(rule, g: PathFunctional, bundle) -> WeightProcess:
    """Resolve a weight rule given as "canonical" or a callable (g, bundle) -> WeightProcess."""
    if callable(rule):
        return rule(g, bundle)
    if rule == "canonical":
        return make_weight_canonical(g, bundle)
    raise ValueError(f"unknown weight rule {rule!r}")


def skorohod_integral(u: WeightProcess, bundle: PathBatch,
                      anticipative_factor: tuple[float, Callable] | None = None):
    """Skorohod integral of u along the bundle's noise.

    Adapted u: the left-point Ito sum sum_k <u_k, dW_k>.  A non-adapted
    integrand F*u_hat must be supplied in factored form via
    anticipative_factor=(F, DF) with u the adapted factor u_hat, giving
    F*S(u_hat) - sum_k <DF(k), u_hat_k> dt.
    """
    if not u.adapted and anticipative_factor is None:
        raise NonAdaptedWithoutFactorization(
            "non-adapted weight: supply anticipative_factor=(F, DF) in factored form")
    steps = bundle.grid.steps
    ito = np.sum(u.values[..., :steps, :] * bundle.increments, axis=(-2, -1))
    if anticipative_factor is None:
        return ito if ito.ndim else float(ito)
    factor, factor_derivative = anticipative_factor
    corr = sum(
        np.sum(np.asarray(factor_derivative(k)) * u.values[..., k, :], axis=-1)
        for k in range(steps)
    )
    out = np.asarray(factor) * ito - corr * bundle.grid.dt
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# conditional-loss quotient estimator


def _quotient_std_error(a: np.ndarray, b: np.ndarray, q: float, b_mean: float) -> float:
    n = a.size
    var_a = a.var(ddof=1)
    var_b = b.var(ddof=1)
    cov = np.cov(a, b, ddof=1)[0, 1]
    var_q = (var_a - 2.0 * q * cov + q * q * var_b) / (b_mean * b_mean * n)
    return math.sqrt(max(var_q, 0.0))


def _quotient_terms(accepted, loss, s_u, correction):
    """The quotient's per-path terms A = 1{g>0} (loss * S(u) - correction)
    and B = 1{g>0} S(u), from the {g > 0} mask, the loss value, the Ito sum
    S(u) of the weight and the correction sum_k <D_k ell, u_k> dt."""
    numerator = np.asarray(loss) * s_u - correction
    return np.where(accepted, numerator, 0.0), np.where(accepted, s_u, 0.0)


def conditional_quotient_terms(ell: PathFunctional, g: PathFunctional, weight_rule,
                               batch: PathBatch):
    """Per-path numerator terms A_i, denominator terms B_i, and the {g > 0} mask.

    The weight is built on the whole block.  The loss value and derivative
    profile, the Skorohod sum and the correction then run on row tiles
    (PathBatch.rows) whose (M+1, n, d) arrays stay within sde.CHUNK_BYTES;
    a tile reads the block's Jacobians and diffusion profile, and its rows
    get the bits they get in one piece.
    """
    steps = batch.grid.steps
    dt = batch.grid.dt
    indicator = np.asarray(g.value(batch)) > 0.0  # ties count as not-exceeded
    u = weight_from_rule(weight_rule, g, batch)

    def tile_terms(tile, accepted, values):
        s_u = skorohod_integral(replace(u, values=values), tile)
        loss = ell.value(tile)
        d_ell = derivative_profile(ell, tile)
        correction = np.sum(d_ell[..., :steps, :] * values[..., :steps, :], axis=(-2, -1)) * dt
        return _quotient_terms(accepted, loss, s_u, correction)

    if batch.states.ndim == 2:  # one path
        return (*tile_terms(batch, indicator, u.values), indicator)
    a, b = np.empty(indicator.shape), np.empty(indicator.shape)
    model = batch.model
    rows = chunk_len(8 * (steps + 1) * model.state_dim * max(model.state_dim, model.noise_dim))
    for start in range(0, len(a), rows):
        part = slice(start, start + rows)
        a[part], b[part] = tile_terms(batch.rows(part), indicator[part],
                                      u.values[part] if u.values.ndim == 3 else u.values)
    return a, b, indicator


def _integrand_probe(ell: PathFunctional, g: PathFunctional, batch: PathBatch):
    """The Probe of the quotient's two integrand columns on a block, or None.

    The columns read the path through g and ell at their probe steps, the
    Ito sum S(u) of the weight and <D ell, u>.  With the canonical weight u
    and the derivative rows D X_p of the loss's probe steps p shared by
    every path, <D ell, u> dt summed over the grid is sum_p grad_p ell . c_p,
    with c_p[i] = sum_s <D_s X_p[i], u_s> dt the same on every path, so the
    columns are a function of the probe states and S(u) alone.
    """
    probes = [_grid_probe(f, batch) for f in (ell, g)]
    if any(p is None or p.weight is not None for p in probes) or probes[0].gradient is None:
        return None
    (l_probe, g_probe), grid = probes, batch.grid
    if batch.jacobians.y.ndim != 3:  # per-row Jacobians give per-row rows: build none
        return None
    rows = [[_state_derivative_rows(batch, p, i) for i in range(batch.model.state_dim)]
            for p in l_probe.steps]
    if any(r.ndim != 2 for r in sum(rows, [])):
        return None
    u = make_weight_canonical(g, batch).values
    if u.ndim != 2:
        return None
    c = np.array([[np.sum(r[:grid.steps] * u[:grid.steps]) * grid.dt for r in row]
                  for row in rows]).reshape(-1, batch.model.state_dim)
    steps = tuple(sorted(set(l_probe.steps) | set(g_probe.steps)))
    l_at, g_at = ([steps.index(p) for p in probe.steps] for probe in (l_probe, g_probe))

    def value(x, s):
        x_l = x[..., l_at, :]
        return np.stack(_quotient_terms(np.asarray(g_probe.value(x[..., g_at, :])) > 0.0,
                                        l_probe.value(x_l), s,
                                        np.sum(l_probe.gradient(x_l) * c, axis=(-2, -1))), -1)

    return Probe(steps, value, weight=u)


def quotient_integrands(ell: PathFunctional, g: PathFunctional, weight_rule) -> PathFunctional:
    """The numerator and denominator terms A, B of conditional_quotient_terms
    as one functional of two columns (N, 2).  Under the canonical weight it
    declares a probe (_integrand_probe) where the weight and the loss's
    derivative rows have no path axis, so that the gradient engines need
    not restart a branched path to value it."""
    return PathFunctional(
        value=lambda bundle: np.stack(
            conditional_quotient_terms(ell, g, weight_rule, bundle)[:2], -1),
        probe=(lambda batch: _integrand_probe(ell, g, batch)) if weight_rule == "canonical"
        else None)


def conditional_loss_estimate(model: SdeModel, theta: float, ell: PathFunctional,
                              g: PathFunctional, weight_rule, n_paths: int,
                              master_seed: int, grid: TimeGrid, x0) -> ConditionalLossReport:
    """Estimate E[ell(X) | g(X) = 0] as a quotient of Skorohod-weighted means.

    Per path: A_i = 1_{g>0} (ell * S(u) - sum_k <D_k ell, u_k> dt) and
    B_i = 1_{g>0} S(u); the estimate is mean(A)/mean(B) with a delta-method
    standard error.  Paths are simulated in blocks; results are independent
    of the block size because every path reads its own row of noise.
    """
    a, b, indicator = per_path(
        model, theta, x0, grid, n_paths, master_seed,
        lambda batch: conditional_quotient_terms(ell, g, weight_rule, batch))
    return _loss_report(a, b, indicator, master_seed)


def _loss_report(a: np.ndarray, b: np.ndarray, indicator: np.ndarray,
                 master_seed: int) -> ConditionalLossReport:
    """Quotient report from all per-path terms A_i, B_i and the {g > 0} mask.

    Raises DegenerateDenominator when mean(B) lies within 5 standard errors
    of zero, where the quotient is not defined by the sample, and
    NonFiniteEstimate when a term, the quotient or its error is not finite.
    """
    n_paths = a.size
    e1 = finite_fsum(a) / n_paths
    e2 = finite_fsum(b) / n_paths
    se_b = b.std(ddof=1) / math.sqrt(n_paths)
    if e2 == 0.0 or abs(e2) < 5.0 * se_b:
        raise DegenerateDenominator(
            f"|mean B| = {abs(e2):.3e} is below 5 standard errors ({5 * se_b:.3e})")
    quotient = e1 / e2
    std_error = _quotient_std_error(a, b, quotient, e2)
    require_finite("the quotient or its std error", quotient, std_error)
    return ConditionalLossReport(
        estimate=quotient,
        std_error=std_error,
        n_paths=n_paths,
        master_seed=master_seed,
        e1_hat=e1,
        e2_hat=e2,
        a_terms=a,
        b_terms=b,
        acceptance_fraction=int(np.count_nonzero(indicator)) / n_paths,
        denominator_z=float(abs(e2) / se_b) if se_b else math.inf,
    )


# ---------------------------------------------------------------------------
# kernel-smoothing baseline


def kernel_loss_estimate(model: SdeModel, theta: float, ell: PathFunctional,
                         g: PathFunctional, bandwidth: float, n_paths: int,
                         master_seed: int, grid: TimeGrid, x0) -> EstimatorReport:
    """Nadaraya-Watson style baseline: Gaussian kernel weights w_i around g = 0.

    Per path: ell * w and w; the estimate is fsum(ell * w) / fsum(w) with a
    delta-method standard error.  Paths are simulated in blocks by
    sde.per_path, as in conditional_loss_estimate, so one master_seed gives
    both estimators the same paths, and the bits do not depend on the block
    size.  ValueError for a bandwidth that is not positive and finite;
    EmptyKernelMass when every weight underflows.
    """
    if not (math.isfinite(bandwidth) and bandwidth > 0.0):
        raise ValueError("bandwidth must be positive and finite")

    def terms(batch):
        g_val = np.asarray(g.value(batch), dtype=float)
        weights = np.exp(-(g_val * g_val) / (2.0 * bandwidth * bandwidth)) / (
            bandwidth * math.sqrt(2.0 * math.pi))
        return np.asarray(ell.value(batch), dtype=float) * weights, weights

    weighted, weights = per_path(model, theta, x0, grid, n_paths, master_seed, terms)
    mass = fsum(weights)
    if mass < 1e-300:
        raise EmptyKernelMass("all kernel weights underflowed; increase the bandwidth")
    estimate = finite_fsum(weighted) / mass
    require_finite("the kernel estimate", estimate)
    std_error = _quotient_std_error(weighted, weights, estimate, mass / weights.size)
    require_finite("the kernel std error", std_error)
    return EstimatorReport(estimate=estimate, std_error=std_error, n_paths=weights.size,
                           master_seed=master_seed)
