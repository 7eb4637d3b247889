"""Gradient of the conditional loss by the quotient rule, and a projected
stochastic-gradient loop driven by it.

The conditional loss is a quotient of two expectations (a weighted numerator
over a weight normalizer).  Its theta-derivative combines four Monte-Carlo
ingredients: the two means and their two gradients.  Each gradient in turn
splits into a measure term (the branch estimator applied to the integrand as
a black box) and an integrand term (the integrand's own explicit theta
dependence at a frozen path, which enters through the weight process and the
derivative profiles).  All four ingredients are estimated on the same base
paths, so the quotient's standard error comes from one joint delta method:
each simulated block feeds the loss terms, one branch pass over both
integrands, and the explicit-theta terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import CondMcError, DegenerateDenominator, SingularDiffusion
from .functionals import PathFunctional
from .malliavin import _loss_report, conditional_quotient_terms, quotient_integrands
from .sde import (PathBatch, SdeModel, TimeGrid, finite_fsum, fsum,
                  on_grid, per_path, require_finite)
from .streams import _is_integer, child_seed
from .weakderiv import GRADIENT_MODES, _diagonal, _hj_values, _mean_branch_gap, _over_diagonal

_DENOMINATOR_FLOOR = 1e-12
# central-difference width for the integrand's explicit theta dependence;
# the O(h^2) truncation error sits far below any Monte-Carlo band
_THETA_BUMP = 1e-4


def quotient_gradient(e1: float, e2: float, grad_e1: float, grad_e2: float) -> float:
    """Derivative of the ratio e1/e2 from the four ingredients."""
    if abs(e2) < _DENOMINATOR_FLOOR:
        raise DegenerateDenominator(
            f"|e2| = {abs(e2):.3e} is too small to divide by")
    return (e2 * grad_e1 - e1 * grad_e2) / (e2 * e2)


# ---------------------------------------------------------------------------
# counterfactual gradient


def _drift_absorbed(sig: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """sigma^{-1} shift by the branch split's rule (weakderiv._over_diagonal),
    shift = dt * (b - b'): the increment change that keeps the frozen states."""
    diag = _diagonal(sig)
    if np.any((diag == 0.0) & (shift != 0.0)):
        raise SingularDiffusion("zero diffusion cannot absorb a drift change")
    return _over_diagonal(shift, diag)


def _integrand_theta_terms(batch: PathBatch, integrands: PathFunctional) -> np.ndarray:
    """Per-path d/dtheta of the integrands (quotient_integrands, the
    functional the branch pass values) along a frozen state path, as their
    (N, 2) columns (numerator, denominator).

    Viewed as functions of the state path, the integrands carry theta in the
    derivative profiles (through the jacobians), in the weight process, and
    in the increments the Skorohod sum reads, since a frozen state path
    implies theta-dependent increments: the Euler identity gives
    dW' = dW + dt * sigma^{-1} (b - b') at the bumped parameter, with sigma
    the block's diffusion profile (PathBatch.diffusions), read on the first
    side whose drift moves and inverted by the split's rule (_drift_absorbed).
    All three slots are moved together by central differences of the
    integrands' values; the {g > 0} gate depends on the states alone, so it
    cannot flip between the two evaluations.
    """
    model, grid, theta = batch.model, batch.grid, batch.theta
    n = model.state_dim
    x_left = batch.states[:, :grid.steps, :]
    b_base = on_grid(model.drift, x_left, grid.times, (n,), theta)
    sides = []
    for bumped in (theta + _THETA_BUMP, theta - _THETA_BUMP):
        shift = grid.dt * (b_base - on_grid(model.drift, x_left, grid.times, (n,), bumped))
        increments = batch.increments
        if np.any(shift):
            increments = increments + _drift_absorbed(batch.diffusions[..., :grid.steps, :, :],
                                                      shift)
        del shift  # one block-sized array fewer while the quotient terms run
        sides.append(integrands.value(PathBatch(model, grid, bumped, batch.states, increments,
                                                batch.master_seed, batch.path_indices)))
    up, down = sides
    return (up - down) / (2.0 * _THETA_BUMP)


def _quotient_gradient_std_error(ma, mb, m1, m2, a, b, g1, g2):
    """Delta-method standard error of the quotient-rule gradient from the
    means ma, mb, m1, m2 of the four per-path ingredient arrays a, b, g1, g2
    and their joint spread."""
    grad = np.array([
        -m2 / mb ** 2,                       # d/d mean(a)
        (2.0 * ma * m2 - m1 * mb) / mb ** 3,  # d/d mean(b)
        1.0 / mb,                            # d/d mean(g1)
        -ma / mb ** 2,                       # d/d mean(g2)
    ])
    cov = np.cov(np.vstack([a, b, g1, g2]), ddof=1)
    var = float(grad @ cov @ grad) / len(a)
    return math.sqrt(max(var, 0.0))


def counterfactual_gradient(model: SdeModel, theta: float, ell: PathFunctional,
                            g: PathFunctional, weight_rule, grid: TimeGrid, x0,
                            n_paths: int, gradient_mode: str = "random-k",
                            master_seed: int = 0):
    """Loss and its theta-gradient at one parameter point.

    Returns (loss, gradient, diagnostics).  The loss is the quotient of
    Skorohod-weighted means; the gradient applies the quotient rule to the
    branch (measure) gradients of the two integrands plus their explicit
    theta derivatives.  Each block of base paths is simulated once and feeds
    the loss terms, one branch pass over both integrands as two columns, and
    the explicit-theta terms.
    """
    if gradient_mode not in GRADIENT_MODES:
        raise ValueError(f"unknown gradient mode {gradient_mode!r}")
    integrands = quotient_integrands(ell, g, weight_rule)
    a, b, indicator, measure, gap_rows, explicit = per_path(
        model, theta, x0, grid, n_paths, master_seed, lambda batch: (
            *conditional_quotient_terms(ell, g, weight_rule, batch),
            *_hj_values(batch, integrands, gradient_mode),
            _integrand_theta_terms(batch, integrands)))
    report = _loss_report(a, b, indicator, master_seed)
    g1_terms, g2_terms = (measure + explicit).T
    grad_e1 = finite_fsum(g1_terms) / n_paths
    grad_e2 = finite_fsum(g2_terms) / n_paths
    gradient = quotient_gradient(report.e1_hat, report.e2_hat, grad_e1, grad_e2)
    se_gradient = _quotient_gradient_std_error(report.e1_hat, report.e2_hat, grad_e1, grad_e2,
                                               report.a_terms, report.b_terms, g1_terms, g2_terms)
    require_finite("the gradient or its std error", gradient, se_gradient)
    diagnostics = {
        "e1": report.e1_hat,
        "e2": report.e2_hat,
        "grad_e1": grad_e1,
        "grad_e2": grad_e2,
        "grad_e1_measure": fsum(measure[:, 0]) / n_paths,
        "grad_e1_integrand": fsum(explicit[:, 0]) / n_paths,
        "grad_e2_measure": fsum(measure[:, 1]) / n_paths,
        "grad_e2_integrand": fsum(explicit[:, 1]) / n_paths,
        "se_loss": report.std_error,
        "se_gradient": se_gradient,
        "acceptance_fraction": report.acceptance_fraction,
        "denominator_z": report.denominator_z,
        "branch_stats": _mean_branch_gap(measure, gap_rows, gradient_mode, grid.steps),
        "n_paths": n_paths,
        "gradient_mode": gradient_mode,
    }
    return report.estimate, gradient, diagnostics


# ---------------------------------------------------------------------------
# projected stochastic gradient descent


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of the projected SGD loop.

    step_size 0 is allowed (the loop then only evaluates along a constant
    iterate); theta_bounds is the closed interval the iterates are projected
    onto.
    """

    theta0: float
    step_size: float
    n_iterations: int
    paths_per_iteration: int
    theta_bounds: tuple[float, float] = (0.2, 3.0)
    gradient_mode: str = "random-k"
    master_seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.theta0):
            raise ValueError("theta0 must be finite")
        if not 0.0 <= self.step_size < math.inf:
            raise ValueError("step_size must be finite and nonnegative")
        for name in ("n_iterations", "paths_per_iteration", "master_seed"):
            value = getattr(self, name)
            if not _is_integer(value):
                raise ValueError(f"{name} must be an integer, not {type(value).__name__}")
        if self.n_iterations < 1:
            raise ValueError("n_iterations must be at least 1")
        if self.paths_per_iteration < 2:
            raise ValueError("paths_per_iteration must be at least 2")
        lo, hi = self.theta_bounds
        if not lo < hi:
            raise ValueError("theta_bounds must satisfy lo < hi")
        if self.gradient_mode not in GRADIENT_MODES:
            raise ValueError(f"unknown gradient mode {self.gradient_mode!r}")
        if not 0 <= self.master_seed < 2 ** 64:
            raise ValueError("master_seed must lie in [0, 2**64)")


@dataclass(frozen=True)
class IterationRecord:
    """One SGD step: the iterate and everything estimated at it; the fields
    after gradient are counterfactual_gradient's diagnostics of that name."""

    iteration: int
    theta: float
    loss: float
    gradient: float
    e1: float
    e2: float
    se_loss: float
    se_gradient: float
    grad_e1_measure: float
    grad_e1_integrand: float
    grad_e2_measure: float
    grad_e2_integrand: float
    acceptance_fraction: float


_DIAGNOSTIC_FIELDS = tuple(f.name for f in fields(IterationRecord))[4:]


@dataclass(frozen=True)
class OptimizationTrace:
    """Per-iteration records and the final iterate.

    error is None on a clean run; on an estimator failure it carries the
    structured error name and message, and records holds the iterations
    completed before the failure.
    """

    records: tuple[IterationRecord, ...]
    final_theta: float
    error: str | None = None

    @property
    def thetas(self) -> np.ndarray:
        return np.array([r.theta for r in self.records])

    @property
    def losses(self) -> np.ndarray:
        return np.array([r.loss for r in self.records])


def run_sgd(model: SdeModel, ell: PathFunctional, g: PathFunctional,
            config: OptimizerConfig, grid: TimeGrid, x0,
            weight_rule="canonical") -> OptimizationTrace:
    """Projected SGD on the conditional loss.

    theta_{n+1} = clip(theta_n - step_size * gradient, bounds); every
    iteration draws fresh paths from a child seed of the master seed.  On an
    estimator failure the trace collected so far is returned with the error
    recorded instead of raising.
    """
    lo, hi = config.theta_bounds
    theta = min(max(config.theta0, lo), hi)
    records = []
    for n in range(config.n_iterations):
        seed = child_seed(config.master_seed, n)
        try:
            loss, gradient, diag = counterfactual_gradient(
                model, theta, ell, g, weight_rule, grid, x0,
                config.paths_per_iteration, config.gradient_mode, seed)
        except CondMcError as exc:
            return OptimizationTrace(
                records=tuple(records),
                final_theta=theta,
                error=f"{type(exc).__name__}: {exc}",
            )
        records.append(IterationRecord(
            iteration=n, theta=theta, loss=loss, gradient=gradient,
            **{field: diag[field] for field in _DIAGNOSTIC_FIELDS}))
        theta = min(max(theta - config.step_size * gradient, lo), hi)
    return OptimizationTrace(
        records=tuple(records),
        final_theta=theta,
        error=None,
    )
