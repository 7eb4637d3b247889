"""Path functionals with Malliavin derivatives assembled from the Jacobians.

A PathFunctional evaluates on a PathBundle (one path) or a PathBatch (block
of paths, leading axis N); values come back as a scalar or an (N,) array and
derivatives as (M+1, d) or (N, M+1, d) profiles.  Built-in kinds cover
marginal powers X_{t*}^p and running integrals of a smooth function of the
state; anything else can be supplied as a custom functional.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import MissingJacobian
from .sde import PathBatch, PathBundle


@dataclass(frozen=True)
class PathFunctional:
    """value(bundle) plus the derivative D_{t_s}(functional) at each grid step.

    malliavin_derivative(bundle, s) returns the step-s derivative vector;
    malliavin_derivative_all, when provided, returns the whole (..., M+1, d)
    profile in one vectorized call (the estimators prefer it).
    requires_jacobian marks functionals whose derivative needs Y/Z on the
    bundle; value_requires_jacobian marks the rarer case where value() itself
    reads bundle.jacobians.  terminal_value, when set, evaluates the
    functional from terminal states alone; step_value, when set, declares the
    functional to be dt times the sum of step_value(X_k) over the left grid
    points k < M.  Either one enables a fast all-branch gradient engine, and
    either need only match value up to an additive constant, since the
    engines read nothing but branch gaps.  value may return (N, m) columns
    for m functionals at once; the gradient engines treat each column as its
    own scalar functional.
    """

    value: Callable
    malliavin_derivative: Callable
    kind: str = "custom"
    malliavin_derivative_all: Callable | None = None
    requires_jacobian: bool = False
    terminal_value: Callable | None = None
    value_requires_jacobian: bool = False
    step_value: Callable | None = None


def derivative_profile(f: PathFunctional, bundle: PathBundle | PathBatch) -> np.ndarray:
    """Full derivative profile (..., M+1, d), via the vectorized route if present."""
    if f.malliavin_derivative_all is not None:
        return np.asarray(f.malliavin_derivative_all(bundle))
    rows = [np.asarray(f.malliavin_derivative(bundle, s)) for s in range(bundle.grid.steps + 1)]
    return np.stack(rows, axis=-2)


def _require_jacobians(bundle):
    if bundle.jacobians is None:
        raise MissingJacobian("functional derivative needs a bundle simulated with_jacobian=True")
    return bundle.jacobians


def _sigma_profile(bundle) -> np.ndarray:
    """sigma(X_s, t_s) at every grid time, shaped (..., M+1, n, d)."""
    sig = np.asarray(bundle.model.diffusion(bundle.states, bundle.grid.times))
    n, d = bundle.model.state_dim, bundle.model.noise_dim
    if sig.ndim == 2:  # constant coefficient
        target = bundle.states.shape[:-1] + (n, d)
        sig = np.broadcast_to(sig, target)
    return sig


def malliavin_derivative_state(bundle: PathBundle, s: int, t: int) -> np.ndarray:
    """D_{t_s} X_{t_t} = Y_t Z_s sigma(X_s, t_s) for s <= t, zero matrix after."""
    jac = _require_jacobians(bundle)
    n, d = bundle.model.state_dim, bundle.model.noise_dim
    if not (0 <= s <= bundle.grid.steps and 0 <= t <= bundle.grid.steps):
        raise ValueError("steps outside the grid")
    if s > t:
        return np.zeros((n, d))
    sig = np.asarray(bundle.model.diffusion(bundle.states[..., s, :], bundle.grid.times[s]))
    return jac.y[..., t, :, :] @ jac.z[..., s, :, :] @ sig


def _state_derivative_rows(bundle, t_index: int, component: int) -> np.ndarray:
    """(D_{t_s} X_{t*}[component])_s for all s, shaped (..., M+1, d); zero past t*."""
    jac = _require_jacobians(bundle)
    y_t = jac.y[..., t_index, :, :]
    prod = y_t[..., None, :, :] @ jac.z           # (..., M+1, n, n) = Y_{t*} Z_s
    rows = (prod @ _sigma_profile(bundle))[..., component, :]
    if t_index < bundle.grid.steps:
        rows = rows.copy()
        rows[..., t_index + 1:, :] = 0.0
    return rows


def marginal_power(step: int, power: int, component: int = 0) -> PathFunctional:
    """X_{t_step}[component] ** power as a path functional (interior marginal)."""
    if power < 1:
        raise ValueError("power must be a positive integer")

    def value(bundle):
        return bundle.states[..., step, component] ** power

    def deriv_all(bundle):
        rows = _state_derivative_rows(bundle, step, component)
        if power == 1:
            return rows
        x = bundle.states[..., step, component]
        return (power * x ** (power - 1))[..., None, None] * rows

    def deriv(bundle, s):
        return deriv_all(bundle)[..., s, :]

    return PathFunctional(
        value=value,
        malliavin_derivative=deriv,
        kind="interior-marginal",
        malliavin_derivative_all=deriv_all,
        requires_jacobian=True,
    )


def terminal_power(power: int, component: int = 0) -> PathFunctional:
    """X_T[component] ** power; evaluable from terminal states alone."""
    if power < 1:
        raise ValueError("power must be a positive integer")

    def value(bundle):
        return bundle.states[..., -1, component] ** power

    def deriv_all(bundle):
        rows = _state_derivative_rows(bundle, bundle.grid.steps, component)
        if power == 1:
            return rows
        x = bundle.states[..., -1, component]
        return (power * x ** (power - 1))[..., None, None] * rows

    def deriv(bundle, s):
        return deriv_all(bundle)[..., s, :]

    return PathFunctional(
        value=value,
        malliavin_derivative=deriv,
        kind="terminal-marginal",
        malliavin_derivative_all=deriv_all,
        requires_jacobian=True,
        terminal_value=lambda x_terminal: x_terminal[..., component] ** power,
    )


def integral_functional(h: Callable, dh: Callable) -> PathFunctional:
    """Left-point discretization of the running integral of h along the path.

    h maps states (..., n) -> (...); dh maps states (..., n) -> (..., n)
    and is the gradient of h.  Both must broadcast over leading axes.
    """

    def value(bundle):
        heights = np.asarray(h(bundle.states))           # (..., M+1)
        return np.sum(heights[..., :-1], axis=-1) * bundle.grid.dt

    def deriv_all(bundle):
        jac = _require_jacobians(bundle)
        grads = np.asarray(dh(bundle.states))            # (..., M+1, n)
        w = np.einsum("...ki,...kij->...kj", grads, jac.y)
        # suffix sums over k in [s, M-1]: reverse-cumsum of the left-point rows
        left = w[..., :-1, :]
        suffix = np.flip(np.cumsum(np.flip(left, axis=-2), axis=-2), axis=-2)
        pad = np.zeros_like(w)
        pad[..., :-1, :] = suffix
        zs = np.einsum("...si,...sij->...sj", pad, jac.z @ _sigma_profile(bundle))
        return bundle.grid.dt * zs

    def deriv(bundle, s):
        return deriv_all(bundle)[..., s, :]

    return PathFunctional(
        value=value,
        malliavin_derivative=deriv,
        kind="integral",
        malliavin_derivative_all=deriv_all,
        requires_jacobian=True,
        step_value=h,
    )


def shift_functional(f: PathFunctional, level: float) -> PathFunctional:
    """f - level, so a conditioning event {f(X) = level} reads {g(X) = 0}.

    The Malliavin derivative and step_value are unchanged by the constant
    shift.
    """

    terminal = None
    if f.terminal_value is not None:
        terminal = lambda x_terminal: f.terminal_value(x_terminal) - level

    return PathFunctional(
        value=lambda bundle: f.value(bundle) - level,
        malliavin_derivative=f.malliavin_derivative,
        kind=f.kind,
        malliavin_derivative_all=f.malliavin_derivative_all,
        requires_jacobian=f.requires_jacobian,
        terminal_value=terminal,
        value_requires_jacobian=f.value_requires_jacobian,
        step_value=f.step_value,
    )


def constant_functional(c: float) -> PathFunctional:
    """The constant functional; zero Malliavin derivative."""

    def value(bundle):
        lead = bundle.states.shape[:-2]
        return np.full(lead, float(c)) if lead else float(c)

    def deriv_all(bundle):
        return np.zeros(bundle.states.shape[:-1] + (bundle.model.noise_dim,))

    return PathFunctional(
        value=value,
        malliavin_derivative=lambda bundle, s: deriv_all(bundle)[..., s, :],
        kind="custom",
        malliavin_derivative_all=deriv_all,
        requires_jacobian=False,
        terminal_value=lambda x_terminal: np.full(x_terminal.shape[:-1], float(c)),
    )
