"""Path functionals with Malliavin derivatives assembled from the Jacobians.

A PathFunctional evaluates on a PathBatch of one path or of a block (leading
axis N); values come back as a scalar or an (N,) array and derivative
profiles as arrays that broadcast to (M+1, d) or (N, M+1, d).  Built-ins cover
marginal powers X_{t*}^p and running integrals of a smooth function of the
state; anything else can be supplied as a custom functional.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .sde import PathBatch, _check_count, _grid_step, call_shared


@dataclass(frozen=True)
class PathFunctional:
    """value(bundle) plus, optionally, its Malliavin derivative profile.

    derivative(bundle) returns the whole profile D_{t_s} of the functional at
    every grid step, broadcasting to (..., M+1, d), so that one shared by
    every path may be (M+1, d).  Such a profile, with no path axis, must be
    the same for every block of one model, grid and theta, since an
    estimator call builds the canonical weight from it once.  The quotient
    estimator needs a profile for the loss and the constraint, while the
    gradient engines read values only, so a functional without one (None)
    still has branch gradients.
    The built-in derivatives read bundle.jacobians, which a bundle computes
    on the first read; value() may read them too, and a branch engine then
    builds per-row ones for a restarted block only because value() asked.
    terminal_value, when set, evaluates the functional from terminal states
    alone; step_value, when set, declares the functional to be dt times the
    sum of step_value(X_k) over the left grid points k < M.  Either one
    enables a fast all-branch gradient engine, which takes a branch pair's
    gap as the terminal value gap of its copies at the horizon, or as the sum
    of dt (step_value(plus) - step_value(minus)) over the left points they
    pass as they advance by Euler (their shared prefix cancels); either need
    only match value up to an additive constant, since the engines read
    nothing but branch gaps.  value may return (N, m) columns for m
    functionals at once; the gradient engines treat each column as its own
    scalar functional.
    The estimators may call these fields from several threads at once, each
    on its own block, so they must not mutate state they share.
    """

    value: Callable
    derivative: Callable | None = None
    terminal_value: Callable | None = None
    step_value: Callable | None = None


def derivative_profile(f: PathFunctional, bundle: PathBatch) -> np.ndarray:
    """Derivative profile broadcasting to (..., M+1, d); ValueError when f has none."""
    if f.derivative is None:
        raise ValueError("the functional has no derivative profile (derivative is None)")
    return np.asarray(f.derivative(bundle))


def malliavin_derivative_state(bundle: PathBatch, s: int, t: int) -> np.ndarray:
    """D_{t_s} X_{t_t} = Y_t Z_s sigma(X_s, t_s) for s <= t, zero matrix after."""
    s, t = _grid_step("s", s, bundle.grid.steps), _grid_step("t", t, bundle.grid.steps)
    jac = bundle.jacobians
    n, d = bundle.model.state_dim, bundle.model.noise_dim
    if s > t:
        return np.zeros((n, d))
    sig = np.asarray(bundle.model.diffusion(bundle.states[..., s, :], bundle.grid.times[s]))
    return jac.y[..., t, :, :] @ jac.z[..., s, :, :] @ sig


def _state_derivative_rows(bundle, t_index: int, component: int) -> np.ndarray:
    """(D_{t_s} X_{t*}[component])_s for all s, read-only and broadcasting to
    (..., M+1, d); zero past t*.  When Y, Z and sigma are shared by every
    path, so are the rows: one (M+1, d) array, built once per estimator call
    and theta (call_shared)."""

    def build():
        jac = bundle.jacobians
        prod = jac.y[..., t_index, None, :, :] @ jac.z    # Y_{t*} Z_s
        # a copy, so the rows do not keep all n rows of the products alive
        rows = (prod @ bundle.diffusions)[..., component, :].copy()
        rows[..., t_index + 1:, :] = 0.0
        rows.flags.writeable = False  # shared rows serve every block of the call
        return rows

    return call_shared(bundle, ("derivative rows", t_index, component), bundle.model, build,
                       lambda rows: rows.ndim == 2)


def marginal_power(step: int, power: int, component: int = 0) -> PathFunctional:
    """X_{t_step}[component] ** power as a path functional; a negative step
    counts from the end of the grid; ValueError unless power is an integer of
    at least 1, and on evaluation unless step is an integer on the grid."""
    _check_count("power", power)

    def at(bundle):
        return _grid_step("step", step, bundle.grid.steps, -1 - bundle.grid.steps)

    def value(bundle):
        return bundle.states[..., at(bundle), component] ** power

    def derivative(bundle):
        k = at(bundle)
        rows = _state_derivative_rows(bundle, k, component)
        if power == 1:
            return rows
        x = bundle.states[..., k, component]
        return (power * x ** (power - 1))[..., None, None] * rows

    return PathFunctional(value=value, derivative=derivative)


def terminal_power(power: int, component: int = 0) -> PathFunctional:
    """X_T[component] ** power; evaluable from terminal states alone."""
    return replace(marginal_power(-1, power, component),
                   terminal_value=lambda x_terminal: x_terminal[..., component] ** power)


def integral_functional(h: Callable, dh: Callable) -> PathFunctional:
    """Left-point discretization of the running integral of h along the path.

    h maps states (..., n) -> (...); dh maps states (..., n) -> (..., n)
    and is the gradient of h.  Both must broadcast over leading axes.
    """

    def value(bundle):
        heights = np.asarray(h(bundle.states))           # (..., M+1)
        return np.sum(heights[..., :-1], axis=-1) * bundle.grid.dt

    def derivative(bundle):
        jac = bundle.jacobians
        grads = np.asarray(dh(bundle.states))            # (..., M+1, n)
        w = np.einsum("...ki,...kij->...kj", grads, jac.y)
        # suffix sums over k in [s, M-1]: reverse-cumsum of the left-point rows
        left = w[..., :-1, :]
        suffix = np.flip(np.cumsum(np.flip(left, axis=-2), axis=-2), axis=-2)
        pad = np.zeros_like(w)
        pad[..., :-1, :] = suffix
        zs = np.einsum("...si,...sij->...sj", pad, jac.z @ bundle.diffusions)
        return bundle.grid.dt * zs

    return PathFunctional(value=value, derivative=derivative, step_value=h)


def shift_functional(f: PathFunctional, level: float) -> PathFunctional:
    """f - level, so a conditioning event {f(X) = level} reads {g(X) = 0}.

    The derivative and step_value are unchanged by the constant shift.
    """

    terminal = None
    if f.terminal_value is not None:
        terminal = lambda x_terminal: f.terminal_value(x_terminal) - level

    return replace(f, value=lambda bundle: f.value(bundle) - level, terminal_value=terminal)


def constant_functional(c: float) -> PathFunctional:
    """The constant functional; zero Malliavin derivative."""

    def value(bundle):
        lead = bundle.states.shape[:-2]
        return np.full(lead, float(c)) if lead else float(c)

    return PathFunctional(
        value=value,
        derivative=lambda bundle: np.zeros(bundle.states.shape[:-1] + (bundle.model.noise_dim,)),
        terminal_value=lambda x_terminal: np.full(x_terminal.shape[:-1], float(c)),
    )
