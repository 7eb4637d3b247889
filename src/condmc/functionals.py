"""Path functionals with Malliavin derivatives assembled from the Jacobians.

A PathFunctional evaluates on a PathBatch of one path or of a block (leading
axis N); values come back as a scalar or an (N,) array and derivative
profiles as arrays that broadcast to (M+1, d) or (N, M+1, d).  Built-ins cover
marginal powers X_{t*}^p and running integrals of a smooth function of the
state; anything else can be supplied as a custom functional.  A functional
that reads the path at a few grid steps says so by a Probe, which lets the
gradient engines value a branched path from its states at those steps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .sde import PathBatch, _check_count, _grid_step, call_shared


class Probe(NamedTuple):
    """The grid steps a functional reads and its value there.

    steps is a tuple of P grid indices, and value(x) maps the states x
    (..., P, n) there to the functional's value, (...) or columns (..., m);
    it must equal the functional's value, up to rounding, on any path.
    gradient(x), when set, is d value / d x at the same states, (..., P, n),
    so that the functional's derivative profile is the sum over the probes
    of gradient_p . D X_p.  Given a weight, an (M+1, d) weight process
    shared by every path, value(x, s) also reads s (...), the Ito sum
    sum_k <weight_k, dW_k> of the path's increments.
    """

    steps: tuple
    value: Callable
    gradient: Callable | None = None
    weight: np.ndarray | None = None


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
    probe(bundle), when set, returns the Probe of the functional on that
    block's grid (the steps it reads and its value of the states there), or
    None where it cannot be read so.  On a model whose steps are affine in
    the state with shared factors, the gradient engines then carry each
    branch to the probe steps in O(P n^2) work and read no restarted path;
    elsewhere a probe that reads the horizon alone, with no weight, has its
    branches carried there by Euler.  step_value, when set, declares the
    functional to be dt times the sum of step_value(X_k) over the left grid
    points k < M, and lets the all-steps engine take a branch pair's gap as
    the sum of dt (step_value(plus) - step_value(minus)) over the left points
    its copies pass as they advance by Euler (their shared prefix cancels);
    it need only match value up to an additive constant, since that engine
    reads nothing but branch gaps.  A functional with neither, or a probe
    the model cannot carry, has every branch restarted as a whole path.
    value may return (N, m) columns for m functionals at once; the gradient
    engines treat each column as its own scalar functional.
    The estimators may call these fields from several threads at once, each
    on its own block, so they must not mutate state they share.
    """

    value: Callable
    derivative: Callable | None = None
    probe: Callable | None = None
    step_value: Callable | None = None


def _grid_probe(f: PathFunctional, batch: PathBatch) -> Probe | None:
    """f's Probe on batch, or None, with each step an index of the grid: a
    negative step counts from the end, as in marginal_power, and ValueError
    unless a step is an integer on the grid (sde._grid_step)."""
    probe = None if f.probe is None else f.probe(batch)
    if probe is None:
        return None
    steps = batch.grid.steps
    return probe._replace(steps=tuple(_grid_step("probe step", p, steps, -1 - steps)
                                      for p in probe.steps))


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


def _chain_rows(bundle, left: np.ndarray) -> np.ndarray:
    """D_{t_s} F = (sum_{k >= s} left_k) Z_s sigma_s at every grid step s,
    (..., M+1, d), from the rows left_k = grad_{X_k} F . Y_k (..., M+1, n):
    the one chain rule of every derivative profile built here."""
    suffix = np.flip(np.cumsum(np.flip(left, axis=-2), axis=-2), axis=-2)
    return ((suffix[..., None, :] @ bundle.jacobians.z) @ bundle.diffusions)[..., 0, :]


def _state_derivative_rows(bundle, t_index: int, component: int) -> np.ndarray:
    """(D_{t_s} X_{t*}[component])_s for all s, read-only and broadcasting to
    (..., M+1, d); zero past t*.  When Y, Z and sigma are shared by every
    path, so are the rows: one (M+1, d) array, built once per estimator call
    and theta (call_shared)."""

    def build():
        y = bundle.jacobians.y
        left = np.zeros(y.shape[:-1])
        left[..., t_index, :] = y[..., t_index, component, :]
        rows = _chain_rows(bundle, left)
        rows.flags.writeable = False  # shared rows serve every block of the call
        return rows

    return call_shared(bundle, ("derivative rows", t_index, component), bundle.model, build,
                       lambda rows: rows.ndim == 2)


def marginal_power(step: int, power: int, component: int = 0) -> PathFunctional:
    """X_{t_step}[component] ** power as a path functional, with a probe of
    that one step; a negative step counts from the end of the grid;
    ValueError unless power is an integer of at least 1 and component one of
    at least 0, and on evaluation unless step is an integer on the grid and
    component below the state dimension."""
    _check_count("power", power)
    _check_count("component", component, 0)

    def at(bundle):
        if component >= bundle.model.state_dim:
            raise ValueError(f"component {component} is not below the state dimension "
                             f"{bundle.model.state_dim}")
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

    def gradient(x):
        grad = np.zeros(x.shape)
        grad[..., 0, component] = power * x[..., 0, component] ** (power - 1)
        return grad

    return PathFunctional(value=value, derivative=derivative, probe=lambda bundle: Probe(
        (at(bundle),), lambda x: x[..., 0, component] ** power, gradient))


def terminal_power(power: int, component: int = 0) -> PathFunctional:
    """X_T[component] ** power; its probe reads the horizon alone."""
    return marginal_power(-1, power, component)


def integral_functional(h: Callable, dh: Callable) -> PathFunctional:
    """Left-point discretization of the running integral of h along the path.

    h maps states (..., n) -> (...); dh maps states (..., n) -> (..., n)
    and is the gradient of h.  Both must broadcast over leading axes.  The
    derivative profile is dt times _chain_rows of the rows dh(X_k) . Y_k,
    with the last row zero, since the left-point sum stops at k = M - 1.
    """

    def value(bundle):
        heights = np.asarray(h(bundle.states))           # (..., M+1)
        return np.sum(heights[..., :-1], axis=-1) * bundle.grid.dt

    def derivative(bundle):
        grads = np.asarray(dh(bundle.states))            # (..., M+1, n)
        left = np.einsum("...ki,...kij->...kj", grads, bundle.jacobians.y)
        left[..., -1, :] = 0.0
        return bundle.grid.dt * _chain_rows(bundle, left)

    return PathFunctional(value=value, derivative=derivative, step_value=h)


def shift_functional(f: PathFunctional, level: float) -> PathFunctional:
    """f - level, so a conditioning event {f(X) = level} reads {g(X) = 0}.

    The derivative, step_value and the probe's steps and gradient are
    unchanged by the constant shift.
    """

    def probe(bundle):
        inner = f.probe(bundle)
        return inner and inner._replace(value=lambda *args: inner.value(*args) - level)

    return replace(f, value=lambda bundle: f.value(bundle) - level,
                   probe=None if f.probe is None else probe)


def constant_functional(c: float) -> PathFunctional:
    """The constant functional; zero Malliavin derivative, and a probe of no
    step."""

    def value(bundle):
        lead = bundle.states.shape[:-2]
        return np.full(lead, float(c)) if lead else float(c)

    return PathFunctional(
        value=value,
        derivative=lambda bundle: np.zeros(bundle.states.shape[:-1] + (bundle.model.noise_dim,)),
        probe=lambda bundle: Probe((), lambda x: np.full(x.shape[:-2], float(c)), np.zeros_like),
    )
