"""Exact Gaussian oracle for Euler chains whose steps are affine in the state
with shared factors (OU, mean-reverting, any dimension).

Such a chain is Gaussian.  Its grid states X = (X_0, ..., X_M), flattened to
(M+1) n entries in step-major order, are m + L xi for M d standard normal
draws xi, with the noise of step k in entries k d .. k d + d - 1.
chain_moments builds the mean m and the loading L from the Euler recursion
X_{k+1} = X_k + dt b(X_k, t_k) + sigma(t_k) dW_k itself, reading the model's
coefficients.  conditional_quadratic conditions a quadratic loss
X^T Q X + q . X + r on a linear constraint w . X = level in closed form, and
theta_derivative differentiates either by complex step: every operation on
the way is analytic in theta, so a complex theta carries the derivative in
its imaginary part to rounding, with no cancellation.
"""

import numpy as np

from condmc.sde import _step_jacobian

_COMPLEX_STEP = 1e-30


def chain_moments(model, theta, x0, grid):
    """(m, L): the mean ((M+1) n,) and the loading ((M+1) n, M d) of the Euler
    chain from x0; theta may be complex.  ValueError unless every step is
    affine in the state with a shared factor (sde._step_jacobian)."""
    n, d, steps, dt = model.state_dim, model.noise_dim, grid.steps, grid.dt
    kind = complex if np.iscomplexobj(theta) else float
    mean = np.zeros((steps + 1, n), kind)
    load = np.zeros((steps + 1, n, steps * d), kind)
    mean[0] = np.broadcast_to(np.asarray(x0, dtype=float), (n,))
    origin, two_rows = np.zeros(n), np.zeros((2, n))  # a per-row drift_dx shows on rows
    for k, t in enumerate(grid.times[:-1]):
        if not _step_jacobian(model, float(np.real(theta)), two_rows, t)[2]:
            raise ValueError(f"step {k} is not affine in the state with a shared factor")
        slope = np.asarray(model.drift_dx(origin, t, theta))   # b(x) = slope x + offset
        offset = np.asarray(model.drift(origin, t, theta))
        mean[k + 1] = mean[k] + dt * (slope @ mean[k] + offset)
        load[k + 1] = load[k] + dt * (slope @ load[k])
        load[k + 1, :, k * d:(k + 1) * d] += np.asarray(model.diffusion(origin, t)) * np.sqrt(dt)
    return mean.reshape(-1), load.reshape(-1, steps * d)


def marginal_weights(grid, n, step, component=0):
    """w with w . X = X_step[component]; a negative step counts from the end."""
    w = np.zeros((grid.steps + 1, n))
    w[step, component] = 1.0
    return w.reshape(-1)


def left_point_weights(grid, n, component=0):
    """w with w . X = dt sum_{k < M} X_k[component], the left-point integral."""
    w = np.zeros((grid.steps + 1, n))
    w[:-1, component] = grid.dt
    return w.reshape(-1)


def square_loss(w, c=0.0):
    """(Q, q, r) of the loss (w . X - c)^2: terminal_power(2) with w the
    horizon's marginal weights and c = 0, the tracking loss (X_T - c)^2."""
    return np.outer(w, w), -2.0 * c * w, c * c


def integral_square_loss(grid, n, component=0):
    """(Q, q, r) of dt sum_{k < M} X_k[component]^2, the left-point integral
    of X^2 that integral_functional values."""
    return np.diag(left_point_weights(grid, n, component)), np.zeros((grid.steps + 1) * n), 0.0


def conditional_quadratic(moments, loss, w, level=0.0):
    """E[X^T Q X + q . X + r | w . X = level] for the chain's moments (m, L)
    and the loss (Q, q, r).  Transposes only, no conjugates, so that a
    complex theta stays analytic."""
    (m, load), (quad, lin, const) = moments, loss
    cov_w = load @ (load.T @ w)            # Cov(X, w . X)
    var_w = w @ cov_w
    mean = m + cov_w * ((level - w @ m) / var_w)
    cov = load @ load.T - np.outer(cov_w, cov_w) / var_w
    return np.sum(quad * cov) + mean @ quad @ mean + lin @ mean + const


def theta_derivative(f, theta):
    """d f / d theta at a real theta by complex step, for f analytic in theta."""
    return np.imag(f(theta + 1j * _COMPLEX_STEP)) / _COMPLEX_STEP
