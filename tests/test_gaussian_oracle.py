"""The exact Gaussian oracle of affine Euler chains (tests/gaussian_oracle.py),
checked against the Euler-chain closed forms and against simulated chains.

No estimator is gated against the oracle here; those gates belong with the
fixes of the derivative rows, whose bias they would show today.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import condmc as cm
from gaussian_oracle import (chain_moments, conditional_quadratic, integral_square_loss,
                             left_point_weights, marginal_weights, square_loss,
                             theta_derivative)


def euler_ou_second_moment(theta, sigma, dt, steps):
    """E[X_{c+steps}^2 | X_c = 0] on the Euler OU chain, a = 1 - theta dt:
    sigma^2 dt sum_{j < steps} a^(2j) (as in perfbench/workloads.py)."""
    a = 1.0 - theta * dt
    return sigma * sigma * dt * math.fsum(a ** (2 * j) for j in range(steps))


def euler_ou_second_moment_dtheta(theta, sigma, dt, steps):
    """Its theta-derivative, with da/dtheta = -dt."""
    a = 1.0 - theta * dt
    return sigma * sigma * dt * math.fsum(-2.0 * j * dt * a ** (2 * j - 1)
                                          for j in range(1, steps))


# (theta, steps M, constraint step c, dim, component), sigma 0.8 on [0, 1.5],
# from x0 = 0.7: E[X_M[component]^2 | X_c[component] = 0] reads only the
# steps after c, whatever x0 and the other coordinates
CLOSED_FORM_SETTINGS = [(1.0, 20, 7, 1, 0), (2.0, 50, 25, 1, 0), (0.5, 12, 3, 2, 1)]


@pytest.mark.parametrize("theta, steps, c, dim, component", CLOSED_FORM_SETTINGS)
def test_oracle_matches_the_euler_ou_closed_forms(theta, steps, c, dim, component):
    model, grid, sigma = cm.ou_model(0.8, dim=dim), cm.TimeGrid(1.5, steps), 0.8
    loss = square_loss(marginal_weights(grid, dim, -1, component))
    w = marginal_weights(grid, dim, c, component)

    def oracle(th):
        return conditional_quadratic(chain_moments(model, th, 0.7, grid), loss, w)

    want = euler_ou_second_moment(theta, sigma, grid.dt, steps - c)
    want_dtheta = euler_ou_second_moment_dtheta(theta, sigma, grid.dt, steps - c)
    assert abs(oracle(theta) - want) <= 1e-12 * abs(want)
    assert abs(theta_derivative(oracle, theta) - want_dtheta) <= 1e-12 * abs(want_dtheta)


@pytest.mark.parametrize("case", ["tracking on an integral", "integral square on a marginal"])
def test_complex_step_matches_a_central_difference(case):
    # a two-dimensional chain with a nonzero mean, at a nonzero level
    model, grid = cm.mean_reverting_model(0.5, 1.3, dim=2), cm.TimeGrid(1.0, 16)
    if case == "tracking on an integral":
        loss, w = square_loss(marginal_weights(grid, 2, -1), 0.4), left_point_weights(grid, 2)
    else:
        loss, w = integral_square_loss(grid, 2, 1), marginal_weights(grid, 2, 6)

    def oracle(th):
        return conditional_quadratic(chain_moments(model, th, [0.3, -0.2], grid), loss, w, 0.6)

    h = 1e-5
    central = (oracle(1.2 + h) - oracle(1.2 - h)) / (2 * h)
    assert abs(theta_derivative(oracle, 1.2) - central) <= 1e-8 * abs(central)


# (model, x0, steps): ten random states, so 55 covariance entries each
SIMULATED_CHAINS = {
    "ou1": (lambda: cm.ou_model(0.8), [0.7], 10),
    "mean-reverting2": (lambda: cm.mean_reverting_model(0.5, 1.3, dim=2), [0.3, -0.2], 5),
}


@pytest.mark.parametrize("name", sorted(SIMULATED_CHAINS))
def test_oracle_moments_match_simulated_chains(name):
    # every mean and covariance entry of the random states X_1 .. X_M (X_0 is
    # fixed) within 5 standard errors of 200,000 simulated chains at seed 17
    factory, x0, steps = SIMULATED_CHAINS[name]
    model, grid, n_paths = factory(), cm.TimeGrid(1.0, steps), 200_000
    m, load = chain_moments(model, 1.4, x0, grid)
    n = model.state_dim
    m, load = m[n:], load[n:]
    cov = load @ load.T
    states = cm.simulate_paths(model, 1.4, x0, grid, n_paths, 17).states[:, 1:].reshape(
        n_paths, -1)
    sample_mean = states.mean(axis=0)
    z_mean = (sample_mean - m) / np.sqrt(np.diag(cov) / n_paths)
    centred = states - sample_mean
    sample_cov = centred.T @ centred / (n_paths - 1)
    # Var of a Gaussian sample covariance: (C_ii C_jj + C_ij^2) / N
    z_cov = (sample_cov - cov) / np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov ** 2)
                                         / n_paths)
    upper = np.triu_indices(len(m))
    assert len(upper[0]) == 55
    assert np.max(np.abs(z_mean)) <= 5.0
    assert np.max(np.abs(z_cov[upper])) <= 5.0


# ---------------------------------------------------------------------------
# the tower property, swept: no simulation, so a flip is a finding

# probabilists' 3-point Gauss-Hermite rule, exact for polynomials of degree 5
_HERMITE_NODES = np.array([-math.sqrt(3.0), 0.0, math.sqrt(3.0)])
_HERMITE_WEIGHTS = np.array([1.0, 4.0, 1.0]) / 6.0


@st.composite
def tower_cases(draw):
    """(model, x0, grid, constraint weights w, loss (Q, q, r), theta)."""
    dim = draw(st.sampled_from((1, 2)))
    sigma = draw(st.floats(0.2, 2.0))
    if draw(st.booleans()):
        model = cm.ou_model(sigma, dim=dim)
    else:
        model = cm.mean_reverting_model(draw(st.floats(-1.0, 2.0)), sigma, dim=dim)
    x0 = draw(st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim))
    grid = cm.TimeGrid(draw(st.floats(0.25, 3.0)), draw(st.integers(2, 60)))
    component = draw(st.integers(0, dim - 1))
    if draw(st.booleans()):
        w = marginal_weights(grid, dim, draw(st.integers(1, grid.steps)), component)
    else:
        w = left_point_weights(grid, dim, component)
    loss_component = draw(st.integers(0, dim - 1))
    if draw(st.booleans()):
        loss = square_loss(marginal_weights(grid, dim, -1, loss_component),
                           draw(st.floats(-2.0, 2.0)))
    else:
        loss = integral_square_loss(grid, dim, loss_component)
    return model, x0, grid, w, loss, draw(st.floats(-1.0, 3.0))


def unconditional_quadratic(moments, loss):
    """E[X^T Q X + q . X + r] = tr(Q L L^T) + m^T Q m + q . m + r."""
    (m, load), (quad, lin, const) = moments, loss
    return np.sum(quad * (load @ load.T)) + m @ quad @ m + lin @ m + const


def tower_average(moments, loss, w):
    """The conditional mean averaged over the constraint's own law
    N(w . m, w^T L L^T w) by the 3-point rule: exact, since the conditional
    mean is quadratic in the level."""
    m, load = moments
    spread = np.sqrt(w @ load @ (load.T @ w))
    return sum(weight * conditional_quadratic(moments, loss, w, w @ m + node * spread)
               for node, weight in zip(_HERMITE_NODES, _HERMITE_WEIGHTS))


@settings(max_examples=300)
@given(case=tower_cases(), level=st.floats(-3.0, 3.0))
def test_oracle_keeps_the_tower_property_property(case, level):
    model, x0, grid, w, loss, theta = case

    def unconditional(th):
        return unconditional_quadratic(chain_moments(model, th, x0, grid), loss)

    def averaged(th):
        return tower_average(chain_moments(model, th, x0, grid), loss, w)

    size = abs(unconditional(theta))
    assert abs(averaged(theta) - unconditional(theta)) <= 1e-12 * size
    assert abs(theta_derivative(averaged, theta)
               - theta_derivative(unconditional, theta)) <= 1e-12 * size
    # the constraint itself, conditioned on its own level, reads that level
    no_loss = (np.zeros((len(w), len(w))), w, 0.0)
    given_level = conditional_quadratic(chain_moments(model, theta, x0, grid), no_loss, w, level)
    assert abs(given_level - level) <= 1e-12 * max(1.0, abs(level))
