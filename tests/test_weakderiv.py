"""Tests for the split-kernel (branch-pair) gradient estimator and the
score-function baseline: decomposition algebra, coupled sampling, the signed
density identity, engine consistency and closed-form agreement."""

import dataclasses
import math
import threading
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import condmc as cm
from condmc import sde
from condmc import weakderiv as wd
from condmc.errors import (
    CoefficientShapeError,
    NonDiagonalDiffusion,
    NonFiniteEstimate,
    NonFiniteState,
    SingularDiffusion,
    ZeroSensitivity,
)
from condmc.functionals import PathFunctional, Probe
from condmc.malliavin import quotient_integrands
from condmc.sde import block_rows, per_path
from condmc.streams import PATHS_PER_STREAM, TAG_BRANCH, TAG_CHOICE, TAG_NOISE, _StreamPool, stream
from condmc.weakderiv import _hj_values
from conftest import fixed_block_rows
from test_sde import mixed_model, per_row_copy, same_bits, sine_diffusion_model

# d/dtheta of the exact discrete-chain variance of X_1 (unit OU, dt = 0.01,
# 100 steps): Var_M(theta) = sum_k (1 - theta dt)^{2k} dt, differentiated.
DISCRETE_DVAR_T1 = -0.2969861579887488
# continuous-time counterpart d/dtheta [(1 - e^{-2 theta}) / (2 theta)] at 1
CONT_DVAR_T1 = -0.29699707514508095

X0 = np.array([0.0])


def wiener_model():
    sig = np.array([[1.0]])
    zeros3 = np.zeros((1, 1, 1))
    return cm.SdeModel(
        drift=lambda x, t, theta: np.zeros_like(x),
        drift_dtheta=lambda x, t, theta: np.zeros_like(x),
        drift_dx=lambda x, t, theta: np.zeros(x.shape[:-1] + (1, 1)),
        diffusion=lambda x, t: sig,
        diffusion_dx=lambda x, t: zeros3,
        state_dim=1,
        noise_dim=1,
        name="wiener",
    )


def flipped_ou_model():
    # same OU drift, diffusion -1 instead of +1; X(-sigma) = -X(sigma) pathwise
    sig = np.array([[-1.0]])
    zeros3 = np.zeros((1, 1, 1))
    return cm.SdeModel(
        drift=lambda x, t, theta: -theta * x,
        drift_dtheta=lambda x, t, theta: -x,
        drift_dx=lambda x, t, theta: np.broadcast_to(
            -theta * np.eye(1), x.shape[:-1] + (1, 1)),
        diffusion=lambda x, t: sig,
        diffusion_dx=lambda x, t: zeros3,
        state_dim=1,
        noise_dim=1,
        name="flipped-ou",
    )


def cubic_model():
    # drift -theta x^3 makes the first-variation process path dependent
    sig = np.array([[1.0]])
    zeros3 = np.zeros((1, 1, 1))
    return cm.SdeModel(
        drift=lambda x, t, theta: -theta * x ** 3,
        drift_dtheta=lambda x, t, theta: -x ** 3,
        drift_dx=lambda x, t, theta: (-3.0 * theta * x ** 2)[..., :, None]
        * np.eye(1),
        diffusion=lambda x, t: sig,
        diffusion_dx=lambda x, t: zeros3,
        state_dim=1,
        noise_dim=1,
        name="cubic",
    )


def diag2_model():
    # two independent mean-reverting coordinates with rates theta and 2 theta
    sig = np.diag([1.0, 0.5])
    rates = np.array([1.0, 2.0])
    zeros3 = np.zeros((2, 2, 2))
    return cm.SdeModel(
        drift=lambda x, t, theta: -theta * rates * x,
        drift_dtheta=lambda x, t, theta: -rates * x,
        drift_dx=lambda x, t, theta: np.broadcast_to(
            np.diag(-theta * rates), x.shape[:-1] + (2, 2)),
        diffusion=lambda x, t: sig,
        diffusion_dx=lambda x, t: zeros3,
        state_dim=2,
        noise_dim=2,
        name="diag2",
    )


def offdiag_model():
    sig = np.array([[1.0, 0.3], [0.0, 1.0]])
    return cm.SdeModel(
        drift=lambda x, t, theta: -theta * x,
        drift_dtheta=lambda x, t, theta: -x,
        drift_dx=lambda x, t, theta: np.broadcast_to(
            -theta * np.eye(2), x.shape[:-1] + (2, 2)),
        diffusion=lambda x, t: sig,
        diffusion_dx=lambda x, t: np.zeros((2, 2, 2)),
        state_dim=2,
        noise_dim=2,
        name="offdiag",
    )


def relu_drift_model():
    # b = -theta max(x, 0): no theta-sensitivity wherever x <= 0
    sig = np.array([[1.0]])
    zeros3 = np.zeros((1, 1, 1))
    return cm.SdeModel(
        drift=lambda x, t, theta: -theta * np.maximum(x, 0.0),
        drift_dtheta=lambda x, t, theta: -np.maximum(x, 0.0),
        drift_dx=lambda x, t, theta: (-theta * (x > 0.0))[..., None],
        diffusion=lambda x, t: sig,
        diffusion_dx=lambda x, t: zeros3,
        state_dim=1,
        noise_dim=1,
        name="relu-drift",
    )


def terminal_square():
    return cm.terminal_power(2)


def terminal_functional(at_horizon):
    """at_horizon of the horizon states (..., n), with a probe of the horizon
    alone."""
    return PathFunctional(
        value=lambda b: at_horizon(b.states[..., -1, :]),
        probe=lambda b: Probe((b.grid.steps,), lambda x: at_horizon(x[..., 0, :])))


def _horizon_chunks(batch, f):
    """_carried_chunks of a functional f with a probe of the horizon alone:
    (steps, plus, minus, scales) with plus and minus the (N, K, n) horizon
    states of the copies, carried by the step-factor products where the
    model has them, else by Euler."""
    probe = f.probe(batch)
    props = wd._affine_propagators(batch, probe.steps)
    for at, (plus,), (minus,), scales in wd._carried_chunks(batch, probe, props):
        yield at, plus[:, :, 0], minus[:, :, 0], scales


def _horizon_value(f, batch, x):
    """The value f's probe gives horizon states x (..., n)."""
    return np.asarray(f.probe(batch).value(x[..., None, :]))


def marginal_at(step):
    # payoff read at an interior grid step: exercises the generic engine
    return PathFunctional(
        value=lambda bundle: bundle.states[..., step, 0] ** 2,
    )


def choice_step(seed, i, steps):
    """Path i's random-k branch step: row i % G of its group's choice draws."""
    return int(stream(seed, i // PATHS_PER_STREAM, tag=TAG_CHOICE).integers(
        0, steps, PATHS_PER_STREAM)[i % PATHS_PER_STREAM])


def sum_over_k_reference(model, theta, x0, grid, functional, n_paths, seed):
    vals = np.empty(n_paths)
    for i in range(n_paths):
        vals[i] = math.fsum(
            cm.hj_single_branch(model, theta, x0, grid, k, functional, seed, i)
            for k in range(grid.steps))
    return vals


# ---------------------------------------------------------------------------
# kernel decomposition


def test_decompose_weight_sign_and_mean():
    model = cm.ou_model(1.0)
    decomp = cm.hj_decompose(model, np.array([2.0]), 0.0, 1.0, 0.01)
    # d/dtheta of the step mean is dt * (-x) = -0.02, spread sqrt(dt) = 0.1
    assert decomp.scale == pytest.approx(0.02 / (0.1 * math.sqrt(2 * math.pi)),
                                         rel=1e-15)
    (comp,) = decomp.per_dimension
    assert comp.index == 0
    assert comp.sign == -1.0
    assert comp.rayleigh_scale == pytest.approx(0.1, rel=1e-15)
    assert comp.mean == pytest.approx(1.98, rel=1e-15)
    np.testing.assert_allclose(decomp.dtheta_mean, [-0.02], rtol=1e-15)


def test_decompose_two_dim_mixture_weights():
    model = diag2_model()
    dt = 0.04
    decomp = cm.hj_decompose(model, np.array([1.0, 2.0]), 0.0, 1.0, dt)
    root = math.sqrt(2 * math.pi)
    w0 = dt * 1.0 / (math.sqrt(dt) * root)
    w1 = dt * 4.0 / (0.5 * math.sqrt(dt) * root)
    assert len(decomp.per_dimension) == 2
    assert decomp.per_dimension[0].weight == pytest.approx(w0, rel=1e-14)
    assert decomp.per_dimension[1].weight == pytest.approx(w1, rel=1e-14)
    assert decomp.scale == pytest.approx(w0 + w1, rel=1e-14)
    assert [c.sign for c in decomp.per_dimension] == [-1.0, -1.0]


def test_decompose_insensitive_drift_gives_null_measure():
    decomp = cm.hj_decompose(wiener_model(), X0, 0.0, 1.0, 0.01)
    assert decomp.scale == 0.0
    assert decomp.per_dimension == ()


def test_decompose_rejects_nonpositive_dt():
    with pytest.raises(ValueError):
        cm.hj_decompose(cm.ou_model(1.0), X0, 0.0, 1.0, 0.0)


def test_decompose_zero_diffusion_with_sensitivity_raises():
    model = cm.SdeModel(
        drift=lambda x, t, theta: -theta * x,
        drift_dtheta=lambda x, t, theta: -x,
        drift_dx=lambda x, t, theta: np.broadcast_to(
            -theta * np.eye(1), x.shape[:-1] + (1, 1)),
        diffusion=lambda x, t: np.zeros((1, 1)),
        diffusion_dx=lambda x, t: np.zeros((1, 1, 1)),
        state_dim=1,
        noise_dim=1,
    )
    with pytest.raises(SingularDiffusion):
        cm.hj_decompose(model, np.array([1.0]), 0.0, 1.0, 0.01)


def test_decompose_rejects_offdiagonal_diffusion():
    with pytest.raises(NonDiagonalDiffusion):
        cm.hj_decompose(offdiag_model(), np.array([1.0, 1.0]), 0.0, 1.0, 0.01)


# ---------------------------------------------------------------------------
# branch-pair sampling


def test_branch_pair_antithetic_around_mean():
    decomp = cm.hj_decompose(cm.ou_model(1.0), np.array([2.0]), 0.0, 1.0, 0.01)
    rng = np.random.default_rng(7)
    for _ in range(50):
        x_plus, x_minus = cm.sample_branch_pair(decomp, rng)
        # sign is -1 here, so the positive part sits below the nominal mean
        assert x_plus[0] < decomp.per_dimension[0].mean < x_minus[0]
        assert x_plus[0] - decomp.per_dimension[0].mean == pytest.approx(
            decomp.per_dimension[0].mean - x_minus[0], rel=1e-12)


def test_branch_pair_null_measure_raises():
    decomp = cm.hj_decompose(wiener_model(), X0, 0.0, 1.0, 0.01)
    with pytest.raises(ZeroSensitivity):
        cm.sample_branch_pair(decomp, np.random.default_rng(0))


def test_branch_pair_mean_gap_matches_mean_derivative_exactly():
    # scale * E[x_plus - x_minus] telescopes to dt * d(drift)/dtheta:
    # scale * 2 E[R] = |dm| / (s sqrt(2 pi)) * 2 s sqrt(pi/2) = |dm|
    decomp = cm.hj_decompose(cm.ou_model(1.0), np.array([2.0]), 0.0, 1.0, 0.01)
    rng = np.random.default_rng(11)
    gaps = np.empty(4000)
    for i in range(4000):
        x_plus, x_minus = cm.sample_branch_pair(decomp, rng)
        gaps[i] = x_plus[0] - x_minus[0]
    est = decomp.scale * gaps.mean()
    se = decomp.scale * gaps.std(ddof=1) / math.sqrt(gaps.size)
    assert abs(est - (-0.02)) <= 3 * se


def test_branch_pair_unbiased_for_cubic_payoff():
    # E[scale (f(X+) - f(X-))] should equal d/dtheta E[f(N(m(theta), s^2))]
    # which for f(y) = y^3 is (3 m^2 + 3 s^2) * dm/dtheta
    model = cm.ou_model(1.0)
    x, dt, theta = np.array([0.7]), 0.05, 1.2
    decomp = cm.hj_decompose(model, x, 0.0, theta, dt)
    m = decomp.per_dimension[0].mean
    s = decomp.per_dimension[0].rayleigh_scale
    target = (3 * m ** 2 + 3 * s ** 2) * decomp.dtheta_mean[0]
    rng = np.random.default_rng(23)
    vals = np.empty(20000)
    for i in range(vals.size):
        x_plus, x_minus = cm.sample_branch_pair(decomp, rng)
        vals[i] = decomp.scale * (x_plus[0] ** 3 - x_minus[0] ** 3)
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - target) <= 3 * se


def test_two_dim_pair_keeps_other_coordinate_shared():
    decomp = cm.hj_decompose(diag2_model(), np.array([1.0, 2.0]), 0.0, 1.0, 0.04)
    rng = np.random.default_rng(3)
    for _ in range(40):
        x_plus, x_minus = cm.sample_branch_pair(decomp, rng)
        moved = x_plus != x_minus
        assert moved.sum() == 1


# ---------------------------------------------------------------------------
# signed density identity


def test_signed_density_matches_gaussian_kernel_derivative():
    model = cm.ou_model(1.0)
    decomp = cm.hj_decompose(model, np.array([2.0]), 0.0, 1.0, 0.01)
    m = decomp.mean[0]
    s = decomp.rayleigh_scales[0]
    y = np.linspace(m - 5 * s, m + 5 * s, 100)[:, None]
    got = cm.signed_density(decomp, y)
    gauss = np.exp(-((y[:, 0] - m) ** 2) / (2 * s ** 2)) / (s * math.sqrt(2 * math.pi))
    want = decomp.dtheta_mean[0] * (y[:, 0] - m) / s ** 2 * gauss
    scale_ref = np.abs(want).max()
    np.testing.assert_allclose(got, want, atol=1e-6 * scale_ref)


@settings(max_examples=60)
@given(n_dim=st.sampled_from([1, 2]), theta=st.floats(-2.0, 3.0),
       dt=st.floats(1e-3, 0.5), data=st.data())
def test_signed_density_is_kernel_theta_derivative_property(n_dim, theta, dt, data):
    # d/dtheta of prod_i N(y_i; m_i, s_i^2) with m = x + dt b(x, theta) is the
    # density times sum_i (y_i - m_i) / s_i^2 * dt db_i/dtheta
    model = cm.ou_model(1.0) if n_dim == 1 else diag2_model()
    floats = st.floats(-2.0, 2.0)
    x = np.array(data.draw(st.lists(floats, min_size=n_dim, max_size=n_dim)))
    decomp = cm.hj_decompose(model, x, 0.0, theta, dt)
    m, s = decomp.mean, decomp.rayleigh_scales
    z = np.array(data.draw(st.lists(st.lists(st.floats(-4.0, 4.0), min_size=n_dim,
                                             max_size=n_dim), min_size=1, max_size=8)))
    y = m + s * z
    density = np.prod(np.exp(-((y - m) ** 2) / (2 * s ** 2)) / (s * math.sqrt(2 * math.pi)),
                      axis=-1)
    want = density * np.sum((y - m) / s ** 2 * decomp.dtheta_mean, axis=-1)
    got = cm.signed_density(decomp, y)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12 * np.abs(want).max())


def test_branch_densities_are_normalized():
    decomp = cm.hj_decompose(cm.ou_model(1.0), np.array([2.0]), 0.0, 1.0, 0.01)
    m = decomp.mean[0]
    s = decomp.rayleigh_scales[0]
    y = np.linspace(m - 12 * s, m + 12 * s, 40001)[:, None]
    rho_plus, rho_minus = cm.branch_densities(decomp, y)
    assert np.trapezoid(rho_plus, y[:, 0]) == pytest.approx(1.0, abs=1e-7)
    assert np.trapezoid(rho_minus, y[:, 0]) == pytest.approx(1.0, abs=1e-7)
    # one-sided supports on either side of the nominal mean
    assert rho_plus[y[:, 0] > m].max() == 0.0
    assert rho_minus[y[:, 0] < m].max() == 0.0


def test_signed_density_null_measure_is_zero():
    decomp = cm.hj_decompose(wiener_model(), X0, 0.0, 1.0, 0.01)
    y = np.linspace(-1.0, 1.0, 9)[:, None]
    assert np.all(cm.signed_density(decomp, y) == 0.0)


# ---------------------------------------------------------------------------
# single-branch propagation


def test_single_branch_range_check():
    grid = cm.TimeGrid(1.0, 10)
    model = cm.ou_model(1.0)
    with pytest.raises(ValueError):
        cm.hj_single_branch(model, 1.0, X0, grid, -1, terminal_square(), 0, 0)
    with pytest.raises(ValueError):
        cm.hj_single_branch(model, 1.0, X0, grid, 10, terminal_square(), 0, 0)


def test_single_branch_null_sensitivity_is_exact_zero():
    grid = cm.TimeGrid(1.0, 10)
    val = cm.hj_single_branch(wiener_model(), 1.0, X0, grid, 4,
                              terminal_square(), 0, 0)
    assert val == 0.0


def test_diffusion_sign_does_not_change_even_payoffs():
    # with diffusion -1 the state path is the mirror image of the +1 path,
    # so X_T^2 and every branch gap must agree exactly, draw for draw
    grid = cm.TimeGrid(1.0, 20)
    f = terminal_square()
    for i in range(5):
        a = cm.hj_single_branch(cm.ou_model(1.0), 1.0, X0, grid, 7, f, 99, i)
        b = cm.hj_single_branch(flipped_ou_model(), 1.0, X0, grid, 7, f, 99, i)
        assert a == b


# ---------------------------------------------------------------------------
# aggregated estimators: engines against the one-branch reference


def test_random_k_engine_matches_reference():
    model = cm.ou_model(1.0)
    grid = cm.TimeGrid(1.0, 8)
    f = terminal_square()
    n, seed = 64, 17
    report = cm.hj_gradient(model, 1.0, X0, grid, f, n, "random-k", seed)
    vals = np.empty(n)
    for i in range(n):
        k = choice_step(seed, i, grid.steps)
        vals[i] = grid.steps * cm.hj_single_branch(model, 1.0, X0, grid, k, f,
                                                   seed, i)
    assert report.estimate == pytest.approx(math.fsum(vals) / n, rel=1e-12)
    assert report.variance == pytest.approx(float(vals.var(ddof=1)), rel=1e-10)


def test_sum_over_k_terminal_engine_matches_reference():
    model = cm.ou_model(1.0)
    grid = cm.TimeGrid(0.75, 6)
    f = terminal_square()
    n, seed = 16, 29
    report = cm.hj_gradient(model, 1.0, X0, grid, f, n, "sum-over-k", seed)
    vals = sum_over_k_reference(model, 1.0, X0, grid, f, n, seed)
    assert report.estimate == pytest.approx(math.fsum(vals) / n, rel=1e-12)
    assert report.variance == pytest.approx(float(vals.var(ddof=1)), rel=1e-10)


def test_sum_over_k_integral_engine_matches_reference():
    model = cm.ou_model(1.0)
    grid = cm.TimeGrid(0.75, 6)
    f = cm.integral_functional(lambda x: x[..., 0] ** 2, lambda x: 2.0 * x)
    n, seed = 16, 31
    report = cm.hj_gradient(model, 1.0, X0, grid, f, n, "sum-over-k", seed)
    vals = sum_over_k_reference(model, 1.0, X0, grid, f, n, seed)
    assert report.estimate == pytest.approx(math.fsum(vals) / n, rel=1e-12)


def test_sum_over_k_generic_engine_matches_reference():
    model = cm.ou_model(1.0)
    grid = cm.TimeGrid(0.75, 6)
    f = marginal_at(3)
    n, seed = 16, 37
    report = cm.hj_gradient(model, 1.0, X0, grid, f, n, "sum-over-k", seed)
    vals = sum_over_k_reference(model, 1.0, X0, grid, f, n, seed)
    assert report.estimate == pytest.approx(math.fsum(vals) / n, rel=1e-12)


def test_shifted_integral_keeps_the_integral_engine():
    # the shift cancels in every branch gap, so the shifted integral runs
    # the step-sum engine and reproduces the unshifted gradient to the bit
    grid = cm.TimeGrid(1.0, 20)
    f = cm.integral_functional(lambda x: x[..., 0] ** 2, lambda x: 2.0 * x)
    shifted = cm.shift_functional(f, 0.4)
    assert shifted.step_value is f.step_value
    plain = cm.hj_gradient(cm.ou_model(1.0), 1.0, X0, grid, f, 200, "sum-over-k", 17)
    moved = cm.hj_gradient(cm.ou_model(1.0), 1.0, X0, grid, shifted, 200, "sum-over-k", 17)
    assert (moved.estimate, moved.variance, moved.branch_stats) == (
        plain.estimate, plain.variance, plain.branch_stats)


def test_random_k_two_dim_matches_reference():
    model = diag2_model()
    grid = cm.TimeGrid(0.5, 5)
    f = terminal_functional(lambda x: x[..., 0] ** 2 + x[..., 1] ** 2)
    n, seed = 48, 41
    report = cm.hj_gradient(model, 1.0, np.array([0.3, -0.2]), grid, f, n,
                            "random-k", seed)
    vals = np.empty(n)
    for i in range(n):
        k = choice_step(seed, i, grid.steps)
        vals[i] = grid.steps * cm.hj_single_branch(
            model, 1.0, np.array([0.3, -0.2]), grid, k, f, seed, i)
    assert report.estimate == pytest.approx(math.fsum(vals) / n, rel=1e-12)


def test_jacobian_reading_payoff_matches_reference():
    # payoff touching the first-variation process forces the branch engines
    # to re-propagate jacobians for every branch copy
    model = cubic_model()
    grid = cm.TimeGrid(0.5, 5)
    f = PathFunctional(
        value=lambda b: b.jacobians.y[..., -1, 0, 0] * b.states[..., -1, 0],
    )
    n, seed = 24, 43
    report = cm.hj_gradient(model, 0.8, np.array([0.4]), grid, f, n,
                            "random-k", seed)
    vals = np.empty(n)
    for i in range(n):
        k = choice_step(seed, i, grid.steps)
        vals[i] = grid.steps * cm.hj_single_branch(model, 0.8, np.array([0.4]),
                                                   grid, k, f, seed, i)
    assert report.estimate == pytest.approx(math.fsum(vals) / n, rel=1e-12)


# ---------------------------------------------------------------------------
# aggregated estimators: statistical agreement


def test_random_k_matches_discrete_closed_form():
    grid = cm.TimeGrid(1.0, 100)
    report = cm.hj_gradient(cm.ou_model(1.0), 1.0, X0, grid, terminal_square(),
                            100_000, "random-k", 5)
    assert abs(report.estimate - DISCRETE_DVAR_T1) <= 3 * report.std_error
    # the discrete chain is itself within O(dt) of the continuous derivative
    assert abs(DISCRETE_DVAR_T1 - CONT_DVAR_T1) < 2e-5


def test_score_function_matches_discrete_closed_form():
    grid = cm.TimeGrid(1.0, 100)
    report = cm.score_function_gradient(cm.ou_model(1.0), 1.0, X0, grid,
                                        terminal_square(), 100_000, 6)
    assert abs(report.estimate - DISCRETE_DVAR_T1) <= 3 * report.std_error


def test_all_estimators_agree_with_common_noise_bump():
    model = cm.ou_model(1.0)
    grid = cm.TimeGrid(1.0, 50)
    f = terminal_square()
    n = 20000
    rk = cm.hj_gradient(model, 1.0, X0, grid, f, n, "random-k", 101)
    sk = cm.hj_gradient(model, 1.0, X0, grid, f, n, "sum-over-k", 102)
    sf = cm.score_function_gradient(model, 1.0, X0, grid, f, n, 103)
    h = 1e-3
    up = cm.simulate_paths(model, 1.0 + h, X0, grid, n, 104)
    dn = cm.simulate_paths(model, 1.0 - h, X0, grid, n, 104)
    diffs = (np.asarray(f.value(up)) - np.asarray(f.value(dn))) / (2 * h)
    fd_est = math.fsum(diffs) / n
    fd_se = diffs.std(ddof=1) / math.sqrt(n)
    reports = [(rk.estimate, rk.std_error), (sk.estimate, sk.std_error),
               (sf.estimate, sf.std_error), (fd_est, fd_se)]
    for i in range(len(reports)):
        for j in range(i + 1, len(reports)):
            gap = abs(reports[i][0] - reports[j][0])
            band = 3 * math.hypot(reports[i][1], reports[j][1])
            assert gap <= band, (i, j, gap, band)


def test_two_dim_gradient_agrees_with_bump():
    model = diag2_model()
    grid = cm.TimeGrid(1.0, 40)
    x0 = np.array([0.5, -0.5])
    f = terminal_functional(lambda x: x[..., 0] ** 2 + x[..., 1] ** 2)
    n = 20000
    report = cm.hj_gradient(model, 1.0, x0, grid, f, n, "sum-over-k", 201)
    h = 1e-3
    up = cm.simulate_paths(model, 1.0 + h, x0, grid, n, 202)
    dn = cm.simulate_paths(model, 1.0 - h, x0, grid, n, 202)
    diffs = (np.asarray(f.value(up)) - np.asarray(f.value(dn))) / (2 * h)
    fd_se = diffs.std(ddof=1) / math.sqrt(n)
    gap = abs(report.estimate - math.fsum(diffs) / n)
    assert gap <= 3 * math.hypot(report.std_error, fd_se)


def test_integral_payoff_gradient_agrees_with_bump():
    model = cm.ou_model(1.0)
    grid = cm.TimeGrid(1.0, 40)
    f = cm.integral_functional(lambda x: x[..., 0] ** 2, lambda x: 2.0 * x)
    n = 20000
    report = cm.hj_gradient(model, 1.0, X0, grid, f, n, "sum-over-k", 301)
    h = 1e-3
    up = cm.simulate_paths(model, 1.0 + h, X0, grid, n, 302)
    dn = cm.simulate_paths(model, 1.0 - h, X0, grid, n, 302)
    diffs = (np.asarray(f.value(up)) - np.asarray(f.value(dn))) / (2 * h)
    fd_se = diffs.std(ddof=1) / math.sqrt(n)
    gap = abs(report.estimate - math.fsum(diffs) / n)
    assert gap <= 3 * math.hypot(report.std_error, fd_se)


def test_sum_over_k_variance_beats_random_k():
    model = cm.ou_model(1.0)
    grid = cm.TimeGrid(4.0, 200)
    f = terminal_square()
    rk = cm.hj_gradient(model, 1.0, X0, grid, f, 2000, "random-k", 401)
    sk = cm.hj_gradient(model, 1.0, X0, grid, f, 2000, "sum-over-k", 402)
    assert sk.variance < rk.variance / 2


# ---------------------------------------------------------------------------
# degenerate cases and validation


def test_gradient_null_sensitivity_is_exact_zero():
    grid = cm.TimeGrid(1.0, 12)
    f = terminal_square()
    for mode in ("random-k", "sum-over-k"):
        report = cm.hj_gradient(wiener_model(), 1.0, X0, grid, f, 50, mode, 0)
        assert report.estimate == 0.0
        assert report.std_error == 0.0
    sf = cm.score_function_gradient(wiener_model(), 1.0, X0, grid, f, 50, 0)
    assert sf.estimate == 0.0


def test_gradient_constant_payoff_is_exact_zero():
    grid = cm.TimeGrid(1.0, 12)
    f = cm.constant_functional(3.5)
    for mode in ("random-k", "sum-over-k"):
        report = cm.hj_gradient(cm.ou_model(1.0), 1.0, X0, grid, f, 50, mode, 0)
        assert report.estimate == 0.0
    sf = cm.score_function_gradient(cm.ou_model(1.0), 1.0, X0, grid, f, 2000, 0)
    assert abs(sf.estimate) <= 3 * sf.std_error


@pytest.mark.parametrize("functional", [
    cm.terminal_power(2),
    cm.integral_functional(lambda x: x[..., 0] ** 2, lambda x: 2.0 * x),
], ids=["terminal", "integral"])
def test_sum_over_k_exploding_branch_raises_non_finite_state(functional):
    # dX = theta X^3 dt + dW: at this theta and path count the base paths
    # stay finite (asserted below), but some branch copies blow up before
    # the horizon, so the branch pass is what raises
    model = cm.SdeModel(
        drift=lambda x, t, theta: theta * x ** 3,
        drift_dtheta=lambda x, t, theta: x ** 3,
        drift_dx=lambda x, t, theta: (3.0 * theta * x ** 2)[..., None] * np.eye(1),
        diffusion=lambda x, t: np.eye(1),
        diffusion_dx=lambda x, t: np.zeros((1, 1, 1)),
        state_dim=1,
        noise_dim=1,
        name="explosive-cubic",
    )
    grid = cm.TimeGrid(1.0, 20)
    theta, n = 0.34, 400
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isfinite(cm.simulate_paths(model, theta, X0, grid, n, 3).states).all()
        with pytest.raises(NonFiniteState) as failure:
            cm.hj_gradient(model, theta, X0, grid, functional, n, "sum-over-k", 3)
        assert failure.value.step == grid.steps
        with pytest.raises(NonFiniteState):
            cm.hj_gradient(model, theta, X0, grid, functional, n, "random-k", 3)


@pytest.mark.parametrize("estimator", ["random-k", "sum-over-k", "score-function"])
def test_overflowing_value_raises_non_finite_estimate(estimator):
    # every state stays finite from x0 = 1e160, but X_T^2 overflows to inf
    grid = cm.TimeGrid(1.0, 10)
    x0 = np.array([1e160])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteEstimate):
            if estimator == "score-function":
                cm.score_function_gradient(cm.ou_model(1.0), 1.0, x0, grid,
                                           terminal_square(), 50, 0)
            else:
                cm.hj_gradient(cm.ou_model(1.0), 1.0, x0, grid, terminal_square(), 50,
                               estimator, 0)


def test_gradient_validates_inputs():
    grid = cm.TimeGrid(1.0, 10)
    f = terminal_square()
    with pytest.raises(ValueError):
        cm.hj_gradient(cm.ou_model(1.0), 1.0, X0, grid, f, 1, "random-k", 0)
    with pytest.raises(ValueError):
        cm.hj_gradient(cm.ou_model(1.0), 1.0, X0, grid, f, 10, "all-k", 0)
    with pytest.raises(ValueError):
        cm.score_function_gradient(cm.ou_model(1.0), 1.0, X0, grid, f, 1, 0)


def test_score_function_zero_diffusion_raises():
    model = cm.SdeModel(
        drift=lambda x, t, theta: -theta * x,
        drift_dtheta=lambda x, t, theta: -x,
        drift_dx=lambda x, t, theta: np.broadcast_to(
            -theta * np.eye(1), x.shape[:-1] + (1, 1)),
        diffusion=lambda x, t: np.zeros((1, 1)),
        diffusion_dx=lambda x, t: np.zeros((1, 1, 1)),
        state_dim=1,
        noise_dim=1,
    )
    grid = cm.TimeGrid(1.0, 10)
    with pytest.raises(SingularDiffusion):
        cm.score_function_gradient(model, 1.0, np.array([1.0]), grid,
                                   terminal_square(), 10, 0)


def test_score_function_singular_covariance_raises():
    # rank-one 2x2 diffusion: the transition covariance cannot be inverted
    sig = np.array([[1.0, 0.0], [1.0, 0.0]])
    model = cm.SdeModel(
        drift=lambda x, t, theta: -theta * x,
        drift_dtheta=lambda x, t, theta: -x,
        drift_dx=lambda x, t, theta: np.broadcast_to(
            -theta * np.eye(2), x.shape[:-1] + (2, 2)),
        diffusion=lambda x, t: sig,
        diffusion_dx=lambda x, t: np.zeros((2, 2, 2)),
        state_dim=2,
        noise_dim=2,
    )
    grid = cm.TimeGrid(1.0, 10)
    with pytest.raises(SingularDiffusion):
        cm.score_function_gradient(model, 1.0, np.array([1.0, 1.0]), grid,
                                   terminal_square(), 10, 0)


def test_gradient_report_fields_are_consistent():
    grid = cm.TimeGrid(1.0, 10)
    report = cm.hj_gradient(cm.ou_model(1.0), 1.0, X0, grid, terminal_square(),
                            500, "sum-over-k", 77)
    assert report.mode == "sum-over-k"
    assert report.n_paths == 500
    assert report.master_seed == 77
    assert report.std_error == pytest.approx(
        math.sqrt(report.variance / 500), rel=1e-12)
    assert report.branch_stats is not None
    sf = cm.score_function_gradient(cm.ou_model(1.0), 1.0, X0, grid,
                                    terminal_square(), 500, 77)
    assert sf.mode == "score-function"
    assert sf.branch_stats is None


@pytest.mark.parametrize("mode", wd.GRADIENT_MODES)
def test_branch_stats_is_the_mean_gap_over_all_branches(mode):
    # random-k takes one branch per path, sum-over-k one per path and step;
    # each gap is the scalar reference's weighted gap over its kernel scale
    model, grid, x0, seed, n = cm.ou_model(1.0), cm.TimeGrid(1.0, 5), np.array([0.5]), 3, 6
    f = terminal_square()
    report = cm.hj_gradient(model, 1.0, x0, grid, f, n, mode, seed)
    gaps = []
    for i in range(n):
        path = cm.simulate_path(model, 1.0, x0, grid, cm.generate_noise(seed, i, grid, 1))
        steps = [choice_step(seed, i, grid.steps)] if mode == "random-k" else range(grid.steps)
        for k in steps:
            scale = cm.hj_decompose(model, path.states[k], grid.times[k], 1.0, grid.dt).scale
            gaps.append(abs(cm.hj_single_branch(model, 1.0, x0, grid, k, f, seed, i)) / scale)
    assert report.branch_stats == pytest.approx(np.mean(gaps), rel=1e-9)


def test_gradient_deterministic_under_seed_and_blocking():
    grid = cm.TimeGrid(1.0, 20)
    f = terminal_square()
    a = cm.hj_gradient(cm.ou_model(1.0), 1.0, X0, grid, f, 300, "random-k", 9)
    c = cm.score_function_gradient(cm.ou_model(1.0), 1.0, X0, grid, f, 300, 9)
    with fixed_block_rows(64):
        b = cm.hj_gradient(cm.ou_model(1.0), 1.0, X0, grid, f, 300, "random-k", 9)
        d = cm.score_function_gradient(cm.ou_model(1.0), 1.0, X0, grid, f, 300, 9)
    assert a.estimate == b.estimate
    assert c.estimate == d.estimate


# ---------------------------------------------------------------------------
# random-k outputs pinned to the bit (re-captured when paths moved to grouped
# Philox streams, PATHS_PER_STREAM per key; a version that changed only the
# noise, branch and choice draw sites reproduced them; any change here is a
# change of numbers).  branch_stats is an exact sum of per-row |gap| sums,
# so it too is the same at both block sizes.


RANDOM_K_PINS = {
    # (state dim, block size): (estimate, variance, branch_stats) as float.hex
    (1, 400): ("-0x1.79617e9aca1b2p-1", "0x1.8e65200e6eb99p+1", "0x1.84f38a1f9f7a4p-1"),
    (1, 64): ("-0x1.79617e9aca1b2p-1", "0x1.8e65200e6eb99p+1", "0x1.84f38a1f9f7a4p-1"),
    (2, 400): ("-0x1.19d8eddff38e8p-1", "0x1.d2230d606fa45p-1", "0x1.2ac4c4c5de7fbp-2"),
    (2, 64): ("-0x1.19d8eddff38e8p-1", "0x1.d2230d606fa45p-1", "0x1.2ac4c4c5de7fbp-2"),
}


# (state dim, block size): score-function (estimate, std_error, variance) as
# float.hex, re-captured with the random-k pins above
SCORE_PINS = {
    (1, 400): ("-0x1.2feb482516af4p-1", "0x1.c74ad59d14bf6p-4", "0x1.3c4d15d88890ep+2"),
    (1, 64): ("-0x1.2feb482516af4p-1", "0x1.c74ad59d14bf6p-4", "0x1.3c4d15d88890ep+2"),
    (2, 400): ("-0x1.ad1f2b0f2f6bbp-2", "0x1.4fc5e146f3d06p-4", "0x1.5810d94d8525bp+1"),
    (2, 64): ("-0x1.ad1f2b0f2f6bbp-2", "0x1.4fc5e146f3d06p-4", "0x1.5810d94d8525bp+1"),
}


def _pinned_ou(n_dim):
    return ((cm.ou_model(1.0), np.array([0.5])) if n_dim == 1
            else (cm.ou_model(0.8, dim=2), np.array([0.5, -0.3])))


@pytest.mark.parametrize("n_dim, rows", sorted(RANDOM_K_PINS))
def test_random_k_outputs_keep_their_bits(n_dim, rows):
    model, x0 = _pinned_ou(n_dim)
    grid = cm.TimeGrid(1.0, 20)
    with fixed_block_rows(rows):
        report = cm.hj_gradient(model, 1.0, x0, grid, _radius_square_at(grid.steps), 400,
                                "random-k", 11)
    got = tuple(float(v).hex() for v in (report.estimate, report.variance,
                                         report.branch_stats))
    assert got == RANDOM_K_PINS[n_dim, rows]


@pytest.mark.parametrize("n_dim, rows", sorted(SCORE_PINS))
def test_score_function_outputs_keep_their_bits(n_dim, rows):
    model, x0 = _pinned_ou(n_dim)
    grid = cm.TimeGrid(1.0, 20)
    with fixed_block_rows(rows):
        report = cm.score_function_gradient(model, 1.0, x0, grid,
                                            _radius_square_at(grid.steps), 400, 11)
    got = tuple(float(v).hex() for v in (report.estimate, report.std_error, report.variance))
    assert got == SCORE_PINS[n_dim, rows]


def _cubic_terminal():
    return terminal_functional(lambda x: x[..., 0] ** 2 + x[..., -1] ** 3)


def _square_integral():
    return cm.integral_functional(lambda x: x[..., 0] ** 2 + x[..., -1] ** 2, lambda x: 2.0 * x)


# sum-over-k outputs pinned to the bit: (model, x0, paths, steps, functional)
# -> (estimate, variance, branch_stats) as float.hex, at seed 11, theta 1 and
# horizon 1.  The terminal OU cases run the affine engine (1,000 x 100 spans
# two placement chunks in one block and one in 64-row blocks), cubic and
# diag2 carry Euler copies, and the last three run the integral and generic
# engines; an exact zero in x0 gives zero-weight coordinates or steps.
SUM_OVER_K_PINS = {
    "ou1-terminal": ((lambda: cm.ou_model(1.0), [0.5], 1000, 100, _cubic_terminal),
                     ("-0x1.4e95f64313edfp-1", "0x1.3f127b2ab5fa4p+1", "0x1.1c91935ec5620p-2")),
    "ou2-terminal": ((lambda: cm.ou_model(0.8, dim=2), [0.5, -0.3], 400, 60, _cubic_terminal),
                     ("-0x1.9275753a0f6a4p-6", "0x1.8baa9f70c927cp-1", "0x1.5e5e369631b90p-3")),
    "cubic-terminal": ((cubic_model, [0.5], 400, 30, _cubic_terminal),
                       ("-0x1.63cf91950b0cdp-2", "0x1.0ea21655e6cf2p-1", "0x1.8127ba7730c59p-2")),
    "diag2-terminal": ((diag2_model, [0.0, 0.4], 300, 20, _cubic_terminal),
                       ("-0x1.3fa62d9532a68p-2", "0x1.b3cc3a814c979p-3", "0x1.43a5af3e681d9p-3")),
    "ou1-integral": ((lambda: cm.ou_model(1.0), [0.0], 400, 30, _square_integral),
                     ("-0x1.fb66af5d5bf21p-3", "0x1.dc0733fc4dff2p-4", "0x1.f7acf3d3999bcp-3")),
    "ou2-integral": ((lambda: cm.ou_model(0.8, dim=2), [0.5, -0.3], 300, 20, _square_integral),
                     ("-0x1.067ab96f05326p-2", "0x1.67abab4f4b610p-5", "0x1.0c403b4330062p-3")),
    "ou2-generic": ((lambda: cm.ou_model(0.8, dim=2), [0.5, -0.3], 200, 12,
                     lambda: _radius_square_at(7)),
                    ("-0x1.30b445d157a30p-2", "0x1.ba5ce9d172e0fp-4", "0x1.d99c1247d1c91p-3")),
}


@pytest.mark.parametrize("rows", [None, 64])
@pytest.mark.parametrize("case", sorted(SUM_OVER_K_PINS))
def test_sum_over_k_outputs_keep_their_bits(case, rows):
    (model, x0, n, steps, functional), pins = SUM_OVER_K_PINS[case]
    with fixed_block_rows(rows):
        report = cm.hj_gradient(model(), 1.0, np.array(x0), cm.TimeGrid(1.0, steps),
                                functional(), n, "sum-over-k", 11)
    got = tuple(float(v).hex() for v in (report.estimate, report.variance,
                                         report.branch_stats))
    assert got == pins


def _value_only_square_integral():
    return PathFunctional(value=cm.integral_functional(lambda x: x[..., 0] ** 2,
                                                       lambda x: 2.0 * x).value)


# generic-route outputs pinned to the bit at seed 4 and 37 steps on [0, 1]: a
# value-only payoff (no probe, no step_value) in sum-over-k, as (estimate,
# variance, branch_stats), and the counterfactual sum-over-k gradient on a
# per-row model, whose integrand has no probe there, as (loss, gradient,
# se_gradient).  The grid is long enough for the order of the sum over k to
# show: summing the per-step gaps pairwise in place of step by step moves the
# OU estimate by 1 ulp, the sine-diffusion variance by 1 ulp, and the
# counterfactual gradient and its error by 1 ulp each
GENERIC_ROUTE_PINS = {
    "ou1 value-only integral": ("-0x1.a33e9e7920cdap-3", "0x1.125b8bfaf4f34p-4",
                                "0x1.18408da230e44p-3"),
    "sine-diffusion value-only integral": ("-0x1.a0ce24004c7a8p-4", "0x1.cf52e3e6c0f7ap-7",
                                           "0x1.d73851033910bp-5"),
    "sine-diffusion counterfactual": ("0x1.c1ff5419f412fp-4", "-0x1.6031228a15de1p-5",
                                      "0x1.f77dde068ffaep-6"),
}


@pytest.mark.parametrize("case", sorted(GENERIC_ROUTE_PINS))
def test_generic_route_outputs_keep_their_bits(case):
    grid = cm.TimeGrid(1.0, 37)
    if case == "sine-diffusion counterfactual":
        g = cm.shift_functional(cm.marginal_power(18, 1), 0.1)
        loss, gradient, diag = cm.counterfactual_gradient(
            sine_diffusion_model(), 1.1, cm.terminal_power(2), g, "canonical", grid, 0.3,
            1000, "sum-over-k", 4)
        got = (loss, gradient, diag["se_gradient"])
    else:
        model, x0 = {"ou1": (cm.ou_model(1.0), 0.5),
                     "sine-diffusion": (sine_diffusion_model(), 0.3)}[case.split()[0]]
        report = cm.hj_gradient(model, 1.0, x0, grid, _value_only_square_integral(), 300,
                                "sum-over-k", 4)
        got = (report.estimate, report.variance, report.branch_stats)
    assert tuple(float(v).hex() for v in got) == GENERIC_ROUTE_PINS[case]


def constant_sensitivity_model():
    """dX = (theta - X) dt + dW, whose drift_dtheta is np.ones(1): a drift
    sensitivity with no path axis, so the split's weights are the same on
    every path while its means are not."""
    sig, zeros3, slope = np.ones((1, 1)), np.zeros((1, 1, 1)), -np.eye(1)
    return cm.SdeModel(
        drift=lambda x, t, theta: theta - x,
        drift_dtheta=lambda x, t, theta: np.ones(1),
        drift_dx=lambda x, t, theta: slope,
        diffusion=lambda x, t: sig,
        diffusion_dx=lambda x, t: zeros3,
        state_dim=1,
        noise_dim=1,
        name="constant-sensitivity",
    )


_CONSTANT_PAYOFFS = {
    "terminal": lambda: cm.terminal_power(2),
    "marginal": lambda: cm.marginal_power(7, 2),
    "integral": lambda: cm.integral_functional(lambda x: x[..., 0] ** 2, lambda x: 2.0 * x),
}


def _constant_sensitivity_outputs(case):
    """float.hex outputs of one estimator on constant_sensitivity_model: the
    branch gradient's (estimate, variance, branch_stats), the score function's
    (estimate, std_error, variance), or the counterfactual (loss, gradient,
    se_gradient)."""
    model, grid = constant_sensitivity_model(), cm.TimeGrid(1.0, 20)
    estimator, name = case.split(" ", 1)
    if estimator == "counterfactual":
        g = cm.shift_functional(cm.marginal_power(10, 1), 0.1)
        loss, gradient, diag = cm.counterfactual_gradient(
            model, 0.8, cm.terminal_power(2), g, "canonical", grid, 0.5, 300, name, 13)
        return tuple(float(v).hex() for v in (loss, gradient, diag["se_gradient"]))
    if estimator == "score":
        report = cm.score_function_gradient(model, 0.8, 0.5, grid, _CONSTANT_PAYOFFS[name](),
                                            300, 5)
        return tuple(float(v).hex() for v in (report.estimate, report.std_error,
                                             report.variance))
    report = cm.hj_gradient(model, 0.8, 0.5, grid, _CONSTANT_PAYOFFS[name](), 300, estimator, 5)
    return tuple(float(v).hex() for v in (report.estimate, report.variance,
                                         report.branch_stats))


# outputs of every estimator on a model whose drift sensitivity has no path
# axis, pinned to the bit at seed 5 (seed 13 for the counterfactual), theta
# 0.8, x0 0.5, 300 paths and 20 steps on [0, 1]; the terminal and marginal
# cases carry their branches to the probe steps by step-factor products, in
# both modes, and the integral cases run the restart and integral engines.
# The random-k terminal, the marginal and the counterfactual cases were
# re-captured when their branches moved from restarts to the probe carry;
# each moved by at most 3e-15 relative, by the rounding of the carry
CONSTANT_SENSITIVITY_PINS = {
    "random-k terminal": ("0x1.bd89dac1c021fp-1", "0x1.3980c881362f8p+0", "0x1.20d03e631cdfcp-1"),
    "random-k marginal": ("0x1.83cb831ecb3b2p-2", "0x1.4ebc6d80e2994p-1", "0x1.cb940ee6f23b1p-3"),
    "random-k integral": ("0x1.eb7fb3bb2afd9p-2", "0x1.7c073a21e57bdp-2", "0x1.26b86cbf4ca60p-2"),
    "sum-over-k terminal":
        ("0x1.cee980ca116d2p-1", "0x1.458e51d3514edp-1", "0x1.23346d8623445p-1"),
    "sum-over-k marginal":
        ("0x1.87c123b471c83p-2", "0x1.76d8d779c1b1ap-4", "0x1.d76918c686beep-3"),
    "sum-over-k integral":
        ("0x1.f0a096b2c5144p-2", "0x1.d5b77ff761f2dp-4", "0x1.265cbae5d0bccp-2"),
    "score terminal": ("0x1.aff495f127c8ap-1", "0x1.1ffc96a152695p-3", "0x1.7ba7013900008p+2"),
    "score marginal": ("0x1.9f4279be439fcp-2", "0x1.252ad854dc04fp-4", "0x1.896f42e617efbp+0"),
    "score integral": ("0x1.fbba3be5ef191p-2", "0x1.32f258105fa90p-4", "0x1.af49aaef4f456p+0"),
    "counterfactual random-k":
        ("0x1.a5be5cc113bb7p-2", "0x1.0904a822d5614p-1", "0x1.ee81084890385p-2"),
    "counterfactual sum-over-k":
        ("0x1.a5be5cc113bb7p-2", "0x1.2354015028870p-3", "0x1.e35fbef39f926p-2"),
}


@pytest.mark.parametrize("case", sorted(CONSTANT_SENSITIVITY_PINS))
def test_constant_drift_sensitivity_outputs_keep_their_bits(case):
    assert _constant_sensitivity_outputs(case) == CONSTANT_SENSITIVITY_PINS[case]


@pytest.mark.parametrize("model, n_paths, mixes", [
    (lambda: cm.ou_model(1.0), 200, False),
    (relu_drift_model, 300, True),
], ids=["ou", "relu-drift"])
def test_random_k_rows_branched_at_step_zero_are_exact_zeros(model, n_paths, mixes):
    # rows with no drift sensitivity at their branch step carry no gap: +0.0,
    # never 0 * gap.  From x0 = 0 the OU sensitivity -x vanishes at step 0
    # only; -max(x, 0) vanishes on every row at or below 0, so step groups mix
    # zero-scale rows with branched ones
    model = model()
    grid = cm.TimeGrid(1.0, 8)
    seed = 4
    batch = cm.simulate_paths(model, 1.0, X0, grid, n_paths, seed)
    vals, gap_rows = _hj_values(batch, terminal_square(), "random-k")
    ks = np.array([choice_step(seed, i, grid.steps) for i in range(n_paths)])
    zero = np.array([cm.hj_decompose(model, batch.states[i, k], grid.times[k], 1.0,
                                     grid.dt).scale == 0.0 for i, k in enumerate(ks)])
    mixed = [k for k in np.unique(ks) if 0 < np.count_nonzero(zero[ks == k]) < np.sum(ks == k)]
    assert np.any(zero) and bool(mixed) == mixes
    assert np.array_equal(vals[zero].view(np.int64), np.zeros(np.count_nonzero(zero),
                                                              dtype=np.int64))
    assert np.all(vals[~zero] != 0.0)
    assert gap_rows.shape == (n_paths,)
    assert np.all(gap_rows[zero] == 0.0) and np.all(gap_rows[~zero] > 0.0)
    reference = [grid.steps * cm.hj_single_branch(model, 1.0, X0, grid, k, terminal_square(),
                                                  seed, i) for i, k in enumerate(ks)]
    assert vals.tolist() == pytest.approx(reference, rel=1e-12, abs=1e-14)


# ---------------------------------------------------------------------------
# stream layout: one noise stream and one branch stream per group of paths


@pytest.mark.parametrize("mode, functional, tags", [
    ("sum-over-k", terminal_square(), (TAG_NOISE, TAG_BRANCH)),
    ("sum-over-k", cm.integral_functional(lambda x: x[..., 0] ** 2, lambda x: 2.0 * x),
     (TAG_NOISE, TAG_BRANCH)),
    ("sum-over-k", marginal_at(3), (TAG_NOISE, TAG_BRANCH)),
    ("random-k", terminal_square(), (TAG_NOISE, TAG_CHOICE, TAG_BRANCH)),
], ids=["terminal", "integral", "generic", "random-k"])
def test_gradient_rekeys_each_stream_once_per_path(monkeypatch, force_workers, mode,
                                                  functional, tags):
    # each block rekeys once per stream purpose and group of paths it touches:
    # 120-row blocks (one worker, as 120 rows leave no second one 100)
    # [0, 120), [120, 240), [240, 250) touch groups {0, 1}, {1, 2}, {2}; a
    # 200-row plan gives two workers 100-row blocks, one group each, and two
    # blocks may run at once, so the count takes a lock
    force_workers(2)
    rekeyed, lock = Counter(), threading.Lock()
    rekey = _StreamPool.rekey

    def counted(self, master_seed, group, *, tag=TAG_NOISE):
        with lock:
            rekeyed[tag, group] += 1
        return rekey(self, master_seed, group, tag=tag)

    monkeypatch.setattr(_StreamPool, "rekey", counted)
    assert PATHS_PER_STREAM == 100
    n = 250
    for steps, rows, counts in ((5, 120, (1, 2, 2)), (40, 120, (1, 2, 2)),
                                (40, 200, (1, 1, 1))):
        rekeyed.clear()
        with fixed_block_rows(rows):
            cm.hj_gradient(cm.ou_model(1.0), 1.0, np.array([0.5]), cm.TimeGrid(1.0, steps),
                           functional, n, mode, 3)
        assert rekeyed == Counter({(tag, group): count for tag in tags
                                   for group, count in enumerate(counts)})


# ---------------------------------------------------------------------------
# properties over random grids, dimensions, seeds and block sizes


def _radius_square_at(step):
    return PathFunctional(
        value=lambda b: b.states[..., step, 0] ** 2 + b.states[..., step, -1] ** 2,
    )


def _engine_case(engine, n_dim, steps):
    """(mode, functional) that runs the given engine on an n_dim-state model."""
    if engine == "terminal":
        return "sum-over-k", terminal_functional(lambda x: x[..., 0] ** 2 + x[..., -1] ** 2)
    if engine == "integral":
        return "sum-over-k", cm.integral_functional(
            lambda x: x[..., 0] ** 2 + x[..., -1] ** 2, lambda x: 2.0 * x)
    if engine == "generic":
        return "sum-over-k", _radius_square_at(steps // 2)
    return "random-k", _radius_square_at(steps)


@st.composite
def gradient_cases(draw):
    n_dim = draw(st.sampled_from([1, 2]))
    n_paths = draw(st.integers(2, 6))
    return {
        "model": cm.ou_model(1.0) if n_dim == 1 else diag2_model(),
        "theta": draw(st.floats(0.5, 2.0)),
        "x0": np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n_dim, max_size=n_dim))),
        "grid": cm.TimeGrid(draw(st.floats(0.25, 2.0)), draw(st.integers(2, 12))),
        "n_paths": n_paths,
        "seed": draw(st.integers(0, 2 ** 32)),
        "rows": draw(st.integers(1, n_paths)),
    }


def _branch_value_size(model, theta, x0, grid, f, n, seed):
    """Mean over paths of steps * max_k scale_k * |C(base path)|: a bound on
    the size of the weighted functional values a per-path estimate subtracts."""
    sizes = []
    for i in range(n):
        noise = cm.generate_noise(seed, i, grid, model.noise_dim)
        bundle = cm.simulate_path(model, theta, x0, grid, noise)
        scale = max(cm.hj_decompose(model, bundle.states[k], grid.times[k], theta,
                                    grid.dt).scale for k in range(grid.steps))
        sizes.append(grid.steps * scale * abs(float(f.value(bundle))))
    return float(np.mean(sizes))


ENGINES = ["terminal", "integral", "generic", "random-k"]
PROPERTY_SETTINGS = settings(max_examples=50)


@pytest.mark.parametrize("engine", ENGINES)
@PROPERTY_SETTINGS
@given(case=gradient_cases())
def test_engines_match_single_branch_reference_property(engine, case):
    model, theta, x0, grid = case["model"], case["theta"], case["x0"], case["grid"]
    n, seed = case["n_paths"], case["seed"]
    mode, f = _engine_case(engine, model.state_dim, grid.steps)
    with fixed_block_rows(case["rows"]):
        report = cm.hj_gradient(model, theta, x0, grid, f, n, mode, seed)
    if mode == "random-k":
        vals = np.empty(n)
        for i in range(n):
            k = choice_step(seed, i, grid.steps)
            vals[i] = grid.steps * cm.hj_single_branch(model, theta, x0, grid, k, f, seed, i)
    else:
        vals = sum_over_k_reference(model, theta, x0, grid, f, n, seed)
    # the reference subtracts whole functional values, so its rounding error
    # scales with them, not with the (possibly tiny) branch gaps
    err = 1e-12 * _branch_value_size(model, theta, x0, grid, f, n, seed)
    assert report.estimate == pytest.approx(math.fsum(vals) / n, rel=1e-12, abs=err)
    assert report.variance == pytest.approx(float(vals.var(ddof=1)), rel=1e-10,
                                            abs=err * (2 * float(vals.std(ddof=1)) + err))


@pytest.mark.parametrize("engine", ENGINES)
@PROPERTY_SETTINGS
@given(case=gradient_cases())
def test_gradient_is_block_size_invariant_property(engine, case):
    model, theta, x0, grid = case["model"], case["theta"], case["x0"], case["grid"]
    mode, f = _engine_case(engine, model.state_dim, grid.steps)

    def run(rows):
        with fixed_block_rows(rows):
            return cm.hj_gradient(model, theta, x0, grid, f, case["n_paths"], mode,
                                  case["seed"])

    whole, split = run(case["n_paths"]), run(case["rows"])
    assert (split.estimate, split.std_error, split.variance) == (
        whole.estimate, whole.std_error, whole.variance)


# ---------------------------------------------------------------------------
# the affine sum-over-k engine against the Euler-copy engine


def time_affine_model(n_dim):
    """dX = (-theta A(t) X + sin t) dt + s(t) dW with A(t) = [[1 + t, 0.5],
    [-0.3 t, 1]] (1 + t when n = 1) and a diagonal s(t): every step is affine
    in the state, and the step factors do not commute."""
    def a(t):
        return np.array([[1.0 + t, 0.5], [-0.3 * t, 1.0]])[:n_dim, :n_dim]

    zeros3 = np.zeros((n_dim, n_dim, n_dim))
    return cm.SdeModel(
        drift=lambda x, t, theta: -theta * x @ a(t).T + math.sin(t),
        drift_dtheta=lambda x, t, theta: -x @ a(t).T,
        drift_dx=lambda x, t, theta: -theta * a(t),
        diffusion=lambda x, t: np.diag([1.0 + 0.5 * t, 0.7][:n_dim]),
        diffusion_dx=lambda x, t: zeros3,
        state_dim=n_dim,
        noise_dim=n_dim,
        name="time-affine",
    )


AFFINE_MODELS = {
    "ou": lambda n: cm.ou_model(0.8, dim=n),
    "mean-reverting": lambda n: cm.mean_reverting_model(0.5, 1.3, dim=n),
    "time-affine": time_affine_model,
}


def _step_sum(scale_k, gaps):
    """Sum of scale_k * gaps over the step axis 1 of whole-block arrays, one
    contiguous row per column: the reference of the engines' fold."""
    weighted = np.moveaxis(wd._per_row(scale_k, gaps) * gaps, 1, -1)
    return np.sum(np.ascontiguousarray(weighted), axis=-1)


def _joined(chunks, steps):
    """The arrays of chunks (steps, *arrays) joined along the step axis into
    arrays allocated once, after checking that the chunks tile [0, steps) in
    order; besides the joined arrays, one chunk is alive at a time."""
    joined, stop = None, 0
    for at, *arrays in chunks:
        assert at.start == stop
        stop = at.stop
        if joined is None:
            joined = [np.empty(a.shape[:1] + (steps,) + a.shape[2:]) for a in arrays]
        for out, a in zip(joined, arrays):
            out[:, at] = a
        del arrays
    assert stop == steps
    return joined


def _engine_pair(batch, functional):
    """(affine route, Euler route) outputs of the carry on one block, the
    Euler route forced by per-row copies of the model's drift_dx and
    diffusion: the horizon states and scales of every branch, the per-path
    terminal estimates, and the size of the values each estimate subtracts,
    sum_k scale_k (|C+| + |C-|)."""
    euler = dataclasses.replace(batch, model=per_row_copy(batch.model))
    horizon = (batch.grid.steps,)
    assert wd._affine_propagators(batch, horizon) is not None
    # an Euler route but on a one-step grid, which has no step to carry
    assert wd._affine_propagators(euler, horizon) is None or batch.grid.steps == 1
    out = []
    for route in (batch, euler):
        plus, minus, scale_k = _joined(_horizon_chunks(route, functional), batch.grid.steps)
        c_plus, c_minus = (_horizon_value(functional, route, side) for side in (plus, minus))
        size = np.sum(scale_k * (np.abs(c_plus) + np.abs(c_minus)), axis=1)
        out.append((plus, minus, scale_k, _step_sum(scale_k, c_plus - c_minus), size))
    return out


def _assert_affine_matches_euler(affine, euler, rel=1e-12):
    # horizon states to rel of the largest; the per-path estimates to rel of
    # the values they subtract, whose rounding they carry
    for got, want in zip(affine[:2], euler[:2]):
        assert np.max(np.abs(got - want), initial=0.0) <= rel * np.max(np.abs(want), initial=0.0)
    assert np.array_equal(affine[2], euler[2])
    assert np.all(np.abs(affine[3] - euler[3]) <= rel * euler[4])


@settings(max_examples=40)
@given(name=st.sampled_from(sorted(AFFINE_MODELS)), n_dim=st.sampled_from([1, 2]),
       steps=st.integers(1, 30), n_paths=st.integers(2, 7), seed=st.integers(0, 2 ** 32),
       theta=st.floats(0.1, 2.5), horizon=st.floats(0.25, 4.0), data=st.data())
def test_affine_engine_matches_euler_copies_property(name, n_dim, steps, n_paths, seed,
                                                     theta, horizon, data):
    model = AFFINE_MODELS[name](n_dim)
    x0 = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n_dim, max_size=n_dim)))
    rows = data.draw(st.integers(1, n_paths))
    grid = cm.TimeGrid(horizon, steps)
    f = terminal_functional(lambda x: x[..., 0] ** 2 + x[..., -1] ** 3)

    def checked(batch):  # one engine pair per block of the estimator's own loop
        affine, euler = _engine_pair(batch, f)
        _assert_affine_matches_euler(affine, euler)
        return euler[3], euler[4]

    with fixed_block_rows(rows):
        values, sizes = per_path(model, theta, x0, grid, n_paths, seed, checked)
        report = cm.hj_gradient(model, theta, x0, grid, f, n_paths, "sum-over-k", seed)
    assert abs(report.estimate - np.mean(values)) <= 1e-12 * np.mean(sizes)


@pytest.mark.parametrize("name", sorted(AFFINE_MODELS))
@pytest.mark.parametrize("n_dim", [1, 2])
def test_affine_engine_carries_a_zero_step_factor(name, n_dim):
    # theta dt = 1 exactly: 1 - theta dt = 0 is no Jacobian to invert, and
    # every branch but the last one reaches the horizon on the base path
    # (time-affine: the factor of step 3 alone is zero for n = 1, and the
    # coupled 2 x 2 factor there is not)
    theta, grid = 8.0, cm.TimeGrid(1.0, 8)
    model = AFFINE_MODELS[name](n_dim)
    if name == "time-affine":
        theta = 8.0 / (1.0 + grid.times[3])
    batch = cm.simulate_paths(model, theta, np.full(n_dim, 0.4), grid, 6, 2)
    (props,) = wd._affine_propagators(batch, (grid.steps,))
    assert (not props[:3].any()) == (n_dim == 1 or name != "time-affine")
    _assert_affine_matches_euler(*_engine_pair(batch, cm.terminal_power(2)))
    report = cm.hj_gradient(model, theta, np.full(n_dim, 0.4), grid, cm.terminal_power(2), 6,
                            "sum-over-k", 2)
    assert math.isfinite(report.estimate)


@pytest.mark.parametrize("model, uses_affine", [
    (cm.ou_model(1.0), True), (cm.mean_reverting_model(0.5, 1.3, dim=2), True),
    (time_affine_model(2), True), (cubic_model(), False), (diag2_model(), False),
    (mixed_model(), False), (sine_diffusion_model(), False),
], ids=["ou", "mean-reverting-2", "time-affine-2", "cubic", "diag2-per-row",
        "shared-before-half", "sine-diffusion"])
def test_terminal_sum_over_k_picks_its_engine_by_the_step_factors(monkeypatch, model,
                                                                  uses_affine):
    # one carry per block; its Euler route steps the (N, K, n) branch copies
    # through the drift, 2 (M - 1) calls per one-chunk block, and its affine
    # route never calls the drift on them
    calls = Counter()

    def counted(*args, original=wd._carried_chunks):
        calls["_carried_chunks"] += 1
        return original(*args)

    def drift(x, t, theta, original=model.drift):
        calls["copy steps"] += x.ndim == 3
        return original(x, t, theta)

    monkeypatch.setattr(wd, "_carried_chunks", counted)
    x0, grid = np.full(model.state_dim, 0.3), cm.TimeGrid(1.0, 12)
    with fixed_block_rows(8):
        cm.hj_gradient(dataclasses.replace(model, drift=drift), 0.9, x0, grid,
                       cm.terminal_power(2), 20, "sum-over-k", 4)
    steps = 0 if uses_affine else 3 * 2 * (grid.steps - 1)
    assert calls == Counter({"_carried_chunks": 3, "copy steps": steps})


def test_affine_propagators_are_built_once_per_call():
    # a two-block OU call builds the step-factor products on its first block
    # and reuses them, M - 1 drift_dx calls in all, with the bits of one
    # block; on the cubic model each block finds no products at the last step
    grid, f = cm.TimeGrid(1.0, 30), cm.terminal_power(2)
    for model, builds in ((cm.ou_model(1.0), grid.steps - 1), (cubic_model(), 2)):
        calls = Counter()

        def drift_dx(x, t, theta, original=model.drift_dx):
            calls["drift_dx"] += 1
            return original(x, t, theta)

        counting = dataclasses.replace(model, drift_dx=drift_dx)
        reports = []
        for rows, m in ((10, counting), (10, model), (20, model)):
            with fixed_block_rows(rows):
                reports.append(cm.hj_gradient(m, 0.9, X0, grid, f, 20, "sum-over-k", 4))
        assert calls == {"drift_dx": builds}
        assert len({(r.estimate, r.variance, r.branch_stats) for r in reports}) == 1


# ---------------------------------------------------------------------------
# the branch placement pass: chunks of the step axis against the scalar oracle


@pytest.mark.parametrize("engine", ENGINES)
def test_mis_shaped_sensitivity_raises_a_shape_error(engine):
    # drift_dtheta drops the state axis: (N,) in place of (N, 1)
    model = dataclasses.replace(cm.ou_model(1.0), drift_dtheta=lambda x, t, theta: -x[..., 0])
    mode, f = _engine_case(engine, 1, 10)
    with pytest.raises(CoefficientShapeError, match=r"shape \((\d+),\) does not broadcast "
                                                    r"to \(\1, 1\)"):
        cm.hj_gradient(model, 1.0, np.array([0.3]), cm.TimeGrid(1.0, 10), f, 50, mode, 1)


@pytest.mark.parametrize("engine", ENGINES)
def test_gradient_rejects_offdiagonal_diffusion(engine):
    mode, f = _engine_case(engine, 2, 10)
    with pytest.raises(NonDiagonalDiffusion):
        cm.hj_gradient(offdiag_model(), 1.0, np.array([0.3, -0.2]), cm.TimeGrid(1.0, 10), f,
                       50, mode, 1)


PLACEMENT_MODELS = {
    "ou1": lambda: cm.ou_model(0.9),
    "ou2": lambda: cm.ou_model(0.8, dim=2),
    "ou3": lambda: cm.ou_model(1.1, dim=3),
    "mean-reverting2": lambda: cm.mean_reverting_model(0.5, 1.3, dim=2),
    "cubic": cubic_model,
    "diag2": diag2_model,
    "sine-diffusion": sine_diffusion_model,
    "shared-before-half": mixed_model,
}


@settings(max_examples=80)
@given(name=st.sampled_from(sorted(PLACEMENT_MODELS)), chunk=st.integers(1, 4),
       n_paths=st.integers(1, 6), first=st.sampled_from([0, 97]), seed=st.integers(0, 2 ** 32),
       theta=st.floats(0.2, 1.5), data=st.data())
def test_placed_branches_match_the_scalar_oracle_property(name, chunk, n_paths, first, seed,
                                                          theta, data):
    # step counts around the chunk edges: one step, C - 1, C, C + 1 and 2C + 1
    model = PLACEMENT_MODELS[name]()
    n_dim = model.state_dim
    steps = data.draw(st.sampled_from(sorted({max(s, 1) for s in
                                              (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1)})))
    x0 = np.array(data.draw(st.lists(st.one_of(st.just(0.0), st.floats(-1.5, 1.5)),
                                     min_size=n_dim, max_size=n_dim)))
    grid = cm.TimeGrid(1.0, steps)
    batch = cm.simulate_paths(model, theta, x0, grid, n_paths, seed, first_index=first)
    with mock.patch.object(sde, "CHUNK_BYTES", 8 * n_paths * n_dim * chunk):
        plus, minus, scale_k = _joined(wd._placed_chunks(batch), steps)
    draws = wd._branch_draw_block(seed, batch.path_indices, steps, n_dim)
    for k in range(steps):
        # the same terms and pairs as the split of step k alone
        at = slice(k, k + 1)
        terms = wd._hj_terms_batch(model, batch.states[:, at], grid.times[at], theta, grid.dt)
        pair = wd._assemble_branch_states(terms, *wd._draws_at(draws, slice(None), at))
        assert same_bits(plus[:, at], pair[0]) and same_bits(minus[:, at], pair[1])
        assert same_bits(scale_k[:, at], terms.total)
        for i in range(n_paths):
            decomp = cm.hj_decompose(model, batch.states[i, k], grid.times[k], theta, grid.dt)
            # the batch divides by the scale and sqrt(2 pi) in turn, the oracle by
            # their product, and sums the weights in the same order
            assert abs(scale_k[i, k] - decomp.scale) <= 4 * np.spacing(decomp.scale)
            if decomp.scale > 0.0:
                oracle = wd._branch_pair_from_draws(decomp, *wd._draws_at(draws, i, k))
                assert same_bits(plus[i, k], oracle[0]) and same_bits(minus[i, k], oracle[1])


# bytes the placement pass may hold beyond its outputs and its branch draws;
# an unchunked pass holds several (N, M, n) temporaries, 4.8 MB each at
# 1,500 x 400
PLACEMENT_ALLOWANCE = 4 * 2 ** 20


@pytest.mark.parametrize("rows, steps", [(1500, 400), (None, 50)], ids=["1500x400", "block"])
def test_placement_memory_is_its_outputs_and_draws(rows, steps):
    model, grid = cm.ou_model(1.0), cm.TimeGrid(1.0, steps)
    rows = rows or block_rows(model, grid)  # 20,700 rows at M = 50
    batch = cm.simulate_paths(model, 1.0, X0, grid, rows, 3)
    draw_bytes = sum(a.nbytes for a in wd._branch_draw_block(3, batch.path_indices, steps, 1)
                     if a is not None)
    tracemalloc.start()
    try:
        placed = _joined(wd._placed_chunks(batch), steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= sum(a.nbytes for a in placed) + draw_bytes + PLACEMENT_ALLOWANCE


# ---------------------------------------------------------------------------
# the chunked affine fold and score terms: bits and memory independent of
# the chunks


def _terminal_payoff(columns):
    """x_0^2 + x_{n-1}^3 at the horizon, or as (N, 2) columns with a second,
    x_{n-1}^3 - x_0."""
    def at_horizon(x):
        first = x[..., 0] ** 2 + x[..., -1] ** 3
        return np.stack([first, x[..., -1] ** 3 - x[..., 0]], axis=-1) if columns else first

    return terminal_functional(at_horizon)


@settings(max_examples=60)
@given(name=st.sampled_from(sorted(AFFINE_MODELS)), chunk=st.integers(1, 3),
       columns=st.booleans(), n_paths=st.integers(2, 5), seed=st.integers(0, 2 ** 32),
       theta=st.floats(0.2, 2.0), data=st.data())
def test_affine_fold_and_score_terms_are_chunk_independent_property(name, chunk, columns,
                                                                   n_paths, seed, theta, data):
    # step counts of one and two steps and around the chunk edges, so that
    # the last step, which has no carry, ends a full chunk or is one alone
    n_dim = data.draw(st.sampled_from([1, 2] if name == "time-affine" else [1, 2, 3]))
    steps = data.draw(st.sampled_from(sorted({max(s, 1) for s in (
        1, 2, chunk - 1, chunk, chunk + 1, 2 * chunk, 2 * chunk + 1)})))
    model, grid = AFFINE_MODELS[name](n_dim), cm.TimeGrid(1.5, steps)
    x0 = np.linspace(-0.4, 0.3, n_dim)

    def run(with_columns):
        f = _terminal_payoff(with_columns)
        values = per_path(model, theta, x0, grid, n_paths, seed,
                          lambda batch: _hj_values(batch, f, "sum-over-k"))
        score = cm.score_function_gradient(model, theta, x0, grid, f, n_paths, seed)
        return values + (score.estimate, score.std_error, score.variance)

    whole = run(columns)  # the default budget holds every step in one chunk
    batch = cm.simulate_paths(model, theta, x0, grid, n_paths, seed)
    f = _terminal_payoff(columns)
    with mock.patch.object(sde, "CHUNK_BYTES", 8 * n_paths * n_dim * chunk):
        chunked = run(columns)
        scalar = run(False)
        # the fold's sums reduce as the whole-block helpers reduce the joined chunks
        probe = f.probe(batch)
        folded = wd._terminal_sum_over_k(batch, probe, wd._affine_propagators(batch, probe.steps))
        plus, minus, scale_k = _joined(_horizon_chunks(batch, f), steps)
    gaps = _horizon_value(f, batch, plus) - _horizon_value(f, batch, minus)
    assert same_bits(folded[0], _step_sum(scale_k, gaps))
    assert same_bits(folded[1], wd._row_abs_sums(gaps))
    assert whole[0].shape == ((n_paths, 2) if columns else (n_paths,))
    for got, want in zip(chunked, whole):
        assert same_bits(got, want)
    if columns:  # the first column is the scalar payoff, to the bit
        assert all(same_bits(np.asarray(got)[..., 0], want) for got, want in
                   zip(chunked[:1] + chunked[2:], scalar[:1] + scalar[2:]))


# the Euler carry: chunks of the step axis against the default budget


def _step_sum_payoff(columns):
    """dt times the left-point sum of x_0^2 + x_{n-1}^3, or of (N, 2) columns
    with a second, sin x_{n-1}."""
    def h(x):
        first = x[..., 0] ** 2 + x[..., -1] ** 3
        return np.stack([first, np.sin(x[..., -1])], axis=-1) if columns else first

    return PathFunctional(value=lambda b: b.grid.dt * np.sum(h(b.states)[:, :-1], axis=1),
                          step_value=h)


EULER_CARRY_CASES = {
    "cubic": (cubic_model, _terminal_payoff),
    "sine-diffusion": (sine_diffusion_model, _terminal_payoff),
    "ou1-integral": (lambda: cm.ou_model(0.8), _step_sum_payoff),
    "ou2-integral": (lambda: cm.ou_model(0.8, dim=2), _step_sum_payoff),
}


@settings(max_examples=60)
@given(name=st.sampled_from(sorted(EULER_CARRY_CASES)), chunk=st.integers(1, 3),
       columns=st.booleans(), n_paths=st.integers(2, 5), seed=st.integers(0, 2 ** 32),
       theta=st.floats(0.2, 1.5), data=st.data())
def test_euler_carry_is_chunk_independent_property(name, chunk, columns, n_paths, seed, theta,
                                                  data):
    # the branch copies of a chunk step from their own placement on, so the
    # sums take the bits of the default budget's one chunk whatever the
    # chunks; step counts of one and two steps and around the chunk edges
    make, payoff = EULER_CARRY_CASES[name]
    model, f = make(), payoff(columns)
    n_dim = model.state_dim
    steps = data.draw(st.sampled_from(sorted({max(s, 1) for s in (
        1, 2, chunk - 1, chunk, chunk + 1, 2 * chunk, 2 * chunk + 1)})))
    grid, x0 = cm.TimeGrid(1.5, steps), np.linspace(-0.4, 0.3, n_dim)

    def run():
        return per_path(model, theta, x0, grid, n_paths, seed,
                        lambda batch: _hj_values(batch, f, "sum-over-k"))

    whole = run()  # the default budget holds every step in one chunk
    batch = cm.simulate_paths(model, theta, x0, grid, n_paths, seed)
    with mock.patch.object(sde, "CHUNK_BYTES", 8 * n_paths * n_dim * chunk):
        chunked = run()
        folded = _hj_values(batch, f, "sum-over-k")
        if f.step_value:
            gaps, scale_k = _joined(wd._carried_chunks(batch, step_value=f.step_value), steps)
        else:
            plus, minus, scale_k = _joined(_horizon_chunks(batch, f), steps)
            gaps = _horizon_value(f, batch, plus) - _horizon_value(f, batch, minus)
    # the fold's sums reduce as the whole-block sums of the joined chunks
    assert same_bits(folded[0], _step_sum(scale_k, gaps))
    assert same_bits(folded[1], wd._row_abs_sums(gaps))
    assert whole[0].shape == ((n_paths, 2) if columns else (n_paths,))
    for got, want in zip(chunked, whole):
        assert same_bits(got, want)


# bytes a gradient block may hold beyond its block, branch draws and
# accumulators: a dozen chunk temporaries.  The unfolded engines held
# several more (N, M[, n]) arrays, 4.6 MiB each at 1,500 x 400
GRADIENT_ALLOWANCE = 12 * sde.CHUNK_BYTES


@pytest.mark.parametrize("estimator", ["sum-over-k", "score-function", "integral-sum-over-k",
                                       "non-affine-sum-over-k"])
def test_gradient_block_memory_is_its_block_draws_and_accumulators(estimator):
    # one block of 1,500 rows at M = 400, as grad-horizon runs it: the block,
    # the branch draws and two (N, M) accumulators for sum-over-k, by the
    # affine route, by Euler on a model that is not affine, or with an
    # integral payoff, and the block and one (N, M) array of score terms for
    # the score function
    model, grid, rows = cm.ou_model(1.0), cm.TimeGrid(8.0, 400), 1500
    f = cm.shift_functional(cm.terminal_power(2), 3.0)
    if estimator == "integral-sum-over-k":
        f = cm.integral_functional(lambda x: x[..., 0] ** 2, lambda x: 2.0 * x)
    elif estimator == "non-affine-sum-over-k":
        model = relu_drift_model()
    assert block_rows(model, grid) >= rows
    n_m = 8 * rows * grid.steps
    block = 8 * rows * (2 * grid.steps + 1)
    if estimator != "score-function":
        run, held = lambda: cm.hj_gradient(model, 1.0, X0, grid, f, rows, "sum-over-k", 3), 3 * n_m
    else:
        run, held = lambda: cm.score_function_gradient(model, 1.0, X0, grid, f, rows, 3), n_m
    run()  # the first call builds what every call shares, such as grid times
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= block + held + GRADIENT_ALLOWANCE


@pytest.mark.parametrize("n_dim", [1, 2])
def test_random_k_values_that_view_the_restarted_block_keep_their_bits(n_dim):
    # both sides restart in one copy of the block, so a plus value that views
    # it must be copied before the minus side overwrites it
    model, x0 = _pinned_ou(n_dim)
    grid = cm.TimeGrid(1.0, 12)

    def payoff(view):
        def value(b):
            x = b.states[..., -1, 0]
            return x if view else x.copy()
        return PathFunctional(value=value)

    viewed, copied = (cm.hj_gradient(model, 0.9, x0, grid, payoff(view), 300, "random-k", 6)
                      for view in (True, False))
    assert (viewed.estimate, viewed.variance, viewed.branch_stats) == (
        copied.estimate, copied.variance, copied.branch_stats)
    assert copied.branch_stats > 0.0


def _counting(model):
    """model with drift, drift_dtheta and diffusion counting their calls."""
    calls = Counter()

    def counted(name):
        fn = getattr(model, name)

        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    names = ("drift", "drift_dtheta", "diffusion")
    return dataclasses.replace(model, **{name: counted(name) for name in names}), calls


@pytest.mark.parametrize("name", ["ou1", "ou2", "cubic", "sine-diffusion"])
def test_step_pair_reads_each_coefficient_once(name):
    # the split and both sides' increments come from one read of each
    # coefficient per step, whichever step the rows branch at and whether or
    # not the model's values have a path axis: once for rows that all branch
    # at one step (_step_pair), and once per step for the pairs of every step
    # (_placed_chunks, the sum-over-k split)
    model = PLACEMENT_MODELS[name]()
    grid = cm.TimeGrid(1.0, 6)
    batch = cm.simulate_paths(model, 0.7, np.full(model.state_dim, 0.4), grid, 5, 2)
    draws = wd._branch_draw_block(2, batch.path_indices, grid.steps, model.state_dim)
    for k in (4, 0):
        ks = np.full(5, k)
        counting, calls = _counting(model)
        wd._step_pair(dataclasses.replace(batch, model=counting), ks,
                      wd._draws_at(wd._draws_at(draws, np.arange(5), ks), slice(None), None))
        assert calls == {"drift": 1, "drift_dtheta": 1, "diffusion": 1}
    counting, calls = _counting(model)
    for _ in wd._placed_chunks(dataclasses.replace(batch, model=counting), increments=True):
        pass
    assert calls == {"drift": 6, "drift_dtheta": 6, "diffusion": 6}


@pytest.mark.parametrize("name", ["ou1", "ou2", "cubic", "sine-diffusion"])
def test_one_split_pass_gives_the_bits_of_its_step_groups(name):
    # rows branching at mixed steps, split in one pass that reads each
    # coefficient once per distinct step, get the totals and both sides the
    # split of every step (_placed_chunks, the sum-over-k split) gives them at
    # their step
    model = PLACEMENT_MODELS[name]()
    grid = cm.TimeGrid(1.0, 6)
    batch = cm.simulate_paths(model, 0.7, np.full(model.state_dim, 0.4), grid, 9, 2)
    draws = wd._branch_draw_block(2, batch.path_indices, grid.steps, model.state_dim)
    rows, ks = np.arange(9), np.array([5, 0, 3, 3, 0, 1, 5, 3, 2])
    counting, calls = _counting(model)
    total, sides = wd._step_pair(dataclasses.replace(batch, model=counting), ks,
                                 wd._draws_at(wd._draws_at(draws, rows, ks), slice(None), None))
    assert calls == {"drift": 5, "drift_dtheta": 5, "diffusion": 5}
    (at, plus, minus, scales, plus_dw, minus_dw), = wd._placed_chunks(batch, increments=True)
    assert at == slice(0, grid.steps)
    assert same_bits(total, scales[rows, ks])
    for side, want in zip(sides, ((plus, plus_dw), (minus, minus_dw))):
        assert all(same_bits(a, b[rows, ks]) for a, b in zip(side, want))


def test_one_split_pass_rejects_a_mis_shaped_coefficient():
    # drift_dtheta drops the state axis: (R,) in place of (R, 1) for a step's rows
    model = dataclasses.replace(cm.ou_model(1.0), drift_dtheta=lambda x, t, theta: -x[..., 0])
    batch = cm.simulate_paths(model, 1.0, np.array([0.3]), cm.TimeGrid(1.0, 4), 6, 1)
    draws = wd._branch_draw_block(1, batch.path_indices, 4, 1)
    ks = np.array([1, 1, 2, 3, 1, 2])
    with pytest.raises(CoefficientShapeError, match=r"shape \(3,\) does not broadcast "
                                                    r"to \(3, 1\)"):
        wd._step_pair(batch, ks,
                      wd._draws_at(wd._draws_at(draws, np.arange(6), ks), slice(None), None))


# ---------------------------------------------------------------------------
# the probe route against the restart and generic routes


PROBE_MODELS = {
    "ou": lambda n: cm.ou_model(0.8, dim=n),
    "mean-reverting": lambda n: cm.mean_reverting_model(0.5, 1.3, dim=n),
    "constant-sensitivity": lambda n: constant_sensitivity_model(),
}


@settings(max_examples=40)
@given(name=st.sampled_from(sorted(PROBE_MODELS)), n_dim=st.sampled_from([1, 2]),
       mode=st.sampled_from(wd.GRADIENT_MODES), steps=st.integers(2, 16),
       n_paths=st.integers(2, 30), seed=st.integers(0, 2 ** 32), theta=st.floats(0.2, 2.0),
       level=st.floats(-1.0, 1.0), data=st.data())
def test_probe_route_matches_the_restart_route_property(name, n_dim, mode, steps, n_paths,
                                                         seed, theta, level, data):
    # the quotient integrand and a shifted marginal, valued by the probe
    # route and, with the probe taken away, by restarted branches (random-k)
    # or the generic engine (sum-over-k) on the same block
    model = PROBE_MODELS[name](n_dim)
    n = model.state_dim
    x0 = np.array(data.draw(st.lists(st.floats(-1.5, 1.5), min_size=n, max_size=n)))
    condition = data.draw(st.integers(1, steps))
    g = cm.shift_functional(cm.marginal_power(condition, 1), level)
    functionals = (quotient_integrands(cm.terminal_power(2), g, "canonical"), g)

    def checked(batch):
        for f in functionals:
            assert wd._affine_propagators(batch, f.probe(batch).steps) is not None
            got, got_gaps = _hj_values(batch, f, mode)
            want, want_gaps = _hj_values(batch, dataclasses.replace(f, probe=None), mode)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            assert np.max(np.abs(got_gaps - want_gaps)) <= 1e-12 * np.max(want_gaps)
        return (np.zeros(batch.n_paths),)

    per_path(model, theta, x0, cm.TimeGrid(1.0, steps), n_paths, seed, checked)


def _euler_passes(monkeypatch):
    """Counter of _euler_continue calls, the base simulations' and the
    restarts' alike."""
    calls = Counter()

    def counted(*args, original=sde._euler_continue):
        calls["euler"] += 1
        return original(*args)

    monkeypatch.setattr(sde, "_euler_continue", counted)
    monkeypatch.setattr(wd, "_euler_continue", counted)
    return calls


@pytest.mark.parametrize("mode", wd.GRADIENT_MODES)
@pytest.mark.parametrize("model, carried", [(cm.ou_model(1.0), True),
                                            (sine_diffusion_model(), False)],
                         ids=["ou", "sine-diffusion"])
def test_probe_route_runs_euler_for_the_base_paths_alone(monkeypatch, mode, model, carried):
    # three blocks of 100 rows: on OU the conditional-loss gradient simulates
    # each base block once and restarts no branch; on a model whose steps are
    # not affine in the state, its branches restart
    calls = _euler_passes(monkeypatch)
    grid = cm.TimeGrid(1.0, 10)
    with fixed_block_rows(100):
        cm.counterfactual_gradient(model, 1.0, cm.terminal_power(2), cm.marginal_power(5, 1),
                                   "canonical", grid, 0.2, 300, mode, 3)
    restarts = {"random-k": 2, "sum-over-k": 2 * grid.steps}[mode]
    assert calls["euler"] == 3 * (1 if carried else 1 + restarts)


@pytest.mark.parametrize("mode", wd.GRADIENT_MODES)
def test_value_only_payoffs_keep_the_restart_route(monkeypatch, mode):
    calls = _euler_passes(monkeypatch)
    grid = cm.TimeGrid(1.0, 10)
    with fixed_block_rows(100):
        cm.hj_gradient(cm.ou_model(1.0), 1.0, X0, grid, marginal_at(5), 300, mode, 3)
    restarts = {"random-k": 2, "sum-over-k": 2 * grid.steps}[mode]
    assert calls["euler"] == 3 * (1 + restarts)


def square_at_probe_step(step):
    """X_T^2, declaring a probe that names the horizon as step."""
    square = cm.terminal_power(2)
    return dataclasses.replace(square, probe=lambda b: Probe(
        (step,), lambda x: x[..., 0, 0] ** 2, lambda x: 2.0 * x))


def _probe_step_runs(step, mode):
    """The counterfactual gradient and hj_gradient of square_at_probe_step(step),
    each a call that returns its bits."""
    model, grid = cm.ou_model(1.0), cm.TimeGrid(1.0, 20)
    f = square_at_probe_step(step)

    def counterfactual():
        return float(cm.counterfactual_gradient(model, 1.0, f, cm.marginal_power(10, 1),
                                                "canonical", grid, 0.0, 2_000, mode, 3)[1]).hex()

    def hj():
        rep = cm.hj_gradient(model, 1.0, 0.0, grid, f, 2_000, mode, 3)
        return rep.estimate.hex(), rep.std_error.hex()

    return counterfactual, hj


@pytest.mark.parametrize("mode", wd.GRADIENT_MODES)
def test_a_negative_probe_step_counts_from_the_end(mode):
    # as marginal_power's step does; read as an index as it stands, -1 would
    # value every branch at the unbranched X_M, a gradient of the wrong sign
    assert ([run() for run in _probe_step_runs(-1, mode)]
            == [run() for run in _probe_step_runs(20, mode)])


@pytest.mark.parametrize("mode", wd.GRADIENT_MODES)
@pytest.mark.parametrize("step", [25, True, 2.5])
def test_a_probe_step_off_the_grid_is_rejected(mode, step):
    for run in _probe_step_runs(step, mode):
        with pytest.raises(ValueError, match="probe step"):
            run()
