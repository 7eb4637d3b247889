"""Tests for the quotient-rule gradient assembly and the projected SGD loop."""

import dataclasses
import math

import numpy as np
import pytest

import condmc as cm
from condmc.errors import DegenerateDenominator, NonFiniteEstimate
from condmc.malliavin import conditional_quotient_terms
from conftest import fixed_block_rows

# d/dtheta of (1 - e^{-theta}) / (2 theta) at theta = 1, the closed-form
# slope of the conditional second moment E[X_1^2 | X_{0.5} = 0]
DLOSS_AT_1 = -0.13212055882855766

X0 = np.array([0.0])


def ou_setup(steps=100):
    grid = cm.TimeGrid(1.0, steps)
    ell = cm.terminal_power(2)
    g = cm.marginal_power(steps // 2, 1)
    return cm.ou_model(1.0), grid, ell, g


def fd_loss_gradient(model, theta, ell, g, grid, n, seed, eps=1e-3):
    """CRN central difference of the loss estimator with a joint-delta SE."""
    up = cm.conditional_loss_estimate(model, theta + eps, ell, g, "canonical",
                                      n, seed, grid, X0)
    dn = cm.conditional_loss_estimate(model, theta - eps, ell, g, "canonical",
                                      n, seed, grid, X0)
    est = (up.estimate - dn.estimate) / (2 * eps)
    stack = np.vstack([up.a_terms, up.b_terms, dn.a_terms, dn.b_terms])
    v = np.array([1 / up.e2_hat, -up.e1_hat / up.e2_hat ** 2,
                  -1 / dn.e2_hat, dn.e1_hat / dn.e2_hat ** 2]) / (2 * eps)
    var = float(v @ np.cov(stack, ddof=1) @ v) / n
    return est, math.sqrt(max(var, 0.0))


# ---------------------------------------------------------------------------
# quotient rule


def test_quotient_gradient_examples():
    assert cm.quotient_gradient(0.0, 1.0, 5.0, 7.0) == 5.0
    assert cm.quotient_gradient(2.0, 2.0, 1.0, 1.0) == 0.0
    assert cm.quotient_gradient(1.0, 2.0, 3.0, 4.0) == 0.5


def test_quotient_gradient_degenerate_denominator():
    with pytest.raises(DegenerateDenominator):
        cm.quotient_gradient(1.0, 9e-13, 1.0, 1.0)


# ---------------------------------------------------------------------------
# counterfactual gradient


def test_constant_loss_has_zero_gradient():
    model, grid, _, g = ou_setup(40)
    loss, grad, diag = cm.counterfactual_gradient(
        model, 1.0, cm.constant_functional(3.0), g, "canonical", grid, X0,
        2000, "random-k", 11)
    assert loss == pytest.approx(3.0, rel=1e-12)
    # numerator terms are the constant times the denominator terms, so the
    # quotient-rule cancellation is exact up to float roundoff
    assert abs(grad) <= 1e-9


def test_gradient_matches_closed_form_slope():
    model, grid, ell, g = ou_setup(100)
    loss, grad, diag = cm.counterfactual_gradient(
        model, 1.0, ell, g, "canonical", grid, X0, 20000, "random-k", 42)
    band = 3 * diag["se_gradient"] + 0.01  # statistical band + grid bias
    assert abs(grad - DLOSS_AT_1) <= band


@pytest.mark.parametrize("theta, seed", [(0.5, 43), (1.0, 42), (2.0, 44)])
def test_gradient_matches_estimator_finite_difference(theta, seed):
    model, grid, ell, g = ou_setup(100)
    fd, fd_se = fd_loss_gradient(model, theta, ell, g, grid, 10000, 900 + seed)
    loss, grad, diag = cm.counterfactual_gradient(
        model, theta, ell, g, "canonical", grid, X0, 10000, "random-k", seed)
    assert abs(grad - fd) <= 3 * math.hypot(fd_se, diag["se_gradient"])


def test_gradient_modes_agree():
    model, grid, ell, g = ou_setup(30)
    _, grad_rk, diag_rk = cm.counterfactual_gradient(
        model, 1.0, ell, g, "canonical", grid, X0, 2000, "random-k", 55)
    _, grad_sk, diag_sk = cm.counterfactual_gradient(
        model, 1.0, ell, g, "canonical", grid, X0, 2000, "sum-over-k", 56)
    band = 3 * math.hypot(diag_rk["se_gradient"], diag_sk["se_gradient"])
    assert abs(grad_rk - grad_sk) <= band


def test_gradient_diagnostics_are_consistent():
    model, grid, ell, g = ou_setup(40)
    loss, grad, diag = cm.counterfactual_gradient(
        model, 1.0, ell, g, "canonical", grid, X0, 1000, "random-k", 3)
    assert diag["grad_e1"] == pytest.approx(
        diag["grad_e1_measure"] + diag["grad_e1_integrand"], rel=1e-10)
    assert diag["grad_e2"] == pytest.approx(
        diag["grad_e2_measure"] + diag["grad_e2_integrand"], rel=1e-10)
    assert grad == pytest.approx(
        cm.quotient_gradient(diag["e1"], diag["e2"], diag["grad_e1"],
                             diag["grad_e2"]), rel=1e-12)
    assert loss == pytest.approx(diag["e1"] / diag["e2"], rel=1e-12)
    assert 0.0 < diag["acceptance_fraction"] <= 1.0
    assert diag["se_gradient"] > 0.0


def test_gradient_rejects_unknown_mode():
    model, grid, ell, g = ou_setup(20)
    with pytest.raises(ValueError):
        cm.counterfactual_gradient(model, 1.0, ell, g, "canonical", grid, X0,
                                   100, "every-k", 0)


def test_gradient_is_deterministic_in_the_seed():
    model, grid, ell, g = ou_setup(30)
    first = cm.counterfactual_gradient(model, 1.0, ell, g, "canonical", grid,
                                       X0, 500, "random-k", 77)
    second = cm.counterfactual_gradient(model, 1.0, ell, g, "canonical", grid,
                                        X0, 500, "random-k", 77)
    assert first[0] == second[0]
    assert first[1] == second[1]


@pytest.mark.parametrize("mode", ["random-k", "sum-over-k"])
def test_gradient_is_block_size_invariant(mode):
    model, grid, ell, g = ou_setup(20)

    def run(rows):
        with fixed_block_rows(rows):
            return cm.counterfactual_gradient(model, 1.0, ell, g, "canonical", grid, X0,
                                              300, mode, 19)

    runs = [run(rows) for rows in (None, 137, 7)]
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


@pytest.mark.parametrize("mode", ["random-k", "sum-over-k"])
def test_gradient_loss_matches_loss_estimate(mode):
    # the single pass feeds the loss terms from the same blocks the branch
    # engine reads, so the loss side equals the standalone estimator exactly
    model, grid, ell, g = ou_setup(20)
    with fixed_block_rows(64):
        loss, _, diag = cm.counterfactual_gradient(
            model, 1.0, ell, g, "canonical", grid, X0, 300, mode, 23)
    report = cm.conditional_loss_estimate(model, 1.0, ell, g, "canonical", 300,
                                          23, grid, X0)
    assert (loss, diag["e1"], diag["e2"], diag["se_loss"],
            diag["acceptance_fraction"]) == (
        report.estimate, report.e1_hat, report.e2_hat, report.std_error,
        report.acceptance_fraction)


def _columns(f):
    """f and 3 f as the two columns of one functional."""
    def stack(values):
        values = np.asarray(values)
        return np.stack((values, 3.0 * values), -1)

    terminal = step = None
    if f.terminal_value is not None:
        terminal = lambda x: stack(f.terminal_value(x))  # noqa: E731
    if f.step_value is not None:
        step = lambda x: stack(f.step_value(x))  # noqa: E731
    return cm.PathFunctional(value=lambda bundle: stack(f.value(bundle)),
                             terminal_value=terminal, step_value=step)


@pytest.mark.parametrize("mode, f, rows", [
    ("random-k", cm.terminal_power(2), 128),
    ("sum-over-k", cm.marginal_power(12, 2), 128),
    ("sum-over-k", cm.terminal_power(2), 128),
    ("sum-over-k", cm.integral_functional(lambda x: x[..., 0] ** 2, lambda x: 2.0 * x), 128),
    ("score-function", cm.terminal_power(2), None),
    ("score-function", cm.terminal_power(2), 2),
    ("score-function", cm.terminal_power(2), 7),
], ids=["random-k", "generic", "terminal", "integral", "score", "score-block-2",
        "score-block-7"])
def test_vector_valued_branch_gradient_matches_scalar_columns(mode, f, rows):
    # the score baseline scales each path's row of columns by that path's score
    grid = cm.TimeGrid(1.0, 25)

    def gradient(functional):
        if mode == "score-function":
            return cm.score_function_gradient(cm.ou_model(1.0), 1.0, X0, grid, functional,
                                              300, 8)
        return cm.hj_gradient(cm.ou_model(1.0), 1.0, X0, grid, functional, 300, mode, 8)

    with fixed_block_rows(rows):
        scalar, vector = gradient(f), gradient(_columns(f))
    assert vector.mode == scalar.mode == mode
    assert vector.estimate.shape == vector.variance.shape == vector.std_error.shape == (2,)
    assert vector.estimate[0] == scalar.estimate
    assert vector.variance[0] == scalar.variance
    assert vector.std_error[0] == scalar.std_error
    assert vector.estimate[1] == pytest.approx(3.0 * scalar.estimate, rel=1e-12)


def test_vector_valued_gradient_without_sensitivity_keeps_its_columns():
    # theta-free drift: random-k branches no path, yet reports both columns
    still = cm.SdeModel(
        drift=lambda x, t, theta: np.zeros_like(x),
        drift_dtheta=lambda x, t, theta: np.zeros_like(x),
        drift_dx=lambda x, t, theta: np.zeros(x.shape[:-1] + (1, 1)),
        diffusion=lambda x, t: np.eye(1),
        diffusion_dx=lambda x, t: np.zeros((1, 1, 1)),
        state_dim=1,
        noise_dim=1,
    )
    report = cm.hj_gradient(still, 1.0, X0, cm.TimeGrid(1.0, 10),
                            _columns(cm.terminal_power(2)), 50, "random-k", 0)
    assert report.estimate.tolist() == [0.0, 0.0]


# ---------------------------------------------------------------------------
# optimizer config


def test_config_validation():
    good = dict(theta0=1.0, step_size=0.1, n_iterations=5,
                paths_per_iteration=100)
    cm.OptimizerConfig(**good)  # baseline valid
    cm.OptimizerConfig(**{**good, "step_size": 0.0})  # zero step is allowed
    with pytest.raises(ValueError):
        cm.OptimizerConfig(**{**good, "step_size": -0.1})
    with pytest.raises(ValueError):
        cm.OptimizerConfig(**{**good, "n_iterations": 0})
    with pytest.raises(ValueError):
        cm.OptimizerConfig(**{**good, "paths_per_iteration": 1})
    with pytest.raises(ValueError):
        cm.OptimizerConfig(**{**good, "theta_bounds": (2.0, 2.0)})
    with pytest.raises(ValueError):
        cm.OptimizerConfig(**{**good, "gradient_mode": "spicy"})


@pytest.mark.parametrize("field", ["theta0", "step_size"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_floats(field, value):
    good = dict(theta0=1.0, step_size=0.1, n_iterations=5, paths_per_iteration=100)
    with pytest.raises(ValueError, match="finite"):
        cm.OptimizerConfig(**{**good, field: value})


@pytest.mark.parametrize("field", ["n_iterations", "paths_per_iteration", "master_seed"])
@pytest.mark.parametrize("value", [2.5, 100.0, np.float64(3.0), "5"])
def test_config_rejects_integer_fields_that_are_not_integers(field, value):
    # 2.5 iterations used to pass and fail later in run_sgd's range()
    good = dict(theta0=1.0, step_size=0.1, n_iterations=5, paths_per_iteration=100)
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        cm.OptimizerConfig(**{**good, field: value})


def test_config_takes_numpy_integers():
    config = cm.OptimizerConfig(theta0=1.0, step_size=0.1, n_iterations=np.int64(5),
                                paths_per_iteration=np.int32(100), master_seed=np.uint64(7))
    assert (config.n_iterations, config.paths_per_iteration, config.master_seed) == (5, 100, 7)


def test_counterfactual_reports_the_loss_denominator_z():
    model, grid, ell, g = ou_setup(30)
    _, _, diag = cm.counterfactual_gradient(model, 1.0, ell, g, "canonical", grid,
                                            np.array([0.0]), 600, master_seed=5)
    report = cm.conditional_loss_estimate(model, 1.0, ell, g, "canonical", 600, 5, grid,
                                          np.array([0.0]))
    assert diag["denominator_z"] == report.denominator_z >= 5.0
    assert diag["acceptance_fraction"] == report.acceptance_fraction


@pytest.mark.parametrize("mode", ["random-k", "sum-over-k"])
def test_counterfactual_reports_the_branch_stats_of_its_integrands(mode):
    # the mean |gap| over the branches of both integrand columns, as
    # hj_gradient reports it for the same two-column functional and blocks
    model, grid, ell, g = ou_setup(16)
    integrands = cm.PathFunctional(value=lambda bundle: np.stack(
        conditional_quotient_terms(ell, g, "canonical", bundle)[:2], -1))
    with fixed_block_rows(128):
        _, _, diag = cm.counterfactual_gradient(model, 1.0, ell, g, "canonical", grid, X0,
                                                300, mode, 5)
        report = cm.hj_gradient(model, 1.0, X0, grid, integrands, 300, mode, 5)
    assert diag["branch_stats"] == report.branch_stats > 0.0


# ---------------------------------------------------------------------------
# projected SGD


def test_sgd_zero_step_is_constant():
    model, grid, ell, g = ou_setup(30)
    cfg = cm.OptimizerConfig(theta0=1.0, step_size=0.0, n_iterations=3,
                             paths_per_iteration=400, master_seed=5)
    trace = cm.run_sgd(model, ell, g, cfg, grid, X0)
    assert trace.error is None
    assert len(trace.records) == 3
    assert np.all(trace.thetas == 1.0)
    assert trace.final_theta == 1.0


def test_sgd_drifts_toward_upper_bound():
    # the OU conditional loss decreases in theta on [0.2, 3], so the
    # iterates climb; a short, cheap run must already move substantially
    model, grid, ell, g = ou_setup(50)
    cfg = cm.OptimizerConfig(theta0=1.0, step_size=0.5, n_iterations=12,
                             paths_per_iteration=2000, theta_bounds=(0.2, 3.0),
                             master_seed=7)
    trace = cm.run_sgd(model, ell, g, cfg, grid, X0)
    assert trace.error is None
    assert len(trace.records) == 12
    assert trace.final_theta > 1.4
    assert np.all(np.isfinite(trace.losses))
    assert [r.iteration for r in trace.records] == list(range(12))


def test_sgd_projection_keeps_iterates_in_bounds():
    model, grid, ell, g = ou_setup(30)
    cfg = cm.OptimizerConfig(theta0=1.0, step_size=5.0, n_iterations=4,
                             paths_per_iteration=400,
                             theta_bounds=(0.9, 1.05), master_seed=13)
    trace = cm.run_sgd(model, ell, g, cfg, grid, X0)
    assert trace.error is None
    assert np.all((trace.thetas >= 0.9) & (trace.thetas <= 1.05))
    assert 0.9 <= trace.final_theta <= 1.05


def test_sgd_projects_the_starting_point():
    model, grid, ell, g = ou_setup(30)
    cfg = cm.OptimizerConfig(theta0=9.0, step_size=0.0, n_iterations=1,
                             paths_per_iteration=400, theta_bounds=(0.2, 3.0),
                             master_seed=1)
    trace = cm.run_sgd(model, ell, g, cfg, grid, X0)
    assert trace.records[0].theta == 3.0


def test_sgd_failure_returns_partial_trace():
    model, grid, ell, _ = ou_setup(30)
    g_bad = cm.shift_functional(cm.marginal_power(15, 1), 1e9)
    cfg = cm.OptimizerConfig(theta0=1.0, step_size=0.1, n_iterations=5,
                             paths_per_iteration=400, master_seed=5)
    trace = cm.run_sgd(model, ell, g_bad, cfg, grid, X0)
    assert trace.error is not None
    assert "DegenerateDenominator" in trace.error
    assert len(trace.records) == 0
    assert trace.final_theta == 1.0


def overflowing_run(mode, call):
    # X_T^4 overflows to inf although every state started at 1e80 is finite
    grid = cm.TimeGrid(1.0, 10)
    ell, g = cm.terminal_power(4), cm.marginal_power(5, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        if call == "sgd":
            cfg = cm.OptimizerConfig(theta0=1.0, step_size=0.5, n_iterations=2,
                                     paths_per_iteration=50, gradient_mode=mode)
            return cm.run_sgd(cm.ou_model(1.0), ell, g, cfg, grid, np.array([1e80]))
        return cm.counterfactual_gradient(cm.ou_model(1.0), 1.0, ell, g, "canonical",
                                          grid, np.array([1e80]), 50, mode)


@pytest.mark.parametrize("mode", ["random-k", "sum-over-k"])
def test_overflowing_loss_gradient_raises_non_finite_estimate(mode):
    with pytest.raises(NonFiniteEstimate):
        overflowing_run(mode, "gradient")


@pytest.mark.parametrize("mode", ["random-k", "sum-over-k"])
def test_sgd_overflow_returns_partial_trace(mode):
    trace = overflowing_run(mode, "sgd")
    assert trace.error.startswith("NonFiniteEstimate")
    assert trace.records == () and trace.final_theta == 1.0


@pytest.mark.parametrize("mode", ["random-k", "sum-over-k"])
def test_sgd_mis_shaped_sensitivity_returns_partial_trace(mode):
    # drift_dtheta drops the state axis: (N,) in place of (N, 1)
    model = dataclasses.replace(cm.ou_model(1.0), drift_dtheta=lambda x, t, theta: -x[..., 0])
    _, grid, ell, g = ou_setup(20)
    cfg = cm.OptimizerConfig(theta0=1.0, step_size=0.5, n_iterations=2,
                             paths_per_iteration=300, gradient_mode=mode, master_seed=4)
    trace = cm.run_sgd(model, ell, g, cfg, grid, X0)
    assert trace.error.startswith("CoefficientShapeError")
    assert trace.records == () and trace.final_theta == 1.0


def test_sgd_is_deterministic_in_the_master_seed():
    model, grid, ell, g = ou_setup(30)
    cfg = cm.OptimizerConfig(theta0=1.0, step_size=0.4, n_iterations=3,
                             paths_per_iteration=400, master_seed=21)
    a = cm.run_sgd(model, ell, g, cfg, grid, X0)
    b = cm.run_sgd(model, ell, g, cfg, grid, X0)
    assert np.array_equal(a.thetas, b.thetas)
    assert np.array_equal(a.losses, b.losses)
    assert a.final_theta == b.final_theta


def test_sgd_descends_on_average():
    # over replicated short runs the loss at the final iterate sits below
    # the loss at the start, beyond two standard errors of the run spread
    model, grid, ell, g = ou_setup(30)
    changes = []
    for rep in range(20):
        cfg = cm.OptimizerConfig(theta0=1.0, step_size=0.6, n_iterations=6,
                                 paths_per_iteration=600,
                                 theta_bounds=(0.2, 3.0),
                                 master_seed=3000 + rep)
        trace = cm.run_sgd(model, ell, g, cfg, grid, X0)
        assert trace.error is None
        final = cm.conditional_loss_estimate(model, trace.final_theta, ell, g,
                                             "canonical", 600,
                                             7000 + rep, grid, X0)
        changes.append(final.estimate - trace.records[0].loss)
    changes = np.asarray(changes)
    se = changes.std(ddof=1) / math.sqrt(changes.size)
    assert changes.mean() < 0.0
    assert abs(changes.mean()) > 2 * se


# ---------------------------------------------------------------------------
# random-k outputs pinned to the bit (re-captured when paths moved to grouped
# Philox streams, PATHS_PER_STREAM per key; a version that changed only the
# noise, branch and choice draw sites reproduced them; any change here is a
# change of numbers)


def test_counterfactual_measure_columns_keep_their_bits():
    grid = cm.TimeGrid(1.0, 20)
    with fixed_block_rows(256):
        _, _, diag = cm.counterfactual_gradient(
            cm.ou_model(1.0), 1.0, cm.terminal_power(2), cm.marginal_power(10, 1),
            "canonical", grid, 0.0, 600, "random-k", 5)
    assert (float(diag["grad_e1_measure"]).hex(), float(diag["grad_e2_measure"]).hex()) == (
        "-0x1.37094d243075ap-2", "-0x1.53307b70821b3p-3")
    # sum-over-k branches both integrand columns at every step (generic engine)
    with fixed_block_rows(128):
        _, _, diag = cm.counterfactual_gradient(
            cm.ou_model(1.0), 1.0, cm.terminal_power(2), cm.marginal_power(10, 1),
            "canonical", grid, 0.0, 300, "sum-over-k", 5)
    assert (float(diag["grad_e1_measure"]).hex(), float(diag["grad_e2_measure"]).hex()) == (
        "-0x1.657618b7cad91p-2", "-0x1.8568b391d1ae9p-3")


SGD_PINS = (
    # theta, loss, gradient, e1, e2, se_loss, se_gradient as float.hex
    ("0x1.0000000000000p+0", "0x1.dc550ef44eb5ep-2", "-0x1.879df3b604f0fp-2",
     "0x1.4dbe2c74c6b52p-2", "0x1.66bbc7db3352ap-1", "0x1.e288e986da80cp-4",
     "0x1.a61e89cdff440p-3"),
    ("0x1.30f3be76c09e2p+0", "0x1.b0112021e139fp-2", "-0x1.6ccfd092632d5p-3",
     "0x1.da6550c168704p-3", "0x1.1914739ffc1bep-1", "0x1.78bbae46e54b3p-4",
     "0x1.c094be3474d83p-4"),
)


def test_sgd_records_carry_the_estimate_health_of_their_iteration():
    model, grid, ell, g = ou_setup(20)
    cfg = cm.OptimizerConfig(theta0=1.0, step_size=0.5, n_iterations=2,
                             paths_per_iteration=300, master_seed=4)
    trace = cm.run_sgd(model, ell, g, cfg, grid, X0)
    assert trace.error is None
    for n, record in enumerate(trace.records):
        _, _, diag = cm.counterfactual_gradient(model, record.theta, ell, g, "canonical",
                                                grid, X0, 300, "random-k",
                                                cm.child_seed(4, n))
        for name in ("grad_e1_measure", "grad_e1_integrand", "grad_e2_measure",
                     "grad_e2_integrand", "acceptance_fraction"):
            assert float(getattr(record, name)).hex() == float(diag[name]).hex(), name
        assert 0.0 < record.acceptance_fraction < 1.0


def test_sgd_records_keep_their_bits():
    # the first iteration's child seed is >= 2**63, the second's below it
    grid = cm.TimeGrid(1.0, 20)
    cfg = cm.OptimizerConfig(theta0=1.0, step_size=0.5, n_iterations=2,
                             paths_per_iteration=400, master_seed=0)
    assert cm.child_seed(0, 0) >= 2 ** 63 > cm.child_seed(0, 1)
    trace = cm.run_sgd(cm.ou_model(1.0), cm.terminal_power(2), cm.marginal_power(10, 1),
                       cfg, grid, 0.0)
    assert trace.error is None
    got = tuple(tuple(float(v).hex() for v in (r.theta, r.loss, r.gradient, r.e1, r.e2,
                                                r.se_loss, r.se_gradient))
                for r in trace.records)
    assert got == SGD_PINS
