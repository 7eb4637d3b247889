"""Tests for Malliavin derivatives, weight processes, Skorohod integrals and
the conditional-loss quotient plus its kernel baseline."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import condmc as cm
from condmc.errors import (
    DegenerateConstraint,
    DegenerateDenominator,
    EmptyKernelMass,
    NonAdaptedWithoutFactorization,
    NonFiniteEstimate,
)
from condmc.functionals import PathFunctional
from conftest import fixed_block_rows

# E[X_1^2 | X_0.5 = 0] for the unit OU model: sigma^2 (1 - e^{-theta}) / (2 theta)
COND_SECOND_MOMENT = 0.3160602794142788
OU_VAR_T1 = 0.4323323583816936
X0 = np.array([0.0])


def wiener_model():
    # zero drift, unit diffusion: X = W
    sig = np.array([[1.0]])
    zeros2 = np.zeros((1, 1))
    zeros3 = np.zeros((1, 1, 1))
    return cm.SdeModel(
        drift=lambda x, t, theta: np.zeros_like(x),
        drift_dtheta=lambda x, t, theta: np.zeros_like(x),
        drift_dx=lambda x, t, theta: np.broadcast_to(zeros2, x.shape[:-1] + (1, 1)),
        diffusion=lambda x, t: sig,
        diffusion_dx=lambda x, t: zeros3,
        state_dim=1,
        noise_dim=1,
        name="wiener",
    )


def running_integral(power):
    if power == 1:
        return cm.integral_functional(lambda x: x[..., 0], lambda x: np.ones_like(x))
    return cm.integral_functional(lambda x: x[..., 0] ** 2, lambda x: 2.0 * x)


@functools.lru_cache(maxsize=None)
def ou_batch_200(n_paths, seed):
    grid = cm.TimeGrid(1.0, 200)
    return cm.simulate_paths(cm.ou_model(1.0), 1.0, X0, grid, n_paths, seed)


# ---------------------------------------------------------------------------
# Malliavin derivative of the state


def test_derivative_state_matches_exponential_decay():
    # OU first-variation transfer: D_s X_t ~ sigma e^{-theta (t - s)}
    grid = cm.TimeGrid(1.0, 1000)
    noise = cm.generate_noise(5, 0, grid, 1)
    b = cm.simulate_path(cm.ou_model(1.0), 1.0, X0, grid, noise)
    d = cm.malliavin_derivative_state(b, s=250, t=750)
    assert d.shape == (1, 1)
    assert abs(d[0, 0] / math.exp(-0.5) - 1.0) <= 1e-3
    # the derivative vanishes for s > t and equals sigma on the diagonal
    assert np.array_equal(cm.malliavin_derivative_state(b, 800, 400), np.zeros((1, 1)))
    assert cm.malliavin_derivative_state(b, 600, 600)[0, 0] == 1.0


def test_derivative_state_validates_inputs():
    grid = cm.TimeGrid(1.0, 10)
    noise = cm.generate_noise(5, 0, grid, 1)
    bundle = cm.simulate_path(cm.ou_model(1.0), 1.0, X0, grid, noise)
    with pytest.raises(ValueError):
        cm.malliavin_derivative_state(bundle, 2, 11)


def test_derivative_state_matches_increment_bump():
    # central difference of X_T in the increment at step s
    grid = cm.TimeGrid(1.0, 2000)
    noise = cm.generate_noise(13, 2, grid, 1)
    model = cm.ou_model(1.0)
    b = cm.simulate_path(model, 1.0, X0, grid, noise)
    eps = 1e-5
    for s in (0, 700, 1500):
        up = noise.increments.copy()
        dn = noise.increments.copy()
        up[s, 0] += eps
        dn[s, 0] -= eps
        xp = cm.simulate_path(model, 1.0, X0, grid, cm.NoisePath(up, 13, 2)).states[-1, 0]
        xm = cm.simulate_path(model, 1.0, X0, grid, cm.NoisePath(dn, 13, 2)).states[-1, 0]
        fd = (xp - xm) / (2.0 * eps)
        formula = cm.malliavin_derivative_state(b, s, grid.steps)[0, 0]
        assert abs(formula - fd) / abs(fd) <= 1e-3


def test_profile_rows_match_increment_bump():
    # functional-level derivative rows against a pathwise bump of one increment;
    # agreement is up to the left-point discretization, so the tolerance is O(dt)
    grid = cm.TimeGrid(1.0, 400)
    model = cm.ou_model(1.0)
    noise = cm.generate_noise(21, 0, grid, 1)
    bundle = cm.simulate_path(model, 1.0, X0, grid, noise)
    eps = 1e-5
    for f in (cm.terminal_power(2), running_integral(2)):
        prof = cm.derivative_profile(f, bundle)
        assert prof.shape == (grid.steps + 1, 1)
        for s in (0, 100, 250):
            up = noise.increments.copy()
            dn = noise.increments.copy()
            up[s, 0] += eps
            dn[s, 0] -= eps
            fu = f.value(cm.simulate_path(model, 1.0, X0, grid, cm.NoisePath(up, 21, 0)))
            fd_ = f.value(cm.simulate_path(model, 1.0, X0, grid, cm.NoisePath(dn, 21, 0)))
            fd = (fu - fd_) / (2.0 * eps)
            assert abs(prof[s, 0] - fd) / max(abs(fd), 1e-12) <= 4.0 * grid.dt


def test_profile_marginal_rows_match_discrete_product():
    # for the linear OU recursion the transfer factor is (1 - theta dt)^(t - s)
    grid = cm.TimeGrid(1.0, 200)
    noise = cm.generate_noise(3, 1, grid, 1)
    b = cm.simulate_path(cm.ou_model(1.0), 1.0, X0, grid, noise)
    step = 100
    prof = cm.derivative_profile(cm.marginal_power(step, 1), b)
    s_axis = np.arange(step + 1)
    expected = (1.0 - grid.dt) ** (step - s_axis)
    assert np.allclose(prof[: step + 1, 0], expected, rtol=1e-10, atol=0.0)
    assert np.array_equal(prof[step + 1:, 0], np.zeros(grid.steps - step))


# ---------------------------------------------------------------------------
# weight processes


def test_canonical_normalization_is_exact():
    batch = ou_batch_200(64, 9)
    grid = batch.grid
    for g in (cm.marginal_power(100, 1), cm.terminal_power(1), running_integral(1)):
        u = cm.make_weight_canonical(g, batch)
        prof = cm.derivative_profile(g, batch)
        norm = np.sum(prof[..., : grid.steps, :] * u.values[..., : grid.steps, :],
                      axis=(-2, -1)) * grid.dt
        assert np.max(np.abs(norm - 1.0)) <= 1e-12
        assert u.adapted


def test_canonical_weight_on_wiener_running_integral():
    # D_s of the running integral of W is T - t_s; the normalized weight
    # approaches 3 (T - t) / T^3
    grid = cm.TimeGrid(1.0, 200)
    batch = cm.simulate_paths(wiener_model(), 0.0, X0, grid, 8, 7)
    g = running_integral(1)
    prof = cm.derivative_profile(g, batch)
    rows = grid.dt * np.arange(grid.steps, -1, -1.0)
    assert np.allclose(prof[..., 0], rows, rtol=1e-12, atol=1e-14)
    u = cm.make_weight_canonical(g, batch)
    target = 3.0 * (1.0 - grid.times) / 1.0
    assert np.max(np.abs(u.values[..., : grid.steps, 0] - target[: grid.steps])) <= 10.0 * grid.dt


def test_canonical_rejects_flat_constraint():
    batch = ou_batch_200(8, 9)
    with pytest.raises(DegenerateConstraint):
        cm.make_weight_canonical(cm.constant_functional(1.0), batch)


PROPERTY_SETTINGS = settings(max_examples=50)


@st.composite
def constraint_cases(draw, dims=(1, 2)):
    """A small simulated batch and a marginal constraint on one component."""
    n_dim = draw(st.sampled_from(dims))
    steps = draw(st.integers(2, 40))
    grid = cm.TimeGrid(draw(st.floats(0.25, 2.0)), steps)
    x0 = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n_dim, max_size=n_dim)))
    batch = cm.simulate_paths(cm.ou_model(draw(st.floats(0.5, 2.0)), dim=n_dim),
                              draw(st.floats(0.5, 2.0)), x0, grid, draw(st.integers(1, 8)),
                              draw(st.integers(0, 2 ** 32)))
    g = cm.marginal_power(draw(st.integers(0, steps)), 1, draw(st.integers(0, n_dim - 1)))
    return batch, g


def weight_normalization(g, u, batch):
    """sum_k <D_k g, u_k> dt over the left grid points, per path."""
    steps = batch.grid.steps
    prof = cm.derivative_profile(g, batch)
    return np.sum(prof[..., :steps, :] * u.values[..., :steps, :], axis=(-2, -1)) * batch.grid.dt


@PROPERTY_SETTINGS
@given(case=constraint_cases())
def test_canonical_normalization_property(case):
    batch, g = case
    norm = weight_normalization(g, cm.make_weight_canonical(g, batch), batch)
    assert np.max(np.abs(norm - 1.0)) <= 1e-12


# ---------------------------------------------------------------------------
# Skorohod integral


def test_skorohod_adapted_is_ito_sum():
    grid = cm.TimeGrid(1.0, 200)
    batch = cm.simulate_paths(wiener_model(), 0.0, X0, grid, 100_000, 31)
    ones = cm.WeightProcess(np.ones((grid.steps + 1, 1)), adapted=True)
    vals = cm.skorohod_integral(ones, batch)
    w_terminal = batch.states[:, -1, 0]
    assert np.allclose(vals, w_terminal, rtol=0.0, atol=1e-12)
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean()) <= 3.0 * se


def test_skorohod_factored_matches_square_identity():
    # integrand W_T * 1 is non-adapted; its factored integral is W_T^2 - T
    grid = cm.TimeGrid(1.0, 200)
    n = 100_000
    batch = cm.simulate_paths(wiener_model(), 0.0, X0, grid, n, 32)
    w_terminal = batch.states[:, -1, 0]
    flat = cm.WeightProcess(np.ones((n, grid.steps + 1, 1)), adapted=False)
    vals = cm.skorohod_integral(flat, batch,
                                anticipative_factor=(w_terminal, lambda k: np.ones((n, 1))))
    assert np.max(np.abs(vals - (w_terminal ** 2 - 1.0))) <= 1e-10
    se = vals.std(ddof=1) / math.sqrt(n)
    assert abs(vals.mean()) <= 3.0 * se


def test_skorohod_nonadapted_needs_factorization():
    grid = cm.TimeGrid(1.0, 20)
    batch = cm.simulate_paths(wiener_model(), 0.0, X0, grid, 4, 3)
    bad = cm.WeightProcess(np.ones((4, grid.steps + 1, 1)), adapted=False)
    with pytest.raises(NonAdaptedWithoutFactorization):
        cm.skorohod_integral(bad, batch)


# ---------------------------------------------------------------------------
# conditional-loss quotient


def conditional(theta=1.0, ell=None, g=None, rule="canonical", n=20_000, seed=77,
                steps=200, **kw):
    grid = cm.TimeGrid(1.0, steps)
    ell = ell if ell is not None else cm.terminal_power(2)
    g = g if g is not None else cm.marginal_power(steps // 2, 1)
    return cm.conditional_loss_estimate(cm.ou_model(1.0), theta, ell, g, rule,
                                        n, seed, grid, X0, **kw)


def test_conditional_loss_matches_restart_oracle():
    rep = conditional()
    tol = 3.0 * rep.std_error + 2.0 * 0.005
    assert abs(rep.estimate - COND_SECOND_MOMENT) <= tol
    # the denominator estimates the density of X_0.5 at zero
    density = 1.0 / math.sqrt(2.0 * math.pi * COND_SECOND_MOMENT)
    assert abs(rep.e2_hat - density) <= 0.025
    assert abs(rep.acceptance_fraction - 0.5) <= 0.02
    assert rep.n_paths == 20_000
    assert rep.a_terms.shape == rep.b_terms.shape == (20_000,)
    assert rep.estimate == rep.e1_hat / rep.e2_hat


@pytest.mark.parametrize("theta", [0.5, 2.0])
def test_conditional_loss_theta_sweep(theta):
    target = (1.0 - math.exp(-theta)) / (2.0 * theta)
    rep = conditional(theta=theta)
    assert abs(rep.estimate - target) <= 3.0 * rep.std_error + 2.0 * 0.005


@pytest.mark.parametrize("scale", [2.0, -3.0])
def test_conditional_loss_scale_invariance(scale):
    def scaled_rule(g, bundle):
        u = cm.make_weight_canonical(g, bundle)
        return cm.WeightProcess(scale * u.values, adapted=True)

    base = conditional(n=4000, seed=11)
    scaled = conditional(n=4000, seed=11, rule=scaled_rule)
    assert abs(base.estimate - scaled.estimate) <= 1e-12


def test_conditional_loss_constant_loss_is_exact():
    rep = conditional(ell=cm.constant_functional(2.0), n=4000, seed=11)
    assert rep.estimate == 2.0
    rep = conditional(ell=cm.constant_functional(3.7), n=4000, seed=11)
    assert abs(rep.estimate - 3.7) <= 1e-14


def test_conditional_loss_flags_unreachable_level():
    # conditioning level far outside the reachable range: no accepted paths
    g = cm.shift_functional(cm.marginal_power(100, 1), 2.0)
    with pytest.raises(DegenerateDenominator):
        conditional(g=g, n=4000, seed=5)


def test_conditional_loss_needs_two_paths():
    with pytest.raises(ValueError):
        conditional(n=1)


def test_denominator_z_is_the_gate_statistic():
    rep = conditional(n=4000, seed=11)
    se_b = rep.b_terms.std(ddof=1) / math.sqrt(rep.n_paths)
    assert rep.denominator_z == abs(rep.e2_hat) / se_b
    assert rep.denominator_z >= 5.0


def test_conditional_loss_block_size_invariance():
    whole = conditional(n=5000, seed=44)
    with fixed_block_rows(137):
        split = conditional(n=5000, seed=44)
    assert whole.estimate == split.estimate
    assert whole.std_error == split.std_error
    assert np.array_equal(whole.a_terms, split.a_terms)


def loss_outcome(rows, **kw):
    """(estimate, std error, A terms, B terms) on blocks of `rows` rows, or
    the gate's verdict."""
    try:
        with fixed_block_rows(rows):
            rep = conditional(**kw)
    except DegenerateDenominator:
        return "degenerate denominator"
    return rep.estimate, rep.std_error, rep.a_terms.tobytes(), rep.b_terms.tobytes()


@PROPERTY_SETTINGS
# a few hundred paths keep most examples clear of the 5-standard-error gate
@given(n=st.integers(200, 500), steps=st.integers(2, 12), seed=st.integers(0, 2 ** 32),
       data=st.data())
def test_conditional_loss_block_size_invariance_property(n, steps, seed, data):
    block = data.draw(st.integers(1, n))
    whole, split = (loss_outcome(rows, n=n, seed=seed, steps=steps)
                    for rows in (n, block))
    assert split == whole


@pytest.mark.parametrize("role", ["ell", "g"])
def test_functional_without_derivative_is_rejected(role):
    bare = PathFunctional(value=lambda bundle: bundle.states[..., -1, 0])
    with pytest.raises(ValueError, match="no derivative profile"):
        conditional(n=50, steps=20, **{role: bare})


def test_unknown_weight_rule_is_rejected():
    with pytest.raises(ValueError, match="unknown weight rule 'reciprocal'"):
        conditional(rule="reciprocal", n=50, steps=20)


@pytest.mark.parametrize("estimator", ["canonical", "kernel"])
def test_overflowing_loss_raises_non_finite_estimate(estimator):
    # X_T^2 overflows to inf although every state started at 1e160 is finite
    model, grid, x0 = cm.ou_model(1.0), cm.TimeGrid(1.0, 10), np.array([1e160])
    ell = cm.terminal_power(2)
    with pytest.raises(NonFiniteEstimate), np.errstate(over="ignore", invalid="ignore"):
        if estimator == "kernel":
            batch = cm.simulate_paths(model, 1.0, x0, grid, 50, 0)
            cm.kernel_loss_estimate(batch, ell, cm.constant_functional(0.0), 0.1)
        else:
            cm.conditional_loss_estimate(model, 1.0, ell, cm.marginal_power(5, 1),
                                         estimator, 50, 0, grid, x0)


def test_overflowing_multi_block_loss_raises_non_finite_estimate(force_workers):
    # the caller's np.errstate holds in the helper thread too: without it the
    # helper's overflow would warn, and the suite turns that into an error
    force_workers(2)
    model, grid, x0 = cm.ou_model(1.0), cm.TimeGrid(1.0, 10), np.array([1e160])
    with (pytest.raises(NonFiniteEstimate), np.errstate(over="ignore", invalid="ignore"),
          fixed_block_rows(200)):  # blocks of 100 rows on two workers
        cm.conditional_loss_estimate(model, 1.0, cm.terminal_power(2), cm.marginal_power(5, 1),
                                     "canonical", 400, 0, grid, x0)


# ---------------------------------------------------------------------------
# kernel-smoothing baseline


def test_kernel_constant_loss_is_exact():
    batch = ou_batch_200(500, 9)
    rep = cm.kernel_loss_estimate(batch, cm.constant_functional(2.0),
                                  cm.marginal_power(100, 1), 0.1)
    assert rep.estimate == 2.0


def test_kernel_matches_conditional_oracle_midband():
    batch = ou_batch_200(100_000, 123)
    rep = cm.kernel_loss_estimate(batch, cm.terminal_power(2),
                                  cm.marginal_power(100, 1), 0.05)
    assert abs(rep.estimate - COND_SECOND_MOMENT) <= 0.1 * COND_SECOND_MOMENT


def test_kernel_small_bandwidth_pays_variance_penalty():
    # sharpening the kernel toward the conditioning event inflates its error
    # several-fold relative to the quotient estimator on the same draws
    quot = conditional(n=100_000, seed=123)
    batch = ou_batch_200(100_000, 123)
    rep = cm.kernel_loss_estimate(batch, cm.terminal_power(2),
                                  cm.marginal_power(100, 1), 0.002)
    assert rep.std_error >= 3.0 * quot.std_error


def test_kernel_wide_bandwidth_gives_unconditional_mean():
    batch = ou_batch_200(100_000, 123)
    rep = cm.kernel_loss_estimate(batch, cm.terminal_power(2),
                                  cm.marginal_power(100, 1), 100.0)
    assert abs(rep.estimate - OU_VAR_T1) <= 3.0 * rep.std_error + 2.0 * 0.005


def test_kernel_rejects_degenerate_inputs():
    batch = ou_batch_200(100, 3)
    ell, g = cm.terminal_power(2), cm.shift_functional(cm.marginal_power(100, 1), 5.0)
    with pytest.raises(EmptyKernelMass):
        cm.kernel_loss_estimate(batch, ell, g, 1e-6)
    for bandwidth in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="bandwidth must be positive and finite"):
            cm.kernel_loss_estimate(batch, ell, g, bandwidth)
    with pytest.raises(TypeError, match="paths must be a PathBatch, not list"):
        cm.kernel_loss_estimate([], ell, g, 0.5)


def test_kernel_rejects_a_bundle_sequence():
    # one PathBatch holds every path; a list of one-path batches is not one
    batch = ou_batch_200(50, 33)
    ell, g = cm.terminal_power(2), cm.marginal_power(100, 1)
    with pytest.raises(TypeError, match="paths must be a PathBatch, not list"):
        cm.kernel_loss_estimate([batch.path(i) for i in range(50)], ell, g, 0.5)
    one = cm.kernel_loss_estimate(batch.path(7), ell, g, 0.5)
    assert one.n_paths == 1 and one.std_error == math.inf
