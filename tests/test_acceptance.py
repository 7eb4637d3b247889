"""End-to-end acceptance checks.

One test per headline claim of the package.  Each test prints a single
``[PASS]``/``[FAIL]`` line with the measured quantities and the pinned
tolerance, then asserts on the same condition.  The two benchmark-scale
checks run the shipped command-line entry points and carry explicit wall-time
budgets; everything else calls the library directly.
"""

import math
import time

import numpy as np
import pytest

import condmc as cm
from condmc.cli import main

X0 = 0.0


def verdict(label: str, ok: bool, detail: str) -> str:
    line = f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    print(line)
    return line


def conditional_second_moment(theta, sigma, horizon, condition_time):
    """E[X_T^2 | X_{t_c} = 0] for the OU family, from the exact transition."""
    tail = horizon - condition_time
    return sigma * sigma * (1.0 - math.exp(-2.0 * theta * tail)) / (2.0 * theta)


# 1 -------------------------------------------------------------------------


def test_conditional_second_moment_matches_closed_form():
    # theta = sigma = 1, unit horizon, 200 steps, conditioning at mid-horizon
    closed = conditional_second_moment(1.0, 1.0, 1.0, 0.5)
    assert closed == 0.31606027941427883
    model = cm.ou_model(1.0)
    grid = cm.TimeGrid(1.0, 200)
    start = time.perf_counter()
    report = cm.conditional_loss_estimate(
        model, 1.0, cm.terminal_power(2), cm.marginal_power(100, 1),
        "canonical", 100_000, 2024, grid, X0)
    elapsed = time.perf_counter() - start
    gap = abs(report.estimate - closed)
    band = 3.0 * report.std_error + 0.01
    ok = gap <= band and elapsed <= 60.0
    line = verdict(
        "conditional loss closed form", ok,
        f"estimate={report.estimate:.5f} closed={closed:.5f} "
        f"|gap|={gap:.5f} <= {band:.5f}, {elapsed:.1f}s <= 60s")
    assert ok, line


# 2 -------------------------------------------------------------------------


@pytest.mark.slow
def test_rmse_convergence_rate_is_root_n(tmp_path):
    start = time.perf_counter()
    code = main(["bench-convergence", "--seed", "20", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - start
    assert code == 0
    text = (tmp_path / "bench_convergence.csv").read_text(encoding="utf-8")
    rows = [line.split(",") for line in text.strip().split("\n")[1:]]
    ns = np.array([float(row[0]) for row in rows])
    rmses = np.array([float(row[1]) for row in rows])
    slope = float(np.polyfit(np.log(ns), np.log(rmses), 1)[0])
    ok = -0.60 <= slope <= -0.40 and elapsed <= 600.0
    line = verdict(
        "root-N error decay", ok,
        f"log-log slope={slope:.4f} in [-0.60, -0.40], "
        f"N up to {int(ns.max())}, 50 replications, {elapsed:.0f}s <= 600s")
    assert ok, line


# 3 -------------------------------------------------------------------------


def test_branch_gradient_variance_stays_bounded_in_horizon(tmp_path):
    start = time.perf_counter()
    code = main(["bench-variance", "--seed", "21", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - start
    assert code == 0
    text = (tmp_path / "bench_variance.csv").read_text(encoding="utf-8")
    rows = [line.split(",") for line in text.strip().split("\n")[1:]]
    horizons = np.array([float(row[0]) for row in rows])
    var_wd = np.array([float(row[1]) for row in rows])
    var_sf = np.array([float(row[2]) for row in rows])
    assert list(horizons) == [2.0, 4.0, 8.0, 16.0]
    ratio = var_wd[-1] / var_wd[0]
    sf_slope = float(np.polyfit(np.log(horizons), np.log(var_sf), 1)[0])
    ok = ratio <= 2.0 and sf_slope >= 0.7 and elapsed <= 600.0
    line = verdict(
        "bounded-variance horizon scaling", ok,
        f"branch var(T=16)/var(T=2)={ratio:.3f} <= 2, "
        f"score var slope={sf_slope:.3f} >= 0.7, {elapsed:.0f}s <= 600s")
    assert ok, line


# 4 -------------------------------------------------------------------------


def test_gradient_estimators_agree_pairwise():
    model = cm.ou_model(1.0)
    grid = cm.TimeGrid(1.0, 100)
    payoff = cm.terminal_power(2)
    n = 50_000
    h = 1e-3
    worst = 0.0
    ok = True
    for i, theta in enumerate((0.5, 1.0, 2.0)):
        base = 400 + 10 * i
        hj = cm.hj_gradient(model, theta, X0, grid, payoff, n,
                            "random-k", base)
        sf = cm.score_function_gradient(model, theta, X0, grid, payoff, n,
                                        base + 1)
        up = cm.simulate_paths(model, theta + h, X0, grid, n, base + 2)
        dn = cm.simulate_paths(model, theta - h, X0, grid, n, base + 2)
        diffs = (np.asarray(payoff.value(up)) - np.asarray(payoff.value(dn))) / (2 * h)
        fd = (math.fsum(diffs) / n, float(diffs.std(ddof=1) / math.sqrt(n)))
        points = [(hj.estimate, hj.std_error), (sf.estimate, sf.std_error), fd]
        for a in range(3):
            for b in range(a + 1, 3):
                gap = abs(points[a][0] - points[b][0])
                band = 3.0 * math.hypot(points[a][1], points[b][1])
                worst = max(worst, gap / band)
                ok = ok and gap <= band
    line = verdict(
        "estimator cross-agreement", ok,
        "branch/score/coupled-FD pairwise gaps at theta in {0.5, 1, 2}; "
        f"worst gap = {worst:.2f} of its 3-sigma band")
    assert ok, line


# 5 -------------------------------------------------------------------------


def test_signed_kernel_split_reconstructs_density_derivative():
    worst = 0.0
    for x, t, theta, dt in ((2.0, 0.0, 1.0, 0.01), (-1.3, 0.4, 1.7, 0.02)):
        decomp = cm.hj_decompose(cm.ou_model(1.0), np.array([x]), t, theta, dt)
        m = decomp.mean[0]
        s = decomp.rayleigh_scales[0]
        y = np.linspace(m - 5 * s, m + 5 * s, 100)[:, None]
        got = cm.signed_density(decomp, y)
        gauss = np.exp(-((y[:, 0] - m) ** 2) / (2 * s * s)) / (s * math.sqrt(2 * math.pi))
        want = decomp.dtheta_mean[0] * (y[:, 0] - m) / (s * s) * gauss
        worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))
    ok = worst <= 1e-6
    line = verdict(
        "signed kernel split identity", ok,
        f"max pointwise relative error {worst:.2e} <= 1e-06 "
        "on 100-point grids at two kernel states")
    assert ok, line


# 6 -------------------------------------------------------------------------


def test_weight_normalization_and_scale_invariance():
    grid = cm.TimeGrid(1.0, 60)
    worst_norm = 0.0
    for model in (cm.ou_model(1.0), _cubic_model()):
        batch = cm.simulate_paths(model, 1.0, X0, grid, 4000, 77)
        for g in (cm.marginal_power(30, 1), cm.terminal_power(2)):
            profile = cm.derivative_profile(g, batch)
            u = cm.make_weight_canonical(g, batch)
            sums = np.sum(profile[..., :60, :] * u.values[..., :60, :],
                          axis=(-2, -1)) * grid.dt
            worst_norm = max(worst_norm, float(np.max(np.abs(sums - 1.0))))

    def scaled_rule(g, bundle):
        base = cm.make_weight_canonical(g, bundle)
        return cm.WeightProcess(base.values * 3.7, adapted=True)

    model = cm.ou_model(1.0)
    ell, g = cm.terminal_power(2), cm.marginal_power(30, 1)
    plain = cm.conditional_loss_estimate(model, 1.0, ell, g, "canonical",
                                         5000, 88, grid, X0)
    scaled = cm.conditional_loss_estimate(model, 1.0, ell, g, scaled_rule,
                                          5000, 88, grid, X0)
    drift = abs(plain.estimate - scaled.estimate)
    ok = worst_norm <= 1e-12 and drift <= 1e-12
    line = verdict(
        "weight normalization and rescaling invariance", ok,
        f"max |sum<Dg,u>dt - 1| = {worst_norm:.2e} <= 1e-12 pathwise; "
        f"quotient shift under u -> 3.7u = {drift:.2e} <= 1e-12")
    assert ok, line


# 7 -------------------------------------------------------------------------


def _cubic_model():
    return cm.SdeModel(
        drift=lambda x, t, theta: -theta * x ** 3,
        drift_dtheta=lambda x, t, theta: -(x ** 3),
        drift_dx=lambda x, t, theta: (-3.0 * theta * x ** 2)[..., None] * np.eye(1),
        diffusion=lambda x, t: np.eye(1),
        diffusion_dx=lambda x, t: np.zeros((1, 1, 1)),
        state_dim=1,
        noise_dim=1,
        name="cubic",
    )


def _theta_free_model():
    return cm.SdeModel(
        drift=lambda x, t, theta: -0.5 * x,
        drift_dtheta=lambda x, t, theta: np.zeros_like(x),
        drift_dx=lambda x, t, theta: -0.5 * np.eye(1),
        diffusion=lambda x, t: np.eye(1),
        diffusion_dx=lambda x, t: np.zeros((1, 1, 1)),
        state_dim=1,
        noise_dim=1,
        name="theta-free",
    )


def test_structural_identities_hold():
    checks = {}

    # a constant integrand makes the quotient collapse to the constant
    grid = cm.TimeGrid(1.0, 50)
    report = cm.conditional_loss_estimate(
        cm.ou_model(1.0), 1.0, cm.constant_functional(2.0),
        cm.marginal_power(25, 1), "canonical", 4000, 99, grid, X0)
    checks["constant-loss"] = report.estimate == 2.0

    # a theta-free drift zeroes every gradient estimator exactly
    flat = _theta_free_model()
    payoff = cm.terminal_power(2)
    zeros = (
        cm.hj_gradient(flat, 1.0, X0, grid, payoff, 2000, "random-k", 5).estimate,
        cm.hj_gradient(flat, 1.0, X0, grid, payoff, 2000, "sum-over-k", 6).estimate,
        cm.score_function_gradient(flat, 1.0, X0, grid, payoff, 2000, 7).estimate,
    )
    checks["zero-sensitivity"] = zeros == (0.0, 0.0, 0.0)

    # an adapted state-dependent integrand has zero-mean Skorohod integral
    batch = cm.simulate_paths(cm.ou_model(1.0), 1.0, X0, grid, 100_000, 123)
    u = cm.WeightProcess(batch.states, adapted=True)
    vals = np.asarray(cm.skorohod_integral(u, batch))
    se = float(vals.std(ddof=1) / math.sqrt(vals.size))
    checks["adapted-zero-mean"] = abs(float(vals.mean())) <= 3.0 * se

    # Jacobian-product derivative of the terminal state vs an increment bump
    fine = cm.TimeGrid(1.0, 2000)
    noise = cm.generate_noise(13, 5, fine, 1)
    bundle = cm.simulate_path(_cubic_model(), 1.0, X0, fine, noise)
    eps = 1e-5
    rel = 0.0
    for s in (0, 900, 1700):
        up = noise.increments.copy()
        dn = noise.increments.copy()
        up[s, 0] += eps
        dn[s, 0] -= eps
        xp = cm.simulate_path(_cubic_model(), 1.0, X0, fine,
                              cm.NoisePath(up, 13, 5)).states[-1, 0]
        xm = cm.simulate_path(_cubic_model(), 1.0, X0, fine,
                              cm.NoisePath(dn, 13, 5)).states[-1, 0]
        fd = (xp - xm) / (2.0 * eps)
        formula = cm.malliavin_derivative_state(bundle, s, fine.steps)[0, 0]
        rel = max(rel, abs(formula - fd) / abs(fd))
    checks["derivative-vs-bump"] = rel <= 1e-3

    ok = all(checks.values())
    summary = ", ".join(f"{name}={'ok' if good else 'FAILED'}"
                        for name, good in checks.items())
    line = verdict("structural identities", ok,
                   summary + f" (bump rel err {rel:.1e} <= 1e-03)")
    assert ok, line


# 8 -------------------------------------------------------------------------


def test_sgd_iterates_move_toward_closed_form_minimizer():
    # the closed form is monotone on [0.2, 3], so short replicated runs must
    # drift toward the boundary it decreases into
    lo, hi = 0.2, 3.0
    direction = 1.0 if (conditional_second_moment(lo, 1.0, 1.0, 0.5)
                        > conditional_second_moment(hi, 1.0, 1.0, 0.5)) else -1.0
    model = cm.ou_model(1.0)
    grid = cm.TimeGrid(1.0, 30)
    ell, g = cm.terminal_power(2), cm.marginal_power(15, 1)
    deltas = []
    for rep in range(20):
        config = cm.OptimizerConfig(theta0=1.0, step_size=0.6, n_iterations=6,
                                    paths_per_iteration=600,
                                    theta_bounds=(lo, hi),
                                    master_seed=5000 + rep)
        trace = cm.run_sgd(model, ell, g, config, grid, X0)
        assert trace.error is None
        deltas.append(trace.final_theta - 1.0)
    deltas = np.asarray(deltas)
    mean = float(deltas.mean())
    se = float(deltas.std(ddof=1) / math.sqrt(deltas.size))
    ok = mean * direction > 0.0 and abs(mean) > 2.0 * se
    line = verdict(
        "optimizer drift", ok,
        f"mean theta change over 20 runs = {mean:+.4f} "
        f"(closed-form direction {direction:+.0f}), |mean| > 2*SE = {2 * se:.4f}")
    assert ok, line
