"""Benchmark command drivers: loss/gradient point estimates, the sample-size
convergence sweep, the horizon-variance comparison, and the SGD trace.

Every command works on the mean-reverting (OU) model family configured by
RunConfig, returns a ResultTable, writes a CSV (plus an SVG for the sweep
commands) and a manifest into the output directory, and prints a short
summary.  The CSV and SVG bytes are deterministic given the configuration;
the manifest carries the wall time and environment stamps.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np

from .errors import DegenerateDenominator
from .functionals import PathFunctional, marginal_power, terminal_power
from .malliavin import conditional_loss_estimate
from .optimizer import OptimizerConfig, counterfactual_gradient, run_sgd
from .runconfig import RunConfig
from .sde import TimeGrid, ou_conditional_second_moment, ou_model
from .streams import child_seed
from .svgplot import render_line_plot, write_svg
from .tableio import ResultTable, print_lines
from .weakderiv import hj_gradient, score_function_gradient


def _loss_slope_closed_form(theta, sigma, horizon, condition_time):
    """theta-derivative of ou_conditional_second_moment, sigma^2 (1 - e^{-2 theta s})
    / (2 theta) with s = horizon - condition_time; -sigma^2 s^2 at theta = 0.

    For small x = 2 theta s the closed form cancels (its numerator is O(x^2)
    from O(x) terms), so there the Taylor series -sigma^2 s^2 (1 - 2x/3 + x^2/4)
    is used; its truncation error is O(x^3).
    """
    s = horizon - condition_time
    x = 2.0 * theta * s
    if abs(x) < 1e-5:
        return -sigma * sigma * s * s * (1.0 - 2.0 * x / 3.0 + x * x / 4.0)
    e = math.expm1(-x)  # e^{-2 theta s} - 1
    return sigma * sigma * (x * (1.0 + e) + e) / (2.0 * theta * theta)


def _conditional_setup(config: RunConfig):
    model = ou_model(config.sigma)
    grid = TimeGrid(config.horizon, config.steps)
    condition_step = config.steps // 2
    ell = terminal_power(2)
    g = marginal_power(condition_step, 1)
    return model, grid, ell, g, condition_step


def _tracking_payoff(target: float) -> PathFunctional:
    """Squared distance of the terminal state to a fixed target level."""
    return PathFunctional(
        value=lambda bundle: (bundle.states[..., -1, 0] - target) ** 2,
        terminal_value=lambda x: (x[..., 0] - target) ** 2,
    )


def _x0(config: RunConfig) -> np.ndarray:
    return np.array([config.x0])


def _finish(table: ResultTable, config: RunConfig, start: float,
            csv_name: str, svg=None) -> ResultTable:
    table.manifest = {
        "command": config.command,
        **config.echo(),
        **table.manifest,
        "wall_time_s": f"{time.perf_counter() - start:.3f}",
    }
    out = Path(config.out)
    table.write_csv(out / csv_name)
    if svg is not None:
        write_svg(out / csv_name.replace(".csv", ".svg"), svg)
    table.write_manifest(out / "manifest.txt")
    return table


def cmd_estimate_loss(config: RunConfig) -> ResultTable:
    start = time.perf_counter()
    model, grid, ell, g, condition_step = _conditional_setup(config)
    report = conditional_loss_estimate(model, config.theta, ell, g, "canonical",
                                       config.paths, config.seed, grid,
                                       _x0(config))
    reference = ou_conditional_second_moment(config.theta, config.sigma,
                                             condition_step * grid.dt, config.horizon)
    table = ResultTable(
        schema=("estimate", "std_error", "acceptance_fraction",
                "closed_form_reference", "n_paths", "seed"),
        rows=[(report.estimate, report.std_error, report.acceptance_fraction,
               reference, config.paths, config.seed)],
        manifest={"condition_step": str(condition_step),
                  "denominator_z": repr(report.denominator_z)},
    )
    print_lines([
        f"conditional loss estimate: {report.estimate!r} "
        f"(std error {report.std_error:.3e})",
        f"closed-form reference:     {reference!r}",
    ])
    return _finish(table, config, start, "estimate_loss.csv")


def cmd_estimate_grad(config: RunConfig) -> ResultTable:
    start = time.perf_counter()
    model, grid, ell, g, condition_step = _conditional_setup(config)
    loss, gradient, diag = counterfactual_gradient(
        model, config.theta, ell, g, "canonical", grid, _x0(config),
        config.paths, config.mode, config.seed)
    reference = _loss_slope_closed_form(config.theta, config.sigma,
                                        config.horizon, condition_step * grid.dt)
    table = ResultTable(
        schema=("gradient", "std_error", "loss", "loss_std_error",
                "closed_form_reference", "n_paths", "seed", "mode"),
        rows=[(gradient, diag["se_gradient"], loss, diag["se_loss"],
               reference, config.paths, config.seed, config.mode)],
        manifest={"condition_step": str(condition_step),
                  **{key: repr(diag[key])
                     for key in ("acceptance_fraction", "denominator_z", "branch_stats")}},
    )
    print_lines([
        f"loss gradient estimate: {gradient!r} "
        f"(std error {diag['se_gradient']:.3e})",
        f"closed-form reference:  {reference!r}",
    ])
    return _finish(table, config, start, "estimate_grad.csv")


def cmd_bench_convergence(config: RunConfig) -> ResultTable:
    start = time.perf_counter()
    model, grid, ell, g, condition_step = _conditional_setup(config)
    reference = ou_conditional_second_moment(config.theta, config.sigma,
                                             condition_step * grid.dt, config.horizon)
    rows, degenerate = [], []
    for i, n in enumerate(config.n_values):
        errors, std_errors = [], []
        for r in range(config.replications):
            try:
                report = conditional_loss_estimate(
                    model, config.theta, ell, g, "canonical", n,
                    child_seed(config.seed, i, r), grid, _x0(config))
            except DegenerateDenominator:
                continue
            errors.append(report.estimate - reference)
            std_errors.append(report.std_error)
        if not errors:
            raise DegenerateDenominator(f"every replicate at n = {n} has a degenerate "
                                        "denominator")
        if len(errors) < config.replications:
            degenerate.append(f"{n}:{config.replications - len(errors)}")
        rmse = float(np.sqrt(np.mean(np.square(errors))))
        rows.append((n, rmse, float(np.mean(std_errors)), reference))
    table = ResultTable(
        schema=("n_paths", "rmse_vs_reference", "mean_std_error",
                "closed_form_reference"),
        rows=rows,
    )
    ns = np.array([row[0] for row in rows], dtype=float)
    rmses = np.array([row[1] for row in rows])
    lines = []
    if len(rows) >= 2:
        slope = float(np.polyfit(np.log(ns), np.log(rmses), 1)[0])
        table.manifest["fitted_slope"] = repr(slope)
        lines.append(f"fitted log-log slope (rmse vs paths): {slope:.4f}")
    else:
        lines.append("slope omitted (single sample size)")
    if degenerate:
        table.manifest["degenerate_replicates"] = ",".join(degenerate)
        lines.append("warning: replicates with a degenerate denominator left out "
                     f"(n:count) {','.join(degenerate)}")
    if config.replications < 2:
        table.manifest["low_confidence"] = ("single replication; "
                                            "rmse has no averaging")
        lines.append("warning: single replication, slope is low-confidence")
    print_lines(lines)
    svg = render_line_plot(
        [("rmse", ns, rmses),
         ("mean std error", ns, [row[2] for row in rows])],
        title="Conditional-loss error vs sample size",
        x_label="paths", y_label="error", log_x=True, log_y=True)
    return _finish(table, config, start, "bench_convergence.csv", svg)


def cmd_bench_variance(config: RunConfig) -> ResultTable:
    start = time.perf_counter()
    model = ou_model(config.sigma)
    payoff = _tracking_payoff(config.target)
    dt = config.horizon / config.steps
    x0 = _x0(config)
    estimator_ids = {"wd": 0, "sf": 1}
    variances = {name: [] for name in config.estimators}
    for ti, horizon in enumerate(config.t_values):
        grid = TimeGrid(horizon, max(1, round(horizon / dt)))
        for name in config.estimators:
            per_path = np.empty(config.replications)
            for r in range(config.replications):
                seed = child_seed(config.seed, ti, r, estimator_ids[name])
                if name == "wd":
                    report = hj_gradient(model, config.theta, x0, grid, payoff,
                                         config.paths, config.mode, seed)
                else:
                    report = score_function_gradient(model, config.theta, x0,
                                                     grid, payoff,
                                                     config.paths, seed)
                per_path[r] = report.variance
            # variance of the mean estimator at the configured path count,
            # pooled over the replications
            variances[name].append(float(per_path.mean()) / config.paths)
    rows = [
        (horizon, *(variances[name][i] for name in config.estimators))
        for i, horizon in enumerate(config.t_values)
    ]
    table = ResultTable(
        schema=("T", *(f"var_{name}" for name in config.estimators)),
        rows=rows,
    )
    lines = []
    log_t = np.log(np.asarray(config.t_values, dtype=float))
    for name in config.estimators:
        series = np.asarray(variances[name])
        if len(config.t_values) >= 2:
            slope = float(np.polyfit(log_t, np.log(series), 1)[0])
            table.manifest[f"slope_var_{name}"] = repr(slope)
            lines.append(f"var_{name} log-log slope vs horizon: {slope:.4f}")
        else:
            lines.append(f"var_{name} slope omitted (single horizon)")
    print_lines(lines)
    labels = {"wd": "branch-pair gradient", "sf": "score-function gradient"}
    svg = render_line_plot(
        [(labels[name], config.t_values, variances[name])
         for name in config.estimators],
        title="Gradient-estimator variance vs horizon",
        x_label="horizon T", y_label="variance of the estimate",
        log_x=True, log_y=True)
    return _finish(table, config, start, "bench_variance.csv", svg)


def cmd_optimize(config: RunConfig) -> ResultTable:
    start = time.perf_counter()
    model, grid, ell, g, condition_step = _conditional_setup(config)
    optimizer_config = OptimizerConfig(
        theta0=config.theta,
        step_size=config.step_size,
        n_iterations=config.iterations,
        paths_per_iteration=config.paths,
        theta_bounds=(config.theta_min, config.theta_max),
        gradient_mode=config.mode,
        master_seed=config.seed,
    )
    trace = run_sgd(model, ell, g, optimizer_config, grid, _x0(config))
    rows = [(r.iteration, r.theta, r.loss, r.gradient, r.se_loss,
             r.se_gradient) for r in trace.records]
    table = ResultTable(
        schema=("iter", "theta", "loss", "gradient", "se_loss", "se_gradient"),
        rows=rows,
        manifest={"final_theta": repr(trace.final_theta),
                  "condition_step": str(condition_step)},
    )
    lines = [f"final theta: {trace.final_theta!r} "
             f"({len(trace.records)} iterations recorded)"]
    if trace.error is not None:
        table.manifest["error"] = trace.error
        lines.append(f"terminated early: {trace.error}")
    print_lines(lines)
    svg = None
    if trace.records:
        svg = render_line_plot(
            [("theta", [r.iteration for r in trace.records],
              [r.theta for r in trace.records])],
            title="SGD iterates", x_label="iteration", y_label="theta")
    table = _finish(table, config, start, "optimize.csv", svg)
    return table


COMMANDS = {
    "estimate-loss": cmd_estimate_loss,
    "estimate-grad": cmd_estimate_grad,
    "bench-convergence": cmd_bench_convergence,
    "bench-variance": cmd_bench_variance,
    "optimize": cmd_optimize,
}
