"""The benchmark's workloads: condmc's public estimators at the configurations
the CLI commands resolve to, each checked against an exact reference.

Every workload runs the Ornstein-Uhlenbeck model dX = -theta X dt + sigma dW
with theta = sigma = 1 and X_0 = 0.  Each call of a workload draws its paths
from its own master seed, derived from the run's seed and the call's index,
so the same run seed replays the same inputs.

The reference is the exact moment of the Euler chain that the estimators
simulate, not the continuous-time closed form the CLI prints next to its
estimates: the two differ by O(dt), which is several standard errors at the
path counts used here.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "condmc" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no condmc sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import condmc as cm  # noqa: E402
import condmc.bench  # noqa: E402
from condmc.streams import child_seed  # noqa: E402

THETA = 1.0
SIGMA = 1.0
X0 = np.array([0.0])

# A call fails the gate when an estimate lies more than Z_BAND of its own
# standard errors from the exact reference.  Correct estimators stayed within
# |z| <= 3.5 over hundreds of seeds.
Z_BAND = 5.0


def euler_ou_second_moment(theta: float, sigma: float, dt: float, steps: int) -> float:
    """E[X_{c+steps}^2 | X_c = 0] for the Euler OU chain, with a = 1 - theta dt:
    sigma^2 dt sum_{j < steps} a^(2j)."""
    a = 1.0 - theta * dt
    return sigma * sigma * dt * math.fsum(a ** (2 * j) for j in range(steps))


def euler_ou_second_moment_dtheta(theta: float, sigma: float, dt: float, steps: int) -> float:
    """theta-derivative of euler_ou_second_moment (da/dtheta = -dt)."""
    a = 1.0 - theta * dt
    return sigma * sigma * dt * math.fsum(
        -2.0 * j * dt * a ** (2 * j - 1) for j in range(1, steps))


def _z(estimate: float, reference: float, std_error: float) -> float:
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.float64(estimate - reference) / np.float64(std_error))


@dataclass(frozen=True)
class Outcome:
    """One workload call, reduced to what the benchmark checks and reports."""

    estimates: tuple[float, ...]  # compared bit for bit between traced and untraced calls
    z_scores: tuple[float, ...]   # (estimate - exact reference) / std error
    target_se: float              # std error that time_to_target_se_s scales by
    time_share: float             # share of the call's time that target_se belongs to

    @property
    def passes(self) -> bool:
        return all(math.isfinite(v) for v in self.estimates) and all(
            math.isfinite(z) and abs(z) <= Z_BAND for z in self.z_scores)


@dataclass(frozen=True)
class Workload:
    name: str
    target: float                     # std error that time_to_target_se_s aims at
    build: Callable[[int], dict]      # path count -> inputs
    call: Callable[[dict, int], Outcome]  # (inputs, master seed) -> outcome
    paths: int                        # path count of the benchmark's calls
    small_paths: int                  # path count of warm-up calls and self-tests

    def inputs(self, n_paths: int | None = None) -> dict:
        return self.build(self.paths if n_paths is None else n_paths)


def call_seed(run_seed: int, index: int) -> int:
    """Master seed of call `index` of a run."""
    return child_seed(run_seed, index)


# ---------------------------------------------------------------------------
# loss: `estimate-loss` defaults, E[X_T^2 | X_{T/2} = 0] with T = 1, M = 200


def _loss_inputs(n_paths: int) -> dict:
    grid = cm.TimeGrid(1.0, 200)
    condition_step = grid.steps // 2
    return {
        "model": cm.ou_model(SIGMA),
        "grid": grid,
        "ell": cm.terminal_power(2),
        "g": cm.marginal_power(condition_step, 1),
        "n_paths": n_paths,
        "reference": euler_ou_second_moment(THETA, SIGMA, grid.dt,
                                            grid.steps - condition_step),
    }


def _loss_call(inp: dict, seed: int) -> Outcome:
    report = cm.conditional_loss_estimate(inp["model"], THETA, inp["ell"], inp["g"],
                                          "canonical", inp["n_paths"], seed,
                                          inp["grid"], X0)
    return Outcome(
        estimates=(report.estimate, report.std_error),
        z_scores=(_z(report.estimate, inp["reference"], report.std_error),),
        target_se=report.std_error,
        time_share=1.0,
    )


# ---------------------------------------------------------------------------
# grad-horizon: `bench-variance` at T = 8 (dt = 0.02, so M = 400), payoff
# (X_T - 3)^2, the sum-over-k branch gradient plus the score-function baseline


def _grad_inputs(n_paths: int) -> dict:
    grid = cm.TimeGrid(8.0, 400)
    return {
        "model": cm.ou_model(SIGMA),
        "grid": grid,
        # the CLI's own payoff, so the workload follows it if its form changes
        "payoff": condmc.bench._tracking_payoff(3.0),
        "n_paths": n_paths,
        # E[X_M] = 0 from X_0 = 0, so only the variance depends on theta
        "reference": euler_ou_second_moment_dtheta(THETA, SIGMA, grid.dt, grid.steps),
    }


def _grad_call(inp: dict, seed: int) -> Outcome:
    branch = cm.hj_gradient(inp["model"], THETA, X0, inp["grid"], inp["payoff"],
                            inp["n_paths"], "sum-over-k", child_seed(seed, 0))
    score = cm.score_function_gradient(inp["model"], THETA, X0, inp["grid"],
                                       inp["payoff"], inp["n_paths"],
                                       child_seed(seed, 1))
    ref = inp["reference"]
    return Outcome(
        estimates=(branch.estimate, branch.std_error, score.estimate, score.std_error),
        z_scores=(_z(branch.estimate, ref, branch.std_error),
                  _z(score.estimate, ref, score.std_error)),
        target_se=branch.std_error,
        time_share=1.0,
    )


# ---------------------------------------------------------------------------
# sgd: the `optimize` configuration (T = 1, M = 50, condition at step 25,
# random-k) cut to 8 iterations


SGD_ITERATIONS = 8


def _sgd_inputs(n_paths: int) -> dict:
    grid = cm.TimeGrid(1.0, 50)
    condition_step = grid.steps // 2
    return {
        "model": cm.ou_model(SIGMA),
        "grid": grid,
        "ell": cm.terminal_power(2),
        "g": cm.marginal_power(condition_step, 1),
        "n_paths": n_paths,
        "remaining_steps": grid.steps - condition_step,
    }


def _sgd_call(inp: dict, seed: int) -> Outcome:
    config = cm.OptimizerConfig(theta0=THETA, step_size=0.5, n_iterations=SGD_ITERATIONS,
                                paths_per_iteration=inp["n_paths"],
                                theta_bounds=(0.2, 3.0), gradient_mode="random-k",
                                master_seed=seed)
    trace = cm.run_sgd(inp["model"], inp["ell"], inp["g"], config, inp["grid"], X0)
    if trace.error is not None:
        # run_sgd turns estimator failures into a truncated trace
        raise cm.CondMcError(trace.error)
    dt, steps = inp["grid"].dt, inp["remaining_steps"]
    records = trace.records
    thetas = [r.theta for r in records]
    estimates = [trace.final_theta]
    for r in records:
        estimates += [r.theta, r.loss, r.se_loss, r.gradient, r.se_gradient]
    se_gradient = np.array([r.se_gradient for r in records])
    return Outcome(
        estimates=tuple(estimates),
        z_scores=(
            _pooled_z([r.loss for r in records],
                      [euler_ou_second_moment(t, SIGMA, dt, steps) for t in thetas],
                      [r.se_loss for r in records]),
            _pooled_z([r.gradient for r in records],
                      [euler_ou_second_moment_dtheta(t, SIGMA, dt, steps) for t in thetas],
                      se_gradient),
        ),
        target_se=float(np.sqrt(np.mean(se_gradient ** 2))),
        time_share=1.0 / SGD_ITERATIONS,
    )


def _pooled_z(estimates, references, std_errors) -> float:
    """z of the summed errors over all iterates.  Each iterate draws fresh
    paths, so the errors are independent given the iterates.  One iterate's
    random-k gradient alone has a skewed t-statistic: of about 400 sampled
    iterates one reached |z| = 4.6, its std error half the usual size."""
    errors = np.asarray(estimates) - np.asarray(references)
    return _z(errors.sum(), 0.0, np.sqrt(np.sum(np.square(std_errors))))


WORKLOADS = {
    w.name: w for w in (
        Workload("loss", 1e-3, _loss_inputs, _loss_call, 100_000, 2_000),
        Workload("grad-horizon", 1e-2, _grad_inputs, _grad_call, 1_500, 40),
        Workload("sgd", 1e-2, _sgd_inputs, _sgd_call, 2_000, 400),
    )
}
