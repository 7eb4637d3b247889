"""The benchmark's own tests, run on demand rather than with the package suite:

    python3 -m pytest perfbench/selftest.py

The rekey counts pin today's stream layout (one Philox rekey per path for
noise, one per path and step for branch draws), so a change to that layout
changes them on purpose; the package suite should not fail on that.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracer import LAYER_UNITS, Tracer, _condmc_modules
from workloads import WORKLOADS, cm

ROOT = Path(__file__).resolve().parent.parent


def _small(name):
    workload = WORKLOADS[name]
    return workload, workload.inputs(workload.small_paths)


def _bindings():
    pool = cm.streams._StreamPool
    snapshot = {(m.__name__, key): value for m in _condmc_modules()
                for key, value in vars(m).items()}
    snapshot[("condmc.streams._StreamPool", "rekey")] = vars(pool)["rekey"]
    return snapshot


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_call_is_bit_identical_to_untraced(name):
    workload, inputs = _small(name)
    seed = workloads.call_seed(3, 0)
    plain = workload.call(inputs, seed)
    with Tracer() as tracer:
        traced = workload.call(inputs, seed)
    assert not tracer.missing
    assert tracer.spans and None not in tracer.spans
    assert run._bits(traced) == run._bits(plain)


def test_tracer_rebinds_imported_names_and_restores_all():
    before = _bindings()
    rebound = [
        ("malliavin", "simulate_paths"), ("weakderiv", "simulate_paths"),
        ("optimizer", "simulate_paths"), ("weakderiv", "_euler_continue"),
        ("weakderiv", "_euler_jacobians"), ("optimizer", "_euler_jacobians"),
        ("optimizer", "_hj_values"), ("optimizer", "conditional_quotient_terms"),
        ("malliavin", "derivative_profile"), ("sde", "_euler_continue"),
    ]
    with pytest.raises(RuntimeError):
        with Tracer():
            for module, attr in rebound:
                bound = getattr(getattr(cm, module), attr)
                assert bound is not before[(f"condmc.{module}", attr)]
                assert bound.__wrapped__ is before[(f"condmc.{module}", attr)]
            raise RuntimeError("leaving the tracer by an exception restores too")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("name, expected", [
    ("loss", lambda n, steps: n),                      # noise, one rekey per path
    ("grad-horizon", lambda n, steps: n * steps + 2 * n),  # branch draws + two noise passes
])
def test_rekey_counts_match_analytic(name, expected):
    workload, inputs = _small(name)
    with Tracer() as tracer:
        workload.call(inputs, workloads.call_seed(5, 0))
    n, steps = inputs["n_paths"], inputs["grid"].steps
    assert tracer.rekeys == expected(n, steps)


def test_workloads_match_cli_configurations():
    loss = cm.resolve_config("estimate-loss", {}, {})
    inputs = WORKLOADS["loss"].inputs()
    assert (loss.theta, loss.sigma, loss.x0) == (workloads.THETA, workloads.SIGMA, 0.0)
    assert (loss.horizon, loss.steps, loss.paths) == (1.0, 200, inputs["n_paths"])

    variance = cm.resolve_config("bench-variance", {}, {})
    inputs = WORKLOADS["grad-horizon"].inputs()
    assert 8.0 in variance.t_values and variance.mode == "sum-over-k"
    assert inputs["grid"].dt == variance.horizon / variance.steps
    assert (variance.paths, variance.target) == (inputs["n_paths"], 3.0)

    optimize = cm.resolve_config("optimize", {}, {})
    inputs = WORKLOADS["sgd"].inputs()
    assert (optimize.horizon, optimize.steps, optimize.paths) == (1.0, 50, inputs["n_paths"])
    assert (optimize.theta, optimize.step_size, optimize.mode) == (1.0, 0.5, "random-k")
    assert (optimize.theta_min, optimize.theta_max) == (0.2, 3.0)


def test_reference_derivative_matches_central_difference():
    h = 1e-6
    for theta, dt, steps in ((1.0, 0.005, 100), (2.5, 0.02, 25), (1.0, 0.02, 400)):
        slope = (workloads.euler_ou_second_moment(theta + h, 1.0, dt, steps)
                 - workloads.euler_ou_second_moment(theta - h, 1.0, dt, steps)) / (2 * h)
        exact = workloads.euler_ou_second_moment_dtheta(theta, 1.0, dt, steps)
        assert exact == pytest.approx(slope, rel=1e-7)
    # dt -> 0 recovers the continuous OU variance over half a unit of time
    assert workloads.euler_ou_second_moment(1.0, 1.0, 1e-5, 50_000) == pytest.approx(
        cm.ou_conditional_second_moment(1.0, 1.0, 0.5, 1.0), rel=1e-4)


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_run_fails_without_condmc_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "loss",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
