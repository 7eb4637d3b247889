"""The benchmark tracer's hooks must all resolve in condmc, and fire.

perfbench/tracer.py wraps condmc functions by (module, name) from outside the
package; a hook whose target was renamed or removed is skipped, and one that
the estimators no longer call is never timed: either way its per-layer metric
silently reads 0.  Its counting hooks read attributes of condmc results, and
one that reads a renamed attribute crashes a traced run.  The tracer file is
loaded by path; only test_every_tracer_span_fires installs its wrappers, and
leaving the Tracer restores the originals.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import condmc as cm  # imports every condmc module the tracer names
from condmc.streams import _StreamPool
from condmc.weakderiv import _hj_terms_batch

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_tracer_target_resolves_in_condmc():
    tracer = _load_tracer()
    missing = [f"{module}.{attr}" for module, attr in tracer.SPANS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    if not callable(vars(_StreamPool).get("rekey")):
        missing.append("condmc.streams._StreamPool.rekey")
    assert missing == []


def test_every_tracer_hook_reads_condmc_results():
    tracer = _load_tracer()
    model, grid = cm.ou_model(1.0), cm.TimeGrid(1.0, 8)
    ell, g = cm.terminal_power(2), cm.marginal_power(4, 1)
    # span name -> (traced function, its arguments)
    calls = {
        "sde.simulate": (cm.simulate_paths, (model, 1.0, 0.0, grid, 6, 3)),
        "weakderiv.hj_terms": (_hj_terms_batch, (model, np.linspace(-0.5, 0.5, 6)[:, None, None],
                                                 grid.times[2:3], 1.0, grid.dt)),
        "malliavin.loss_estimate": (cm.conditional_loss_estimate,
                                    (model, 1.0, ell, g, "canonical", 400, 5, grid, 0.0)),
        "optimizer.counterfactual": (cm.counterfactual_gradient,
                                     (model, 1.0, ell, g, "canonical", grid, 0.0, 400)),
    }
    assert calls.keys() == tracer._HOOKS.keys()
    probe = tracer.Tracer()  # never entered: only its counters are used
    for name, (fn, args) in calls.items():
        tracer._HOOKS[name](probe, fn, args, {}, fn(*args))
    assert probe.counts == {"paths": 6, "branch_pairs": 6, "useful_branch_pairs": 6,
                            "loss_paths": 400, "gradient_paths": 400}
    assert probe.state_bytes > 0
    assert 0.0 < probe.accepted_paths < 400


def test_every_tracer_span_fires():
    # a span whose function the estimators no longer call reads 0 as silently
    # as one whose target no longer resolves
    tracer = _load_tracer()
    model, grid, x0 = cm.ou_model(1.0), cm.TimeGrid(1.0, 8), np.array([0.5])
    ell, g = cm.terminal_power(2), cm.marginal_power(4, 1)
    # a value-only payoff has its branches restarted: the generic engine, and
    # _branch_batch in random-k; the probes of ell and marginal_power carry them
    value_only = cm.PathFunctional(value=cm.marginal_power(6, 2).value)
    payoffs = (ell, cm.integral_functional(lambda x: x[..., 0] ** 2, lambda x: 2.0 * x),
               cm.marginal_power(6, 2), value_only)  # probe, integral and generic engines
    config = cm.OptimizerConfig(theta0=1.0, step_size=0.1, n_iterations=1,
                                paths_per_iteration=200)
    with tracer.Tracer() as probe:
        cm.conditional_loss_estimate(model, 1.0, ell, g, "canonical", 200, 5, grid, 0.0)
        cm.hj_gradient(model, 1.0, x0, grid, ell, 40, "random-k", 1)
        cm.hj_gradient(model, 1.0, x0, grid, value_only, 40, "random-k", 1)
        for payoff in payoffs:
            cm.hj_gradient(model, 1.0, x0, grid, payoff, 40, "sum-over-k", 1)
        cm.score_function_gradient(model, 1.0, x0, grid, ell, 40, 1)
        trace = cm.run_sgd(model, ell, g, config, grid, 0.0)
    assert trace.error is None and len(trace.records) == 1
    assert probe.missing == []
    assert sorted(set(tracer.SPANS.values()) - set(probe.calls)) == []
