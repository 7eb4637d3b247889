"""Spans and counters around condmc's layers, installed from outside the package.

While a Tracer is installed, each function named in SPANS is replaced by a
timing wrapper in every condmc module that holds it, since modules bind
functions they import by name (``simulate_paths`` lives in sde, malliavin,
weakderiv and optimizer).  ``_StreamPool.rekey`` is counted but not timed:
it runs once per path and step on the branch workload, where timing it would
add half again to the call.  Leaving the Tracer puts every original back.

A span's self time is its duration minus the time of the traced calls made
inside it, so the self times of one call add up without double counting.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

# (module, function) -> span name "<layer>.<what>"; layers are condmc modules
SPANS = {
    ("condmc.sde", "simulate_paths"): "sde.simulate",
    ("condmc.sde", "_noise_block"): "sde.noise",
    ("condmc.sde", "_euler_continue"): "sde.euler",
    ("condmc.sde", "_euler_jacobians"): "sde.jacobian",
    ("condmc.functionals", "derivative_profile"): "functionals.derivative",
    ("condmc.malliavin", "conditional_loss_estimate"): "malliavin.loss_estimate",
    ("condmc.malliavin", "conditional_quotient_terms"): "malliavin.quotient_terms",
    ("condmc.malliavin", "weight_from_rule"): "malliavin.weight",
    ("condmc.malliavin", "skorohod_integral"): "malliavin.skorohod",
    ("condmc.weakderiv", "hj_gradient"): "weakderiv.hj_gradient",
    ("condmc.weakderiv", "_hj_values"): "weakderiv.hj_values",
    ("condmc.weakderiv", "_terminal_sum_over_k"): "weakderiv.engine",
    ("condmc.weakderiv", "_integral_sum_over_k"): "weakderiv.engine",
    ("condmc.weakderiv", "_generic_sum_over_k"): "weakderiv.engine",
    ("condmc.weakderiv", "_grouped_random_k"): "weakderiv.engine",
    ("condmc.weakderiv", "_hj_terms_batch"): "weakderiv.hj_terms",
    ("condmc.weakderiv", "_branch_draw_block"): "weakderiv.branch_draw",
    ("condmc.weakderiv", "_assemble_branch_states"): "weakderiv.assemble",
    ("condmc.weakderiv", "_branch_batch"): "weakderiv.branch_batch",
    ("condmc.weakderiv", "score_function_gradient"): "weakderiv.score",
    ("condmc.optimizer", "run_sgd"): "optimizer.sgd",
    ("condmc.optimizer", "counterfactual_gradient"): "optimizer.counterfactual",
    ("condmc.optimizer", "_integrand_theta_terms"): "optimizer.explicit_theta",
}

# per-layer metric -> unit, in the order the benchmark reports them
LAYER_UNITS = {
    "streams.rekeys": "count",
    "sde.noise_s": "s",
    "sde.euler_s": "s",
    "sde.jacobian_s": "s",
    "sde.jacobian_calls": "count",
    "sde.paths_simulated": "count",
    "sde.state_bytes": "bytes_computed",
    "functionals.derivative_s": "s",
    "malliavin.weight_s": "s",
    "malliavin.skorohod_s": "s",
    "malliavin.quotient_terms_s": "s",
    "malliavin.quotient_terms_calls": "count",
    "malliavin.acceptance_frac": "fraction",
    "weakderiv.branch_draw_s": "s",
    "weakderiv.engine_self_s": "s",
    "weakderiv.hj_terms_s": "s",
    "weakderiv.assemble_s": "s",
    "weakderiv.branch_pairs": "count",
    "weakderiv.useful_branch_frac": "fraction",
    "weakderiv.score_s": "s",
    "weakderiv.branch_batch_s": "s",
    "optimizer.base_passes_per_iter": "passes",
    "optimizer.explicit_theta_s": "s",
    "trace.overhead_s": "s",
}

_SELF_TIMES = {
    "sde.noise_s": "sde.noise",
    "sde.euler_s": "sde.euler",
    "sde.jacobian_s": "sde.jacobian",
    "functionals.derivative_s": "functionals.derivative",
    "malliavin.weight_s": "malliavin.weight",
    "malliavin.skorohod_s": "malliavin.skorohod",
    "malliavin.quotient_terms_s": "malliavin.quotient_terms",
    "weakderiv.branch_draw_s": "weakderiv.branch_draw",
    "weakderiv.engine_self_s": "weakderiv.engine",
    "weakderiv.hj_terms_s": "weakderiv.hj_terms",
    "weakderiv.assemble_s": "weakderiv.assemble",
    "weakderiv.score_s": "weakderiv.score",
    "weakderiv.branch_batch_s": "weakderiv.branch_batch",
    "optimizer.explicit_theta_s": "optimizer.explicit_theta",
}


def _count_paths(tracer, fn, args, kwargs, batch):
    tracer.counts["paths"] += batch.n_paths
    nbytes = batch.states.nbytes + batch.increments.nbytes
    if batch.jacobians is not None:
        nbytes += batch.jacobians.y.nbytes + batch.jacobians.z.nbytes
    tracer.state_bytes = max(tracer.state_bytes, nbytes)


def _count_branch_pairs(tracer, fn, args, kwargs, terms):
    total = terms[3]  # per-row scale of the split kernel; 0 makes the pair useless
    tracer.counts["branch_pairs"] += total.size
    tracer.counts["useful_branch_pairs"] += int((total != 0.0).sum())


def _count_acceptance(tracer, fn, args, kwargs, report):
    tracer.counts["loss_paths"] += report.n_paths
    tracer.accepted_paths += report.acceptance_fraction * report.n_paths


def _count_requested_paths(tracer, fn, args, kwargs, result):
    tracer.counts["gradient_paths"] += inspect.signature(fn).bind(
        *args, **kwargs).arguments["n_paths"]


_HOOKS = {
    "sde.simulate": _count_paths,
    "weakderiv.hj_terms": _count_branch_pairs,
    "malliavin.loss_estimate": _count_acceptance,
    "optimizer.counterfactual": _count_requested_paths,
}


def _condmc_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "condmc" or name.startswith("condmc.")]


class Tracer:
    """Context manager: install the wrappers on enter, restore on exit.

    spans holds (name, start, end, parent index) for every traced call, in
    the order the calls began; self_time and calls aggregate them per name.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.rekeys = 0
        self.state_bytes = 0
        self.accepted_paths = 0.0
        self.missing: list[str] = []
        self._stack: list = []
        self._originals: list = []

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _install(self) -> None:
        modules = _condmc_modules()
        for (module_name, attr), name in SPANS.items():
            fn = getattr(sys.modules.get(module_name), attr, None)
            if fn is None:  # renamed or removed: its metric reads 0
                self.missing.append(f"{module_name}.{attr}")
                continue
            traced = self._wrap(fn, name, _HOOKS.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._originals.append((module, key, fn))
                        setattr(module, key, traced)
        pool = getattr(sys.modules.get("condmc.streams"), "_StreamPool", None)
        rekey = vars(pool).get("rekey") if pool is not None else None
        if rekey is None:
            self.missing.append("condmc.streams._StreamPool.rekey")
            return

        def counted_rekey(*args, **kwargs):
            self.rekeys += 1
            return rekey(*args, **kwargs)

        self._originals.append((pool, "rekey", rekey))
        pool.rekey = counted_rekey

    def _restore(self) -> None:
        while self._originals:
            owner, key, original = self._originals.pop()
            setattr(owner, key, original)

    def _wrap(self, fn, name, hook):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            frame = [0.0, len(spans)]  # [time of traced calls inside, span index]
            spans.append(None)
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                spans[frame[1]] = (name, start, end, parent)
                self.self_time[name] += duration - frame[0]
                self.calls[name] += 1
                if stack:
                    stack[-1][0] += duration
            if hook is not None:
                hook(self, fn, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def metrics(self) -> dict:
        """Per-layer metrics of the traced calls, without trace.overhead_s."""
        out = {metric: self.self_time.get(span, 0.0)
               for metric, span in _SELF_TIMES.items()}
        counts = self.counts
        out.update({
            "streams.rekeys": self.rekeys,
            "sde.jacobian_calls": self.calls["sde.jacobian"],
            "sde.paths_simulated": counts["paths"],
            "sde.state_bytes": self.state_bytes,
            "malliavin.quotient_terms_calls": self.calls["malliavin.quotient_terms"],
            "malliavin.acceptance_frac": _ratio(self.accepted_paths, counts["loss_paths"]),
            "weakderiv.branch_pairs": counts["branch_pairs"],
            "weakderiv.useful_branch_frac": _ratio(counts["useful_branch_pairs"],
                                                   counts["branch_pairs"]),
            "optimizer.base_passes_per_iter": _ratio(counts["paths"],
                                                     counts["gradient_paths"]),
        })
        return out


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0
