"""Run one condmc benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload loss --seed 1 --seconds 15 --trace 0

The workloads are defined in workloads.py; README.md says why each was chosen.
Calls run one after another in this process while the next one is expected
to end within --seconds (and at least MIN_CALLS of them), each on its own
seed derived from --seed.

--trace 0 reports the end-to-end metrics from untraced calls:
  setup_s              median wall time of a fresh interpreter that imports
                       condmc and builds the inputs; one is started before
                       each call, and at least SETUP_SPAWNS in all
  call_s               median wall time of one workload call
  time_to_target_se_s  time to reach the workload's target std error:
                       call_s * (pooled std error / target)^2, with call_s
                       cut to one iteration on sgd
  peak_rss_mb          peak resident memory of one call, read in a child
                       process of its own
--trace 1 alternates untraced and traced calls on the same seeds and reports
the per-layer metrics of tracer.LAYER_UNITS as medians over the traced
calls; the spans of the last traced call go to .perfbench_out/.

Every call is checked against an exact reference.  A call that raises a
CondMcError, returns a non-finite value, lands outside the reference band, or
(traced) differs in any bit from its untraced twin counts as failed.
"""

import os

# one worker: size the BLAS and OpenMP pools before numpy is loaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (exits when the checkout has no condmc sources)
from tracer import LAYER_UNITS, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE.parent / ".perfbench_out"
SETUP_SPAWNS = 9
MIN_CALLS = 3
MIN_PAIRS = 2
CHILD_TIMEOUT_S = 150
END_TO_END_UNITS = {"setup_s": "s", "call_s": "s", "time_to_target_se_s": "s", "peak_rss_mb": "MB"}


def _child(*args: str) -> tuple[float, str]:
    """Run probe.py in a fresh interpreter; (wall seconds, its stdout)."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, str(HERE / "probe.py"), *args],
                          stdout=subprocess.PIPE, text=True, check=True,
                          timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start, done.stdout


def _timed_call(workload, inputs, seed):
    """(seconds, outcome); the outcome is None when the call raised a CondMcError."""
    start = time.perf_counter()
    try:
        outcome = workload.call(inputs, seed)
    except workloads.cm.CondMcError as exc:
        print(f"perfbench: {workload.name} seed {seed}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        outcome = None
    return time.perf_counter() - start, outcome


def _warm_up(workload, run_seed: int) -> None:
    """One small call, so lazy set-up inside numpy is not timed."""
    try:
        workload.call(workload.inputs(workload.small_paths), workloads.call_seed(run_seed, 0))
    except workloads.cm.CondMcError:
        pass  # small samples may be degenerate; nothing is checked here


def _passes(outcome) -> bool:
    return outcome is not None and outcome.passes


def _bits(outcome) -> tuple:
    return tuple(float.hex(float(v)) for v in outcome.estimates)


def _report(attempted: int, failed: int, metrics: dict, units: dict, diagnostics: dict) -> None:
    print(json.dumps(diagnostics), file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))


def _time_left(start: float, seconds: float, last: float) -> bool:
    """Whether one more step as long as the last one ends within the run."""
    return time.perf_counter() - start + last <= seconds


def end_to_end(workload, inputs, run_seed: int, seconds: float) -> None:
    peak_rss_mb = float(_child("rss", workload.name, str(run_seed))[1].split()[-1])
    _warm_up(workload, run_seed)
    setup, durations, outcomes = [], [], []
    start = time.perf_counter()
    while len(durations) < MIN_CALLS or _time_left(start, seconds, durations[-1] + setup[-1]):
        # set-ups are spread over the run, so they meet the same machine as the calls
        setup.append(_child("setup", workload.name)[0])
        duration, outcome = _timed_call(workload, inputs,
                                        workloads.call_seed(run_seed, len(durations)))
        durations.append(duration)
        outcomes.append(outcome)
    setup += [_child("setup", workload.name)[0] for _ in range(SETUP_SPAWNS - len(setup))]
    errors = [o.target_se for o in outcomes if o is not None and math.isfinite(o.target_se)]
    if not errors:
        raise SystemExit(f"perfbench: no {workload.name} call returned a std error")
    call_s = statistics.median(durations)
    # pool variances, not errors, so the count of calls does not bias the mean
    pooled_se = math.sqrt(statistics.fmean(se * se for se in errors))
    share = next(o.time_share for o in outcomes if o is not None)
    metrics = {
        "setup_s": statistics.median(setup),
        "call_s": call_s,
        "time_to_target_se_s": call_s * share * (pooled_se / workload.target) ** 2,
        "peak_rss_mb": peak_rss_mb,
    }
    failed = sum(not _passes(o) for o in outcomes)
    z_scores = [abs(z) for o in outcomes if o is not None for z in o.z_scores]
    _report(len(outcomes), failed, metrics, END_TO_END_UNITS, {
        "workload": workload.name, "call_seconds": durations, "setup_seconds": setup,
        "target_se": errors, "max_abs_z": max(z_scores, default=None)})


def per_layer(workload, inputs, run_seed: int, seconds: float) -> None:
    _warm_up(workload, run_seed)
    untraced, traced, layer_runs = [], [], []
    failed = 0
    start = time.perf_counter()
    while len(traced) < MIN_PAIRS or _time_left(start, seconds, untraced[-1] + traced[-1]):
        seed = workloads.call_seed(run_seed, len(traced))
        duration, plain = _timed_call(workload, inputs, seed)
        untraced.append(duration)
        with Tracer() as tracer:
            duration, outcome = _timed_call(workload, inputs, seed)
        traced.append(duration)
        layer_runs.append(tracer.metrics())
        failed += not _passes(plain)
        failed += not (_passes(outcome) and _bits(outcome) == _bits(plain))
    metrics = {name: statistics.median(run[name] for run in layer_runs)
               for name in layer_runs[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    _write_spans(tracer, workload.name, run_seed)
    _report(2 * len(traced), failed, metrics, LAYER_UNITS, {
        "workload": workload.name, "untraced_seconds": untraced,
        "traced_seconds": traced, "missing_trace_targets": tracer.missing})


def _write_spans(tracer: Tracer, name: str, run_seed: int) -> None:
    """Spans of one traced call as [name, start s, end s, parent index]."""
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    rows = [[n, s - origin, e - origin, parent] for n, s, e, parent in tracer.spans]
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"spans-{name}-seed{run_seed}.json", "w", encoding="utf-8") as out:
        json.dump(rows, out)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.inputs()
    run = per_layer if args.trace else end_to_end
    run(workload, inputs, args.seed, args.seconds)


if __name__ == "__main__":
    main()
