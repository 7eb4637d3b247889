"""The benchmark tracer's hooks must all resolve in condmc.

perfbench/tracer.py wraps condmc functions by (module, name) from outside the
package; a hook whose target was renamed or removed is skipped and its
per-layer metric silently reads 0.  The tracer file is loaded by path and
only read here: no wrapper is installed.
"""

import importlib
import importlib.util
from pathlib import Path

import condmc  # noqa: F401  (imports every condmc module the tracer names)
from condmc.streams import _StreamPool

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_tracer_target_resolves_in_condmc():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{module}.{attr}" for module, attr in tracer.SPANS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    if not callable(vars(_StreamPool).get("rekey")):
        missing.append("condmc.streams._StreamPool.rekey")
    assert missing == []
