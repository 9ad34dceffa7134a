"""The benchmark's span tracer (perfbench/tracer.py) replaces library names
with setattr, so a name it hooks that leaves the library breaks only traced
benchmark runs.  This keeps every hook resolvable from the tier-1 suite."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for owner, attr in tracer.TARGETS:
        module, _, cls = owner.partition(":")
        obj = importlib.import_module(module)
        if cls:
            obj = getattr(obj, cls)
        assert hasattr(obj, attr), f"{owner} has no {attr}"
