"""The traced benchmark patches skeinlab functions by name; every name it
lists must still resolve, or `perfbench/run.py --trace 1` breaks."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    targets = _load_tracer().TARGETS
    assert targets
    missing = []
    for module_name, path, *_ in targets:
        obj = importlib.import_module(module_name)
        for part in path.split("."):
            obj = getattr(obj, part, None)
            if obj is None:
                missing.append(f"{module_name}.{path}")
                break
        else:
            if not callable(obj):
                missing.append(f"{module_name}.{path}")
    assert missing == []
