"""The benchmark tracer wraps library functions by name; a name it lists
must still exist, or a traced benchmark run fails."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    tracer = load_tracer()
    assert tracer.TARGETS
    for mod_name, attr in tracer.TARGETS:
        home = importlib.import_module(f"{tracer.PACKAGE}.{mod_name}")
        if "." in attr:  # a method, wrapped on its class as the tracer does
            cls_name, attr = attr.split(".")
            assert callable(vars(getattr(home, cls_name)).get(attr)), (mod_name, cls_name, attr)
        else:
            assert callable(getattr(home, attr, None)), (mod_name, attr)
