"""The benchmark reaches library functions by name: the tracer wraps the
ones it lists, and the workloads and launchers import or call others.  A
name either uses must still exist, or a benchmark run fails."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

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



PACKAGE = "torelli_graphs"
STRING_IMPORT = re.compile(rf"from\s+({PACKAGE}[\w.]*)\s+import\s+(\w+(?:\s*,\s*\w+)*)")
BENCH = TRACER.parent


def bench_names(path):
    """Dotted package names a benchmark file reaches: every
    ``from torelli_graphs[...] import X`` (also inside string code, such as
    a ``python -c`` launcher), every ``import torelli_graphs[...]``, and
    every attribute taken from a name those bind (``tg.X``, ``cli.X``)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names, bound = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == PACKAGE:
            for alias in node.names:
                names.add(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == PACKAGE:
                    names.add(alias.name)
                    bound[alias.asname or PACKAGE] = alias.name if alias.asname else PACKAGE
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for module, imported in STRING_IMPORT.findall(node.value):
                names.update(f"{module}.{name.strip()}" for name in imported.split(","))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in bound
        ):
            names.add(f"{bound[node.value.id]}.{node.attr}")
    return names


def resolve(dotted):
    """The object a dotted package name refers to, importing submodules on
    the way; raises if any part is gone."""
    obj = importlib.import_module(PACKAGE)
    path = PACKAGE
    for part in dotted.split(".")[1:]:
        path += "." + part
        if not hasattr(obj, part):
            importlib.import_module(path)  # a submodule not imported yet
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("name", ["workloads.py", "worker.py", "launch.py", "sampler.py",
                                  "tracer.py", "run.py"])
def test_every_benchmark_name_resolves(name):
    names = bench_names(BENCH / name)
    assert names
    for dotted in sorted(names):
        resolve(dotted)
