import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

_CATALOGS: dict = {}


@pytest.fixture(scope="session", autouse=True)
def _cache_dir(tmp_path_factory):
    # reuse an externally provided cache; otherwise keep it per session
    if "TORELLI_GRAPHS_CACHE" not in os.environ:
        os.environ["TORELLI_GRAPHS_CACHE"] = str(
            tmp_path_factory.mktemp("catalog-cache")
        )
    yield os.environ["TORELLI_GRAPHS_CACHE"]


@pytest.fixture(scope="session")
def catalog():
    """Memoized catalog loader shared by the whole session."""
    from torelli_graphs.cli import load_or_enumerate

    def get(genus, markings):
        key = (genus, markings)
        if key not in _CATALOGS:
            _CATALOGS[key] = load_or_enumerate(genus, markings)
        return _CATALOGS[key]

    return get


@pytest.fixture
def halfedge_lookups(monkeypatch):
    """Calls of ``StableGraph.vertex_of``, the per-call halfedge lookup the
    accessors share: a path that reads only the stored raw makes none."""
    from torelli_graphs.graph_core import StableGraph

    calls = []
    vertex_of = StableGraph.vertex_of

    def counting(graph, h):
        calls.append(h)
        return vertex_of(graph, h)

    monkeypatch.setattr(StableGraph, "vertex_of", counting)
    return calls


@pytest.fixture
def cold_class_memos():
    """Empty the memos of class-key parts, so that every piece shape the
    test meets runs its incidence search afresh."""
    from torelli_graphs import torelli

    torelli._one_vertex_part.cache_clear()
    torelli._keyed_part.cache_clear()
