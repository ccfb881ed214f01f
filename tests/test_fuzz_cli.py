"""Mutation fuzzing of the CLI's JSON inputs.

Valid documents for ``contract --graph``, ``fiber --axis``,
``fiber-check --axis`` and ``verify-assignment --assignment`` are mutated (an integer changed, a node
replaced by a small JSON value, a key or list item dropped, a character of
a key edited) and fed to ``cli.main`` in-process.  Every run must end in
exit 0, 1 or 2 without a traceback.  Values stay small, so no mutation can
ask for a large catalog or fiber.
"""

import contextlib
import copy
import io
import json
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from torelli_graphs import (  # noqa: E402
    SEPARATING_BRIDGES,
    AxisGraph,
    SingularPoint,
    StableGraph,
)
from torelli_graphs.cli import load_or_enumerate, main  # noqa: E402

FUZZ = settings(derandomize=True, database=None, max_examples=60, deadline=None)

SMALL = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 4)
    | st.sampled_from([0.5, -1.0, math.inf, -math.inf, math.nan])
    | st.text("0123:-;=,TGaklbeg", max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "genus", "legs", "x"]), inner, max_size=2),
    max_leaves=4,
)


def _nodes(doc, path=()):
    """Every (path, node) of a JSON document, the root included."""
    yield path, doc
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _nodes(value, path + (i,))


@st.composite
def mutated(draw, seeds):
    """A seed with one to three mutations; most change one integer, which
    keeps the document's shape and tests its meaning."""
    doc = copy.deepcopy(draw(st.sampled_from(seeds)))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["int", "int", "int", "replace", "delete", "key"]))
        nodes = list(_nodes(doc))
        if op == "key":
            # one character of a dict key edited: graph keys of tables
            dicts = [v for _, v in nodes if isinstance(v, dict) and v]
            if dicts:
                d = draw(st.sampled_from(dicts))
                old = draw(st.sampled_from(sorted(d)))
                at = draw(st.integers(0, len(old)))
                new = old[:at] + draw(st.sampled_from(list("0123:-;=,k"))) \
                    + old[at + draw(st.integers(0, 1)):]
                d[new] = d.pop(old)
                continue
        if op == "int":
            nodes = [(p, v) for p, v in nodes if type(v) is int] or nodes
        path, _ = draw(st.sampled_from(nodes))
        if not path:
            doc = draw(SMALL)
            continue
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        if op == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(st.integers(-1, 4) if op == "int" else SMALL)
    return doc


def graph_seeds() -> list:
    graphs = [
        StableGraph.build({0: 0, 1: 1, 2: 1, 3: 1}, edges=[(0, 1), (0, 2), (0, 3)]),
        StableGraph.build({0: 1, 1: 0}, edges=[(0, 1)] * 4),
        StableGraph.build({0: 0, 1: 0}, edges=[(0, 1), (1, 1)], legs={1: 0, 2: 0}),
    ]
    return [g.to_json_dict() for g in graphs]


def axis_seeds() -> list:
    axes = [
        AxisGraph([(i, 1, []) for i in range(4)],
                  [SingularPoint(0, ((0, 0), (1, 0), (2, 0), (3, 0)))]),
        AxisGraph([(0, 1, [1])], [SingularPoint(0, ((0, 0), (0, 1), (0, 2)))]),
    ]
    return [{"schema": "torelli-graphs/1", **a.to_json_dict()} for a in axes]


def table_seeds() -> list:
    # the rule-F value of every (1,2) graph as canonical positions, and
    # vertex 0 of every graph (not proper on one-vertex graphs)
    keys = load_or_enumerate(1, 2).keys
    tables = [{}, {}]
    for key in keys:
        mask = SEPARATING_BRIDGES.value_mask(key)
        tables[0][key.decode()] = [v for v in range(mask.bit_length()) if mask >> v & 1]
        tables[1][key.decode()] = [0]
    return [
        {"schema": "torelli-graphs/1", "name": name, "entries": entries}
        for name, entries in zip(["F-table", "vertex-0"], tables)
    ]


COMMANDS = {
    "contract": (["contract", "--graph"], graph_seeds),
    "fiber": (["fiber", "--axis"], axis_seeds),
    "fiber-check": (["fiber-check", "--axis"], axis_seeds),
    "verify-assignment": (
        ["verify-assignment", "--genus", "1", "--markings", "2", "--assignment"],
        table_seeds,
    ),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_mutated_input_exits_cleanly(command, tmp_path_factory):
    argv, seeds = COMMANDS[command]
    path = tmp_path_factory.mktemp("fuzz") / "in.json"

    @FUZZ
    @given(mutated(seeds()))
    def run(doc):
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + [str(path)])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 1:
            assert err.getvalue().startswith("error:") and not out.getvalue()

    run()
