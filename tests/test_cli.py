import json
import os
from pathlib import Path

import pytest

import torelli_graphs.cli as cli_module
from torelli_graphs import AxisGraph, SingularPoint, StableGraph
from torelli_graphs.cli import main, load_or_enumerate


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    report = json.loads(out.out) if out.out.strip() else None
    return code, report, out.err


def write_axis(path, axis):
    path.write_text(json.dumps({"schema": "torelli-graphs/1", **axis.to_json_dict()}))
    return str(path)


@pytest.fixture
def sep4(tmp_path):
    axis = AxisGraph(
        [(i, 1, []) for i in range(4)],
        [SingularPoint(0, ((0, 0), (1, 0), (2, 0), (3, 0)))],
    )
    return write_axis(tmp_path / "sep4.json", axis)


@pytest.fixture
def prof4(tmp_path):
    axis = AxisGraph(
        [(0, 1, [])], [SingularPoint(0, ((0, 0), (0, 1), (0, 2), (0, 3)))]
    )
    return write_axis(tmp_path / "prof4.json", axis)


class TestEnumerateCmd:
    def test_1_1_count(self, capsys, tmp_path):
        out = tmp_path / "cat.json"
        code, report, _ = run(
            capsys, "enumerate", "--genus", "1", "--markings", "1",
            "--out", str(out),
        )
        assert code == 0
        assert report["payload"]["count"] == 2
        assert report["schema"] == "torelli-graphs/1"
        doc = json.loads(out.read_text())
        assert doc["metadata"]["count"] == 2
        for g in doc["graphs"]:
            StableGraph.from_json_dict(g)

    def test_0_4_count(self, capsys):
        code, report, _ = run(capsys, "enumerate", "--genus", "0", "--markings", "4")
        assert code == 0 and report["payload"]["count"] == 4

    def test_0_3_count(self, capsys):
        code, report, _ = run(capsys, "enumerate", "--genus", "0", "--markings", "3")
        assert code == 0 and report["payload"]["count"] == 1

    def test_bound_exceeded(self, capsys):
        code, _, err = run(capsys, "enumerate", "--genus", "4", "--markings", "0")
        assert code == 1
        assert "bound" in err

    def test_dot_output(self, capsys, tmp_path):
        out = tmp_path / "cat.dot"
        code, _, _ = run(
            capsys, "enumerate", "--genus", "1", "--markings", "1",
            "--out", str(out), "--format", "dot",
        )
        assert code == 0
        assert "graph" in out.read_text()

    def test_cache_reused(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("TORELLI_GRAPHS_CACHE", str(tmp_path / "c"))
        cat1 = load_or_enumerate(1, 2)
        files = list((tmp_path / "c").iterdir())
        assert len(files) == 1
        cat2 = load_or_enumerate(1, 2)
        assert cat1.keys == cat2.keys

    @pytest.mark.parametrize(
        "damage", ["truncated", "nested", "count", "bound", "keys", "repeated", "garbled"]
    )
    def test_damaged_cache_regenerated(self, tmp_path, monkeypatch, damage):
        monkeypatch.setenv("TORELLI_GRAPHS_CACHE", str(tmp_path / "c"))
        want = load_or_enumerate(1, 2).keys
        (path,) = (tmp_path / "c").iterdir()
        text = path.read_text()
        data = json.loads(text)
        if damage == "truncated":
            path.write_text(text[: len(text) // 2])
        elif damage == "nested":
            path.write_text("[" * 100_000 + "]" * 100_000)
        else:
            if damage == "count":
                data["count"] += 1
            elif damage == "bound":
                data["bound"] += 1
            elif damage == "keys":
                data["keys"] = data["keys"][1:]
            elif damage == "repeated":  # the count still matches
                data["keys"] = [data["keys"][0]] * len(data["keys"])
            else:
                data["keys"][-1] = "TG1;k=1"
            path.write_text(json.dumps(data))
        calls = []
        enumerate_stable_graphs = cli_module.enumerate_stable_graphs

        def counting(*args):
            calls.append(args)
            return enumerate_stable_graphs(*args)

        monkeypatch.setattr(cli_module, "enumerate_stable_graphs", counting)
        assert load_or_enumerate(1, 2).keys == want
        assert len(calls) == 1
        # the rewritten file is whole again and no temporary file is left
        assert [p.name for p in (tmp_path / "c").iterdir()] == [path.name]
        assert json.loads(path.read_text())["count"] == len(want)
        assert load_or_enumerate(1, 2).keys == want
        assert len(calls) == 1

    # (old, new) text of the damage to the first (1,2) key that holds the
    # old text (the first four damage the first key, a one-vertex one), and
    # the text the error names the damaged key by
    KEY_DAMAGE = {
        "branch-past-k": (";b=;", ";b=7:1;", "not a graph key"),
        "edge-past-k": (";e=0-0", ";e=0-9", "not a graph key"),
        "negative-branch": (";b=;", ";b=-1:1;", "not a graph key"),
        "huge-k": ("k=1;", "k=99999999999;", "key has k="),
        "leading-zero": ("g=0;", "g=00;", "not a graph key"),
        "zero-branch": (";b=;", ";b=0:0;", "not a graph key"),
        "repeated-branch": (";b=;", ";b=0:1,0:1;", "not a graph key"),
        "unsorted-branch": ("l=1:0,2:1;b=;", "l=1:0,2:1;b=1:1,0:1;", "not a graph key"),
        "unsorted-legs": ("l=1:0,2:0;b=;e=0-0", "l=2:0,1:0;b=;e=0-0", "not a graph key"),
        "unsorted-edges": ("e=0-0,0-1", "e=0-1,0-0", "not a graph key"),
        "reversed-edge": ("e=0-1,0-1", "e=1-0,0-1", "not a graph key"),
    }

    @pytest.mark.parametrize("argv, damage", [
        pytest.param(["torelli-classes"], "branch-past-k", id="torelli-classes"),
        pytest.param(["torelli-classes", "--jobs", "2"], "branch-past-k",
                     id="torelli-classes-jobs-2"),
        pytest.param(["verify-assignment"], "branch-past-k", id="verify-assignment"),
        pytest.param(["enumerate", "--out", "{tmp}/cat.json"], "branch-past-k",
                     id="enumerate-out"),
    ] + [
        pytest.param([cmd], damage, id=f"{cmd}-{damage}")
        for damage in ["edge-past-k", "negative-branch", "huge-k", "leading-zero",
                       "zero-branch", "repeated-branch", "unsorted-branch",
                       "unsorted-legs", "unsorted-edges", "reversed-edge"]
        for cmd in ["torelli-classes", "verify-assignment"]
    ])
    def test_unreadable_cache_key_exit_one(self, capsys, tmp_path, monkeypatch, argv,
                                           damage):
        # the CRC matches, so the cache is read and the damaged key parsed
        monkeypatch.setenv("TORELLI_GRAPHS_CACHE", str(tmp_path / "c"))
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        load_or_enumerate(1, 2)
        (path,) = (tmp_path / "c").iterdir()
        data = json.loads(path.read_text())
        old, new, named = self.KEY_DAMAGE[damage]
        i = next(i for i, key in enumerate(data["keys"]) if old in key)
        data["keys"][i] = data["keys"][i].replace(old, new)
        data["crc32"] = cli_module._keys_crc(data["keys"])
        path.write_text(json.dumps(data))
        argv = [a.format(tmp=tmp_path) for a in argv]
        code, report, err = run(capsys, argv[0], "--genus", "1", "--markings", "2",
                                *argv[1:])
        assert code == 1 and report is None
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert named in err

    def test_failed_cache_write_leaves_no_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TORELLI_GRAPHS_CACHE", str(tmp_path / "c"))

        def failing(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(cli_module.os, "replace", failing)
        assert len(load_or_enumerate(1, 2)) == 5
        assert list((tmp_path / "c").iterdir()) == []


class TestVerifyAssignmentCmd:
    def test_builtin_verifies(self, capsys):
        code, report, _ = run(
            capsys, "verify-assignment", "--genus", "2", "--markings", "0",
            "--degenerations", "all",
        )
        assert code == 0
        assert report["payload"]["verified"] is True

    def test_violating_table_exits_2(self, capsys, tmp_path):
        cat = load_or_enumerate(1, 1)
        loop_key = next(k for k in cat.keys if b"0-0" in k)
        entries = {k.decode(): [] for k in cat.keys}
        entries[loop_key.decode()] = [0]
        path = tmp_path / "table.json"
        path.write_text(json.dumps(
            {"schema": "torelli-graphs/1", "name": "bad", "entries": entries}
        ))
        code, report, _ = run(
            capsys, "verify-assignment", "--genus", "1", "--markings", "1",
            "--assignment", str(path), "--degenerations", "all",
        )
        assert code == 2
        assert report["payload"]["axiom2_violations"]

    @pytest.mark.parametrize("key, positions", [
        # a leg, a branch point or an edge endpoint outside range(k)
        ("TG1;k=1;g=0;l=1:0,2:0,3:0,4:3;b=;e=", []),
        ("TG1;k=1;g=0;l=1:0,2:0,3:0,4:0;b=2:1;e=", []),
        ("TG1;k=1;g=0;l=1:0,2:0,3:0,4:0;b=;e=0-5", []),
        # k disagrees with the genera
        ("TG1;k=3;g=0;l=;b=;e=0-5", []),
        # a genus that is not a number
        ("TG1;k=1;g=x;l=;b=;e=", []),
        # a branch point at a negative position
        ("TG1;k=2;g=0,0;l=;b=-1:1;e=0-1", []),
        # a position that is not an integer
        ("TG1;k=1;g=0;l=1:0,2:0,3:0,4:0;b=;e=", [0.5]),
        # a top-level array instead of an object
        (None, None),
        # a non-ASCII digit, fields out of order, a signed number
        ("TG1;k=1;g=\u0660;l=1:0,2:0,3:0,4:0;b=;e=", []),
        ("TG1;g=0;k=1;l=1:0,2:0,3:0,4:0;b=;e=", []),
        ("TG1;k=+1;g=0;l=1:0,2:0,3:0,4:0;b=;e=", []),
    ], ids=["leg", "branch-point", "edge-endpoint", "k-vs-genera", "genus-text",
            "negative-branch", "float-position", "array-document", "non-ascii-digit",
            "fields-out-of-order", "signed-number"])
    def test_malformed_table_exit_one(self, capsys, tmp_path, key, positions):
        # every catalog entry is covered, so only the malformed one can fail
        entries = {k.decode(): [] for k in load_or_enumerate(0, 4).keys}
        doc = {"entries": entries}
        if key is None:
            doc = [doc]
        else:
            entries[key] = positions
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        code, report, err = run(
            capsys, "verify-assignment", "--genus", "0", "--markings", "4",
            "--assignment", str(path),
        )
        assert code == 1 and report is None
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1


class TestContractAndFiberCmds:
    def test_contract_writes_axis(self, capsys, tmp_path):
        g = StableGraph.build({0: 0, 1: 1, 2: 1, 3: 1},
                              edges=[(0, 1), (0, 2), (0, 3)])
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps(g.to_json_dict()))
        apath = tmp_path / "axis.json"
        code, report, _ = run(
            capsys, "contract", "--graph", str(gpath), "--assignment", "F",
            "--out", str(apath),
        )
        assert code == 0
        assert report["payload"]["contracted_vertices"] == [0]
        assert report["payload"]["is_separating_axis_like"] is True
        axis = AxisGraph.from_json_dict(json.loads(apath.read_text()))
        assert axis.genus() == 3

    def test_contract_legs_not_object_exit_one(self, capsys, tmp_path):
        g = StableGraph.build({0: 0, 1: 1, 2: 1, 3: 1},
                              edges=[(0, 1), (0, 2), (0, 3)])
        data = g.to_json_dict()
        data["legs"] = []
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps(data))
        code, report, err = run(capsys, "contract", "--graph", str(gpath))
        assert code == 1 and report is None
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_contract_unstable_graph_exit_one(self, capsys, tmp_path):
        g = StableGraph.build({0: 1, 1: 0, 2: 1}, edges=[(0, 1), (1, 2)])
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps(g.to_json_dict()))
        code, report, err = run(capsys, "contract", "--graph", str(gpath))
        assert code == 1 and report is None
        assert err.strip() == "error: input graph must be stable"

    def test_fiber_counts(self, capsys, prof4):
        code, report, _ = run(capsys, "fiber", "--axis", prof4)
        assert code == 0
        assert report["payload"]["total"] == 4
        assert report["payload"]["moduli_dimension"] == 1


class TestTorelliClassesCmd:
    def test_1_1_two_classes(self, capsys):
        code, report, _ = run(
            capsys, "torelli-classes", "--genus", "1", "--markings", "1"
        )
        assert code == 0
        payload = report["payload"]
        assert payload["class_count"] == 2
        members = sorted(m for c in payload["classes"] for m in c["members"])
        cat = load_or_enumerate(1, 1)
        assert members == sorted(k.decode() for k in cat.keys)

    def test_partition_property(self, capsys):
        code, report, _ = run(
            capsys, "torelli-classes", "--genus", "2", "--markings", "0"
        )
        payload = report["payload"]
        members = [m for c in payload["classes"] for m in c["members"]]
        assert len(members) == len(set(members)) == payload["catalog_size"]

    def test_genus_zero_rejected(self, capsys):
        code, _, err = run(capsys, "torelli-classes", "--genus", "0",
                           "--markings", "5")
        assert code == 1 and "genus" in err

    def test_jobs_deterministic(self, capsys):
        _, r1, _ = run(capsys, "torelli-classes", "--genus", "2",
                       "--markings", "0", "--jobs", "1")
        _, r2, _ = run(capsys, "torelli-classes", "--genus", "2",
                       "--markings", "0", "--jobs", "2")
        assert r1["payload"] == r2["payload"]

    def test_jobs_clamped_to_cpu_count(self, capsys, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        code, report, _ = run(capsys, "torelli-classes", "--genus", "1",
                              "--markings", "1", "--jobs", "2")
        assert code == 0
        assert report["config"]["jobs"] == 1


class TestFiberCheckCmd:
    def test_constant_exit_zero(self, capsys, sep4):
        code, report, _ = run(capsys, "fiber-check", "--axis", sep4)
        assert code == 0
        assert report["payload"]["verdict"] == "constant"
        assert report["payload"]["key"]

    def test_varies_exit_two(self, capsys, prof4):
        code, report, _ = run(capsys, "fiber-check", "--axis", prof4)
        assert code == 2
        assert report["payload"]["verdict"] == "varies"

    def test_truncated_json_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"components": [')
        code, _, err = run(capsys, "fiber-check", "--axis", str(bad))
        assert code == 1
        assert err.strip()

    def test_missing_file_exit_one(self, capsys, tmp_path):
        code, _, err = run(capsys, "fiber-check", "--axis",
                           str(tmp_path / "nope.json"))
        assert code == 1


class TestMalformedInput:
    @pytest.mark.parametrize("argv, content", [
        (["verify-assignment", "--genus", "0", "--markings", "4", "--assignment"],
         b'{"entries": {"\xff": []}}'),
        (["fiber-check", "--axis"], b"[" * 100_000 + b"]" * 100_000),
        (["contract", "--graph"],
         b'{"vertices": [{"id": 0, "genus": 1e999}], "halfedges": [], "edges": []}'),
        (["fiber-check", "--axis"],
         b'{"components": [{"id": 0, "genus": 1}], "singular_points": [], "genus": 1e999}'),
        (["contract", "--graph"],
         b'{"vertices": [{"id": 0, "genus": 1}, {"id": 0, "genus": 2}], '
         b'"halfedges": [], "edges": []}'),
        (["contract", "--graph"],
         b'{"vertices": [{"id": 0, "genus": 1}], '
         b'"halfedges": [{"id": 0, "vertex": 0}, {"id": 1, "vertex": 0}], '
         b'"edges": [], "legs": {"1": 0, "01": 1}}'),
    ], ids=["not-utf8", "deep-nesting", "graph-genus-overflow", "axis-genus-overflow",
            "duplicate-vertex-id", "duplicate-leg-label"])
    def test_exit_one_with_one_error_line(self, capsys, tmp_path, argv, content):
        path = tmp_path / "in.json"
        path.write_bytes(content)
        code, report, err = run(capsys, *argv, str(path))
        assert code == 1 and report is None
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "Traceback" not in err


class TestReportDeterminism:
    def test_reports_identical_modulo_timing(self, capsys, sep4):
        _, r1, _ = run(capsys, "fiber-check", "--axis", sep4)
        _, r2, _ = run(capsys, "fiber-check", "--axis", sep4)
        r1.pop("timing_ms")
        r2.pop("timing_ms")
        assert r1 == r2

    def test_emitted_files_roundtrip(self, capsys, tmp_path):
        out = tmp_path / "cat.json"
        run(capsys, "enumerate", "--genus", "2", "--markings", "0",
            "--out", str(out))
        doc = json.loads(out.read_text())
        keys = set()
        for gdata in doc["graphs"]:
            keys.add(StableGraph.from_json_dict(gdata).canonical_key())
        assert len(keys) == doc["metadata"]["count"]


class TestEnvelopeContract:
    """Everything a command shows, pinned as one digest: exit code, the
    stdout envelope with its ``timing_ms`` value blanked (the ``config``
    echo included), stderr and the ``--out`` text, for every command with
    json and dot output and for the common error paths."""

    DIGEST = "5cae40abde2ee1cb6e4a2a195fb432e39a343043e6db8e360da614b7e5aea8ed"

    CASES = [
        ["enumerate", "--genus", "1", "--markings", "2", "--out", "{tmp}/cat.json"],
        ["enumerate", "--genus", "1", "--markings", "1", "--format", "dot",
         "--out", "{tmp}/cat.dot"],
        ["verify-assignment", "--genus", "1", "--markings", "1",
         "--degenerations", "all", "--out", "{tmp}/verify.json"],
        ["verify-assignment", "--genus", "1", "--markings", "1",
         "--assignment", "{tmp}/loop-table.json", "--out", "{tmp}/verify-table.json"],
        ["contract", "--graph", "{tmp}/graph.json", "--out", "{tmp}/axis.json"],
        ["fiber", "--axis", "{tmp}/prof4.json", "--out", "{tmp}/fiber.json"],
        ["fiber", "--axis", "{tmp}/sep4.json", "--format", "dot",
         "--out", "{tmp}/fiber.dot"],
        ["torelli-classes", "--genus", "1", "--markings", "2",
         "--out", "{tmp}/classes.json"],
        ["torelli-classes", "--genus", "2", "--markings", "0", "--format", "dot",
         "--out", "{tmp}/classes.dot"],
        # --jobs above the (patched) CPU count is clamped in the config echo
        ["torelli-classes", "--genus", "1", "--markings", "1", "--jobs", "2"],
        ["fiber-check", "--axis", "{tmp}/sep4.json", "--out", "{tmp}/check.json"],
        ["fiber-check", "--axis", "{tmp}/prof4.json", "--out", "{tmp}/check-var.json"],
        # errors
        ["enumerate", "--genus", "4", "--markings", "0", "--out", "{tmp}/none.json"],
        ["enumerate", "--genus", "-1", "--markings", "3"],
        ["verify-assignment", "--genus", "0", "--markings", "4",
         "--assignment", "{tmp}/bad-table.json", "--out", "{tmp}/none.json"],
        ["contract", "--graph", "{tmp}/graph.json",
         "--assignment", "{tmp}/loop-table.json", "--out", "{tmp}/none.json"],
        ["torelli-classes", "--genus", "0", "--markings", "5"],
        ["fiber-check", "--axis", "{tmp}/missing.json"],
    ]

    @staticmethod
    def inputs(tmp_path):
        graph = StableGraph.build({0: 0, 1: 1, 2: 1, 3: 1},
                                  edges=[(0, 1), (0, 2), (0, 3), (3, 3)])
        (tmp_path / "graph.json").write_text(json.dumps(graph.to_json_dict()))
        write_axis(tmp_path / "sep4.json", AxisGraph(
            [(i, 1, []) for i in range(4)],
            [SingularPoint(0, ((0, 0), (1, 0), (2, 0), (3, 0)))],
        ))
        write_axis(tmp_path / "prof4.json", AxisGraph(
            [(0, 1, [])], [SingularPoint(0, ((0, 0), (0, 1), (0, 2), (0, 3)))]
        ))
        keys = load_or_enumerate(1, 1).keys
        entries = {k.decode(): [] for k in keys}
        entries[next(k for k in keys if b"0-0" in k).decode()] = [0]
        (tmp_path / "loop-table.json").write_text(json.dumps(
            {"schema": "torelli-graphs/1", "name": "loops", "entries": entries}
        ))
        entries = {k.decode(): [] for k in load_or_enumerate(0, 4).keys}
        entries["TG1;k=1;g=x;l=;b=;e="] = []
        (tmp_path / "bad-table.json").write_text(json.dumps({"entries": entries}))

    def test_outputs_pinned(self, capsys, tmp_path, monkeypatch):
        import hashlib
        import re

        monkeypatch.setenv("TORELLI_GRAPHS_CACHE", str(tmp_path / "cache"))
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        self.inputs(tmp_path)
        tmp = str(tmp_path)
        records = []
        for argv in self.CASES:
            argv = [a.replace("{tmp}", tmp) for a in argv]
            code = main(argv)
            got = capsys.readouterr()
            stdout = re.sub(r'"timing_ms": [-+.eE0-9]+', '"timing_ms": 0', got.out)
            out_text = None
            if "--out" in argv:
                out = tmp_path / Path(argv[argv.index("--out") + 1]).name
                if out.exists():
                    out_text = out.read_text()
                    out.unlink()
            records.append(json.dumps(
                [argv, code, stdout, got.err, out_text]
            ).replace(tmp, "<tmp>"))
        digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
        assert digest == self.DIGEST
