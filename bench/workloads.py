"""The benchmark's four workloads: inputs, work items and output checks.

Each workload is a closed loop with one client: the worker calls the items
of one pass in order, each after the previous one returned.  Items look the
library's functions up when called (``tg.fiber_constant``, not a name bound
at set-up), so a traced pass reaches them through the tracer's wrappers.
``setup`` builds every input before the timed section (catalogs come from
the warm cache, vertex relabellings and slot orders from the seed);
``summarize`` reduces the outputs of a pass to the values pinned in
``pins.json``; and ``check`` compares them, one counted check per pinned
value.

The seed only shapes the generated inputs: vertex relabelling in
class-table and slot order in fiber-check.  ``seed=None`` gives the
canonical inputs, which is how the pins were made.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
from pathlib import Path


# Inputs per size.  "toy" is the self-test's size; "full" is the benchmark.
SIZES = {
    "full": {
        "cold_types": [(0, 7, "all"), (1, 5, "all"), (2, 4, "single")],
        "class_catalog": (5, 0, 12),
        "banana_edges": (5, 6, 7),
        "centre_arms": (5, 6, 7),
        "sweep_catalog": (2, 4, 8),
        "fiber_profiles": {"separating": (1,) * 7, "general": (2, 2, 1, 1, 1)},
        "cli_axis_profile": (3, 1, 1, 1),
        "cli_commands": [
            ("enumerate", ["enumerate", "--genus", "1", "--markings", "6"]),
            ("verify-assignment", ["verify-assignment", "--genus", "3", "--markings", "1",
                                   "--degenerations", "all"]),
            ("torelli-classes", ["torelli-classes", "--genus", "3", "--markings", "2",
                                 "--jobs", "2"]),
            ("contract", ["contract", "--graph", "{graph}"]),
            ("fiber", ["fiber", "--axis", "{axis}"]),
            ("fiber-check", ["fiber-check", "--axis", "{axis}"]),
        ],
        "warm": [(5, 0, 12), (2, 4, 8), (1, 6, 8), (3, 1, 8), (3, 2, 8)],
    },
    "toy": {
        "cold_types": [(0, 5, "all"), (2, 1, "single")],
        "class_catalog": (2, 1, 8),
        "banana_edges": (3, 4),
        "centre_arms": (2, 3),
        "sweep_catalog": (3, 0, 8),
        "fiber_profiles": {"separating": (1,) * 5, "general": (2, 2, 1)},
        "cli_axis_profile": (2, 1, 1),
        "cli_commands": [
            ("enumerate", ["enumerate", "--genus", "0", "--markings", "5"]),
        ],
        "warm": [(2, 1, 8), (0, 5, 8), (3, 0, 8)],
    },
}


def sha256_lines(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()


def sha16(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


class Checker:
    """Counts checks; a mismatch or an exception is one failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list = []

    def expect(self, what: str, got, want) -> None:
        self.attempted += 1
        if got != want:
            self.fail(f"{what}: got {got!r}, pinned {want!r}")

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message[:300])


class Workload:
    name = ""
    unit = ""  # what one unit of throughput counts
    needs_warm_cache = True

    def __init__(self, size: str, seed, work_dir: Path):
        self.spec = SIZES[size]
        self.seed = seed
        self.rng = random.Random(seed)
        self.work_dir = work_dir

    def setup(self) -> list:
        """Return the pass's items as (label, callable) pairs."""
        raise NotImplementedError

    def units(self, pins: dict) -> int:
        """Throughput units covered by one pass."""
        raise NotImplementedError

    def summarize(self, outputs: list) -> dict:
        raise NotImplementedError

    def check(self, outputs: list, pins: dict, checker: Checker) -> None:
        """Default: compare every summarized field with its pin."""
        got = self.summarize(outputs)
        for field in sorted(set(pins) | set(got)):
            checker.expect(f"{self.name}.{field}", got.get(field), pins.get(field))


def catalog_summary(catalog) -> dict:
    return {
        "size": len(catalog),
        "sha256": sha256_lines(sorted(k.decode("ascii") for k in catalog.keys)),
    }


def by_key(catalog) -> list:
    """(key, graph) pairs in sorted key order, which is the order the pins
    use whatever order the catalog keeps."""
    order = sorted(range(len(catalog)), key=catalog.keys.__getitem__)
    return [(catalog.keys[i].decode("ascii"), catalog.graph(i)) for i in order]


class CatalogCold(Workload):
    name = "catalog-cold"
    unit = "catalog graphs"
    needs_warm_cache = False

    def setup(self) -> list:
        import torelli_graphs as tg
        from torelli_graphs import cli

        def item(genus, markings, mode):
            catalog = cli.load_or_enumerate(genus, markings)
            report = tg.verify_extremal(tg.SEPARATING_BRIDGES, catalog, mode=mode)
            return catalog, report

        return [
            (f"{g},{n},{mode}", lambda g=g, n=n, mode=mode: item(g, n, mode))
            for g, n, mode in self.spec["cold_types"]
        ]

    def units(self, pins: dict) -> int:
        return sum(pins[f"{g},{n},{mode}.size"] for g, n, mode in self.spec["cold_types"])

    def summarize(self, outputs: list) -> dict:
        out = {}
        for (g, n, mode), (catalog, report) in zip(self.spec["cold_types"], outputs):
            label = f"{g},{n},{mode}"
            for k, v in catalog_summary(catalog).items():
                out[f"{label}.{k}"] = v
            out[f"{label}.degenerations_checked"] = report.degenerations_checked
            out[f"{label}.verified"] = report.ok
        return out


def permuted(graph, rng):
    """The same graph with vertex and halfedge ids replaced by random ones,
    so every input reaches the library in a seed-chosen labelling."""
    from torelli_graphs import StableGraph

    vids = graph.vertices()
    hids = graph.halfedges()
    new_v = dict(zip(vids, rng.sample(range(4 * len(vids) + 4), len(vids))))
    new_h = dict(zip(hids, rng.sample(range(4 * len(hids) + 4), len(hids))))
    return StableGraph(
        {new_v[v]: graph.vertex_genus(v) for v in vids},
        [(new_h[h], new_v[graph.vertex_of(h)]) for h in hids],
        [(new_h[a], new_h[b]) for a, b in graph.edges()],
        {lab: new_h[h] for lab, h in graph.legs.items()},
    )


def symmetric_families(spec) -> list:
    """ROADMAP's symmetric families: banana graphs (two genus-0 vertices on
    m parallel edges) and a genus-0 centre with c genus-1 arms on double
    edges."""
    from torelli_graphs import StableGraph

    out = []
    for m in spec["banana_edges"]:
        out.append((f"banana-{m}", StableGraph.build({0: 0, 1: 0}, [(0, 1)] * m)))
    for c in spec["centre_arms"]:
        arms = {i: 1 for i in range(1, c + 1)}
        edges = [(0, i) for i in range(1, c + 1) for _ in range(2)]
        out.append((f"centre-{c}", StableGraph.build({0: 0, **arms}, edges)))
    return out


class ClassTable(Workload):
    name = "class-table"
    unit = "class keys"

    def setup(self) -> list:
        import torelli_graphs as tg
        from torelli_graphs.cli import load_or_enumerate

        g, n, bound = self.spec["class_catalog"]
        self.catalog = load_or_enumerate(g, n, bound)
        graphs = by_key(self.catalog) + symmetric_families(self.spec)
        if self.seed is not None:
            graphs = [(label, permuted(gr, self.rng)) for label, gr in graphs]
        self.labels = [label for label, _ in graphs]
        return [(label, lambda gr=gr: tg.torelli_key(gr)) for label, gr in graphs]

    def units(self, pins: dict) -> int:
        return len(self.labels)

    def summarize(self, outputs: list) -> dict:
        n = len(self.catalog)
        keys = [k.decode("ascii") for k in outputs]
        classes = sorted(set(keys[:n]))
        index = {c: i for i, c in enumerate(classes)}
        out = catalog_summary(self.catalog)
        out.update({
            "class_count": len(classes),
            "table_sha256": sha256_lines(
                f"{g}\t{c}" for g, c in zip(self.labels[:n], keys[:n])
            ),
            "class_keys16": [sha16(c) for c in classes],
            "class_of": [index[c] for c in keys[:n]],
        })
        for label, key in zip(self.labels[n:], keys[n:]):
            out[f"family.{label}"] = key
        return out

    def check(self, outputs: list, pins: dict, checker: Checker) -> None:
        """Every relabelled graph must get the class key of its canonical
        representative: one check per graph, plus the table digests."""
        n = len(self.catalog)
        got = self.summarize(outputs)
        for field in ("size", "sha256", "class_count", "table_sha256"):
            checker.expect(f"class-table.{field}", got[field], pins[field])
        want16 = pins["class_keys16"]
        for i, key in enumerate(outputs[:n]):
            want = want16[pins["class_of"][i]] if i < len(pins["class_of"]) else None
            checker.expect(f"class-table.key[{self.labels[i]}]",
                           sha16(key.decode("ascii")), want)
        for field in sorted(k for k in pins if k.startswith("family.")):
            checker.expect(f"class-table.{field}", got.get(field), pins[field])


def axis_from_profile(profile, rng):
    """One singular point of type (0, sum(profile)) over genus-1 components,
    component c carrying profile[c] slots.  A random relabelling of the
    component and slot ids fixes the slot order the fiber's trees see."""
    from torelli_graphs import AxisGraph, SingularPoint

    cids = list(range(len(profile)))
    if rng is not None:
        cids = rng.sample(range(4 * len(profile)), len(profile))
    slots = []
    for cid, count in zip(cids, profile):
        sids = range(count) if rng is None else rng.sample(range(4 * count), count)
        slots += [(cid, sid) for sid in sids]
    return AxisGraph([(cid, 1, []) for cid in cids], [SingularPoint(0, tuple(slots))])


class FiberCheck(Workload):
    name = "fiber-check"
    unit = "fiber strata"

    def setup(self) -> list:
        import torelli_graphs as tg
        from torelli_graphs.cli import load_or_enumerate

        g, n, bound = self.spec["sweep_catalog"]
        catalog = load_or_enumerate(g, n, bound)
        self.sweep_keys = []
        items = []
        for key, graph in by_key(catalog):
            chosen = tg.SEPARATING_BRIDGES.value(graph)
            if not chosen:
                continue
            self.sweep_keys.append(key)

            def sweep(graph=graph, chosen=chosen):
                axis = tg.z_contract(graph, chosen)
                return axis, tg.fiber_constant(axis)

            items.append((self.sweep_keys[-1], sweep))
        rng = self.rng if self.seed is not None else None
        self.axes = {
            name: axis_from_profile(profile, rng)
            for name, profile in self.spec["fiber_profiles"].items()
        }
        for name, axis in self.axes.items():
            items.append((name, lambda axis=axis: (axis, tg.fiber_constant(axis))))
        return items

    def units(self, pins: dict) -> int:
        # the whole fiber of every input, whether or not each stratum is keyed
        return pins["sweep.strata"] + sum(
            pins[f"{name}.strata"] for name in self.spec["fiber_profiles"]
        )

    def summarize(self, outputs: list) -> dict:
        from torelli_graphs import leaf_labeled_trees

        def strata(axis):
            # the library's tree counts, multiplied as fiber_strata does
            total = 1
            for p in axis.singular_points():
                if len(p.slots) >= 3:
                    total *= len(leaf_labeled_trees(len(p.slots)))
            return total

        n = len(self.sweep_keys)
        sweep = outputs[:n]
        out = {
            "sweep.count": n,
            "sweep.strata": sum(strata(axis) for axis, _ in sweep),
            "sweep.verdicts": "".join(v.verdict[0] for _, v in sweep),
            "sweep.sha256": sha256_lines(
                f"{k}\t{v.verdict}\t{(v.key or b'').decode('ascii')}"
                for k, (_, v) in zip(self.sweep_keys, sweep)
            ),
        }
        for name, (axis, verdict) in zip(self.axes, outputs[n:]):
            out[f"{name}.verdict"] = verdict.verdict
            out[f"{name}.strata"] = strata(axis)
            out[f"{name}.key"] = (verdict.key or b"").decode("ascii")
        return out

    def check(self, outputs: list, pins: dict, checker: Checker) -> None:
        """One check per sweep verdict, plus counts, digests and the verdicts
        and strata totals of the large fibers."""
        got = self.summarize(outputs)
        for i, (label, want) in enumerate(zip(self.sweep_keys, pins["sweep.verdicts"])):
            have = got["sweep.verdicts"][i:i + 1]
            checker.expect(f"fiber-check.verdict[{label}]", have, want)
        for field in sorted(pins):
            if field != "sweep.verdicts":
                checker.expect(f"fiber-check.{field}", got.get(field), pins[field])


class CliWarm(Workload):
    name = "cli-warm"
    unit = "commands"

    def launcher(self) -> list:
        """argv prefix that runs the CLI the way its console script does;
        the worker replaces it with bench/sampler.py, or with
        bench/launch.py in a traced pass."""
        return [sys.executable, "-c",
                "import sys; from torelli_graphs.cli import main; sys.exit(main())"]

    def setup(self) -> list:
        from torelli_graphs import StableGraph

        # a genus-0 centre on single edges to three genus-1 vertices, one
        # of which carries a loop: rule F contracts the centre into a
        # separating triple point
        graph = StableGraph.build({0: 0, 1: 1, 2: 1, 3: 1}, [(0, 1), (0, 2), (0, 3), (3, 3)])
        axis = axis_from_profile(self.spec["cli_axis_profile"], None)
        paths = {"graph": self.work_dir / "graph.json", "axis": self.work_dir / "axis.json"}
        paths["graph"].write_text(json.dumps(graph.to_json_dict()))
        paths["axis"].write_text(json.dumps(axis.to_json_dict()))
        items = []
        for label, argv in self.spec["cli_commands"]:
            argv = [a.format(**{k: str(p) for k, p in paths.items()}) for a in argv]
            items.append((label, lambda argv=argv: self.run(argv)))
        return items

    def run(self, argv: list):
        proc = subprocess.run(
            self.launcher() + argv, capture_output=True, text=True, timeout=120
        )
        return proc.returncode, proc.stdout

    def units(self, pins: dict) -> int:
        return len(self.spec["cli_commands"])

    def summarize(self, outputs: list) -> dict:
        out = {}
        for (label, _), (code, stdout) in zip(self.spec["cli_commands"], outputs):
            out[f"{label}.exit"] = code
            payload = json.loads(stdout)["payload"] if stdout.strip() else {}
            for field, value in cli_fields(label, payload).items():
                out[f"{label}.{field}"] = value
        return out


def cli_fields(label: str, payload: dict) -> dict:
    """The payload values pinned for one command."""
    if label == "enumerate":
        return {"count": payload.get("count")}
    if label == "verify-assignment":
        return {k: payload.get(k) for k in ("verified", "graphs_checked", "degenerations_checked")}
    if label == "torelli-classes":
        return {
            "catalog_size": payload.get("catalog_size"),
            "class_count": payload.get("class_count"),
            "sha256": sha256_lines(json.dumps(c, sort_keys=True) for c in payload.get("classes", [])),
        }
    if label == "contract":
        return {"sha256": sha256_lines([json.dumps(payload, sort_keys=True)])}
    if label == "fiber":
        graphs = payload.get("graphs", [])
        return {"total": payload.get("total"), "graphs": len(graphs), "sha256": sha256_lines(graphs)}
    if label == "fiber-check":
        return {"verdict": payload.get("verdict"), "key": payload.get("key")}
    raise ValueError(f"no pinned fields for {label}")


WORKLOADS = {w.name: w for w in (CatalogCold, ClassTable, FiberCheck, CliWarm)}

