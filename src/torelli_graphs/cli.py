"""Command-line front end.

Subcommands: enumerate, verify-assignment, contract, fiber, torelli-classes,
fiber-check.  Every command prints a JSON report envelope to stdout; file
outputs go through --out.  Exit codes: 0 success (for fiber-check: constant),
2 mathematical negative (violations found / class varies), 1 error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from multiprocessing import Pool
from pathlib import Path

from . import __version__
from .graph_core import DomainError, GraphError, StableGraph, StructuralError
from .enumeration import (
    DEFAULT_BOUND,
    GraphCatalog,
    check_type,
    enumerate_stable_graphs,
)
from .assignment import (
    SEPARATING_BRIDGES,
    ExtremalAssignment,
    load_assignment_table,
    verify_extremal,
)
from .contraction import AxisGraph, classify_axis_points, fiber_strata, z_contract
from .torelli import fiber_constant, pst, torelli_key

SCHEMA = "torelli-graphs/1"
CACHE_ENV = "TORELLI_GRAPHS_CACHE"


@dataclass
class RunConfig:
    command: str
    genus: int | None = None
    markings: int | None = None
    bound: int = DEFAULT_BOUND
    assignment: str = "F"
    graph_path: str | None = None
    axis_path: str | None = None
    out: str | None = None
    format: str = "json"
    jobs: int = 1
    degenerations: str = "single"

    def validate(self) -> None:
        if self.genus is not None:
            check_type(self.genus, self.markings or 0)
            if self.bound < 3 * self.genus - 3 + (self.markings or 0):
                raise DomainError(
                    f"--bound {self.bound} below required "
                    f"{3 * self.genus - 3 + (self.markings or 0)}"
                )
        if self.format not in ("json", "dot"):
            raise DomainError(f"unknown format {self.format!r}")
        if self.jobs < 1:
            raise DomainError("--jobs must be >= 1")
        self.jobs = min(self.jobs, os.cpu_count() or 1)

    def echo(self) -> dict:
        out = {"command": self.command}
        for field in (
            "genus", "markings", "bound", "assignment", "graph_path",
            "axis_path", "out", "format", "jobs", "degenerations",
        ):
            val = getattr(self, field)
            if val is not None:
                out[field] = val
        return out


@dataclass
class Report:
    command: str
    config: dict
    payload: dict
    timing_ms: float

    def to_json(self) -> str:
        doc = {
            "schema": SCHEMA,
            "command": self.command,
            "config": self.config,
            "tool_version": __version__,
            "timing_ms": round(self.timing_ms, 3),
            "payload": self.payload,
        }
        return json.dumps(doc, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Catalog cache.
# ---------------------------------------------------------------------------

def cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "torelli-graphs"


def load_or_enumerate(genus: int, markings: int, bound: int = DEFAULT_BOUND) -> GraphCatalog:
    """Enumerate with a disk cache keyed by (g, n, bound, version).

    A cache file is used only when its schema, version, type, bound and
    key count all match; otherwise the catalog is enumerated again and the
    file rewritten.  Writes go to a temporary file in the same directory,
    renamed over the cache file, so a reader never sees a partial file.
    """
    path = cache_dir() / f"catalog-g{genus}-n{markings}-b{bound}-v{__version__}.json"
    if path.is_file():
        try:
            data = json.loads(path.read_text())
            keys = data["keys"]
            if (
                data.get("schema") == SCHEMA
                and data.get("tool_version") == __version__
                and (data.get("g"), data.get("n"), data.get("bound")) == (genus, markings, bound)
                and data.get("count") == len(keys)
            ):
                return GraphCatalog.from_keys(
                    genus, markings, [k.encode("ascii") for k in keys]
                )
        except (ValueError, KeyError, TypeError, AttributeError, OSError, RecursionError):
            pass  # fall through and regenerate
    catalog = enumerate_stable_graphs(genus, markings, bound)
    text = json.dumps(
        {
            "schema": SCHEMA,
            "kind": "catalog-cache",
            "g": genus,
            "n": markings,
            "bound": bound,
            "tool_version": __version__,
            "count": len(catalog),
            "keys": [k.decode("ascii") for k in catalog.keys],
        }
    )
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError:
        # the cache is best effort, but leaves no partial file behind
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
    return catalog


# ---------------------------------------------------------------------------
# Helpers.
# ---------------------------------------------------------------------------

def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise StructuralError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except RecursionError as exc:
        raise StructuralError(f"{path}: JSON nested too deeply") from exc


def _resolve_assignment(name_or_path: str, catalog: GraphCatalog | None) -> ExtremalAssignment:
    if name_or_path in ("F", "separating-bridges"):
        return SEPARATING_BRIDGES
    data = _load_json(name_or_path)
    if catalog is None:
        raise DomainError("table assignments need a catalog context")
    return load_assignment_table(data, catalog)


def _write_text(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _catalog_json(catalog: GraphCatalog, bound: int) -> str:
    return json.dumps(
        {
            "schema": SCHEMA,
            "kind": "catalog",
            "metadata": {
                "g": catalog.genus,
                "n": catalog.markings,
                "bound": bound,
                "count": len(catalog),
                "tool_version": __version__,
            },
            "graphs": [g.to_json_dict() for g in catalog.graphs()],
        },
        indent=2,
        sort_keys=True,
    )


def _catalog_dot(catalog: GraphCatalog) -> str:
    parts = [catalog.graph(i).to_dot(name=f"g{i}") for i in range(len(catalog))]
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------

def cmd_enumerate(cfg: RunConfig) -> tuple:
    catalog = load_or_enumerate(cfg.genus, cfg.markings, cfg.bound)
    if cfg.out:
        if cfg.format == "json":
            _write_text(cfg.out, _catalog_json(catalog, cfg.bound))
        else:
            _write_text(cfg.out, _catalog_dot(catalog))
    payload = {
        "genus": cfg.genus,
        "markings": cfg.markings,
        "bound": cfg.bound,
        "count": len(catalog),
        "out": cfg.out,
    }
    return payload, 0


def cmd_verify_assignment(cfg: RunConfig) -> tuple:
    catalog = load_or_enumerate(cfg.genus, cfg.markings, cfg.bound)
    assignment = _resolve_assignment(cfg.assignment, catalog)
    report = verify_extremal(assignment, catalog, mode=cfg.degenerations)
    payload = report.to_json_dict()
    if cfg.out:
        doc = {"schema": SCHEMA, "kind": "verification", **payload}
        _write_text(cfg.out, json.dumps(doc, indent=2, sort_keys=True))
    return payload, 0 if report.ok else 2


def cmd_contract(cfg: RunConfig) -> tuple:
    graph = StableGraph.from_json_dict(_load_json(cfg.graph_path))
    if cfg.assignment not in ("F", "separating-bridges"):
        raise DomainError("contract supports the built-in assignment only; "
                          "table assignments are catalog-relative")
    chosen = SEPARATING_BRIDGES.value(graph)
    axis = z_contract(graph, chosen)
    doc = {"schema": SCHEMA, "kind": "axis_graph", **axis.to_json_dict()}
    text = json.dumps(doc, indent=2, sort_keys=True)
    if cfg.out:
        _write_text(cfg.out, text)
    cls = classify_axis_points(axis)
    payload = {
        "contracted_vertices": sorted(chosen),
        "genus": axis.genus(),
        "components": len(axis.components()),
        "singular_points": [
            {"multiplicity": r.multiplicity, "category": r.category}
            for r in cls.points
        ],
        "is_axis_like": cls.is_axis_like,
        "is_separating_axis_like": cls.is_separating_axis_like,
        "is_quasi_separating_axis_like": cls.is_quasi_separating_axis_like,
        "out": cfg.out,
    }
    return payload, 0


def cmd_fiber(cfg: RunConfig) -> tuple:
    axis = AxisGraph.from_json_dict(_load_json(cfg.axis_path))
    strata = fiber_strata(axis)
    payload = {
        "points": [
            {"point": i, "multiplicity": m, "count": c}
            for i, m, c in strata.point_counts
        ],
        "total": strata.total,
        "moduli_dimension": strata.moduli_dimension,
        "graphs": sorted(g.canonical_key().decode() for g in strata.graphs),
    }
    if cfg.out:
        if cfg.format == "json":
            doc = {
                "schema": SCHEMA,
                "kind": "fiber",
                "total": strata.total,
                "graphs": [g.to_json_dict() for g in strata.graphs],
            }
            _write_text(cfg.out, json.dumps(doc, indent=2, sort_keys=True))
        else:
            _write_text(
                cfg.out,
                "\n".join(
                    g.to_dot(name=f"fiber{i}") for i, g in enumerate(strata.graphs)
                ),
            )
    return payload, 0


def _class_of_key(key_str: str) -> tuple:
    graph = StableGraph.from_canonical_key(key_str.encode("ascii"))
    return key_str, torelli_key(graph).decode("ascii")


def cmd_torelli_classes(cfg: RunConfig) -> tuple:
    if cfg.genus < 1:
        raise DomainError("class tables need genus >= 1")
    catalog = load_or_enumerate(cfg.genus, cfg.markings, cfg.bound)
    key_strs = [k.decode("ascii") for k in catalog.keys]
    if cfg.jobs > 1:
        with Pool(cfg.jobs) as pool:
            pairs = pool.map(_class_of_key, key_strs, chunksize=64)
    else:
        pairs = [_class_of_key(k) for k in key_strs]
    classes: dict = {}
    for member, cls in pairs:
        classes.setdefault(cls, []).append(member)
    table = [
        {"key": cls, "members": sorted(members)}
        for cls, members in sorted(classes.items())
    ]
    payload = {
        "genus": cfg.genus,
        "markings": cfg.markings,
        "catalog_size": len(catalog),
        "class_count": len(table),
        "classes": table,
    }
    if cfg.out:
        if cfg.format == "dot":
            # one reduced representative per class
            parts = []
            for i, entry in enumerate(table):
                member = StableGraph.from_canonical_key(
                    entry["members"][0].encode("ascii")
                )
                for j, piece in enumerate(pst(member).sorted_components()):
                    parts.append(piece.to_dot(name=f"class{i}_piece{j}"))
            _write_text(cfg.out, "\n".join(parts) + "\n")
        else:
            doc = {"schema": SCHEMA, "kind": "class-table", **payload}
            _write_text(cfg.out, json.dumps(doc, indent=2, sort_keys=True))
    return payload, 0


def cmd_fiber_check(cfg: RunConfig) -> tuple:
    axis = AxisGraph.from_json_dict(_load_json(cfg.axis_path))
    verdict = fiber_constant(axis)
    payload = verdict.to_json_dict()
    if cfg.out:
        doc = {"schema": SCHEMA, "kind": "fiber-verdict", **payload}
        _write_text(cfg.out, json.dumps(doc, indent=2, sort_keys=True))
    return payload, 0 if verdict.constant else 2


COMMANDS = {
    "enumerate": cmd_enumerate,
    "verify-assignment": cmd_verify_assignment,
    "contract": cmd_contract,
    "fiber": cmd_fiber,
    "torelli-classes": cmd_torelli_classes,
    "fiber-check": cmd_fiber_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torelli-graphs",
        description="Stable dual-graph catalogs, extremal assignments, axis "
        "contractions, and compactified-Jacobian class keys.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_type_flags(p):
        p.add_argument("--genus", type=int, required=True)
        p.add_argument("--markings", type=int, default=0)
        p.add_argument("--bound", type=int, default=DEFAULT_BOUND)

    p = sub.add_parser("enumerate", help="build a catalog of stable graphs")
    add_type_flags(p)
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "dot"), default="json")

    p = sub.add_parser("verify-assignment", help="check the extremality axioms")
    add_type_flags(p)
    p.add_argument("--assignment", default="F",
                   help="'F' for separating bridges, or a JSON table path")
    p.add_argument("--degenerations", choices=("single", "all"), default="single")
    p.add_argument("--out")

    p = sub.add_parser("contract", help="contract the assigned subgraph")
    p.add_argument("--graph", dest="graph_path", required=True)
    p.add_argument("--assignment", default="F")
    p.add_argument("--out")

    p = sub.add_parser("fiber", help="enumerate stable models over an axis graph")
    p.add_argument("--axis", dest="axis_path", required=True)
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "dot"), default="json")

    p = sub.add_parser("torelli-classes", help="class table of a catalog")
    add_type_flags(p)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "dot"), default="json",
                   help="dot writes reduced representatives per class")

    p = sub.add_parser("fiber-check", help="decide fiber constancy")
    p.add_argument("--axis", dest="axis_path", required=True)
    p.add_argument("--out")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = RunConfig(
        command=args.command,
        genus=getattr(args, "genus", None),
        markings=getattr(args, "markings", None),
        bound=getattr(args, "bound", DEFAULT_BOUND),
        assignment=getattr(args, "assignment", "F"),
        graph_path=getattr(args, "graph_path", None),
        axis_path=getattr(args, "axis_path", None),
        out=getattr(args, "out", None),
        format=getattr(args, "format", "json"),
        jobs=getattr(args, "jobs", 1),
        degenerations=getattr(args, "degenerations", "single"),
    )
    t0 = time.perf_counter()
    try:
        cfg.validate()
        payload, code = COMMANDS[args.command](cfg)
    except (GraphError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = Report(
        command=args.command,
        config=cfg.echo(),
        payload=payload,
        timing_ms=(time.perf_counter() - t0) * 1000.0,
    )
    print(report.to_json())
    return code


if __name__ == "__main__":
    sys.exit(main())
