"""Command-line front end.

Subcommands: enumerate, verify-assignment, contract, fiber, torelli-classes,
fiber-check.  Every command prints a JSON report envelope to stdout; file
outputs go through --out.  Exit codes: 0 success (for fiber-check: constant),
2 mathematical negative (violations found / class varies), 1 error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import zlib
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
    SCHEMA,
    SEPARATING_BRIDGES,
    load_assignment_table,
    verify_extremal,
)
from .contraction import AxisGraph, classify_axis_points, fiber_strata, z_contract
from .torelli import fiber_constant, pst, torelli_key

CACHE_ENV = "TORELLI_GRAPHS_CACHE"


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

    A cache file is used only when its schema, version, type, bound, key
    count and the CRC-32 of its newline-joined keys all match; otherwise the
    catalog is enumerated again and the file rewritten.  Writes go to a
    temporary file in the same directory, renamed over the cache file, so a
    reader never sees a partial file.
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
                and data.get("crc32") == _keys_crc(keys)
            ):
                return GraphCatalog.from_keys(
                    genus, markings, [k.encode("ascii") for k in keys]
                )
        except (ValueError, KeyError, TypeError, AttributeError, OSError, RecursionError):
            pass  # fall through and regenerate
    catalog = enumerate_stable_graphs(genus, markings, bound)
    keys = [k.decode("ascii") for k in catalog.keys]
    text = json.dumps(
        {
            "schema": SCHEMA,
            "kind": "catalog-cache",
            "g": genus,
            "n": markings,
            "bound": bound,
            "tool_version": __version__,
            "count": len(keys),
            "crc32": _keys_crc(keys),
            "keys": keys,
        }
    )
    import contextlib  # only a cache write needs these; a read skips their import
    import tempfile

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


def _keys_crc(keys: list) -> int:
    """CRC-32 of the newline-joined key strings: it catches a damaged key,
    which the stored count cannot, for far less than parsing every key.
    Not sha256: importing hashlib maps OpenSSL, about 3.5 MB of RSS in
    every process that reads a cache."""
    return zlib.crc32("\n".join(keys).encode("ascii"))


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


def _document(kind: str, body: dict) -> str:
    """Text of a JSON ``--out`` document."""
    return json.dumps({"schema": SCHEMA, "kind": kind, **body}, indent=2, sort_keys=True)


def _dot(graphs, name: str) -> str:
    return "\n".join(g.to_dot(name=f"{name}{i}") for i, g in enumerate(graphs))


# ---------------------------------------------------------------------------
# Commands.  Each takes the parsed arguments and returns (payload, exit
# code, --out document text or None); main writes the file and the report.
# ---------------------------------------------------------------------------

def cmd_enumerate(args) -> tuple:
    catalog = load_or_enumerate(args.genus, args.markings, args.bound)
    text = None
    if args.out and args.format == "json":
        text = _document("catalog", {
            "metadata": {
                "g": catalog.genus,
                "n": catalog.markings,
                "bound": args.bound,
                "count": len(catalog),
                "tool_version": __version__,
            },
            "graphs": [g.to_json_dict() for g in catalog.graphs()],
        })
    elif args.out:
        text = _dot(catalog.graphs(), "g") + "\n"
    payload = {
        "genus": args.genus,
        "markings": args.markings,
        "bound": args.bound,
        "count": len(catalog),
        "out": args.out,
    }
    return payload, 0, text


def cmd_verify_assignment(args) -> tuple:
    catalog = load_or_enumerate(args.genus, args.markings, args.bound)
    if args.assignment in ("F", "separating-bridges"):
        assignment = SEPARATING_BRIDGES
    else:
        assignment = load_assignment_table(_load_json(args.assignment), catalog)
    report = verify_extremal(assignment, catalog, mode=args.degenerations)
    payload = report.to_json_dict()
    text = _document("verification", payload) if args.out else None
    return payload, 0 if report.ok else 2, text


def cmd_contract(args) -> tuple:
    graph = StableGraph.from_json_dict(_load_json(args.graph_path))
    if args.assignment not in ("F", "separating-bridges"):
        raise DomainError("contract supports the built-in assignment only; "
                          "table assignments are catalog-relative")
    chosen = SEPARATING_BRIDGES.value(graph)
    axis = z_contract(graph, chosen)
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
        "out": args.out,
    }
    text = _document("axis_graph", axis.to_json_dict()) if args.out else None
    return payload, 0, text


def cmd_fiber(args) -> tuple:
    axis = AxisGraph.from_json_dict(_load_json(args.axis_path))
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
    text = None
    if args.out and args.format == "json":
        text = _document("fiber", {
            "total": strata.total,
            "graphs": [g.to_json_dict() for g in strata.graphs],
        })
    elif args.out:
        text = _dot(strata.graphs, "fiber")
    return payload, 0, text


def _class_of_key(key_str: str) -> tuple:
    graph = StableGraph.from_canonical_key(key_str.encode("ascii"))
    return key_str, torelli_key(graph).decode("ascii")


def cmd_torelli_classes(args) -> tuple:
    if args.genus < 1:
        raise DomainError("class tables need genus >= 1")
    catalog = load_or_enumerate(args.genus, args.markings, args.bound)
    key_strs = [k.decode("ascii") for k in catalog.keys]
    if args.jobs > 1:
        from multiprocessing import Pool  # its import costs every other command

        with Pool(args.jobs) as pool:
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
        "genus": args.genus,
        "markings": args.markings,
        "catalog_size": len(catalog),
        "class_count": len(table),
        "classes": table,
    }
    text = None
    if args.out and args.format == "dot":
        # one reduced representative per class
        parts = []
        for i, entry in enumerate(table):
            member = StableGraph.from_canonical_key(entry["members"][0].encode("ascii"))
            for j, piece in enumerate(pst(member).sorted_components()):
                parts.append(piece.to_dot(name=f"class{i}_piece{j}"))
        text = "\n".join(parts) + "\n"
    elif args.out:
        text = _document("class-table", payload)
    return payload, 0, text


def cmd_fiber_check(args) -> tuple:
    axis = AxisGraph.from_json_dict(_load_json(args.axis_path))
    verdict = fiber_constant(axis)
    payload = verdict.to_json_dict()
    text = _document("fiber-verdict", payload) if args.out else None
    return payload, 0 if verdict.constant else 2, text


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
    # every run setting, so the report's config echo names them all; a
    # subcommand's own flags override these
    parser.set_defaults(
        genus=None, markings=None, bound=DEFAULT_BOUND, assignment="F",
        graph_path=None, axis_path=None, out=None, format="json", jobs=1,
        degenerations="single",
    )
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


def _check(args) -> None:
    """Refuse bad run settings before any work starts, and lower --jobs to
    the CPU count."""
    if args.genus is not None:
        markings = args.markings or 0
        check_type(args.genus, markings)
        if args.bound < 3 * args.genus - 3 + markings:
            raise DomainError(
                f"--bound {args.bound} below required {3 * args.genus - 3 + markings}"
            )
    if args.jobs < 1:
        raise DomainError("--jobs must be >= 1")
    args.jobs = min(args.jobs, os.cpu_count() or 1)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        _check(args)
        payload, code, text = COMMANDS[args.command](args)
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
    except (GraphError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = {
        "schema": SCHEMA,
        "command": args.command,
        "config": {k: v for k, v in vars(args).items() if v is not None},
        "tool_version": __version__,
        "timing_ms": round((time.perf_counter() - t0) * 1000.0, 3),
        "payload": payload,
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
