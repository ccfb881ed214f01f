"""Span recording at the layer boundaries of ``torelli_graphs``.

The tracer wraps layer functions from outside the library: every module
attribute (and class attribute) through which callers reach a function is
replaced by a wrapper that records a span, and ``uninstall`` puts the
original objects back.  A span is (parent, name, start, end, item); spans of
one work item share the item id.  Spans live in flat arrays while a pass
runs; the worker writes them out once, when the pass ends.

Self time of a span is its duration minus the durations of its direct
children.  Calls run on one thread, so children never overlap and that
difference is exactly the time the children do not cover.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

PACKAGE = "torelli_graphs"

# (module, attribute) of each layer function; a span is named after both
TARGETS = (
    ("graph_core", "canonicalize_raw"),
    ("graph_core", "raw_canonical_key"),
    ("graph_core", "StableGraph.__init__"),
    ("enumeration", "enumerate_stable_graphs"),
    ("enumeration", "iter_degenerations"),
    ("assignment", "verify_extremal"),
    ("assignment", "ExtremalAssignment.value_mask"),
    ("contraction", "z_contract"),
    ("contraction", "fiber_strata"),
    ("contraction", "leaf_labeled_trees"),
    ("torelli", "torelli_key"),
    ("torelli", "pst"),
    ("torelli", "c1_sets"),
    ("torelli", "component_class_key"),
    ("torelli", "fiber_constant"),
    ("cli", "load_or_enumerate"),
)
NAMES = [f"{module}.{attr}" for module, attr in TARGETS]

# per_layer metric name -> unit; the order is the order of BENCHMARK.json
LAYER_METRICS = {
    "graph_core.canon.calls": "count",
    "graph_core.canon.self_s": "s",
    "graph_core.canon.sym_ratio": "ratio",
    "graph_core.canon.max_ms": "ms",
    "graph_core.stable_graph.inits": "count",
    "graph_core.stable_graph.self_s": "s",
    "enumeration.enumerate.s": "s",
    "enumeration.enumerate.graphs": "count",
    "enumeration.enumerate.kept_ratio": "ratio",
    "enumeration.degenerations.count": "count",
    "enumeration.degenerations.s": "s",
    "assignment.verify.s": "s",
    "assignment.verify.self_s": "s",
    "assignment.value_mask.calls": "count",
    "assignment.value_mask.hit_ratio": "ratio",
    "contraction.z_contract.calls": "count",
    "contraction.z_contract.s": "s",
    "contraction.fiber_strata.strata": "count",
    "contraction.fiber_strata.s": "s",
    "contraction.leaf_trees.s": "s",
    "torelli.pst.calls": "count",
    "torelli.pst.s": "s",
    "torelli.c1_sets.calls": "count",
    "torelli.c1_sets.s": "s",
    "torelli.class_key.calls": "count",
    "torelli.class_key.s": "s",
    "torelli.fiber_constant.s": "s",
    "torelli.fiber_constant.keyed_ratio": "ratio",
    "cli.cache.hits": "count",
    "cli.cache.misses": "count",
    "cli.cache.read_s": "s",
    "cli.cache.write_s": "s",
    "cli.cache.bytes": "bytes",
    "cli.import_ms": "ms",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}


def schroeder(m: int) -> int:
    """Number of stable genus-zero trees with m labelled leaves (OEIS
    A000311), independent of the library's enumeration: rooting the tree at
    leaf m leaves a rooted tree on m - 1 leaves whose internal nodes have at
    least two children."""
    from math import comb

    if m < 3:
        raise ValueError("stable trees need at least 3 leaves")
    t = [0, 1]  # t[n]: rooted trees on n labelled leaves
    for n in range(2, m):
        # g[k]: set partitions of k leaves into blocks smaller than n, each
        # block weighted by its subtree count; at k = n that is t[n]
        g = [1]
        for k in range(1, n + 1):
            g.append(sum(
                comb(k - 1, s - 1) * t[s] * g[k - s] for s in range(1, min(k, n - 1) + 1)
            ))
        t.append(g[n])
    return t[m - 1]


def fiber_size(axis) -> int:
    """Fiber size of an axis graph: one tree choice per point of
    multiplicity >= 3."""
    total = 1
    for p in axis.singular_points():
        if len(p.slots) >= 3:
            total *= schroeder(len(p.slots))
    return total


class Tracer:
    """Records spans around the layer functions while installed."""

    def __init__(self):
        self.parent = array("q")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.item = array("q")
        self.stack: list = []
        self.current_item = 0
        self.notes: Counter = Counter()  # "span name|what" -> count
        self._installed: list = []  # (owner, attribute, original)

    # -- wrappers ---------------------------------------------------------

    def _open(self, name_idx: int) -> int:
        sid = len(self.start)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.name.append(name_idx)
        self.item.append(self.current_item)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    def _call_wrapper(self, name_idx: int, fn, before, after):
        tracer = self

        def wrapper(*args, **kwargs):
            seen = before(tracer, args, kwargs) if before else None
            sid = tracer._open(name_idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if after:
                after(tracer, args, kwargs, result, seen)
            return result

        return wrapper

    def _generator_wrapper(self, name_idx: int, fn):
        """One span per resumption, so time the consumer spends between
        items is not charged to the generator."""
        tracer = self

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                while True:
                    sid = tracer._open(name_idx)
                    try:
                        value = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(sid)
                    tracer.notes[NAMES[name_idx] + "|yields"] += 1
                    yield value
            finally:
                gen.close()

        return wrapper

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        """Wrap every target at every attribute of the package's modules
        that holds it."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        importlib.import_module(PACKAGE + ".cli")  # loads every layer module
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for idx, (mod_name, attr) in enumerate(TARGETS):
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            before, after = HOOKS.get(NAMES[idx], (None, None))
            if "." in attr:  # a method: wrap it on its class
                cls_name, attr = attr.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[attr]
                wrapped = self._call_wrapper(idx, original, before, after)
                setattr(owner, attr, wrapped)
                self._installed.append((owner, attr, original))
                continue
            original = getattr(home, attr)
            if inspect.isgeneratorfunction(original):
                wrapped = self._generator_wrapper(idx, original)
            else:
                wrapped = self._call_wrapper(idx, original, before, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._installed.append((mod, key, original))

    def uninstall(self) -> list:
        """Put every original back; returns the (owner, attribute, original)
        records that were replaced."""
        records = self._installed
        for owner, attr, original in reversed(records):
            setattr(owner, attr, original)
        self._installed = []
        return records

    # -- output -----------------------------------------------------------

    def span_table(self) -> dict:
        """Plain data for merging spans across processes."""
        return {
            "parent": list(self.parent),
            "name": [NAMES[i] for i in self.name],
            "start": list(self.start),
            "end": list(self.end),
            "item": list(self.item),
            "notes": dict(self.notes),
        }


def restored(records) -> bool:
    """True when every attribute the tracer replaced holds its original."""
    return all(getattr(owner, attr) is original for owner, attr, original in records)


# -- observation hooks (before, after) ----------------------------------------

def _arg(args, kwargs, pos: int, name: str, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _canon_after(tracer, args, kwargs, result, _):
    if result.vertex_aut_order > 1:
        tracer.notes["graph_core.canonicalize_raw|sym"] += 1


def _enumerate_after(tracer, args, kwargs, result, _):
    tracer.notes["enumeration.enumerate_stable_graphs|graphs"] += len(result)


def _mask_before(tracer, args, kwargs):
    # the method's own memo; absent on a version without one
    return _arg(args, kwargs, 1, "key") in getattr(args[0], "_mask_cache", ())


def _mask_after(tracer, args, kwargs, result, was_cached):
    if was_cached:
        tracer.notes["assignment.ExtremalAssignment.value_mask|hits"] += 1


def _strata_after(tracer, args, kwargs, result, _):
    tracer.notes["contraction.fiber_strata|strata"] += result.total


def _fiber_before(tracer, args, kwargs):
    return fiber_size(_arg(args, kwargs, 0, "axis"))


def _fiber_after(tracer, args, kwargs, result, size):
    tracer.notes["torelli.fiber_constant|fiber"] += size


def _cache_after(tracer, args, kwargs, result, _):
    from torelli_graphs import cli

    genus = _arg(args, kwargs, 0, "genus")
    markings = _arg(args, kwargs, 1, "markings")
    bound = _arg(args, kwargs, 2, "bound", "*")
    tracer.notes["cli.load_or_enumerate|bytes"] += sum(
        p.stat().st_size for p in cli.cache_dir().glob(f"catalog-g{genus}-n{markings}-b{bound}-*")
    )


HOOKS = {
    "graph_core.canonicalize_raw": (None, _canon_after),
    "enumeration.enumerate_stable_graphs": (None, _enumerate_after),
    "assignment.ExtremalAssignment.value_mask": (_mask_before, _mask_after),
    "contraction.fiber_strata": (None, _strata_after),
    "torelli.fiber_constant": (_fiber_before, _fiber_after),
    "cli.load_or_enumerate": (None, _cache_after),
}


# -- metrics --------------------------------------------------------------------

def merge_tables(tables: list) -> dict:
    """Concatenate span tables from several processes, renumbering parents."""
    out = {"parent": [], "name": [], "start": [], "end": [], "item": [],
           "import_ms": [], "notes": Counter()}
    for t in tables:
        base = len(out["name"])
        out["parent"] += [p + base if p >= 0 else -1 for p in t["parent"]]
        for col in ("name", "start", "end", "item", "import_ms"):
            out[col] += t[col]
        out["notes"].update(t["notes"])
    return out


def layer_metrics(table: dict) -> dict:
    """Per-layer metrics from a span table (see LAYER_METRICS)."""
    names = table["name"]
    parent = table["parent"]
    dur = [e - s for s, e in zip(table["start"], table["end"])]
    notes = table["notes"]
    n = len(names)
    child_sum = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child_sum[parent[i]] += dur[i]

    by_name: dict = {}
    for i, nm in enumerate(names):
        by_name.setdefault(nm, []).append(i)

    def ids(name):
        return by_name.get(name, [])

    def calls(name):
        return len(ids(name))

    def outer_s(name):
        """Inclusive time, counting a recursive call only at its outermost span."""
        return sum(dur[i] for i in ids(name) if parent[i] < 0 or names[parent[i]] != name)

    def self_s(name):
        return sum(dur[i] - child_sum[i] for i in ids(name))

    def under(name, ancestor):
        """Spans of ``name`` with an ancestor span named ``ancestor``."""
        count = 0
        for i in ids(name):
            p = parent[i]
            while p >= 0:
                if names[p] == ancestor:
                    count += 1
                    break
                p = parent[p]
        return count

    def note(name, key):
        return notes.get(f"{name}|{key}", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    canon = "graph_core.canonicalize_raw"
    enum = "enumeration.enumerate_stable_graphs"
    degen = "enumeration.iter_degenerations"
    mask = "assignment.ExtremalAssignment.value_mask"
    fiber = "torelli.fiber_constant"
    cache = "cli.load_or_enumerate"

    # a cache hit is a load_or_enumerate call that did not enumerate
    enum_parents = {parent[j]: dur[j] for j in ids(enum)}
    hits = [i for i in ids(cache) if i not in enum_parents]
    misses = [i for i in ids(cache) if i in enum_parents]

    return {
        "graph_core.canon.calls": calls(canon),
        "graph_core.canon.self_s": self_s(canon),
        "graph_core.canon.sym_ratio": ratio(note(canon, "sym"), calls(canon)),
        "graph_core.canon.max_ms": max((dur[i] for i in ids(canon)), default=0.0) * 1e3,
        "graph_core.stable_graph.inits": calls("graph_core.StableGraph.__init__"),
        "graph_core.stable_graph.self_s": self_s("graph_core.StableGraph.__init__"),
        "enumeration.enumerate.s": outer_s(enum),
        "enumeration.enumerate.graphs": note(enum, "graphs"),
        "enumeration.enumerate.kept_ratio": ratio(note(enum, "graphs"), under(canon, enum)),
        "enumeration.degenerations.count": note(degen, "yields"),
        "enumeration.degenerations.s": outer_s(degen),
        "assignment.verify.s": outer_s("assignment.verify_extremal"),
        "assignment.verify.self_s": self_s("assignment.verify_extremal"),
        "assignment.value_mask.calls": calls(mask),
        "assignment.value_mask.hit_ratio": ratio(note(mask, "hits"), calls(mask)),
        "contraction.z_contract.calls": calls("contraction.z_contract"),
        "contraction.z_contract.s": outer_s("contraction.z_contract"),
        "contraction.fiber_strata.strata": note("contraction.fiber_strata", "strata"),
        "contraction.fiber_strata.s": outer_s("contraction.fiber_strata"),
        "contraction.leaf_trees.s": outer_s("contraction.leaf_labeled_trees"),
        "torelli.pst.calls": calls("torelli.pst"),
        "torelli.pst.s": outer_s("torelli.pst"),
        "torelli.c1_sets.calls": calls("torelli.c1_sets"),
        "torelli.c1_sets.s": outer_s("torelli.c1_sets"),
        "torelli.class_key.calls": calls("torelli.component_class_key"),
        "torelli.class_key.s": outer_s("torelli.component_class_key"),
        "torelli.fiber_constant.s": outer_s(fiber),
        "torelli.fiber_constant.keyed_ratio": ratio(under("torelli.pst", fiber), note(fiber, "fiber")),
        "cli.cache.hits": len(hits),
        "cli.cache.misses": len(misses),
        "cli.cache.read_s": sum(dur[i] for i in hits),
        "cli.cache.write_s": sum(dur[i] - enum_parents[i] for i in misses),
        "cli.cache.bytes": note(cache, "bytes"),
        "trace.spans": n,
    }

