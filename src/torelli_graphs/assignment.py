"""Extremal assignments on stable-graph catalogs.

An assignment picks an automorphism-invariant proper vertex subset of every
catalog graph, closed under degeneration.  The built-in one selects the
union of all separating rational multibridges; user tables are loaded from
JSON keyed by canonical key and closed under vertex automorphisms before
any use.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable

from .graph_core import (
    DomainError,
    StableGraph,
    StructuralError,
    bridge_edge_indices,
    canonicalize_raw,
    connected_components,
    raw_from_key,
)
from .enumeration import GraphCatalog, _walk

SCHEMA = "torelli-graphs/1"


class CoverageError(DomainError):
    """An extensional assignment misses catalog entries."""


# ---------------------------------------------------------------------------
# Rational multibridges.
# ---------------------------------------------------------------------------

SEPARATING = "separating"
QUASI_SEPARATING = "quasi-separating"
GENERAL = "general"


def profile_category(profile: tuple) -> str:
    """Category of a bridge or singular point from its profile (branches
    per component of the complement, largest first): separating when every
    component takes one, quasi-separating when one takes two or three and
    the rest one each, general otherwise."""
    if profile[0] == 1:
        return SEPARATING
    if profile[0] <= 3 and (len(profile) == 1 or profile[1] == 1):
        return QUASI_SEPARATING
    return GENERAL


def branch_profile(vertices, pairs, ends) -> tuple:
    """Profile of a bridge or singular point: how many of its branch
    ``ends`` land on each component of the complement, given as the graph
    on ``vertices`` with an edge for each pair, largest first."""
    comps = connected_components(vertices, pairs)
    comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
    counts = [0] * len(comps)
    for v in ends:
        counts[comp_of[v]] += 1
    return tuple(sorted([c for c in counts if c], reverse=True))


@dataclass(frozen=True)
class BridgeRecord:
    """One rational multibridge: a legless tree of genus-zero vertices.

    ``multiplicity`` counts attaching edges; ``attachment_profile`` counts
    them per complement component, largest first.  The category is exactly
    one of separating (profile all ones), quasi-separating (one component
    attaches 2 or 3 times, the rest once), or general.
    """

    vertices: frozenset
    multiplicity: int
    category: str
    attachment_profile: tuple


@dataclass(frozen=True)
class BridgeReport:
    graph_key: bytes
    bridges: tuple  # maximal BridgeRecords


def classify_bridge(graph: StableGraph, vertices: Iterable) -> BridgeRecord | None:
    """Classify a vertex subset as a rational multibridge, or None.

    The subset must induce a connected legless tree of genus-zero vertices
    (complete-subgraph convention, so loops and internal cycles disqualify)
    whose vertices all have total valence at least three.  It stays public
    as the paper's classification of rational multibridges, the reference
    that rule F and the axis-point categories are tested against.
    """
    sub = frozenset(vertices)
    if not sub or not sub <= set(graph.vertices()):
        return None
    if len(sub) == len(graph.vertices()):
        return None
    for v in sub:
        if graph.vertex_genus(v) or graph.legs_at(v) or graph.branch_points_at(v):
            return None
        if graph.valence(v) < 3:
            return None
    internal = []
    outside = []
    far_ends = []  # the outside end of each attaching edge
    for e in graph.edges():
        u, w = graph.edge_vertices(e)
        if u in sub and w in sub:
            if u == w:
                return None  # loop: positive genus
            internal.append((u, w))
        elif u in sub or w in sub:
            far_ends.append(w if u in sub else u)
        else:
            outside.append((u, w))
    if len(internal) != len(sub) - 1 or len(connected_components(sub, internal)) != 1:
        return None  # not a tree
    if not far_ends:
        return None
    profile = branch_profile(
        [v for v in graph.vertices() if v not in sub], outside, far_ends
    )
    return BridgeRecord(sub, len(far_ends), profile_category(profile), profile)


def rational_multibridges(graph: StableGraph) -> BridgeReport:
    """All maximal rational multibridges, by exhaustive connected-subset
    search.  Public with ``classify_bridge``: the paper's multibridge
    classification of a whole graph."""
    candidates = [
        v
        for v in graph.vertices()
        if graph.vertex_genus(v) == 0
        and not graph.legs_at(v)
        and not graph.branch_points_at(v)
        and not graph.loops_at(v)
    ]
    found = []
    n = len(candidates)
    for r in range(1, n + 1):
        for combo in itertools.combinations(candidates, r):
            rec = classify_bridge(graph, combo)
            if rec is not None:
                found.append(rec)
    maximal = [
        rec
        for rec in found
        if not any(rec.vertices < other.vertices for other in found)
    ]
    maximal.sort(key=lambda r: sorted(r.vertices))
    return BridgeReport(graph.canonical_key(), tuple(maximal))


def separating_bridge_assignment(graph: StableGraph) -> frozenset:
    """Rule F: the union of the vertex sets of all separating rational
    multibridges of a stable graph (see ``_raw_separating_assignment``).
    An unstable graph raises DomainError: the raw rule has no valence test,
    so it would pick genus-zero vertices that are no multibridge."""
    if not graph.is_stable():
        raise DomainError("input graph must be stable")
    raw, vids = graph.to_raw()
    mask = _raw_separating_assignment(raw)
    return frozenset(v for i, v in enumerate(vids) if mask >> i & 1)


def _raw_separating_assignment(raw) -> int:
    """Rule F on a raw stable graph, as a bitmask of vertex indices.

    A vertex lies in some separating bridge exactly when it is a legless
    loop-free genus-zero vertex all of whose edges separate: each such
    vertex is itself a one-vertex separating bridge, and inside a separating
    bridge every complement piece hangs off a single edge, so every incident
    edge separates.  Loops never separate, so one test covers loops and
    cycle edges.
    """
    genera, legs, branch, edges = raw
    bridges = bridge_edge_indices(len(genera), edges)
    blocked = [bool(g or b) for g, b in zip(genera, branch)]
    for _, v in legs:
        blocked[v] = True
    for idx, (u, v) in enumerate(edges):
        if idx not in bridges:
            blocked[u] = blocked[v] = True
    mask = 0
    for v, b in enumerate(blocked):
        if not b:
            mask |= 1 << v
    return mask


# ---------------------------------------------------------------------------
# Assignments as values.
# ---------------------------------------------------------------------------

class ExtremalAssignment:
    """A rule graph -> vertex subset, intrinsic or given by a table.

    Table entries are keyed by canonical key and hold canonical vertex
    positions; they are closed under vertex automorphisms at load time.
    """

    def __init__(self, name: str, rule: Callable | None = None, table: dict | None = None):
        if (rule is None) == (table is None):
            raise ValueError("exactly one of rule/table required")
        self.name = name
        self._rule = rule
        self._table = table
        self._mask_cache: dict = {}

    def is_intrinsic(self) -> bool:
        return self._rule is not None

    def defined_for(self, key: bytes) -> bool:
        return self._rule is not None or key in self._table

    def value(self, graph: StableGraph) -> frozenset:
        """Vertex subset of ``graph`` (in the graph's own vertex ids)."""
        if self._rule is not None:
            return frozenset(self._rule(graph))
        key = graph.canonical_key()
        if key not in self._table:
            raise CoverageError(f"{self.name}: no entry for {key.decode()}")
        positions = self._table[key]
        labeling = graph.canonical_labeling()
        return frozenset(v for v, pos in labeling.items() if pos in positions)

    def value_mask(self, key: bytes, raw=None) -> int:
        """Canonical-position bitmask of the value on a canonical key;
        ``raw``, when given, is the key already parsed."""
        mask = self._mask_cache.get(key)
        if mask is None:
            if self._rule is not None:
                if self._rule is separating_bridge_assignment:
                    mask = _raw_separating_assignment(
                        raw_from_key(key) if raw is None else raw
                    )
                else:
                    graph = StableGraph.from_canonical_key(key)
                    # representative vertex ids are canonical positions
                    mask = 0
                    for v in self._rule(graph):
                        mask |= 1 << v
            else:
                if key not in self._table:
                    raise CoverageError(f"{self.name}: no entry for {key.decode()}")
                mask = 0
                for pos in self._table[key]:
                    mask |= 1 << pos
            self._mask_cache[key] = mask
        return mask


SEPARATING_BRIDGES = ExtremalAssignment(
    "separating-bridges", rule=separating_bridge_assignment
)


def _list_of(item: str) -> str:
    return f"(?:{item}(?:,{item})*)?"


# the untagged key grammar, digits only; raw_from_key trusts its input
_KEY_RE = re.compile(
    "TG1;k=(?P<k>{n});g=(?P<g>{g});l=(?P<l>{p});b=(?P<b>{p});e=(?P<e>{e})".format(
        n=r"\d+",
        g=_list_of(r"\d+"),
        p=_list_of(r"\d+:\d+"),
        e=_list_of(r"\d+-\d+"),
    ),
    re.ASCII,
)


def _table_key_raw(key_str: str):
    """Parse an assignment-table key, rejecting what ``raw_from_key`` would
    misread or fail on."""
    m = _KEY_RE.fullmatch(key_str)
    if m is None:
        raise StructuralError(f"entry {key_str!r}: not a graph key")
    k = int(m["k"])
    n_genera = len(m["g"].split(",")) if m["g"] else 0
    if n_genera != k:
        raise StructuralError(f"entry {key_str}: k={k} but {n_genera} genera")
    ends = re.findall(r":(\d+)", m["l"]) + re.findall(r"(\d+):", m["b"])
    ends += re.findall(r"\d+", m["e"])
    if any(int(v) >= k for v in ends):
        raise StructuralError(f"entry {key_str}: vertex outside range({k})")
    return raw_from_key(key_str.encode("ascii"))


def load_assignment_table(data: dict, catalog: GraphCatalog) -> ExtremalAssignment:
    """Build an extensional assignment from parsed JSON, closing each entry
    under the automorphism orbits of its graph.  Malformed documents raise
    StructuralError or DomainError; missing catalog entries raise
    CoverageError."""
    if not isinstance(data, dict):
        raise DomainError("assignment JSON must be an object")
    if data.get("schema") not in (None, SCHEMA):
        raise DomainError(f"unsupported schema {data.get('schema')!r}")
    entries = data.get("entries")
    if not isinstance(entries, dict):
        raise DomainError("assignment JSON needs an 'entries' object")
    table: dict = {}
    for key_str, positions in entries.items():
        raw = _table_key_raw(key_str)
        if not isinstance(positions, list) or not all(
            type(p) is int for p in positions
        ):
            raise DomainError(f"entry {key_str}: positions must be a list of integers")
        chosen = set(positions)
        if not chosen <= set(range(len(raw[0]))):
            raise DomainError(f"entry {key_str}: vertex position out of range")
        closed = set()
        for orbit in canonicalize_raw(raw).vertex_orbits:
            if orbit & chosen:
                closed |= orbit
        table[key_str.encode("ascii")] = frozenset(closed)
    missing = [k for k in catalog.keys if k not in table]
    if missing:
        raise CoverageError(
            f"assignment misses {len(missing)} catalog entries, "
            f"first: {missing[0].decode()}"
        )
    return ExtremalAssignment(str(data.get("name", "table")), table=table)


# ---------------------------------------------------------------------------
# Verification.
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    assignment: str
    genus: int
    markings: int
    axiom1_violations: list = field(default_factory=list)
    axiom2_violations: list = field(default_factory=list)
    coverage_missing: list = field(default_factory=list)
    graphs_checked: int = 0
    degenerations_checked: int = 0
    mode: str = "all"

    @property
    def ok(self) -> bool:
        return not (
            self.axiom1_violations or self.axiom2_violations or self.coverage_missing
        )

    def to_json_dict(self) -> dict:
        return {**asdict(self), "verified": self.ok}


def verify_extremal(
    assignment: ExtremalAssignment,
    catalog: GraphCatalog,
    mode: str = "all",
) -> VerificationReport:
    """Check both extremality axioms over a catalog.

    Axiom 1: every value is a proper, automorphism-invariant vertex subset.
    Axiom 2: membership is equivalent to the image subgraph lying inside the
    value, for every degeneration among catalog graphs; ``mode="single"``
    restricts to one-edge contractions, through which all others factor.
    """
    if mode not in ("all", "single"):
        raise ValueError("mode must be 'all' or 'single'")
    report = VerificationReport(
        assignment=assignment.name,
        genus=catalog.genus,
        markings=catalog.markings,
        mode=mode,
    )
    if not assignment.is_intrinsic():
        report.coverage_missing = [
            k.decode() for k in catalog.keys if not assignment.defined_for(k)
        ]
        if report.coverage_missing:
            raise CoverageError(
                f"{assignment.name} undefined on "
                f"{len(report.coverage_missing)} catalog entries"
            )

    keys = catalog.keys
    for t, raw, records in _walk(catalog, mode):
        key = keys[t]
        k = len(raw[0])
        mask = assignment.value_mask(key, raw)
        if mask == (1 << k) - 1:
            report.axiom1_violations.append((key.decode(), "value is not proper"))
        elif mask and not catalog.known_rigid(t):
            # an empty or full value splits no orbit, and neither does any
            # value on a rigid graph, whose orbits are singletons; only the
            # other keys need their automorphisms
            for orbit in canonicalize_raw(raw).vertex_orbits:
                bits = sum(1 << v for v in orbit)
                if mask & bits and mask & bits != bits:
                    report.axiom1_violations.append(
                        (key.decode(), f"not Aut-invariant on orbit {sorted(orbit)}")
                    )
                    break
        report.graphs_checked += 1
        outside = [u for u in range(k) if not mask >> u & 1]
        for i, chosen, where, k1 in records:
            # source position p is in the value exactly when every target
            # vertex landing on p is
            image = (1 << k1) - 1
            for u in outside:
                image &= ~(1 << where[u])
            wrong = assignment.value_mask(keys[i]) ^ image
            if wrong:
                report.axiom2_violations += [
                    (keys[i].decode(), key.decode(), list(chosen), p)
                    for p in range(k1) if wrong >> p & 1
                ]
            report.degenerations_checked += 1
    return report


def is_z_quasi_separating(graph: StableGraph, assignment: ExtremalAssignment) -> bool:
    """True when every connected component of the assigned subgraph is a
    separating or quasi-separating rational multibridge.  Public as the
    paper's test for the axis-like locus of an assignment Z."""
    for comp in graph.induced_components(assignment.value(graph)):
        rec = classify_bridge(graph, comp)
        if rec is None or rec.category == GENERAL:
            return False
    return True
