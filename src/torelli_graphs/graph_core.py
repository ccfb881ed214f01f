"""Genus-decorated half-edge multigraphs with labelled legs.

A graph is stored as vertex genera, a halfedge-to-vertex incidence map, a
pairing involution on halfedges (a matched pair is an edge, a pair on one
vertex is a loop), and an injective map from marking labels to unpaired
halfedges (legs).  An unpaired, unlabelled halfedge is a branch point: it
records where an edge was cut and keeps its id, so cutting and regluing
round-trips exactly.

Graphs are immutable after construction and always connected.  Edge ids are
the sorted pair of their two halfedge ids.  A graph built from a raw tuple
(below) keeps it and builds its halfedge dicts only when they are read.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import NamedTuple

MAX_GENUS = 1 << 16


class GraphError(Exception):
    """Base class for graph errors."""


class StructuralError(GraphError):
    """Malformed half-edge data: dangling halfedge, broken involution, ..."""


class DomainError(GraphError):
    """Operation applied outside its domain."""


# ---------------------------------------------------------------------------
# Raw representation and canonical labelling.
#
# For algorithmic work a graph is flattened to a "raw" tuple
#     (genera, legs, branch, edges)
# with vertices renamed 0..k-1:
#     genera : tuple[int, ...]                  genus per vertex
#     legs   : tuple[(label, vertex), ...]      sorted by label
#     branch : tuple[int, ...]                  branch-point count per vertex
#     edges  : tuple[(u, v), ...]               u <= v, sorted, loops as (u, u)
# ---------------------------------------------------------------------------

Raw = tuple[tuple, tuple, tuple, tuple]


class CanonResult(NamedTuple):
    """Canonical labelling of a raw graph plus its vertex automorphism data.

    The halfedge group order is not part of it: ``StableGraph.automorphisms``
    multiplies ``vertex_aut_order`` by the kernel order of its own raw."""

    key: bytes
    order: tuple  # order[pos] = original vertex index
    vertex_aut_order: int
    vertex_orbits: tuple  # tuple of frozensets of original indices
    vertex_generators: tuple  # generators of the vertex group, perm[i] = image of i

    @property
    def labeling(self) -> dict:
        """Original vertex index -> canonical position."""
        return {orig: pos for pos, orig in enumerate(self.order)}


def _adjacency(k: int, edges) -> list:
    """Non-loop adjacency with multiplicities: per vertex, [(nbr, mult), ...]."""
    mult: dict = {}
    for e in edges:
        if e[0] != e[1]:
            mult[e] = mult.get(e, 0) + 1
    adj = [[] for _ in range(k)]
    for (u, v), m in mult.items():
        adj[u].append((v, m))
        adj[v].append((u, m))
    return adj


def _compress(keys) -> list:
    order = {c: i for i, c in enumerate(sorted(set(keys)))}
    return [order[c] for c in keys]


def _refine(k: int, color_ids: list, adj) -> list:
    """Iterated neighbourhood refinement; stable once class count stops growing."""
    nclasses = len(set(color_ids))
    while nclasses < k:
        keys = [
            (color_ids[v], tuple(sorted((color_ids[u], m) for u, m in adj[v])))
            for v in range(k)
        ]
        color_ids = _compress(keys)
        n2 = len(set(color_ids))
        if n2 == nclasses:
            break
        nclasses = n2
    return color_ids


def _certificate(order, static, edges) -> tuple:
    pos = {orig: i for i, orig in enumerate(order)}
    vs = tuple(static[orig] for orig in order)
    es = []
    for u, v in edges:
        a, b = pos[u], pos[v]
        es.append((a, b) if a <= b else (b, a))
    es.sort()
    return (vs, tuple(es))


class _PairText(dict):
    """Memo of the key text ``"a<sep>b"`` of a pair of small integers."""

    def __init__(self, sep: str):
        super().__init__()
        self.sep = sep

    def __missing__(self, pair):
        text = self[pair] = f"{pair[0]}{self.sep}{pair[1]}"
        return text


class _IntText(dict):
    """Memo of ``str`` on the small integers of keys."""

    def __missing__(self, value):
        text = self[value] = str(value)
        return text


_EDGE_TEXT = _PairText("-")  # an edge between positions a <= b
_LEG_TEXT = _PairText(":")  # a leg label and its position
_INT_TEXT = _IntText()


def _serialize(order, raw: Raw, tags) -> bytes:
    genera, legs, branch, edges = raw
    k = len(genera)
    pos = [0] * k
    for i, orig in enumerate(order):
        pos[orig] = i
    g_part = ",".join([_INT_TEXT[genera[orig]] for orig in order])
    l_part = ",".join([_LEG_TEXT[lab, pos[v]] for lab, v in sorted(legs)])
    b_part = ",".join(
        [f"{i}:{branch[orig]}" for i, orig in enumerate(order) if branch[orig]]
    ) if any(branch) else ""
    es = []
    for u, v in edges:
        a, b = pos[u], pos[v]
        es.append((a, b) if a <= b else (b, a))
    es.sort()
    e_part = ",".join(map(_EDGE_TEXT.__getitem__, es))
    s = f"TG1;k={k};g={g_part};l={l_part};b={b_part};e={e_part}"
    if tags is not None:
        t_part = ",".join([f"{i}:{tags[orig]}" for i, orig in enumerate(order)])
        s += f";t={t_part}"
    return s.encode("ascii")


def raw_canonical_key(raw: Raw, tags=None) -> bytes:
    return canonicalize_raw(raw, tags).key


def canonicalize_raw(raw: Raw, tags=None) -> CanonResult:
    """Canonical labelling by colour refinement plus backtracking.

    Branches over the smallest non-singleton colour class, in vertex order,
    and keeps the first leaf in depth-first order with the least
    certificate, which is isomorphism-invariant.  Two leaves with one
    certificate give a vertex automorphism (McKay 1981; McKay & Piperno
    2014).  A child in the orbit of an explored sibling under the
    automorphisms found that fix the node's individualized vertices is
    skipped, and a leaf that matches the first leaf abandons the rest of
    its subtree up to the first-path node it hangs from: both subtrees are
    images of explored ones, so they hold no earlier least leaf.  The group
    order is the product, along the first path, of the orbit size of each
    individualized vertex under the automorphisms fixing those before it.
    """
    genera, legs, branch, edges = raw
    k = len(genera)
    legs_at = [()] * k
    for lab, v in sorted(legs):
        legs_at[v] += (lab,)
    loops = [0] * k
    for u, v in edges:
        if u == v:
            loops[u] += 1
    # per vertex: (tag,) genus, leg labels, branch points, loops
    if tags is None:
        base_keys = list(zip(genera, legs_at, branch, loops))
    else:
        base_keys = list(zip(tags, genera, legs_at, branch, loops))
    if len(set(base_keys)) == k:
        # the vertex decorations alone tell every vertex apart; ranking by
        # them is what refinement would return
        order = tuple(sorted(range(k), key=base_keys.__getitem__))
        return _discrete_result(order, raw, tags)
    static = [bk[:-1] for bk in base_keys]  # loops are in the edge list
    adj = _adjacency(k, edges)
    colors = _refine(k, _compress(base_keys), adj)

    if len(set(colors)) == k:
        # discrete refinement pins every vertex: trivial vertex symmetries
        order = tuple(sorted(range(k), key=colors.__getitem__))
        return _discrete_result(order, raw, tags)

    first_order = first_cert = best_order = best_cert = first_path = None
    gens: list = []  # perm[i] = image of i
    prefix: list = []  # individualized vertices from the root to the node

    def descend(color_ids, home):
        """Search below the node that ``prefix`` leads to; ``home`` is the
        depth of its deepest ancestor on the first path.  Returns the depth
        to jump back to, or None."""
        nonlocal first_order, first_cert, best_order, best_cert, first_path
        if len(set(color_ids)) == k:
            order = tuple(sorted(range(k), key=color_ids.__getitem__))
            cert = _certificate(order, static, edges)
            if first_order is None:
                first_order = best_order = order
                first_cert = best_cert = cert
                first_path = tuple(prefix)
                return None
            if cert == first_cert:
                other = first_order
            elif cert == best_cert:
                other = best_order
            else:
                if cert < best_cert:
                    best_order, best_cert = order, cert
                return None
            perm = [0] * k
            for a, b in zip(other, order):
                perm[a] = b
            gens.append(tuple(perm))
            return home if other is first_order else None
        classes: dict = {}
        for v, c in enumerate(color_ids):
            classes.setdefault(c, []).append(v)
        # smallest cell, then smallest colour (never a tie, so the vertex
        # lists are not compared)
        _, cell, target = min(
            (len(vs), c, vs) for c, vs in classes.items() if len(vs) > 1
        )
        depth = len(prefix)
        if first_order is None:
            home = depth
        explored: list = []
        fixing: list = []  # generators found that fix every vertex of prefix
        seen = 0
        reps = None  # orbit representatives under fixing
        for v in target:
            if explored:
                if len(gens) > seen:
                    new = [g for g in gens[seen:] if all(g[p] == p for p in prefix)]
                    seen = len(gens)
                    if new:
                        fixing += new
                        reps = _orbit_reps(k, fixing)
                if reps is not None and any(reps[u] == reps[v] for u in explored):
                    continue
            explored.append(v)
            # v alone takes the colour just above the rest of its cell
            split = [c + 1 if c > cell else c for c in color_ids]
            split[v] += 1
            prefix.append(v)
            jump = descend(_refine(k, split, adj), home)
            prefix.pop()
            if jump is not None and jump < depth:
                return jump
        return None

    descend(colors, 0)
    # the recursive closure refers to itself; breaking that cycle frees
    # the search data now instead of at the next garbage collection
    del descend

    aut_order = 1
    orbits = None
    fixing = gens
    for i, v in enumerate(first_path):
        if i:
            w = first_path[i - 1]
            fixing = [g for g in fixing if g[w] == w]
        if not fixing:
            break
        reps = _orbit_reps(k, fixing)
        aut_order *= reps.count(reps[v])
        if orbits is None:
            groups: dict = {}
            for u, r in enumerate(reps):
                groups.setdefault(r, []).append(u)
            orbits = tuple(frozenset(vs) for vs in groups.values())
    return CanonResult(
        _serialize(best_order, raw, tags),
        best_order,
        aut_order,
        orbits or _singleton_orbits(k),
        tuple(gens),
    )


def _orbit_reps(k: int, perms) -> list:
    """The smallest vertex of each vertex's orbit under the group the
    permutations generate."""
    # its own search, not connected_components: that costs class-table ~7% wall_s
    rep = [-1] * k
    for v in range(k):
        if rep[v] < 0:
            rep[v] = v
            stack = [v]
            while stack:
                u = stack.pop()
                for perm in perms:
                    w = perm[u]
                    if rep[w] < 0:
                        rep[w] = v
                        stack.append(w)
    return rep


def _discrete_result(order, raw: Raw, tags) -> CanonResult:
    """Result for a labelling pinned by refinement: no vertex symmetries."""
    return CanonResult(
        _serialize(order, raw, tags), order, 1, _singleton_orbits(len(order)), ()
    )


_SINGLETON_ORBITS: dict = {}


def _singleton_orbits(k: int) -> tuple:
    orbits = _SINGLETON_ORBITS.get(k)
    if orbits is None:
        orbits = _SINGLETON_ORBITS[k] = tuple(frozenset((v,)) for v in range(k))
    return orbits


def _kernel_order(edges, branch) -> int:
    """Halfedge automorphisms fixing every vertex: parallel-edge permutations,
    loop permutations and flips, branch-point permutations."""
    kernel = 1
    if len(set(edges)) == len(edges):
        for u, v in edges:
            if u == v:
                kernel <<= 1
    else:
        for (u, v), m in Counter(edges).items():
            kernel *= factorial(m)
            if u == v:
                kernel *= 1 << m
    for c in branch:
        if c > 1:
            kernel *= factorial(c)
    return kernel


class _NumberText(dict):
    """Memo of ``int`` on the short digit strings of keys; text that is not
    ASCII digits, or has a leading zero, raises ValueError."""

    def __missing__(self, text):
        if not (text.isdigit() and text.isascii()) or (text[0] == "0" and len(text) > 1):
            raise ValueError(f"not a number: {text!r}")
        value = int(text)
        if len(text) < 4:
            self[text] = value
        return value


_NUMBER = _NumberText()
_FIELDS = ("TG1", "k=", "g=", "l=", "b=", "e=")


@lru_cache(maxsize=64)
def _position_text(k: int) -> dict:
    """The positions below ``k``, keyed by their text."""
    return {str(i): i for i in range(k)}


def raw_from_key(key: bytes) -> Raw:
    """Parse an untagged canonical key back into a raw graph; the one reader
    of key text.  The grammar is ``TG1;k=K;g=G;l=L;b=B;e=E``, six fields in
    this order: K genera in G, legs ``label:position`` in L, branch points
    ``position:count`` in B and edges ``u-v`` in E, each list comma-joined
    and every number ASCII digits without a leading zero, each list in the
    order ``_serialize`` writes it.  A key that breaks it, or has a leg,
    branch or edge position not below K, raises StructuralError; K is
    checked against G before anything of size K is made.  ``from_raw``
    checks the rest: genus range, distinct labels, connectivity."""
    num = _NUMBER.__getitem__
    try:
        text = key.decode("ascii")
        tg, kt, gt, lt, bt, et = text.split(";")
        if (tg, kt[:2], gt[:2], lt[:2], bt[:2], et[:2]) != _FIELDS:
            raise ValueError("fields out of order")
        k = num(kt[2:])
        genera = tuple(map(num, gt[2:].split(",")))
        if len(genera) != k:
            raise StructuralError(f"key has k={k} but {len(genera)} genera: {text[:40]!r}")
        pos = _position_text(k).__getitem__
        legs = tuple(
            [(num(a), pos(v)) for a, v in [item.split(":") for item in lt[2:].split(",")]]
        ) if lt != "l=" else ()
        items = [
            (pos(v), num(c)) for v, c in [item.split(":") for item in bt[2:].split(",")]
        ] if bt != "b=" else []
        branch = [0] * k
        for v, c in items:
            branch[v] = c
        edges = tuple(
            [(pos(u), pos(v)) for u, v in [item.split("-") for item in et[2:].split(",")]]
        ) if et != "e=" else ()
        if (sorted(legs) != list(legs) or sorted(edges) != list(edges)
                or [e for e in edges if e[0] > e[1]]
                or items and items != [(v, c) for v, c in enumerate(branch) if c]):
            raise ValueError("not in the order _serialize writes")
    except (ValueError, KeyError) as exc:
        raise StructuralError(f"not a graph key: {key[:40]!r}") from exc
    return (genera, legs, tuple(branch), edges)


def _check_raw(raw: Raw) -> None:
    """Refuse a raw tuple that is not a connected graph in the raw format."""
    genera, legs, branch, edges = raw
    k = len(genera)
    if not k:
        raise StructuralError("graph needs at least one vertex")
    for v, g in enumerate(genera):
        if not 0 <= g <= MAX_GENUS:
            raise StructuralError(f"vertex {v}: genus {g} out of range")
    if len(branch) != k or min(branch) < 0:
        raise StructuralError("raw graph needs one branch-point count per vertex")
    labels = [lab for lab, _ in legs]
    if len(set(labels)) != len(labels):
        raise StructuralError("duplicate leg label")
    if labels != sorted(labels):
        raise StructuralError("raw legs out of label order")
    for lab, v in legs:
        if not 0 <= v < k:
            raise StructuralError(f"leg {lab} on unknown vertex {v}")
    for u, v in edges:
        if not 0 <= u <= v < k:
            raise StructuralError(f"raw edge ({u}, {v}) is not a pair u <= v below {k}")
    if list(edges) != sorted(edges):
        raise StructuralError("raw edges out of order")
    if len(connected_components(range(k), edges)) != 1:
        raise StructuralError("graph is not connected")


@lru_cache(maxsize=None)
def _build_edges(n: int) -> tuple:
    """Edge ids of the ``build`` numbering: edge i is (2i, 2i + 1)."""
    return tuple((h, h + 1) for h in range(0, 2 * n, 2))


# the halfedge dicts of a StableGraph, which a graph built from a raw
# fills from it on first use
_VIEWS = ("_genus", "_hvertex", "_mate", "_legs", "_h_at", "_branch")


def _raw_views(raw: Raw) -> tuple:
    """The values of ``_VIEWS`` for a checked raw graph, in the ``build``
    numbering: edge i carries halfedges (2i, 2i + 1), then come the legs
    in label order, then one stub per branch point."""
    genera, legs, branch, edges = raw
    ends = [v for e in edges for v in e] + [v for _, v in legs]
    ends += [v for v, c in enumerate(branch) for _ in range(c)]
    n = 2 * len(edges)
    mate = {}
    for h in range(0, n, 2):
        mate[h] = h + 1
        mate[h + 1] = h
    h_at: dict = {v: [] for v in range(len(genera))}
    for h, v in enumerate(ends):
        h_at[v].append(h)
    return (
        dict(enumerate(genera)),
        dict(enumerate(ends)),
        mate,
        {lab: h for h, (lab, _) in enumerate(legs, n)},
        {v: tuple(hs) for v, hs in h_at.items()},
        frozenset(range(n + len(legs), len(ends))),
    )


def _index_form(genus: dict, hvertex: dict, edges) -> tuple:
    """(vertex ids, genera, ends, halves) of vertex -> genus, halfedge ->
    vertex and edge pairs: vertex i is the i-th smallest id, and edge i
    joins the vertex indices ``ends[i]`` by the halfedges ``halves[i]``."""
    vids = sorted(genus)
    index = {v: i for i, v in enumerate(vids)}
    ends = [(index[hvertex[a]], index[hvertex[b]]) for a, b in edges]
    return vids, [genus[v] for v in vids], ends, edges


# ---------------------------------------------------------------------------
# Connectivity and bridges.
# ---------------------------------------------------------------------------

def connected_components(vertices, pairs) -> list:
    """Vertex lists of the connected components of the graph on ``vertices``
    with an edge for each pair, in the order of each one's first vertex in
    ``vertices``.  Both ends of every pair must be among ``vertices``."""
    adj: dict = {v: [] for v in vertices}
    for u, w in pairs:
        adj[u].append(w)
        adj[w].append(u)
    comps = []
    seen: set = set()
    for start in adj:
        if start not in seen:
            seen.add(start)
            comp = [start]
            for v in comp:
                for u in adj[v]:
                    if u not in seen:
                        seen.add(u)
                        comp.append(u)
            comps.append(comp)
    return comps


def bridge_edge_indices(k: int, edges) -> set:
    """Indices of non-loop edges whose deletion disconnects the graph.

    Iterative lowlink search; parallel edges are distinct ids so a doubled
    edge is never a bridge.
    """
    adj = [[] for _ in range(k)]
    for idx, (u, v) in enumerate(edges):
        if u != v:
            adj[u].append((v, idx))
            adj[v].append((u, idx))
    pre = [-1] * k
    low = [0] * k
    bridges: set = set()
    counter = itertools.count()
    for root in range(k):
        if pre[root] != -1:
            continue
        stack = [(root, -1, iter(adj[root]))]
        pre[root] = low[root] = next(counter)
        while stack:
            v, in_edge, it = stack[-1]
            advanced = False
            for u, idx in it:
                if idx == in_edge:
                    continue
                if pre[u] == -1:
                    pre[u] = low[u] = next(counter)
                    stack.append((u, idx, iter(adj[u])))
                    advanced = True
                    break
                low[v] = min(low[v], pre[u])
            if not advanced:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[v])
                    if low[v] > pre[p]:
                        bridges.add(in_edge)
    return bridges


# ---------------------------------------------------------------------------
# The graph class.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AutomorphismGroup:
    """Automorphisms fixing every leg label.

    ``order`` counts halfedge-level automorphisms: vertex symmetries times
    permutations of parallel edges, loop flips and swaps, and permutations
    of branch points sharing a vertex.  Generators are given by their vertex
    action only.
    """

    order: int
    vertex_order: int
    vertex_generators: tuple
    vertex_orbits: tuple


class StableGraph:
    """A connected graph, held as halfedge dicts (the ``_VIEWS`` and
    ``_edges``), as a raw tuple (``_raw``), or both.

    ``__init__`` validates halfedge data and fills the dicts; the raw is
    computed from them on first use (``_raw_data``).  ``from_raw`` checks a
    raw tuple and keeps it, in a ``_RawGraph`` that builds the dicts on
    first use.  ``_raw`` is (raw, vertex id per raw index, halfedge pair per
    raw edge (u, v): the one at u, then the one at v), or None until then.
    """

    __slots__ = (
        "_genus", "_hvertex", "_mate", "_legs",
        "_h_at", "_edges", "_branch", "_canon", "_raw",
    )

    def __init__(self, vertices, halfedges, edges, legs):
        vitems = list(vertices.items() if isinstance(vertices, dict) else vertices)
        hitems = list(halfedges.items() if isinstance(halfedges, dict) else halfedges)
        genus = dict(vitems)
        hvertex = dict(hitems)
        if not genus:
            raise StructuralError("graph needs at least one vertex")
        if len(genus) != len(vitems):
            raise StructuralError("duplicate vertex id")
        if len(hvertex) != len(hitems):
            raise StructuralError("duplicate halfedge id")
        for v, g in genus.items():
            if not (0 <= g <= MAX_GENUS):
                raise StructuralError(f"vertex {v}: genus {g} out of range")
        for h, v in hvertex.items():
            if v not in genus:
                raise StructuralError(f"halfedge {h} dangles from unknown vertex {v}")
        mate: dict = {}
        for h1, h2 in edges:
            if h1 == h2:
                raise StructuralError(f"halfedge {h1} paired with itself")
            for h in (h1, h2):
                if h not in hvertex:
                    raise StructuralError(f"edge references unknown halfedge {h}")
                if h in mate:
                    raise StructuralError(f"halfedge {h} in two edge pairs")
            mate[h1] = h2
            mate[h2] = h1
        litems = list(legs.items() if isinstance(legs, dict) else legs or ())
        legmap = {int(lab): h for lab, h in litems}
        if len(legmap) != len(litems):
            raise StructuralError("duplicate leg label")
        if len(set(legmap.values())) != len(legmap):
            raise StructuralError("two legs on one halfedge")
        for lab, h in legmap.items():
            if h not in hvertex:
                raise StructuralError(f"leg {lab} on unknown halfedge {h}")
            if h in mate:
                raise StructuralError(f"leg {lab} sits on a paired halfedge")
        self._genus = genus
        self._hvertex = hvertex
        self._mate = mate
        self._legs = legmap
        h_at: dict = {v: [] for v in genus}
        for h in sorted(hvertex):
            h_at[hvertex[h]].append(h)
        self._h_at = {v: tuple(hs) for v, hs in h_at.items()}
        es = [(h, m) for h, m in mate.items() if h < m]
        es.sort()
        self._edges = tuple(es)
        legged = set(legmap.values())
        self._branch = frozenset(
            h for h in hvertex if h not in mate and h not in legged
        )
        self._canon = None
        self._raw = None
        if len(connected_components(genus, [(hvertex[a], hvertex[b]) for a, b in es])) != 1:
            raise StructuralError("graph is not connected")

    # -- builders -----------------------------------------------------------

    @classmethod
    def build(cls, vertices, edges=(), legs=None, branch_points=()) -> "StableGraph":
        """Build from vertex pairs.

        ``vertices``: mapping vid -> genus or iterable of (vid, genus).
        ``edges``: (u, v) vertex pairs, repeats give parallel edges, u == v loops.
        ``legs``: mapping label -> vid.  ``branch_points``: vids, one stub each.
        """
        # halfedges in the order of _raw_views: edge ends, legs, branch stubs
        ends = [w for u, v in edges for w in (u, v)]
        n = len(ends)
        labels = sorted(legs or {})
        ends += [legs[lab] for lab in labels]
        ends += branch_points
        return cls(
            dict(vertices), list(enumerate(ends)), _build_edges(n // 2),
            {lab: h for h, lab in enumerate(labels, n)},
        )

    @classmethod
    def from_raw(cls, raw: Raw) -> "StableGraph":
        """The graph of a raw tuple, which it keeps: vertex ids are raw
        indices, and halfedge ids follow the ``build`` numbering (edge i
        carries (2i, 2i + 1), then the legs in label order, then the
        branch stubs).  The raw is checked here; the halfedge dicts are
        built on the first call that reads them."""
        _check_raw(raw)
        graph = object.__new__(_RawGraph)
        graph._edges = _build_edges(len(raw[3]))
        graph._raw = (raw, range(len(raw[0])), graph._edges)
        graph._canon = None
        return graph

    @classmethod
    def from_canonical_key(cls, key: bytes) -> "StableGraph":
        """Materialize the canonical representative; vertex ids are canonical
        positions and halfedge ids follow the ``build`` numbering."""
        return cls.from_raw(raw_from_key(key))

    def _raw_data(self) -> tuple:
        """(raw, vid_order, halfedge pair per raw edge), computed from the
        halfedge dicts on the first call if the graph did not keep it."""
        if self._raw is None:
            vids, genera, ends, halves = _index_form(self._genus, self._hvertex, self._edges)
            idx = {v: i for i, v in enumerate(vids)}
            legs = tuple(sorted((lab, idx[self._hvertex[h]]) for lab, h in self._legs.items()))
            branch = [0] * len(vids)
            for h in self._branch:
                branch[idx[self._hvertex[h]]] += 1
            pairs = sorted(((u, v), (a, b)) if u <= v else ((v, u), (b, a))
                           for (u, v), (a, b) in zip(ends, halves))
            raw = (tuple(genera), legs, tuple(branch), tuple(e for e, _ in pairs))
            self._raw = (raw, tuple(vids), tuple(pair for _, pair in pairs))
        return self._raw

    def _indexed(self) -> tuple:
        """The ``_index_form`` of the graph, read from the raw if it has
        one, else from the dicts without storing a raw."""
        if self._raw is not None:
            (genera, _, _, ends), vids, halves = self._raw
            return vids, genera, ends, halves
        return _index_form(self._genus, self._hvertex, self._edges)

    def to_raw(self):
        """Return (raw, vid_order) with vid_order[i] the vertex at raw index i."""
        raw, vids, _ = self._raw_data()
        return raw, vids

    # -- accessors ----------------------------------------------------------

    def vertices(self) -> list:
        return sorted(self._genus)

    def vertex_genus(self, v) -> int:
        return self._genus[v]

    @property
    def legs(self) -> dict:
        return dict(self._legs)

    def legs_at(self, v) -> tuple:
        return tuple(sorted(l for l, h in self._legs.items() if self._hvertex[h] == v))

    def halfedges(self) -> list:
        return sorted(self._hvertex)

    def vertex_of(self, h):
        return self._hvertex[h]

    def mate(self, h):
        return self._mate.get(h)

    def valence(self, v) -> int:
        return len(self._h_at[v])

    def edges(self) -> tuple:
        return self._edges

    def edge_vertices(self, edge) -> tuple:
        return (self._hvertex[edge[0]], self._hvertex[edge[1]])

    def is_loop(self, edge) -> bool:
        return self._hvertex[edge[0]] == self._hvertex[edge[1]]

    def loops_at(self, v) -> tuple:
        return tuple(e for e in self._edges if self.is_loop(e) and self._hvertex[e[0]] == v)

    def branch_points(self) -> frozenset:
        return self._branch

    def branch_points_at(self, v) -> tuple:
        return tuple(sorted(h for h in self._branch if self._hvertex[h] == v))

    def n_markings(self) -> int:
        return len(self._legs)

    def __repr__(self):
        return (
            f"StableGraph(g={self.genus()}, vertices={len(self._genus)}, "
            f"edges={len(self._edges)}, legs={len(self._legs)})"
        )

    # -- invariants ---------------------------------------------------------

    def genus(self) -> int:
        """Arithmetic genus: sum of vertex genera plus the first Betti number."""
        return sum(self._genus.values()) + len(self._edges) - len(self._genus) + 1

    def is_stable(self) -> bool:
        genera, legs, branch, edges = self._raw_data()[0]
        valence = list(branch)
        for _, v in legs:
            valence[v] += 1
        for u, v in edges:
            valence[u] += 1
            valence[v] += 1
        return all(2 * g - 2 + d > 0 for g, d in zip(genera, valence))

    def _canon_result(self) -> CanonResult:
        if self._canon is None:
            raw, _ = self.to_raw()
            self._canon = canonicalize_raw(raw)
        return self._canon

    def canonical_key(self) -> bytes:
        """Equal keys exactly for isomorphic graphs (legs fixed pointwise)."""
        return self._canon_result().key

    def canonical_labeling(self) -> dict:
        """Vertex id -> canonical position."""
        res = self._canon_result()
        _, vids = self.to_raw()
        return {vids[orig]: pos for pos, orig in enumerate(res.order)}

    def automorphisms(self) -> AutomorphismGroup:
        res = self._canon_result()
        (_, _, branch, edges), vids = self.to_raw()
        gens = tuple(
            {vids[i]: vids[p] for i, p in enumerate(perm)}
            for perm in res.vertex_generators
        )
        orbits = tuple(frozenset(vids[i] for i in orb) for orb in res.vertex_orbits)
        return AutomorphismGroup(
            order=res.vertex_aut_order * _kernel_order(edges, branch),
            vertex_order=res.vertex_aut_order,
            vertex_generators=gens,
            vertex_orbits=orbits,
        )

    def vertex_orbits(self) -> tuple:
        return self.automorphisms().vertex_orbits

    # -- connectivity operations --------------------------------------------

    def separating_edges(self) -> frozenset:
        """Non-loop edges whose deletion disconnects the graph."""
        (genera, _, _, edges), _, halves = self._raw_data()
        bridges = bridge_edge_indices(len(genera), edges)
        return frozenset(tuple(sorted(halves[i])) for i in bridges)

    def induced_components(self, vertices) -> list:
        """Vertex sets of the connected components of the subgraph induced
        on ``vertices``, in the order ``set.pop`` on a set of them meets
        the components (``z_contract`` numbers its points in this order)."""
        (_, _, _, edges), vids, _ = self._raw_data()
        vertices = frozenset(vertices)
        pairs = []
        for u, w in edges:
            u, w = vids[u], vids[w]
            if u in vertices and w in vertices:
                pairs.append((u, w))
        comp_of = {v: c for c in map(set, connected_components(vertices, pairs)) for v in c}
        remaining = set(vertices)
        comps = []
        while remaining:
            comp = comp_of[remaining.pop()]
            remaining -= comp
            comps.append(comp)
        return comps

    def delete_edges(self, edges) -> list:
        """Drop edges entirely (halfedges removed) and split into components."""
        drop = self._check_edges(edges)
        gone = {h for e in drop for h in e}
        return self._components(gone, keep_as_branch=frozenset())

    def normalize_at(self, edges) -> list:
        """Cut each edge, keeping both halfedges as branch points, then split
        into connected components.  Vertex and halfedge ids are preserved."""
        cut = self._check_edges(edges)
        loose = {h for e in cut for h in e}
        return self._components(loose, keep_as_branch=frozenset(loose))

    def _check_edges(self, edges) -> list:
        out = []
        eset = set(self._edges)
        for e in edges:
            e = tuple(sorted(e))
            if e not in eset:
                raise DomainError(f"unknown edge {e}")
            out.append(e)
        return out

    def _components(self, unpaired: set, keep_as_branch: frozenset) -> list:
        mate = {h: m for h, m in self._mate.items()
                if h not in unpaired and m not in unpaired}
        pairs = [(self._hvertex[h], self._hvertex[m]) for h, m in mate.items()]
        out = []
        for comp in connected_components(sorted(self._genus), pairs):
            vs = {v: self._genus[v] for v in comp}
            hs = []
            for v in comp:
                for h in self._h_at[v]:
                    if h in unpaired and h not in keep_as_branch:
                        continue
                    hs.append((h, v))
            hset = {h for h, _ in hs}
            es = [(a, b) for a, b in self._edges if a in hset and a in mate]
            ls = {lab: h for lab, h in self._legs.items() if h in hset}
            out.append(StableGraph(vs, hs, es, ls))
        return out

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "vertices": [
                {"id": v, "genus": self._genus[v]} for v in sorted(self._genus)
            ],
            "halfedges": [
                {"id": h, "vertex": self._hvertex[h]} for h in sorted(self._hvertex)
            ],
            "edges": [list(e) for e in self._edges],
            "legs": {str(lab): h for lab, h in sorted(self._legs.items())},
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "StableGraph":
        try:
            vertices = [(int(v["id"]), int(v["genus"])) for v in data["vertices"]]
            halfedges = [(int(h["id"]), int(h["vertex"])) for h in data["halfedges"]]
            edges = [(int(a), int(b)) for a, b in data["edges"]]
            legs = data.get("legs", {})
            if not isinstance(legs, dict):
                raise StructuralError("bad graph JSON: legs must be an object")
            legs = [(int(lab), int(h)) for lab, h in legs.items()]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise StructuralError(f"bad graph JSON: {exc}") from exc
        return cls(vertices, halfedges, edges, legs)

    def to_dot(self, name: str = "G") -> str:
        lines = [f'graph "{name}" {{']
        for v in sorted(self._genus):
            lines.append(f'  v{v} [label="v{v}:g{self._genus[v]}"];')
        for a, b in self._edges:
            lines.append(f"  v{self._hvertex[a]} -- v{self._hvertex[b]};")
        for lab, h in sorted(self._legs.items()):
            lines.append(f'  leg_{lab} [shape=none, label=""];')
            lines.append(f'  v{self._hvertex[h]} -- leg_{lab} [label="{lab}"];')
        for i, h in enumerate(sorted(self._branch)):
            lines.append(f"  bp_{i} [shape=point];")
            lines.append(f"  v{self._hvertex[h]} -- bp_{i};")
        lines.append("}")
        return "\n".join(lines)


class _RawGraph(StableGraph):
    """A graph built by ``StableGraph.from_raw``: it starts with only
    ``_edges``, ``_raw`` and ``_canon`` set and fills the halfedge dicts
    from the raw when one is first read.  ``__getattr__`` sits here and not
    on ``StableGraph`` because CPython stops specializing attribute reads on
    the instances of a class that defines it."""

    __slots__ = ()

    def __getattr__(self, name):
        if name not in _VIEWS:
            raise AttributeError(name)
        for view, value in zip(_VIEWS, _raw_views(self._raw[0])):
            setattr(self, view, value)
        return getattr(self, name)
