"""Exhaustive generation of stable graph catalogs and of edge contractions.

Catalogs are generated breadth-first from the one-vertex seeds (every split
of the total genus between vertex genus and loops): splitting a vertex in
all ways adds one edge at a time, and every stable graph contracts along a
spanning tree back to such a seed, so the closure is complete.  Isomorph
rejection goes through canonical keys; a catalog stores keys and
materializes representatives on demand.  A freshly enumerated catalog also
keeps what the canonical labelling of each split child says about the
one-edge contraction that undoes the split, so degeneration walks need not
label those contractions again.
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

from .graph_core import (
    DomainError,
    Raw,
    StableGraph,
    canonicalize_raw,
    raw_from_key,
)

DEFAULT_BOUND = 8


class BoundExceededError(DomainError):
    """The requested catalog exceeds the configured complexity bound."""

    def __init__(self, genus: int, markings: int, bound: int):
        self.required_bound = 3 * genus - 3 + markings
        self.bound = bound
        super().__init__(
            f"catalog ({genus},{markings}) needs bound >= {self.required_bound}, "
            f"configured bound is {bound}"
        )


class _Steps:
    """One-edge contraction steps that enumeration read off its labellings.

    A split child C of a parent S splits S's vertex v into v and a new
    vertex w.  Labelling C gives its catalog graph T and its ``order``: T's
    position p is C's vertex order[p].  Contracting T's edge between the
    positions of v and w gives S back, and T's position p lands on S's
    position order[p], with w replaced by v.  Only rigid parents are
    recorded, because only then is that vertex map the one every
    contraction of the edge yields.

    Everything sits in flat arrays, with no object per record:
    - per catalog position, ``rigid`` (no vertex automorphisms) and
      ``head``, one plus the graph's last record (0 for none);
    - per record r, ``link[r]``, one plus the graph's record before it, and
      ``width`` bytes of ``slots`` from ``r * width``: the order, then v,
      zero-padded to the largest vertex count of the type;
    - per parent, ``firsts``, its first record, and ``parents``, its
      discovery number, which ``position`` turns into a catalog position.
      A parent's records are consecutive.
    The arrays refuse a value they cannot hold rather than wrap it, and a
    type whose graphs may have 256 vertices gets no records, since a byte
    could not hold their positions.
    """

    __slots__ = (
        "rigid", "head", "link", "slots", "width", "firsts", "parents", "position"
    )

    def __init__(self, max_vertices: int):
        self.width = 1 + max_vertices
        self.rigid = bytearray()
        self.head = array("I")
        self.link = array("I")
        self.slots = bytearray()
        self.firsts = array("I")
        self.parents = array("I")
        self.position = None

    def steps_of(self, i: int, k: int) -> dict:
        """The recorded steps of graph i, which has k vertices: edge pair
        x < y -> (catalog position of the contraction, the position there
        of each of the k positions, k - 1, True)."""
        slots, width = self.slots, self.width
        w = k - 1
        out = {}
        r = self.head[i]
        while r:
            r -= 1
            at = r * width
            order = slots[at : at + k]
            v = slots[at + k]
            x, y = order.index(v), order.index(w)
            parent = self.parents[bisect_right(self.firsts, r) - 1]
            out[(x, y) if x < y else (y, x)] = (
                self.position[parent],
                [v if p == w else p for p in order],
                w,
                True,
            )
            r = self.link[r]
        return out


@dataclass
class GraphCatalog:
    """All stable graphs of one (genus, markings) type, up to isomorphism.

    A catalog from ``enumerate_stable_graphs`` also carries the one-edge
    steps and rigidity bits its labellings gave (``_Steps``); one built by
    ``from_keys`` carries none.  Neither is part of ``==`` or ``repr``."""

    genus: int
    markings: int
    keys: list  # sorted canonical keys (bytes)
    index: dict = field(repr=False)  # key -> position
    _steps: _Steps | None = field(default=None, repr=False, compare=False)

    def known_rigid(self, i: int) -> bool:
        """True when enumeration found graph i without vertex automorphisms;
        False when it has some or the catalog was not enumerated here."""
        return self._steps is not None and self._steps.rigid[i] == 1

    @classmethod
    def from_keys(cls, genus: int, markings: int, keys) -> "GraphCatalog":
        ks = sorted(keys)
        return cls(genus, markings, ks, {k: i for i, k in enumerate(ks)})

    def __len__(self) -> int:
        return len(self.keys)

    def __contains__(self, key) -> bool:
        return key in self.index

    def graph(self, i: int) -> StableGraph:
        """The representative of key i (``StableGraph.from_canonical_key``):
        it keeps the parsed key as its raw, which its raw-level operations
        read; its halfedge dicts are built on first use."""
        return StableGraph.from_canonical_key(self.keys[i])

    def graphs(self) -> Iterator[StableGraph]:
        """The representatives in key order, each as ``graph`` gives it."""
        for key in self.keys:
            yield StableGraph.from_canonical_key(key)


def check_type(genus: int, markings: int) -> None:
    if genus < 0 or markings < 0:
        raise DomainError("genus and markings must be nonnegative")
    if 2 * genus - 2 + markings <= 0:
        raise DomainError(
            f"({genus},{markings}) violates 2g-2+n > 0; no stable graphs exist"
        )


def _seed_raws(genus: int, markings: int) -> list:
    seeds = []
    legs = tuple((i, 0) for i in range(1, markings + 1))
    for h in range(genus + 1):
        loops = genus - h
        if 2 * h - 2 + 2 * loops + markings > 0:
            seeds.append(((h,), legs, (0,), ((0, 0),) * loops))
    return seeds


def _split_children(raw: Raw) -> Iterator[tuple]:
    """All one-edge refinements of ``raw`` obtained by splitting a vertex,
    as (split vertex v, child raw).  The child adds the vertex w = len(genera)
    and the edge (v, w); contracting that edge gives ``raw`` back, with w
    merged into v."""
    genera, legs, branch, edges = raw
    k = len(genera)
    items_at = [[] for _ in range(k)]  # ("e", edge idx, side) or ("l", label)
    for idx, (u, v) in enumerate(edges):
        items_at[u].append(("e", idx, 0))
        if v == u:
            items_at[u].append(("e", idx, 1))
        else:
            items_at[v].append(("e", idx, 1))
    for lab, v in legs:
        items_at[v].append(("l", lab, 0))

    w = k  # the new vertex
    new_branch = branch + (0,)
    for v in range(k):
        items = items_at[v]
        gv = genera[v]
        if items:
            movable = items[1:]  # items[0] stays with v, kills the side swap
            subsets = itertools.chain.from_iterable(
                itertools.combinations(movable, r) for r in range(len(movable) + 1)
            )
            gsplits = [(gv - g2, g2) for g2 in range(gv + 1)]
        else:
            subsets = [()]
            gsplits = [(gv - g2, g2) for g2 in range(gv + 1) if gv - g2 <= g2]
        subsets = list(subsets)
        for g1, g2 in gsplits:
            new_genera = list(genera)
            new_genera[v] = g1
            new_genera.append(g2)
            new_genera = tuple(new_genera)
            for moved in subsets:
                val1 = len(items) - len(moved) + 1
                val2 = len(moved) + 1
                if 2 * g1 - 2 + val1 <= 0 or 2 * g2 - 2 + val2 <= 0:
                    continue
                new_edges = list(edges)
                new_legs = dict(legs)
                touched = []
                for kind, a, b in moved:
                    if kind == "e":
                        x, y = new_edges[a]
                        new_edges[a] = (w, y) if b == 0 else (x, w)
                        touched.append(a)
                    else:
                        new_legs[a] = w
                for a in touched:
                    x, y = new_edges[a]
                    if x > y:
                        new_edges[a] = (y, x)
                new_edges.append((v, w))
                new_edges.sort()
                # legs come sorted by label and keep their order in the dict
                yield v, (
                    new_genera, tuple(new_legs.items()), new_branch, tuple(new_edges)
                )


def enumerate_stable_graphs(
    genus: int, markings: int, bound: int = DEFAULT_BOUND
) -> GraphCatalog:
    """Complete duplicate-free catalog of stable (genus, markings) graphs.

    The catalog carries the rigidity of every key and the one-edge step of
    every split child of a rigid parent (see ``_Steps``)."""
    check_type(genus, markings)
    max_edges = 3 * genus - 3 + markings
    if max_edges > bound:
        raise BoundExceededError(genus, markings, bound)

    # every vertex of a stable graph has 2g_v - 2 + n_v >= 1
    max_vertices = max(1, 2 * genus - 2 + markings)
    steps = _Steps(max_vertices)
    rigid, head, link, slots = steps.rigid, steps.head, steps.link, steps.slots
    narrow = max_vertices < 256  # a byte holds every position
    # what follows a child's order in its record, by the parent's vertex
    # count k: the split vertex, then padding up to the width (a parent of
    # max_vertices vertices has no children)
    tails_at = [
        [bytes((v,)) + bytes(max(0, max_vertices - k - 1)) for v in range(k)]
        for k in range(max_vertices + 1)
    ] if narrow else []
    found: dict = {}  # key -> discovery number
    # keys to split; each is parsed when its turn comes, since a level of
    # parsed raws takes far more memory than its keys
    frontier: list = []
    for raw in _seed_raws(genus, markings):
        res = canonicalize_raw(raw)
        if res.key not in found:
            found[res.key] = len(found)
            rigid.append(res.vertex_aut_order == 1)
            head.append(0)
            frontier.append(res.key)
    while frontier:
        nxt = []
        for parent_key in frontier:
            raw = raw_from_key(parent_key)
            if len(raw[3]) >= max_edges:
                continue
            s = found[parent_key]
            last = len(raw[3]) + 1 >= max_edges  # children are not split again
            record = narrow and rigid[s]
            if record:
                steps.firsts.append(len(link))
                steps.parents.append(s)
                tails = tails_at[len(raw[0])]
            for v, child in _split_children(raw):
                res = canonicalize_raw(child)
                key = res.key
                t = found.get(key)
                if t is None:
                    t = found[key] = len(found)
                    rigid.append(res.vertex_aut_order == 1)
                    head.append(0)
                    if not last:
                        nxt.append(key)
                if record:
                    link.append(head[t])
                    head[t] = len(link)
                    slots += bytes(res.order)
                    slots += tails[v]
        frontier = nxt
    # rigid and head were filled by discovery number; the catalog keeps
    # them by position, the order of the sorted keys
    catalog = GraphCatalog.from_keys(genus, markings, found)
    index = catalog.index
    steps.position = array("I", [index[key] for key in found])
    del found
    steps.rigid = bytearray(len(rigid))
    steps.head = array("I", bytes(len(head) * head.itemsize))
    for d, i in enumerate(steps.position):
        steps.rigid[i] = rigid[d]
        steps.head[i] = head[d]
    catalog._steps = steps
    return catalog


# ---------------------------------------------------------------------------
# Edge contraction.
# ---------------------------------------------------------------------------

def raw_contract(raw: Raw, edge_indices) -> tuple:
    """Contract the given edges of a raw graph.

    Returns (child raw, classes) where classes[i] is the sorted tuple of
    parent vertices merged into child vertex i.  Non-loop edges merge their
    endpoints and genera add; an edge internal to an already-merged class
    (loops included) is deleted and bumps the class genus by one, so the
    total genus is preserved.
    """
    contracted = set(edge_indices)
    if len(contracted) == 1:
        return _contract_one(raw, next(iter(contracted)))
    genera, legs, branch, edges = raw
    k = len(genera)
    # its own union-find, not connected_components: the child's vertex
    # order follows the sorted roots, and the pinned witness maps with it
    parent = list(range(k))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for idx in contracted:
        u, v = edges[idx]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    reps = sorted({find(v) for v in range(k)})
    new_id = {r: i for i, r in enumerate(reps)}
    classes = [[] for _ in reps]
    for v in range(k):
        classes[new_id[find(v)]].append(v)
    new_genera = [0] * len(reps)
    for i, cls in enumerate(classes):
        new_genera[i] = sum(genera[v] for v in cls)
    new_edges = []
    for idx, (u, v) in enumerate(edges):
        if idx not in contracted:
            a, b = new_id[find(u)], new_id[find(v)]
            new_edges.append((a, b) if a <= b else (b, a))
    # contracted edges beyond a spanning tree of their class are cycles and
    # bump the class genus, conserving the total
    if len(contracted) > k - len(reps):
        per_class = Counter()
        for idx in contracted:
            per_class[new_id[find(edges[idx][0])]] += 1
        for i, cls in enumerate(classes):
            if per_class[i]:
                new_genera[i] += per_class[i] - (len(cls) - 1)
    new_branch = [0] * len(reps)
    for v in range(k):
        new_branch[new_id[find(v)]] += branch[v]
    new_legs = tuple(sorted((lab, new_id[find(v)]) for lab, v in legs))
    child = (
        tuple(new_genera),
        new_legs,
        tuple(new_branch),
        tuple(sorted(new_edges)),
    )
    return child, tuple(tuple(c) for c in classes)


def _contract_one(raw: Raw, idx: int) -> tuple:
    """``raw_contract`` for a single edge, with the same output."""
    genera, legs, branch, edges = raw
    k = len(genera)
    u, v = edges[idx]
    new_genera = list(genera)
    new_branch = list(branch)
    if u == v:
        # a loop: deleted, its vertex gains one genus
        nid = range(k)
        new_genera[u] += 1
        classes = tuple((x,) for x in range(k))
    else:
        # u joins v's class; survivors keep their order
        nid = [x if x < u else x - 1 for x in range(k)]
        nid[u] = nid[v]
        new_genera[v] += genera[u]
        new_branch[v] += branch[u]
        del new_genera[u], new_branch[u]
        classes = [(x,) for x in range(k) if x != u]
        classes[nid[v]] = (u, v) if u < v else (v, u)
        classes = tuple(classes)
    new_edges = []
    for j, (a, b) in enumerate(edges):
        if j != idx:
            a, b = nid[a], nid[b]
            new_edges.append((a, b) if a <= b else (b, a))
    new_edges.sort()
    child = (
        tuple(new_genera),
        tuple(sorted((lab, nid[w]) for lab, w in legs)),
        tuple(new_branch),
        tuple(new_edges),
    )
    return child, classes


# ---------------------------------------------------------------------------
# Degenerations.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Degeneration:
    """A contraction witness: contracting ``contracted_indices`` in the
    catalog representative of ``target`` yields a graph isomorphic to the
    representative of ``source``.  ``vertex_map`` sends each source vertex
    (canonical position) to the set of target vertices merging onto it."""

    source: bytes
    target: bytes
    contracted_indices: frozenset
    vertex_map: tuple  # tuple of (source vertex, frozenset of target vertices)

    def mapping(self) -> dict:
        return {v: m for v, m in self.vertex_map}

    def contracted_edge_ids(self) -> frozenset:
        # representative halfedge ids follow the build numbering: edge i
        # carries halfedges (2i, 2i+1)
        return frozenset((2 * i, 2 * i + 1) for i in self.contracted_indices)


def iter_degenerations(
    catalog: GraphCatalog, subsets: str = "all"
) -> Iterator[Degeneration]:
    """Contraction records for the catalog.

    ``subsets="all"`` walks every edge subset of every graph, including the
    empty one (the identity degeneration), by size and in
    ``itertools.combinations`` order within a size.  ``subsets="single"``
    walks only one-edge contractions; every multi-edge contraction factors
    through those, which is enough for closure checks.

    The records come from ``_walk``, which keeps each vertex map as a
    position list; only here does it become a ``Degeneration``.
    """
    keys = catalog.keys
    for t, _, records in _walk(catalog, subsets):
        for i, chosen, where, k1 in records:
            members = [[] for _ in range(k1)]
            for v, p in enumerate(where):
                members[p].append(v)
            vmap = tuple((p, frozenset(m)) for p, m in enumerate(members))
            yield Degeneration(keys[i], keys[t], frozenset(chosen), vmap)


def _walk(catalog: GraphCatalog, subsets: str) -> Iterator[tuple]:
    """The degeneration walk: for each catalog graph in key order, (its
    index t, its raw, its records).  A record is (source index, contracted
    edge indices, source position of each vertex of t, source vertex
    count).  The raw is the one parse of t's key that callers need; the
    records of t are produced lazily, so a contraction that leaves the
    catalog stops the walk at that record.

    Both modes walk one-edge steps.  A step contracts the edge x <= y of
    catalog graph i0 and gives graph i1, with the position in i1 of each
    position of i0.  A step is read from the catalog's enumeration records
    (``_Steps``) when there is one; records exist only where i1 is rigid,
    so their position map is the only one, that of the direct contraction.
    Loops and steps without a record are contracted and labelled.  Single
    mode takes the steps of each target once, and reuses the last one for
    a parallel copy of its edge.  All mode memoizes steps by (i0, x, y),
    seeding the memo of i0 with its records on first use, and composes the
    record of S = S' + (last,) from the record of S' and the step along the
    image of edge ``last``.  When the new source is rigid its vertex map is
    unique, so the composed record equals the direct one; otherwise the
    record is contracted from the target directly, so the witness among
    automorphic vertex maps does not depend on the walk.  A rigid target's
    identity record needs no labelling: the only map of its canonical raw
    onto itself is the identity.
    """
    if subsets not in ("all", "single"):
        raise ValueError("subsets must be 'all' or 'single'")
    keys = catalog.keys
    index = catalog.index
    recorded = catalog._steps

    def contract(raw, chosen):
        """``raw`` contracted along ``chosen`` and labelled: (catalog index,
        the position there of each vertex of ``raw``, vertex count, whether
        the entry is rigid)."""
        child, classes = raw_contract(raw, chosen)
        res = canonicalize_raw(child)
        i = index.get(res.key)
        if i is None:
            raise DomainError("contraction left the catalog; it is incomplete")
        where = [0] * len(raw[0])
        for pos, orig in enumerate(res.order):
            for v in classes[orig]:
                where[v] = pos
        return i, where, len(res.order), res.vertex_aut_order == 1

    def recorded_steps(i, k):
        return {} if recorded is None else recorded.steps_of(i, k)

    def single(t, raw):
        edges = raw[3]
        by_pair = recorded_steps(t, len(raw[0]))
        for e, pair in enumerate(edges):
            # a parallel copy contracts to the same graph and classes
            if not e or pair != edges[e - 1]:
                i, where, k1, _ = by_pair.get(pair) or contract(raw, (e,))
            yield i, (e,), where, k1

    # source index -> {(x, y): step}, seeded with the source's records
    steps: dict = {}

    def every(t, raw):
        edges = raw[3]
        n_edges = len(edges)
        k = len(raw[0])
        if catalog.known_rigid(t):
            i, where = t, list(range(k))
        else:
            i, where, _, _ = contract(raw, ())
        yield i, (), where, k
        # edge subset -> (source index, its vertex count, source position of
        # each target vertex)
        level = {(): (i, k, where)}
        for r in range(1, n_edges + 1):
            below = level
            level = {}
            for chosen in itertools.combinations(range(n_edges), r):
                i0, k0, where0 = below[chosen[:-1]]
                a, b = edges[chosen[-1]]
                x, y = where0[a], where0[b]
                if x > y:
                    x, y = y, x
                by_pair = steps.get(i0)
                if by_pair is None:
                    by_pair = steps[i0] = recorded_steps(i0, k0)
                found = by_pair.get((x, y))
                if found is None:
                    raw0 = raw if i0 == t else raw_from_key(keys[i0])
                    found = by_pair[x, y] = contract(raw0, (raw0[3].index((x, y)),))
                i1, image, k1, rigid = found
                if rigid:
                    where = [image[p] for p in where0]
                else:
                    where = contract(raw, chosen)[1]
                if r < n_edges:
                    level[chosen] = (i1, k1, where)
                yield i1, chosen, where, k1

    records = single if subsets == "single" else every
    for t, key in enumerate(keys):
        raw = raw_from_key(key)
        yield t, raw, records(t, raw)
