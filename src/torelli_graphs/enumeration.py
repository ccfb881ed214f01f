"""Exhaustive generation of stable graph catalogs and of edge contractions.

Catalogs are generated breadth-first from the one-vertex seeds (every split
of the total genus between vertex genus and loops): splitting a vertex in
all ways adds one edge at a time, and every stable graph contracts along a
spanning tree back to such a seed, so the closure is complete.  Isomorph
rejection goes through canonical keys; a catalog stores keys only and
materializes representatives on demand.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

from .graph_core import (
    DomainError,
    Raw,
    StableGraph,
    canonicalize_raw,
    raw_canonical_key,
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


@dataclass
class GraphCatalog:
    """All stable graphs of one (genus, markings) type, up to isomorphism."""

    genus: int
    markings: int
    keys: list  # sorted canonical keys (bytes)
    index: dict = field(repr=False)  # key -> position

    @classmethod
    def from_keys(cls, genus: int, markings: int, keys) -> "GraphCatalog":
        ks = sorted(keys)
        return cls(genus, markings, ks, {k: i for i, k in enumerate(ks)})

    def __len__(self) -> int:
        return len(self.keys)

    def __contains__(self, key) -> bool:
        return key in self.index

    def graph(self, i: int) -> StableGraph:
        return StableGraph.from_canonical_key(self.keys[i])

    def graphs(self) -> Iterator[StableGraph]:
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


def _split_children(raw: Raw) -> Iterator[Raw]:
    """All one-edge refinements of ``raw`` obtained by splitting a vertex."""
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
                yield (new_genera, tuple(new_legs.items()), new_branch, tuple(new_edges))


def enumerate_stable_graphs(
    genus: int, markings: int, bound: int = DEFAULT_BOUND
) -> GraphCatalog:
    """Complete duplicate-free catalog of stable (genus, markings) graphs."""
    check_type(genus, markings)
    max_edges = 3 * genus - 3 + markings
    if max_edges > bound:
        raise BoundExceededError(genus, markings, bound)

    seen: set = set()
    frontier: list = []
    for raw in _seed_raws(genus, markings):
        key = raw_canonical_key(raw)
        if key not in seen:
            seen.add(key)
            frontier.append(raw)
    while frontier:
        nxt = []
        for raw in frontier:
            if len(raw[3]) >= max_edges:
                continue
            last = len(raw[3]) + 1 >= max_edges  # children are not split again
            for child in _split_children(raw):
                key = raw_canonical_key(child)
                if key not in seen:
                    seen.add(key)
                    if not last:
                        nxt.append(raw_from_key(key))
        frontier = nxt
    return GraphCatalog.from_keys(genus, markings, seen)


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
    ``itertools.combinations`` order within a size.  The record of
    S = S' + (last,) is composed from the record of S' and one contraction
    of its source along the image of edge ``last``; those one-edge steps are
    memoized per source and position pair.  When the new source is rigid
    its vertex map is unique, so the composed record equals the direct one;
    otherwise the record is contracted from the target directly, so the
    witness among automorphic vertex maps does not depend on the walk.
    ``subsets="single"`` walks only one-edge
    contractions; every multi-edge contraction factors through those, which
    is enough for closure checks.
    """
    if subsets not in ("all", "single"):
        raise ValueError("subsets must be 'all' or 'single'")
    keys = catalog.keys
    index = catalog.index

    def contract(raw, chosen):
        """Catalog index of ``raw`` contracted along ``chosen``, the vertex
        map onto that entry, and whether the entry is rigid."""
        child, classes = raw_contract(raw, chosen)
        res = canonicalize_raw(child)
        i = index.get(res.key)
        if i is None:
            raise DomainError("contraction left the catalog; it is incomplete")
        vmap = tuple(
            (pos, frozenset(classes[orig])) for pos, orig in enumerate(res.order)
        )
        return i, vmap, res.vertex_aut_order == 1

    def position_of(vmap, k):
        where = [0] * k
        for pos, merged in vmap:
            for v in merged:
                where[v] = pos
        return where

    if subsets == "single":
        for target_key in keys:
            raw = raw_from_key(target_key)
            edges = raw[3]
            for e in range(len(edges)):
                # a parallel copy contracts to the same graph and classes
                if not e or edges[e] != edges[e - 1]:
                    i, vmap, _ = contract(raw, (e,))
                yield Degeneration(keys[i], target_key, frozenset((e,)), vmap)
        return

    # (source index, x, y) -> (index of the source contracted along an edge
    # x <= y, new position of each position, its vertex count, rigid)
    steps: dict = {}
    for target_key in keys:
        raw = raw_from_key(target_key)
        edges = raw[3]
        n_edges = len(edges)
        k = len(raw[0])
        i, vmap, _ = contract(raw, ())
        yield Degeneration(keys[i], target_key, frozenset(), vmap)
        # edge subset -> (source index, source position of each target vertex)
        level = {(): (i, position_of(vmap, k))}
        for r in range(1, n_edges + 1):
            below = level
            level = {}
            for chosen in itertools.combinations(range(n_edges), r):
                i0, where0 = below[chosen[:-1]]
                a, b = edges[chosen[-1]]
                x, y = where0[a], where0[b]
                step_key = (i0, x, y) if x <= y else (i0, y, x)
                step = steps.get(step_key)
                if step is None:
                    kraw = raw_from_key(keys[i0])
                    j = kraw[3].index(step_key[1:])
                    i1, kmap, rigid = contract(kraw, (j,))
                    step = steps[step_key] = (
                        i1, position_of(kmap, len(kraw[0])), len(kmap), rigid,
                    )
                i1, image, k1, rigid = step
                if rigid:
                    where = [image[p] for p in where0]
                    members = [[] for _ in range(k1)]
                    for v, p in enumerate(where):
                        members[p].append(v)
                    vmap = tuple(
                        (pos, frozenset(m)) for pos, m in enumerate(members)
                    )
                else:
                    _, vmap, _ = contract(raw, chosen)
                    where = position_of(vmap, k)
                if r < n_edges:
                    level[chosen] = (i1, where)
                yield Degeneration(keys[i1], target_key, frozenset(chosen), vmap)
