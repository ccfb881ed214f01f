"""Axis-like combinatorial models: contraction of assigned subgraphs into
hyperedge singularities, branch classification, and the fiber of stable
models over an axis graph.

An axis graph is a set of components (the surviving vertices, with genus
and legs) glued along singular points.  Each singular point is a hyperedge
over branch slots on components, with a recorded type (genus, multiplicity);
nodes are exactly the (0, 2) hyperedges.  Slots keep the halfedge ids of
the graph they came from.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .graph_core import (
    MAX_GENUS,
    DomainError,
    StableGraph,
    StructuralError,
    canonicalize_raw,
    connected_components,
)
from .assignment import GENERAL, SEPARATING, branch_profile, profile_category

NODE = "node"


@dataclass(frozen=True)
class SingularPoint:
    """A hyperedge: ``slots`` are (component id, slot id) pairs; the type is
    (genus, multiplicity) with multiplicity the slot count."""

    genus: int
    slots: tuple
    absorbed_legs: tuple = ()

    @property
    def multiplicity(self) -> int:
        return len(self.slots)


def _glue(points) -> list:
    """Component pairs joining the first slot of each point to its others."""
    return [(p.slots[0][0], c) for p in points for c, _ in p.slots[1:]]


class AxisGraph:
    __slots__ = ("_components", "_legs", "_points", "_canon")

    def __init__(self, components, singular_points):
        """``components``: iterable of (id, genus, legs); ``singular_points``:
        iterable of SingularPoint or (genus, slots[, absorbed_legs])."""
        comp: dict = {}
        legs: dict = {}
        for cid, genus, comp_legs in components:
            if cid in comp:
                raise StructuralError(f"duplicate component id {cid}")
            if not 0 <= genus <= MAX_GENUS:
                raise StructuralError(f"component {cid}: genus {genus} out of range")
            comp[cid] = genus
            legs[cid] = tuple(sorted(comp_legs))
        points = []
        for p in singular_points:
            if not isinstance(p, SingularPoint):
                p = SingularPoint(p[0], tuple(p[1]), tuple(p[2]) if len(p) > 2 else ())
            points.append(
                SingularPoint(p.genus, tuple(sorted(p.slots)), tuple(sorted(p.absorbed_legs)))
            )
        seen_slots = set()
        for p in points:
            if p.multiplicity < 2:
                raise StructuralError("singular point needs at least two slots")
            if not 0 <= p.genus <= MAX_GENUS:
                raise StructuralError(f"singular point genus {p.genus} out of range")
            for cid, sid in p.slots:
                if cid not in comp:
                    raise StructuralError(f"slot on unknown component {cid}")
                if (cid, sid) in seen_slots:
                    raise StructuralError(f"slot ({cid},{sid}) used twice")
                seen_slots.add((cid, sid))
        all_legs = [l for ls in legs.values() for l in ls]
        all_legs += [l for p in points for l in p.absorbed_legs]
        if len(set(all_legs)) != len(all_legs):
            raise StructuralError("duplicate leg label")
        self._components = comp
        self._legs = legs
        self._points = tuple(points)
        self._canon = None
        if len(connected_components(comp, _glue(points))) != 1:
            raise StructuralError("axis graph is not connected")

    # -- accessors ----------------------------------------------------------

    def components(self) -> list:
        return sorted(self._components)

    def component_genus(self, cid) -> int:
        return self._components[cid]

    def component_legs(self, cid) -> tuple:
        return self._legs[cid]

    def singular_points(self) -> tuple:
        return self._points

    def absorbed_legs(self) -> tuple:
        return tuple(l for p in self._points for l in p.absorbed_legs)

    def __repr__(self):
        return (
            f"AxisGraph(g={self.genus()}, components={len(self._components)}, "
            f"points={len(self._points)})"
        )

    # -- invariants ----------------------------------------------------------

    def genus(self) -> int:
        """Arithmetic genus of the star expansion (a vertex of the point's
        genus at every point, joined to each of its slots): the component
        genera minus their number plus one, plus genus and multiplicity
        minus one per point."""
        return (
            sum(self._components.values()) - len(self._components) + 1
            + sum(p.genus + len(p.slots) - 1 for p in self._points)
        )

    def canonical_key(self) -> bytes:
        """Key of the star expansion, point vertices tagged apart from the
        components: components in id order, then the points in order."""
        if self._canon is None:
            cids = sorted(self._components)
            idx = {c: i for i, c in enumerate(cids)}
            points = self._points
            genera = tuple(self._components[c] for c in cids) + tuple(p.genus for p in points)
            legs = [(lab, idx[c]) for c in cids for lab in self._legs[c]]
            edges = []
            for i, p in enumerate(points, len(cids)):
                legs += [(lab, i) for lab in p.absorbed_legs]
                edges += [(idx[c], i) for c, _ in p.slots]
            raw = (genera, tuple(sorted(legs)), (0,) * len(genera), tuple(sorted(edges)))
            tags = (0,) * len(cids) + (1,) * len(points)
            self._canon = b"AX1;" + canonicalize_raw(raw, tags=tags).key
        return self._canon

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "components": [
                {
                    "id": cid,
                    "genus": self._components[cid],
                    "legs": list(self._legs[cid]),
                }
                for cid in sorted(self._components)
            ],
            "singular_points": [
                {
                    "type": [p.genus, p.multiplicity],
                    "slots": [list(s) for s in p.slots],
                    **({"absorbed_legs": list(p.absorbed_legs)} if p.absorbed_legs else {}),
                }
                for p in self._points
            ],
            "genus": self.genus(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "AxisGraph":
        try:
            comps = [
                (int(c["id"]), int(c["genus"]), [int(l) for l in c.get("legs", [])])
                for c in data["components"]
            ]
            pts = []
            for p in data["singular_points"]:
                g, m = (int(x) for x in p["type"])
                slots = tuple((int(a), int(b)) for a, b in p["slots"])
                if m != len(slots):
                    raise StructuralError(
                        f"point lists {len(slots)} slots but type multiplicity {m}"
                    )
                pts.append(
                    SingularPoint(
                        g, slots, tuple(int(l) for l in p.get("absorbed_legs", []))
                    )
                )
            recorded = int(data["genus"]) if "genus" in data else None
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise StructuralError(f"bad axis JSON: {exc}") from exc
        axis = cls(comps, pts)
        if recorded is not None and recorded != axis.genus():
            raise StructuralError(
                f"recorded genus {recorded} != computed {axis.genus()}"
            )
        return axis


# ---------------------------------------------------------------------------
# Contraction of an assigned subgraph.
# ---------------------------------------------------------------------------

def z_contract(graph: StableGraph, chosen) -> AxisGraph:
    """Contract each connected component of the chosen vertex subset into a
    singular point of type (component genus, attaching-edge count).

    Surviving vertices become components, surviving edges become nodes, and
    each attaching edge leaves a branch slot named by its surviving halfedge.
    Legs on contracted vertices are absorbed into the point (flagging the
    result as invalid axis-like data).  The total genus is preserved.
    """
    (genera, legs, branch, edges), vids, halves = graph._raw_data()
    chosen = frozenset(chosen)
    vs = set(vids)
    if not chosen <= vs:
        raise DomainError("chosen vertices not in graph")
    if chosen == vs:
        raise DomainError("chosen subset must be proper")
    if not graph.is_stable():
        raise DomainError("input graph must be stable")
    if any(branch):
        raise DomainError("input graph must not carry branch points")

    comps = graph.induced_components(chosen)
    index = {v: i for i, v in enumerate(vids)}
    point_of = [-1] * len(vids)  # per raw index, the point it goes to
    for j, comp in enumerate(comps):
        for v in comp:
            point_of[index[v]] = j
    internal = [0] * len(comps)
    slots = [[] for _ in comps]
    absorbed = [[] for _ in comps]
    leg_at = [[] for _ in vids]
    for lab, u in legs:
        if point_of[u] < 0:
            leg_at[u].append(lab)
        else:
            absorbed[point_of[u]].append(lab)
    nodes = []
    for (u, w), (hu, hw) in zip(edges, halves):
        pu, pw = point_of[u], point_of[w]
        if pu >= 0 and pu == pw:
            internal[pu] += 1
        elif pu >= 0:
            slots[pu].append((vids[w], hw))
        elif pw >= 0:
            slots[pw].append((vids[u], hu))
        else:
            nodes.append((min(hu, hw), ((vids[u], hu), (vids[w], hw))))

    points = []
    for j, comp in enumerate(comps):
        g_j = sum(genera[index[v]] for v in comp) + internal[j] - len(comp) + 1
        m_j = len(slots[j])
        n_j = len(absorbed[j])
        if m_j < 2:
            raise DomainError(
                f"component {sorted(comp)} attaches by {m_j} < 2 edges; its "
                f"contraction is not a representable singular point"
            )
        if 2 * g_j - 2 + m_j + n_j <= 0:
            raise DomainError(
                f"component {sorted(comp)} is not stable as a "
                f"({m_j}+{n_j})-pointed genus-{g_j} graph"
            )
        points.append(SingularPoint(g_j, tuple(slots[j]), tuple(absorbed[j])))
    # nodes in the order of graph.edges(), by their smaller halfedge
    nodes.sort()
    points += [SingularPoint(0, ends, ()) for _, ends in nodes]
    components = [
        (v, genera[i], tuple(leg_at[i])) for i, v in enumerate(vids) if point_of[i] < 0
    ]
    return AxisGraph(components, points)


# ---------------------------------------------------------------------------
# Branch classification.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AxisPointClass:
    point_index: int
    multiplicity: int
    genus: int
    category: str
    branch_profile: tuple  # slots per component of the normalization, descending


@dataclass(frozen=True)
class AxisClassification:
    points: tuple
    is_axis_like: bool
    is_separating_axis_like: bool
    is_quasi_separating_axis_like: bool


def classify_axis_points(axis: AxisGraph) -> AxisClassification:
    """Classify every singular point by its branch profile.

    The profile of a point counts its slots on each connected component of
    the normalization at that point alone (all other points stay glued).
    Separating means one slot per component; quasi-separating allows one
    component with two or three slots.
    """
    cids = axis.components()
    points = axis.singular_points()
    records = []
    for i, p in enumerate(points):
        others = _glue(points[:i] + points[i + 1:])
        profile = branch_profile(cids, others, [c for c, _ in p.slots])
        category = NODE if p.multiplicity == 2 else profile_category(profile)
        records.append(
            AxisPointClass(i, p.multiplicity, p.genus, category, profile)
        )
    axis_like = all(p.genus == 0 for p in points) and not axis.absorbed_legs()
    seps = all(r.category in (NODE, SEPARATING) for r in records)
    qseps = all(r.category != GENERAL for r in records)
    return AxisClassification(
        points=tuple(records),
        is_axis_like=axis_like,
        is_separating_axis_like=axis_like and seps,
        is_quasi_separating_axis_like=axis_like and qseps,
    )


# ---------------------------------------------------------------------------
# Stable genus-zero trees with labelled leaves, and fiber strata.
# ---------------------------------------------------------------------------

def _tree_raw(tree: tuple, m: int):
    """The raw graph of a flat tree (see ``_tree_layer``)."""
    nv = (len(tree) - m) // 2 + 1
    ends = tree[m:]
    edges = sorted(
        (u, w) if u <= w else (w, u) for u, w in zip(ends[::2], ends[1::2])
    )
    legs = tuple(zip(range(1, m + 1), tree[:m]))
    return ((0,) * nv, legs, (0,) * nv, tuple(edges))


@lru_cache(maxsize=None)
def _layers(m: int) -> tuple:
    """The (vertex count nv, length) of each ``_tree_layer(m, nv)``, in
    the order of their keys, without building any tree.  A layer has one
    candidate per vertex of each tree of m - 1 leaves and nv vertices, and
    one per edge or leg (nv - 2 + m - 1 of them) of each tree of m - 1
    leaves and nv - 1 vertices.  Every key starts with
    ``TG1;k=<vertex count>;``, so the layers go in the byte order of
    ``b"%d;" % nv``: ascending up to m = 11, and from m = 12 on ``k=10;``
    sorts before ``k=1;``."""
    if m < 3:
        raise DomainError("stable genus-zero trees need at least 3 leaves")
    if m == 3:
        return ((1, 1),)
    prev = dict(_layers(m - 1))
    sizes = {
        nv: nv * prev.get(nv, 0) + (nv - 3 + m) * prev.get(nv - 1, 0)
        for nv in range(1, m - 1)
    }
    return tuple(sorted(sizes.items(), key=lambda item: b"%d;" % item[0]))


@lru_cache(maxsize=None)
def _tree_layer(m: int, nv: int) -> tuple:
    """The trees of ``leaf_labeled_trees(m)`` with ``nv`` vertices, in
    canonical key order, each flattened to one int tuple: the vertex of
    each leaf 1..m, then the two end vertices of each edge.  Vertices are
    0..nv - 1; the graph is ``StableGraph.build`` of those edges and
    leaves.

    The candidates insert leaf m at a vertex of each tree of
    ``_tree_layer(m - 1, nv)``, and at an edge or a leg of each tree of
    ``_tree_layer(m - 1, nv - 1)``, where it splits off the new vertex
    nv - 1 (carrying both labels at a leg).  Every tree of m leaves and
    nv vertices is exactly one candidate, so the candidates need no
    dedupe, and over all layers they number A000311(m).  Remove leaf m
    from such a tree, and smooth the vertex it leaves if that vertex has
    valence 2: this gives the one tree of m - 1 leaves it grows from, and
    the one vertex, edge or leg where m went in.  The layer below holds
    that tree once, and the site is one site of it, because a stable tree
    with labelled leaves has no automorphism but the identity: each edge
    is fixed by the split of the leaves on its two sides.
    """
    if not 1 <= nv <= m - 2:
        return ()
    if m == 3:
        return ((0, 0, 0),)
    cands = []
    for t in _tree_layer(m - 1, nv):
        legs, ends = t[: m - 1], t[m - 1:]
        cands += [legs + (v,) + ends for v in range(nv)]
    new = nv - 1
    for t in _tree_layer(m - 1, new):
        legs, ends = t[: m - 1], t[m - 1:]
        for j in range(0, len(ends), 2):
            u, w = ends[j], ends[j + 1]
            cands.append(legs + (new,) + ends[:j] + ends[j + 2:] + (u, new, new, w))
        for i, v in enumerate(legs):
            cands.append(legs[:i] + (new,) + legs[i + 1:] + (new,) + ends + (v, new))
    return tuple(
        cand for _, cand in sorted((canonicalize_raw(_tree_raw(c, m)).key, c) for c in cands)
    )


def _tree_at(m: int, pick: int) -> tuple:
    """Tree ``pick`` of ``leaf_labeled_trees(m)`` as a flat tuple (see
    ``_tree_layer``).  Only the layer that holds it is built."""
    for nv, size in _layers(m):
        if pick < size:
            return _tree_layer(m, nv)[pick]
        pick -= size


@lru_cache(maxsize=None)
def leaf_labeled_trees(m: int) -> tuple:
    """All stable genus-zero graphs with leaves 1..m, up to isomorphism, in
    canonical key order: the layers of ``_tree_layer`` in the order of
    ``_layers`` (by vertex count, with ``k=10;`` before ``k=1;`` from
    m = 12 on).

    Generated by inserting leaf ``m`` at every vertex, edge, and leg of the
    (m-1)-leaf trees; insertion at a leg splits off a new vertex carrying
    both labels.  Each class arises from exactly one insertion (see
    ``_tree_layer``), with vertices numbered 0.. and halfedges as
    ``StableGraph.build`` numbers them.
    """
    out = []
    for nv, _ in _layers(m):
        for tree in _tree_layer(m, nv):
            ends = tree[m:]
            out.append(StableGraph.build(
                {v: 0 for v in range(nv)},
                zip(ends[::2], ends[1::2]),
                dict(zip(range(1, m + 1), tree[:m])),
            ))
    return tuple(out)


@dataclass(frozen=True)
class FiberStrata:
    """All stable graphs contracting to a given axis graph.

    One entry per choice of a labelled tree at every multiplicity >= 3
    point; entries with isomorphic total graphs are distinct strata when
    their slot labellings differ.
    """

    axis_key: bytes
    point_counts: tuple  # (point index, multiplicity, stratum count)
    total: int
    moduli_dimension: int
    graphs: tuple
    inserted_vertices: tuple  # frozenset of inserted vertex ids per graph
    choices: tuple


def _fiber_menus(axis: AxisGraph) -> tuple:
    """The points of multiplicity >= 3 as (index, point) pairs, and the
    length of the labelled-tree menu of each, counted by ``_layers``."""
    for p in axis.singular_points():
        if p.genus != 0:
            raise DomainError("fiber enumeration needs all points of genus zero")
        if p.absorbed_legs:
            raise DomainError("singular point carries marked points")
    big = [
        (i, p) for i, p in enumerate(axis.singular_points()) if p.multiplicity >= 3
    ]
    return big, [sum(size for _, size in _layers(p.multiplicity)) for _, p in big]


class _StrataBase(NamedTuple):
    """What every stratum of a fiber shares: the points of multiplicity
    >= 3 and their menu lengths (``_fiber_menus``), the components' genera,
    the halfedges of slots and legs with their vertices, the node edges,
    the leg map, the first tree halfedge id, the first inserted vertex id,
    and the slot halfedges of each menu point (leaf i is glued to slot i;
    slots are sorted)."""

    big: list
    sizes: list
    genus: dict
    hvertex: dict
    epairs: list
    legs: dict
    first_tree_hid: int
    fresh_start: int
    leaf_slots: list


def _strata_base(axis: AxisGraph) -> _StrataBase:
    """The per-axis half of ``_raw_strata``."""
    big, sizes = _fiber_menus(axis)
    genus = {cid: axis.component_genus(cid) for cid in axis.components()}
    h = 10_000_000
    hvertex = {}
    slot_hid = {}
    for p in axis.singular_points():
        for slot in p.slots:
            hvertex[h] = slot[0]
            slot_hid[slot] = h
            h += 1
    legs = {}
    for cid in axis.components():
        for lab in axis.component_legs(cid):
            hvertex[h] = cid
            legs[lab] = h
            h += 1
    epairs = [
        (slot_hid[p.slots[0]], slot_hid[p.slots[1]])
        for p in axis.singular_points() if p.multiplicity == 2
    ]
    leaf_slots = [[slot_hid[slot] for slot in p.slots] for _, p in big]
    return _StrataBase(
        big, sizes, genus, hvertex, epairs, legs, h, max(genus) + 1, leaf_slots
    )


def _build_stratum(base: _StrataBase, combo) -> tuple:
    """The stratum of one choice of tree per menu point, as
    ((vertex -> genus, halfedge -> vertex, edge pairs, leg -> halfedge),
    inserted vertex ids)."""
    s_genus = dict(base.genus)
    s_hvertex = dict(base.hvertex)
    s_epairs = list(base.epairs)
    h = base.first_tree_hid
    v0 = base.fresh_start
    for pick, slots in zip(combo, base.leaf_slots):
        m = len(slots)
        tree = _tree_at(m, pick)
        for j in range(m, len(tree), 2):
            s_hvertex[h] = v0 + tree[j]
            s_hvertex[h + 1] = v0 + tree[j + 1]
            s_epairs.append((h, h + 1))
            h += 2
        for leaf_vertex, slot_h in zip(tree, slots):
            s_hvertex[h] = v0 + leaf_vertex
            s_epairs.append((h, slot_h))
            h += 1
        nv = (len(tree) - m) // 2 + 1
        for v in range(v0, v0 + nv):
            s_genus[v] = 0
        v0 += nv
    return (s_genus, s_hvertex, s_epairs, base.legs), frozenset(range(base.fresh_start, v0))


def _raw_strata(axis: AxisGraph):
    """Yield the fiber as ((vertex -> genus, halfedge -> vertex, edge pairs,
    leg -> halfedge), inserted vertex ids, choice): the data of the graphs
    of ``iter_fiber_strata``, in its order and with its ids.  The leg map
    is one object shared by every stratum."""
    base = _strata_base(axis)
    for combo in itertools.product(*map(range, base.sizes)):
        yield (*_build_stratum(base, combo), combo)


def _slot_classes(axis: AxisGraph, big) -> list:
    """For each menu point, its slots that are joined without its own
    tree, as bitmasks over its slot indices, one per class of two or more
    slots.  Every tree joins all of its slots, so whatever the trees, the
    joins go through the components, the nodes and the other points taken
    as stars."""
    cids = axis.components()
    points = axis.singular_points()
    out = []
    for i, p in big:
        comps = connected_components(cids, _glue(points[:i] + points[i + 1:]))
        comp_of = {c: k for k, comp in enumerate(comps) for c in comp}
        masks: dict = {}
        for j, (cid, _) in enumerate(p.slots):
            masks[comp_of[cid]] = masks.get(comp_of[cid], 0) | 1 << j
        out.append(tuple(mask for mask in masks.values() if mask & (mask - 1)))
    return out


@lru_cache(maxsize=None)
def _tree_splits(m: int, pick: int) -> tuple:
    """The edges of tree ``pick`` of ``leaf_labeled_trees(m)`` as (end,
    end, split), where split is the bitmask of the leaves on the edge's
    side away from leaf 1 (bit i for leaf i + 1)."""
    tree = _tree_at(m, pick)
    ends = tree[m:]
    below = [0] * (len(ends) // 2 + 1)
    for i, v in enumerate(tree[:m]):
        below[v] |= 1 << i
    adj = [[] for _ in below]
    for u, w in zip(ends[::2], ends[1::2]):
        adj[u].append(w)
        adj[w].append(u)
    parent = [-1] * len(below)
    parent[tree[0]] = tree[0]
    order = [tree[0]]
    for v in order:
        for u in adj[v]:
            if parent[u] < 0:
                parent[u] = v
                order.append(u)
    for v in reversed(order[1:]):
        below[parent[v]] |= below[v]
    return tuple(
        (u, w, below[w] if parent[w] == u else below[u])
        for u, w in zip(ends[::2], ends[1::2])
    )


def _pick_signature(m: int, pick: int, classes) -> frozenset:
    """The edges of tree ``pick`` that no stratum's ``pst`` cuts as
    bridges, on a point whose slot classes are ``classes``: one set per
    tree vertex that keeps any, naming a tree edge by its split and the
    edge from leaf i + 1 to its slot by ``1 << i``.  A tree edge survives
    when some class meets both of its sides, a slot edge when its slot's
    class holds another slot."""
    if not classes:
        return frozenset()  # every slot alone: every edge is a bridge
    at: dict = {}
    for u, w, split in _tree_splits(m, pick):
        if any(c & split and c & ~split for c in classes):
            at.setdefault(u, []).append(split)
            at.setdefault(w, []).append(split)
    for i, v in enumerate(_tree_at(m, pick)[:m]):
        if any(c >> i & 1 for c in classes):
            at.setdefault(v, []).append(1 << i)
    return frozenset(frozenset(edges) for edges in at.values())


def _signed_combos(axis: AxisGraph, base: _StrataBase):
    """Yield the choices of the fiber that keep every point without slot
    classes at pick 0, in the order of ``fiber_strata``, each with its
    signature: the ``_pick_signature`` of every menu point, each computed
    once per pick, when first needed.  At a point without slot classes
    every pick has the empty signature, so each stratum shares its
    signature with the choice yielded here that agrees with it elsewhere,
    and no tree of such a point but its first is built."""
    points = [
        (p.multiplicity, classes, {})
        for (_, p), classes in zip(base.big, _slot_classes(axis, base.big))
    ]
    ranges = [
        range(size if classes else 1) for size, (_, classes, _) in zip(base.sizes, points)
    ]
    for combo in itertools.product(*ranges):
        sig = []
        for (m, classes, seen), pick in zip(points, combo):
            s = seen.get(pick)
            if s is None:
                s = seen[pick] = _pick_signature(m, pick, classes)
            sig.append(s)
        yield combo, tuple(sig)


def iter_fiber_strata(axis: AxisGraph):
    """Yield the fiber lazily as (graph, inserted vertex ids, choice), in the
    order of ``fiber_strata``: one stratum per choice of a stable labelled
    tree at every multiplicity >= 3 point, leaves glued slotwise."""
    for stratum, inserted, combo in _raw_strata(axis):
        yield StableGraph(*stratum), inserted, combo


def fiber_strata(axis: AxisGraph) -> FiberStrata:
    """Enumerate the whole fiber: ``iter_fiber_strata`` collected, with the
    per-point stratum counts and the moduli dimension."""
    big, sizes = _fiber_menus(axis)
    counts = tuple(
        (i, p.multiplicity, size) for (i, p), size in zip(big, sizes)
    )
    total = 1
    for _, _, c in counts:
        total *= c
    strata = list(iter_fiber_strata(axis))
    return FiberStrata(
        axis_key=axis.canonical_key(),
        point_counts=counts,
        total=total,
        moduli_dimension=sum(p.multiplicity - 3 for _, p in big),
        graphs=tuple(g for g, _, _ in strata),
        inserted_vertices=tuple(ins for _, ins, _ in strata),
        choices=tuple(c for _, _, c in strata),
    )
