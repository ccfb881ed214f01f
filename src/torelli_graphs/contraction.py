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

from .graph_core import (
    DomainError,
    StableGraph,
    StructuralError,
    canonicalize_raw,
    is_connected_edges,
)

NODE = "node"
SEPARATING = "separating"
QUASI_SEPARATING = "quasi-separating"
GENERAL = "general"


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
            if genus < 0:
                raise StructuralError(f"component {cid}: negative genus")
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
            if p.genus < 0:
                raise StructuralError("singular point with negative genus")
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
        cid_list = sorted(comp)
        idx = {c: i for i, c in enumerate(cid_list)}
        glue = []
        for p in points:
            cids = [idx[c] for c, _ in p.slots]
            glue += [(cids[0], c) for c in cids[1:]]
        if not is_connected_edges(len(cid_list), glue):
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

    def slots_of(self, cid) -> tuple:
        out = [
            (cid2, sid) for p in self._points for cid2, sid in p.slots if cid2 == cid
        ]
        return tuple(sorted(out))

    def absorbed_legs(self) -> tuple:
        return tuple(l for p in self._points for l in p.absorbed_legs)

    def __repr__(self):
        return (
            f"AxisGraph(g={self.genus()}, components={len(self._components)}, "
            f"points={len(self._points)})"
        )

    # -- invariants ----------------------------------------------------------

    def genus(self) -> int:
        """Arithmetic genus, computed on the star expansion: each singular
        point contributes its genus plus multiplicity minus one."""
        graph, _, _ = self.star_expansion()
        return graph.genus()

    def star_expansion(self):
        """Expand every hyperedge to a star around a fresh sentinel vertex.

        Returns (graph, tags, sentinel_of_point): tags mark sentinels so the
        expansion distinguishes them from genuine components.
        """
        vertices = {}
        tags = {}
        legs = {}
        for cid in sorted(self._components):
            vid = ("c", cid)
            vertices[vid] = self._components[cid]
            tags[vid] = 0
            for l in self._legs[cid]:
                legs[l] = vid
        edges = []
        sentinel_of_point = {}
        for i, p in enumerate(self._points):
            svid = ("s", i)
            vertices[svid] = p.genus
            tags[svid] = 1
            sentinel_of_point[i] = svid
            for l in p.absorbed_legs:
                legs[l] = svid
            for cid, _sid in p.slots:
                edges.append((svid, ("c", cid)))
        graph = StableGraph.build(vertices, edges, legs)
        return graph, tags, sentinel_of_point

    def canonical_key(self) -> bytes:
        if self._canon is None:
            graph, tags, _ = self.star_expansion()
            raw, vids = graph.to_raw()
            tag_list = tuple(tags[v] for v in vids)
            self._canon = b"AX1;" + canonicalize_raw(raw, tags=tag_list).key
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
        except (KeyError, TypeError, ValueError) as exc:
            raise StructuralError(f"bad axis JSON: {exc}") from exc
        axis = cls(comps, pts)
        if "genus" in data and int(data["genus"]) != axis.genus():
            raise StructuralError(
                f"recorded genus {data['genus']} != computed {axis.genus()}"
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
    chosen = frozenset(chosen)
    vs = set(graph.vertices())
    if not chosen <= vs:
        raise DomainError("chosen vertices not in graph")
    if chosen == vs:
        raise DomainError("chosen subset must be proper")
    if not graph.is_stable():
        raise DomainError("input graph must be stable")
    if graph.branch_points():
        raise DomainError("input graph must not carry branch points")

    # split the chosen set into connected components
    comps = []
    remaining = set(chosen)
    while remaining:
        comp = {remaining.pop()}
        grew = True
        while grew:
            grew = False
            for e in graph.edges():
                u, w = graph.edge_vertices(e)
                if u in comp and w in chosen and w not in comp:
                    comp.add(w)
                    grew = True
                elif w in comp and u in chosen and u not in comp:
                    comp.add(u)
                    grew = True
        remaining -= comp
        comps.append(comp)

    points = []
    for comp in comps:
        internal = 0
        slots = []
        absorbed = []
        for v in comp:
            absorbed.extend(graph.legs_at(v))
        for e in graph.edges():
            u, w = graph.edge_vertices(e)
            if u in comp and w in comp:
                internal += 1
            elif u in comp:
                slots.append((w, e[1 if graph.vertex_of(e[1]) == w else 0]))
            elif w in comp:
                slots.append((u, e[1 if graph.vertex_of(e[1]) == u else 0]))
        g_j = sum(graph.vertex_genus(v) for v in comp) + internal - len(comp) + 1
        m_j = len(slots)
        n_j = len(absorbed)
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
        points.append(SingularPoint(g_j, tuple(slots), tuple(absorbed)))

    survivors = sorted(vs - chosen)
    for e in graph.edges():
        u, w = graph.edge_vertices(e)
        if u not in chosen and w not in chosen:
            points.append(SingularPoint(0, ((u, e[0]), (w, e[1])), ()))
    components = [(v, graph.vertex_genus(v), graph.legs_at(v)) for v in survivors]
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
    idx = {c: i for i, c in enumerate(cids)}
    records = []
    for i, p in enumerate(axis.singular_points()):
        glue = []
        for j, q in enumerate(axis.singular_points()):
            if j == i:
                continue
            spots = [idx[c] for c, _ in q.slots]
            glue += [(spots[0], c) for c in spots[1:]]
        comp_of = list(range(len(cids)))

        def find(x):
            while comp_of[x] != x:
                comp_of[x] = comp_of[comp_of[x]]
                x = comp_of[x]
            return x

        for a, b in glue:
            ra, rb = find(a), find(b)
            if ra != rb:
                comp_of[ra] = rb
        counts: dict = {}
        for c, _sid in p.slots:
            r = find(idx[c])
            counts[r] = counts.get(r, 0) + 1
        profile = tuple(sorted(counts.values(), reverse=True))
        if p.multiplicity == 2:
            category = NODE
        elif profile == (1,) * p.multiplicity:
            category = SEPARATING
        elif sum(1 for c in profile if c > 1) <= 1 and profile[0] <= 3:
            category = QUASI_SEPARATING
        else:
            category = GENERAL
        records.append(
            AxisPointClass(i, p.multiplicity, p.genus, category, profile)
        )
    axis_like = all(p.genus == 0 for p in axis.singular_points()) and not axis.absorbed_legs()
    seps = all(
        r.category in (NODE, SEPARATING) for r in records
    )
    qseps = all(
        r.category in (NODE, SEPARATING, QUASI_SEPARATING) for r in records
    )
    return AxisClassification(
        points=tuple(records),
        is_axis_like=axis_like,
        is_separating_axis_like=axis_like and seps,
        is_quasi_separating_axis_like=axis_like and qseps,
    )


# ---------------------------------------------------------------------------
# Stable genus-zero trees with labelled leaves, and fiber strata.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def leaf_labeled_trees(m: int) -> tuple:
    """All stable genus-zero graphs with leaves 1..m, up to isomorphism.

    Generated by inserting leaf ``m`` at every vertex, edge, and leg of the
    (m-1)-leaf trees; insertion at a leg splits off a new vertex carrying
    both labels.
    """
    if m < 3:
        raise DomainError("stable genus-zero trees need at least 3 leaves")
    if m == 3:
        return (StableGraph.build({0: 0}, legs={1: 0, 2: 0, 3: 0}),)
    out: dict = {}
    for t in leaf_labeled_trees(m - 1):
        nv = max(t.vertices()) + 1
        for v in t.vertices():
            legs = {lab: t.vertex_of(h) for lab, h in t.legs.items()}
            legs[m] = v
            cand = StableGraph.build(
                {u: 0 for u in t.vertices()},
                [t.edge_vertices(e) for e in t.edges()],
                legs,
            )
            out.setdefault(cand.canonical_key(), cand)
        for e in t.edges():
            u, w = t.edge_vertices(e)
            legs = {lab: t.vertex_of(h) for lab, h in t.legs.items()}
            legs[m] = nv
            edges = [t.edge_vertices(e2) for e2 in t.edges() if e2 != e]
            edges += [(u, nv), (nv, w)]
            cand = StableGraph.build(
                {**{u2: 0 for u2 in t.vertices()}, nv: 0}, edges, legs
            )
            out.setdefault(cand.canonical_key(), cand)
        for lab, h in t.legs.items():
            v = t.vertex_of(h)
            legs = {l2: t.vertex_of(h2) for l2, h2 in t.legs.items() if l2 != lab}
            legs[lab] = nv
            legs[m] = nv
            edges = [t.edge_vertices(e2) for e2 in t.edges()] + [(v, nv)]
            cand = StableGraph.build(
                {**{u2: 0 for u2 in t.vertices()}, nv: 0}, edges, legs
            )
            out.setdefault(cand.canonical_key(), cand)
    return tuple(out[k] for k in sorted(out))


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
    labelled-tree menu of each."""
    for p in axis.singular_points():
        if p.genus != 0:
            raise DomainError("fiber enumeration needs all points of genus zero")
        if p.absorbed_legs:
            raise DomainError("singular point carries marked points")
    big = [
        (i, p) for i, p in enumerate(axis.singular_points()) if p.multiplicity >= 3
    ]
    return big, [leaf_labeled_trees(p.multiplicity) for _, p in big]


def iter_fiber_strata(axis: AxisGraph):
    """Yield the fiber lazily as (graph, inserted vertex ids, choice), in the
    order of ``fiber_strata``: one stratum per choice of a stable labelled
    tree at every multiplicity >= 3 point, leaves glued slotwise."""
    big, menus = _fiber_menus(axis)
    vertices = {cid: axis.component_genus(cid) for cid in axis.components()}
    # the halfedges of slots, legs and nodes are the same in every stratum
    hid_counter = itertools.count(10_000_000)
    halfedges = []
    slot_hid = {}
    for p in axis.singular_points():
        for cid, sid in p.slots:
            h = next(hid_counter)
            halfedges.append((h, cid))
            slot_hid[(cid, sid)] = h
    legmap = {}
    for cid in axis.components():
        for lab in axis.component_legs(cid):
            h = next(hid_counter)
            halfedges.append((h, cid))
            legmap[lab] = h
    epairs = [
        (slot_hid[p.slots[0]], slot_hid[p.slots[1]])
        for p in axis.singular_points() if p.multiplicity == 2
    ]
    first_tree_hid = next(hid_counter)
    fresh_start = max(axis.components()) + 1 if axis.components() else 0

    for combo in itertools.product(*(range(len(menu)) for menu in menus)):
        stratum_vertices = dict(vertices)
        stratum_halfedges = list(halfedges)
        stratum_epairs = list(epairs)
        hids = itertools.count(first_tree_hid)
        fresh_v = itertools.count(fresh_start)
        inserted = set()
        for (_, p), menu, pick in zip(big, menus, combo):
            tree = menu[pick]
            slot_order = sorted(p.slots)
            vmap = {}
            for tv in tree.vertices():
                nid = next(fresh_v)
                vmap[tv] = nid
                stratum_vertices[nid] = 0
                inserted.add(nid)
            hmap = {}
            for th in tree.halfedges():
                h = next(hids)
                hmap[th] = h
                stratum_halfedges.append((h, vmap[tree.vertex_of(th)]))
            for e in tree.edges():
                stratum_epairs.append((hmap[e[0]], hmap[e[1]]))
            for lab, th in tree.legs.items():
                stratum_epairs.append((hmap[th], slot_hid[slot_order[lab - 1]]))
        graph = StableGraph(stratum_vertices, stratum_halfedges, stratum_epairs, legmap)
        yield graph, frozenset(inserted), combo


def fiber_strata(axis: AxisGraph) -> FiberStrata:
    """Enumerate the whole fiber: ``iter_fiber_strata`` collected, with the
    per-point stratum counts and the moduli dimension."""
    big, menus = _fiber_menus(axis)
    counts = tuple(
        (i, p.multiplicity, len(menu)) for (i, p), menu in zip(big, menus)
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
