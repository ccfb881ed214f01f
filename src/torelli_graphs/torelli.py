"""Compactified-Jacobian class keys for stable graphs.

The pipeline: forget markings, cut every separating edge, stabilize each
piece (contract genus-zero vertices of valence one or two), drop genus-zero
pieces.  What remains, together with the partition of its edges into
C1-sets and a per-piece moduli-positivity flag, determines the class of the
polarized degenerate Jacobian; two graphs land in one class exactly when
these data match under a genus-preserving bijection of normalized vertices
(C1-equivalence).
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass

from .graph_core import (
    DomainError,
    StableGraph,
    bridge_edge_indices,
    canonicalize_raw,
)
from .contraction import AxisGraph, classify_axis_points, iter_fiber_strata


# ---------------------------------------------------------------------------
# Stabilization and polystable reduction.
# ---------------------------------------------------------------------------

def _stabilized(genus: dict, hvertex: dict, mate: dict) -> StableGraph:
    """Contract rational tails and bridges of a connected legless graph,
    given as vertex -> genus, halfedge -> vertex and the halfedge pairing
    (all three are consumed).

    The smallest contractible vertex goes first.  A genus-zero vertex of
    valence one merges into its neighbour; valence two fuses the two
    incident edges (a double edge to one neighbour leaves a loop).  An
    isolated genus-zero vertex with a single loop, or a single bare
    genus-zero vertex, is final.  Surviving vertices and halfedges keep
    their ids.
    """
    h_at = {v: set() for v in genus}
    for h, v in hvertex.items():
        h_at[v].add(h)
    # a vertex only becomes contractible when a neighbouring leaf goes, and
    # is pushed then, so the heap always holds every contractible vertex
    heap = [v for v, g in genus.items() if not g and len(h_at[v]) <= 2]
    heapq.heapify(heap)
    while heap:
        v = heapq.heappop(heap)
        hs = h_at.get(v)
        if hs is None or len(hs) > 2 or len(h_at) == 1:
            continue
        if len(hs) == 2:
            h1, h2 = hs
            if mate[h1] == h2:
                continue  # isolated loop: irreducible genus one, final
            m1, m2 = mate[h1], mate[h2]
            mate[m1] = m2
            mate[m2] = m1
            dead = (h1, h2)
        else:
            (h,) = hs
            m = mate[h]
            u = hvertex[m]
            h_at[u].discard(m)
            if not genus[u] and len(h_at[u]) <= 2:
                heapq.heappush(heap, u)
            dead = (h, m)
        for x in dead:
            del hvertex[x]
            del mate[x]
        del genus[v]
        del h_at[v]
    edges = [(h, m) for h, m in mate.items() if h < m]
    return StableGraph(genus, hvertex, edges, {})


def stabilize_component(graph: StableGraph) -> StableGraph:
    """Contract rational tails and bridges until none remain.

    Genus-zero vertices of valence one merge into their neighbour; valence
    two fuses the two incident edges (a double edge to one neighbour leaves
    a loop).  An isolated genus-zero vertex with a single loop is final.
    Surviving vertices keep their ids.  The result class is independent of
    the contraction order.
    """
    if graph.legs or graph.branch_points():
        raise DomainError("stabilization input must carry no legs or branch points")
    mate = {}
    for a, b in graph.edges():
        mate[a] = b
        mate[b] = a
    return _stabilized(
        {v: graph.vertex_genus(v) for v in graph.vertices()},
        {h: graph.vertex_of(h) for h in graph.halfedges()},
        mate,
    )


def stabilize(components) -> "PolystableGraph":
    """Stabilize a disjoint union of connected legless graphs."""
    return PolystableGraph(tuple(stabilize_component(c) for c in components))


def _moduli_positive(piece: StableGraph) -> bool:
    """Some vertex has 3g - 3 + valence > 0."""
    return any(
        3 * piece.vertex_genus(v) - 3 + piece.valence(v) > 0 for v in piece.vertices()
    )


class PolystableGraph:
    """Disjoint union of bridgeless pieces, each either stable of genus >= 2,
    an irreducible genus-one vertex (bare genus one, or genus zero with one
    loop), or a bare genus-zero vertex."""

    __slots__ = ("components",)

    def __init__(self, components):
        comps = tuple(components)
        if any(c.separating_edges() for c in comps):
            raise DomainError("polystable pieces have no separating edges")
        self._set_components(comps)

    @classmethod
    def _from_bridgeless(cls, comps: tuple) -> "PolystableGraph":
        """For pieces that ``pst`` has just built bridgeless: every check
        but the bridge search."""
        poly = cls.__new__(cls)
        poly._set_components(comps)
        return poly

    def _set_components(self, comps: tuple) -> None:
        for c in comps:
            if c.legs or c.branch_points():
                raise DomainError("polystable pieces carry no legs or branch points")
            g = c.genus()
            if g >= 2:
                if not c.is_stable():
                    raise DomainError("genus >= 2 piece must be stable")
            elif g == 1:
                if len(c.vertices()) != 1:
                    raise DomainError("genus-one piece must be irreducible")
            else:
                if len(c.vertices()) != 1 or c.edges():
                    raise DomainError("genus-zero piece must be a bare vertex")
        self.components = comps

    def genus(self) -> int:
        return sum(c.genus() for c in self.components)

    def sorted_components(self) -> tuple:
        return tuple(sorted(self.components, key=lambda c: c.canonical_key()))

    def moduli_positive_flags(self) -> tuple:
        """Per component (in sorted order): some vertex has 3g - 3 + valence > 0."""
        return tuple(_moduli_positive(c) for c in self.sorted_components())

    def __repr__(self):
        return f"PolystableGraph({[c.genus() for c in self.components]})"


def _indexed_edges(graph: StableGraph) -> tuple:
    """(vertex ids in order, each edge of ``graph.edges()`` as a pair of
    vertex indices)."""
    vids = graph.vertices()
    index = {v: i for i, v in enumerate(vids)}
    ends = [
        (index[graph.vertex_of(a)], index[graph.vertex_of(b)]) for a, b in graph.edges()
    ]
    return vids, ends


def pst(graph: StableGraph) -> PolystableGraph:
    """Forget markings, normalize at all separating edges, stabilize, and
    drop the genus-zero pieces.  Vertex and halfedge ids of survivors are
    preserved; pieces come in the order of their smallest vertex id."""
    vids, ends = _indexed_edges(graph)
    bridges = bridge_edge_indices(len(vids), ends)
    kept = [i for i in range(len(ends)) if i not in bridges]
    adj = [[] for _ in vids]
    for i in kept:
        u, w = ends[i]
        adj[u].append(w)
        adj[w].append(u)
    comp_of = [-1] * len(vids)
    pieces = []  # (genus, hvertex, mate) per component
    for start in range(len(vids)):
        if comp_of[start] < 0:
            comp_of[start] = len(pieces)
            comp = [start]
            for v in comp:
                for u in adj[v]:
                    if comp_of[u] < 0:
                        comp_of[u] = len(pieces)
                        comp.append(u)
            pieces.append(({vids[v]: graph.vertex_genus(vids[v]) for v in comp}, {}, {}))
    edges = graph.edges()
    for i in kept:
        (a, b), (u, w) = edges[i], ends[i]
        _, hvertex, mate = pieces[comp_of[u]]
        hvertex[a], hvertex[b] = vids[u], vids[w]
        mate[a], mate[b] = b, a
    return PolystableGraph._from_bridgeless(tuple(
        _stabilized(genus, hvertex, mate)
        for genus, hvertex, mate in pieces
        if sum(genus.values()) + len(mate) // 2 - len(genus) + 1 > 0
    ))


# ---------------------------------------------------------------------------
# C1-sets.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class C1Partition:
    """Partition of a bridgeless graph's edges: removing any member of a
    block makes exactly the other members separating."""

    host: StableGraph
    blocks: tuple  # frozensets of edge ids


def _cycle_labels(k: int, ends) -> list:
    """Exact cycle-space label of every edge of a connected multigraph on
    vertices 0..k-1 (Pritchard & Thurimella, with one bit per cycle in
    place of random bits).

    Each non-tree edge of a spanning tree gets its own bit; a tree edge
    gets the XOR of the bits of the fundamental cycles through it.  Bridges
    get 0, and two edges of a bridgeless graph lie in one C1-set exactly
    when their labels are equal.
    """
    adj = [[] for _ in range(k)]
    for i, (u, w) in enumerate(ends):
        adj[u].append((w, i))
        adj[w].append((u, i))
    parent_edge = [-1] * k
    seen = [False] * k
    seen[0] = True
    order = [0]
    for v in order:  # breadth first; parents precede children
        for u, i in adj[v]:
            if not seen[u]:
                seen[u] = True
                parent_edge[u] = i
                order.append(u)
    tree = set(parent_edge)
    labels = [0] * len(ends)
    acc = [0] * k  # XOR of the bits of non-tree edges at each vertex
    bit = 1
    for i, (u, w) in enumerate(ends):
        if i not in tree:
            labels[i] = bit
            acc[u] ^= bit
            acc[w] ^= bit
            bit <<= 1
    for v in reversed(order[1:]):
        i = parent_edge[v]
        labels[i] = acc[v]
        u, w = ends[i]
        acc[w if u == v else u] ^= acc[v]
    return labels


def _c1_blocks(graph: StableGraph) -> tuple:
    """(vertex ids, indexed edges, C1 blocks as lists of edge indices)."""
    vids, ends = _indexed_edges(graph)
    labels = _cycle_labels(len(vids), ends)
    if not all(labels):
        bridge = min(e for e, lab in zip(graph.edges(), labels) if not lab)
        raise DomainError(
            f"graph has separating edge {bridge}; C1-sets are undefined"
        )
    blocks: dict = {}
    for i, lab in enumerate(labels):
        blocks.setdefault(lab, []).append(i)
    return vids, ends, list(blocks.values())


def c1_sets(graph: StableGraph) -> C1Partition:
    """Compute the C1 partition of a connected bridgeless graph."""
    edges = graph.edges()
    _, _, blocks = _c1_blocks(graph)
    sets = [frozenset(edges[i] for i in block) for block in blocks]
    sets.sort(key=sorted)
    return C1Partition(graph, tuple(sets))


def _block_degrees(graph: StableGraph, block) -> dict:
    """Halfedges at each vertex lying in the block's edges."""
    deg: Counter = Counter()
    for a, b in block:
        deg[graph.vertex_of(a)] += 1
        deg[graph.vertex_of(b)] += 1
    return dict(deg)


# ---------------------------------------------------------------------------
# C1-equivalence and class keys.
# ---------------------------------------------------------------------------

def _c1_flat_data(poly: PolystableGraph):
    """Flatten to indexed vertices and blocks.

    Returns (verts, blocks, profile_of) with verts a list of
    (component index, vertex id, genus, valence), blocks a list of
    (size, {vertex index: halfedge count}), and profile_of[i] the sorted
    (count, size) multiset of blocks at vertex i.
    """
    verts = []
    vindex = {}
    for ci, c in enumerate(poly.components):
        for v in sorted(c.vertices()):
            vindex[(ci, v)] = len(verts)
            verts.append((ci, v, c.vertex_genus(v), c.valence(v)))
    blocks = []
    for ci, c in enumerate(poly.components):
        for block in c1_sets(c).blocks:
            deg = _block_degrees(c, block)
            blocks.append(
                (len(block), {vindex[(ci, v)]: d for v, d in deg.items()})
            )
    profile_of = [[] for _ in verts]
    for size, deg in blocks:
        for i, d in deg.items():
            profile_of[i].append((d, size))
    return verts, blocks, [tuple(sorted(p)) for p in profile_of]


def c1_equivalent(a: PolystableGraph, b: PolystableGraph):
    """Search for a genus-preserving vertex bijection matching the C1 data.

    The bijection must transport every block's per-vertex halfedge counts
    onto some block of the other side, bijectively on blocks; the edge
    pairings within a block are free to differ.  Returns (True, witness) or
    (False, None); the witness maps (component index, vertex id) pairs.
    """
    averts, ablocks, aprof = _c1_flat_data(a)
    bverts, bblocks, bprof = _c1_flat_data(b)
    if len(averts) != len(bverts) or len(ablocks) != len(bblocks):
        return False, None

    asig = [(averts[i][2], averts[i][3], aprof[i]) for i in range(len(averts))]
    bsig = [(bverts[j][2], bverts[j][3], bprof[j]) for j in range(len(bverts))]
    by_sig: dict = {}
    for j, s in enumerate(bsig):
        by_sig.setdefault(s, []).append(j)
    if Counter(asig) != Counter(bsig):
        return False, None

    target = Counter(
        (size, tuple(sorted(deg.items()))) for size, deg in bblocks
    )
    order = sorted(range(len(averts)), key=lambda i: (asig[i], i))
    assign = [-1] * len(averts)
    used = [False] * len(bverts)

    def leaf_check() -> bool:
        got = Counter(
            (size, tuple(sorted((assign[i], d) for i, d in deg.items())))
            for size, deg in ablocks
        )
        return got == target

    def search(pos) -> bool:
        if pos == len(order):
            return leaf_check()
        i = order[pos]
        for j in by_sig[asig[i]]:
            if not used[j]:
                used[j] = True
                assign[i] = j
                if search(pos + 1):
                    return True
                used[j] = False
                assign[i] = -1
        return False

    if not search(0):
        return False, None
    witness = {
        (averts[i][0], averts[i][1]): (bverts[assign[i]][0], bverts[assign[i]][1])
        for i in range(len(averts))
    }
    return True, witness


def component_class_key(piece: StableGraph) -> bytes:
    """Canonical key of one piece's C1 incidence structure: vertices coloured
    by genus against blocks, with the block's halfedge count at each vertex
    as edge multiplicity."""
    vids, ends, blocks = _c1_blocks(piece)
    k = len(vids)
    n_blocks = len(blocks)
    genera = tuple(piece.vertex_genus(v) for v in vids) + (0,) * n_blocks
    tags = (0,) * k + (1,) * n_blocks
    edges = sorted(
        (v, k + bi) for bi, block in enumerate(blocks) for i in block for v in ends[i]
    )
    raw = (genera, (), (0,) * (k + n_blocks), tuple(edges))
    return canonicalize_raw(raw, tags=tags).key


def polystable_key(poly: PolystableGraph) -> bytes:
    """Class key: equal exactly for C1-equivalent unions with equal flags."""
    parts = sorted(
        component_class_key(piece) + (b"|m1" if _moduli_positive(piece) else b"|m0")
        for piece in poly.components
    )
    return b"TK1;" + b"||".join(parts)


def torelli_key(graph: StableGraph) -> bytes:
    """Class key of a stable graph of positive genus."""
    if graph.genus() < 1:
        raise DomainError("genus-zero graphs have no class key")
    return polystable_key(pst(graph))


# ---------------------------------------------------------------------------
# Fiber constancy over an axis graph.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiberVerdict:
    verdict: str  # "constant" | "varies"
    key: bytes | None
    reason: str | None
    witness: tuple | None

    @property
    def constant(self) -> bool:
        return self.verdict == "constant"

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "key": self.key.decode() if self.key else None,
            "reason": self.reason,
            "witness": list(self.witness) if self.witness else None,
        }


def fiber_constant(axis: AxisGraph) -> FiberVerdict:
    """Decide whether all stable models over an axis graph share one class.

    Strata are keyed lazily, in the order of ``fiber_strata``, and the
    check stops at the first stratum whose class key differs from the
    first one; its index is the witness.  The verdict is constant when all
    keys agree and no surviving inserted vertex spans positive-dimensional
    moduli (3*0 - 3 + valence > 0).  Any mismatch or such a remnant makes
    the class vary across the fiber; a mismatch takes precedence.
    """
    cls = classify_axis_points(axis)
    if not cls.is_axis_like:
        raise DomainError("fiber constancy needs an axis-like input (type (0,m) "
                          "points avoiding markings)")
    if axis.genus() < 1:
        raise DomainError("genus-zero axis graphs have no class")
    first = None
    remnant = None
    for i, (graph, inserted, _) in enumerate(iter_fiber_strata(axis)):
        poly = pst(graph)
        key = polystable_key(poly)
        if first is None:
            first = key
        elif key != first:
            return FiberVerdict(
                "varies",
                None,
                "fiber strata have differing class keys",
                (0, i),
            )
        if remnant is None:
            for piece in poly.components:
                for v in piece.vertices():
                    if v in inserted and piece.valence(v) > 3:
                        remnant = (v, piece.valence(v))
    if remnant is not None:
        v, val = remnant
        return FiberVerdict(
            "varies",
            None,
            f"inserted vertex {v} survives with valence {val}: "
            f"positive-dimensional moduli remnant",
            remnant,
        )
    return FiberVerdict("constant", first, None, None)
