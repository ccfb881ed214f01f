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
from functools import lru_cache

from .graph_core import (
    DomainError,
    StableGraph,
    bridge_edge_indices,
    canonicalize_raw,
)
from .contraction import (
    AxisGraph,
    _build_stratum,
    _raw_strata,
    _signed_combos,
    _strata_base,
)


# ---------------------------------------------------------------------------
# Stabilization and polystable reduction.
# ---------------------------------------------------------------------------

def _stabilized(genus: dict, hvertex: dict, mate: dict) -> tuple:
    """Contract rational tails and bridges of a connected legless graph,
    given as vertex -> genus, halfedge -> vertex and the halfedge pairing;
    the three dicts are updated in place and returned.

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
    return genus, hvertex, mate


def _graph_of(genus: dict, hvertex: dict, mate: dict) -> StableGraph:
    return StableGraph(genus, hvertex, [(h, m) for h, m in mate.items() if h < m], {})


def _as_dicts(graph: StableGraph) -> tuple:
    """A graph as vertex -> genus, halfedge -> vertex and the halfedge
    pairing: the data the dict-based steps below work on."""
    mate = {}
    for a, b in graph.edges():
        mate[a] = b
        mate[b] = a
    return (
        {v: graph.vertex_genus(v) for v in graph.vertices()},
        {h: graph.vertex_of(h) for h in graph.halfedges()},
        mate,
    )


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
    return _graph_of(*_stabilized(*_as_dicts(graph)))


def stabilize(components) -> "PolystableGraph":
    """Stabilize a disjoint union of connected legless graphs."""
    return PolystableGraph(tuple(stabilize_component(c) for c in components))


def _check_piece(genus: dict, hvertex: dict, n_edges: int) -> None:
    """The rules for one polystable piece, given as vertex -> genus and
    halfedge -> vertex of a legless graph with ``n_edges`` edges: stable
    of genus >= 2, an irreducible genus-one vertex, or a bare genus-zero
    vertex."""
    g = sum(genus.values()) + n_edges - len(genus) + 1
    if g >= 2:
        valence = Counter(hvertex.values())
        if any(2 * gv - 2 + valence[v] <= 0 for v, gv in genus.items()):
            raise DomainError("genus >= 2 piece must be stable")
    elif len(genus) != 1:
        raise DomainError(
            "genus-one piece must be irreducible" if g == 1
            else "genus-zero piece must be a bare vertex"
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
        for c in comps:
            if c.legs or c.branch_points():
                raise DomainError("polystable pieces carry no legs or branch points")
            genus, hvertex, _ = _as_dicts(c)
            _check_piece(genus, hvertex, len(c.edges()))
        self.components = comps

    @classmethod
    def _from_checked(cls, comps: tuple) -> "PolystableGraph":
        """For pieces that ``_pst_pieces`` has built bridgeless and checked."""
        poly = cls.__new__(cls)
        poly.components = comps
        return poly

    def genus(self) -> int:
        return sum(c.genus() for c in self.components)

    def sorted_components(self) -> tuple:
        return tuple(sorted(self.components, key=lambda c: c.canonical_key()))

    def moduli_positive_flags(self) -> tuple:
        """Per component (in sorted order): some vertex has 3g - 3 + valence > 0."""
        return tuple(
            any(3 * c.vertex_genus(v) - 3 + c.valence(v) > 0 for v in c.vertices())
            for c in self.sorted_components()
        )

    def __repr__(self):
        return f"PolystableGraph({[c.genus() for c in self.components]})"


def _pst_pieces(genus: dict, hvertex: dict, edges) -> list:
    """The pieces of ``pst`` on raw data: vertex -> genus, halfedge -> vertex
    and the edge pairs (other halfedges, legs among them, are ignored).

    Returns the stabilized pieces of positive genus as (vertex -> genus,
    halfedge -> vertex, halfedge pairing), each checked by the piece rules,
    in the order of their smallest vertex id.  The inputs are not changed.
    """
    vids = sorted(genus)
    index = {v: i for i, v in enumerate(vids)}
    ends = [(index[hvertex[a]], index[hvertex[b]]) for a, b in edges]
    bridges = bridge_edge_indices(len(vids), ends)
    kept = [i for i in range(len(ends)) if i not in bridges]
    # its own search on index lists, not connected_components: this is the
    # inner loop of the fiber check, which the dict-based one slows by ~8%
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
            pieces.append(({vids[v]: genus[vids[v]] for v in comp}, {}, {}))
    for i in kept:
        (a, b), (u, w) = edges[i], ends[i]
        _, p_hvertex, mate = pieces[comp_of[u]]
        p_hvertex[a], p_hvertex[b] = vids[u], vids[w]
        mate[a], mate[b] = b, a
    out = []
    for p_genus, p_hvertex, mate in pieces:
        if sum(p_genus.values()) + len(mate) // 2 - len(p_genus) + 1 > 0:
            piece = _stabilized(p_genus, p_hvertex, mate)
            _check_piece(piece[0], piece[1], len(mate) // 2)
            out.append(piece)
    return out


def pst(graph: StableGraph) -> PolystableGraph:
    """Forget markings, normalize at all separating edges, stabilize, and
    drop the genus-zero pieces.  Vertex and halfedge ids of survivors are
    preserved; pieces come in the order of their smallest vertex id."""
    genus, hvertex, _ = _as_dicts(graph)
    pieces = _pst_pieces(genus, hvertex, graph.edges())
    return PolystableGraph._from_checked(tuple(_graph_of(*p) for p in pieces))


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


def _label_blocks(labels) -> list:
    """Edge indices grouped by cycle-space label: the C1 blocks of a
    bridgeless graph, as lists of edge indices."""
    blocks: dict = {}
    for i, lab in enumerate(labels):
        blocks.setdefault(lab, []).append(i)
    return list(blocks.values())


def _c1_blocks(graph: StableGraph) -> tuple:
    """(vertex ids in order, each edge of ``graph.edges()`` as a pair of
    vertex indices, C1 blocks as lists of edge indices)."""
    vids = graph.vertices()
    index = {v: i for i, v in enumerate(vids)}
    ends = [(index[graph.vertex_of(a)], index[graph.vertex_of(b)]) for a, b in graph.edges()]
    labels = _cycle_labels(len(vids), ends)
    if not all(labels):
        bridge = min(e for e, lab in zip(graph.edges(), labels) if not lab)
        raise DomainError(
            f"graph has separating edge {bridge}; C1-sets are undefined"
        )
    return vids, ends, _label_blocks(labels)


def c1_sets(graph: StableGraph) -> C1Partition:
    """Compute the C1 partition of a connected bridgeless graph."""
    edges = graph.edges()
    _, _, blocks = _c1_blocks(graph)
    sets = [frozenset(edges[i] for i in block) for block in blocks]
    sets.sort(key=sorted)
    return C1Partition(graph, tuple(sets))


# ---------------------------------------------------------------------------
# Class keys.
# ---------------------------------------------------------------------------

def _incidence_key(genera, ends, blocks) -> bytes:
    """Canonical key of the C1 incidence structure of a piece on vertices
    0..k-1: vertices coloured by genus against blocks, with the block's
    halfedge count at each vertex as edge multiplicity."""
    k = len(genera)
    n_blocks = len(blocks)
    tags = (0,) * k + (1,) * n_blocks
    edges = sorted(
        (v, k + bi) for bi, block in enumerate(blocks) for i in block for v in ends[i]
    )
    raw = (tuple(genera) + (0,) * n_blocks, (), (0,) * (k + n_blocks), tuple(edges))
    return canonicalize_raw(raw, tags=tags).key


def component_class_key(piece: StableGraph) -> bytes:
    """Canonical key of one piece's C1 incidence structure: vertices coloured
    by genus against blocks, with the block's halfedge count at each vertex
    as edge multiplicity."""
    vids, ends, blocks = _c1_blocks(piece)
    return _incidence_key([piece.vertex_genus(v) for v in vids], ends, blocks)


def _moduli_positive(genera, ends) -> bool:
    """Some vertex of a legless piece has 3g - 3 + valence > 0."""
    valence = [0] * len(genera)
    for u, w in ends:
        valence[u] += 1
        valence[w] += 1
    return any(3 * g - 3 + d > 0 for g, d in zip(genera, valence))


def _piece_part(genera, ends) -> bytes:
    """One bridgeless piece's share of the class key: its C1 incidence key
    and its moduli flag."""
    blocks = _label_blocks(_cycle_labels(len(genera), ends))
    flag = b"|m1" if _moduli_positive(genera, ends) else b"|m0"
    return _incidence_key(genera, ends, blocks) + flag


@lru_cache(maxsize=None)
def _one_vertex_part(genus: int, loops: int) -> bytes:
    """``_piece_part`` of one vertex with loops: each loop is its own C1
    block, so the part depends on the genus and the loop count alone."""
    return _piece_part((genus,), [(0, 0)] * loops)


def _pieces_key(pieces) -> bytes:
    """Class key of polystable pieces, each given as vertex -> genus,
    halfedge -> vertex and the halfedge pairing, as ``_pst_pieces``
    returns them."""
    parts = []
    for p_genus, p_hvertex, mate in pieces:
        if len(p_genus) == 1:
            (g,) = p_genus.values()
            parts.append(_one_vertex_part(g, len(mate) // 2))
            continue
        vids = sorted(p_genus)
        index = {v: i for i, v in enumerate(vids)}
        ends = [(index[p_hvertex[a]], index[p_hvertex[b]]) for a, b in mate.items() if a < b]
        parts.append(_piece_part(tuple(p_genus[v] for v in vids), ends))
    return b"TK1;" + b"||".join(sorted(parts))


def polystable_key(poly: PolystableGraph) -> bytes:
    """Class key: equal exactly for C1-equivalent unions with equal flags."""
    return _pieces_key(_as_dicts(piece) for piece in poly.components)


def torelli_key(graph: StableGraph) -> bytes:
    """Class key of a stable graph of positive genus: the key of its
    ``pst`` pieces, computed without building them as graphs."""
    if graph.genus() < 1:
        raise DomainError("genus-zero graphs have no class key")
    genus, hvertex, _ = _as_dicts(graph)
    return _pieces_key(_pst_pieces(genus, hvertex, graph.edges()))


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


def _stratum_key(stratum) -> bytes:
    """Class key of one raw stratum, given as the data
    ``contraction._raw_strata`` yields."""
    genus, hvertex, edges, _legs = stratum
    return _pieces_key(_pst_pieces(genus, hvertex, edges))


def _fiber_keys(axis: AxisGraph):
    """Yield the class key of every stratum, in the order of
    ``fiber_strata``.  Only a stratum whose signature is new is built and
    keyed; stratum 0 is also built as a ``StableGraph``, which runs the
    structural checks once per fiber."""
    base = _strata_base(axis)
    keys: dict = {}
    for i, (combo, sig) in enumerate(_signed_combos(axis, base)):
        key = keys.get(sig)
        if key is None:
            stratum, _ = _build_stratum(base, combo)
            if not i:
                StableGraph(*stratum)
            key = keys[sig] = _stratum_key(stratum)
        yield key


def fiber_constant(axis: AxisGraph) -> FiberVerdict:
    """Decide whether all stable models over an axis graph share one class.

    Strata are keyed lazily, in the order of ``fiber_strata``, and the
    check stops at the first stratum whose class key differs from the
    first one; its index is the witness.  The verdict is constant when all
    keys agree.

    A stratum is keyed only when its signature is new to the fiber.  Every
    tree joins all of its slots, so which slots of a point P are joined
    without P's tree (its slot classes) does not depend on the trees: the
    joins go through the components, the nodes and the other points taken
    as stars.  Hence an edge of P's tree whose leaf side is S is a bridge
    exactly when no slot class meets both S and its complement, and the
    edge from a leaf to its slot is a bridge exactly when that slot's class
    holds no other slot of P.  Whether a node is a bridge does not depend
    on the trees either.  So which edges of P's tree survive ``pst``
    depends on P's pick alone.  P's signature lists, for each tree vertex
    that keeps an edge, the set of its surviving edges, naming a tree edge
    by its leaf side away from leaf 1 and a slot edge by its slot.  Two
    strata with equal signatures at every point have isomorphic bridgeless
    parts: map the components and nodes to themselves, and each tree
    vertex to the vertex with the same set of surviving edges, which is
    unique because a tree edge whose two ends kept nothing else would be a
    bridge; tree vertices that keep nothing are bare genus-zero pieces,
    which ``pst`` drops.  So their class keys are equal, and the piece
    checks pass or fail on both alike.

    Equal keys also rule out a moduli remnant, an inserted vertex that
    survives ``pst`` with valence at least 4.  Split such a vertex v in its
    tree: a cycle of the bridgeless piece passes v through halfedges h and
    h'; move h and one other piece halfedge of v onto a new vertex and
    leave h' on v.  Both ends keep valence at least 3, so this is another
    stratum, and the new edge lies on the cycle, so ``pst`` keeps it.  That
    stratum's piece has one more genus-zero vertex, so its key differs and
    some stratum's key differs from the first.
    """
    if any(p.genus for p in axis.singular_points()) or axis.absorbed_legs():
        raise DomainError("fiber constancy needs an axis-like input (type (0,m) "
                          "points avoiding markings)")
    if axis.genus() < 1:
        raise DomainError("genus-zero axis graphs have no class")
    keys = _fiber_keys(axis)
    first = next(keys)
    for i, key in enumerate(keys, 1):
        if key != first:
            return FiberVerdict(
                "varies",
                None,
                "fiber strata have differing class keys",
                (0, i),
            )
    return FiberVerdict("constant", first, None, None)
