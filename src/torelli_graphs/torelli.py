"""Compactified-Jacobian class keys for stable graphs.

The pipeline: forget markings, cut every separating edge, stabilize each
piece (contract genus-zero vertices of valence one or two), drop genus-zero
pieces.  What remains, together with the partition of its edges into
C1-sets and a per-piece moduli-positivity flag, determines the class of the
polarized degenerate Jacobian; two graphs land in one class exactly when
these data match under a genus-preserving bijection of normalized vertices
(C1-equivalence).

The steps work on one index form of a graph, (vertex ids, genera, ends,
halves): its vertices are 0..k-1 in ascending id order, with ``genera[i]``
the genus of vertex i; edge i joins the vertices ``ends[i]`` and has the
halfedge pair ``halves[i]``, the one at ``ends[i][0]`` first.  Inside the
steps, halfedge 2i + s of a piece is ``halves[i][s]`` of its host.  A graph
that keeps its raw gives the form straight from it
(``StableGraph._indexed``), and only ``pst`` and ``stabilize_component``
map the result back to ids.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache

from .graph_core import (
    DomainError,
    StableGraph,
    _index_form,
    bridge_edge_indices,
    canonicalize_raw,
    connected_components,
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

def _stabilized(genera, ends, verts, edges) -> tuple:
    """``stabilize_component`` of the connected legless graph made of the
    vertices ``verts`` (ascending) and the edges ``edges`` of an index
    form, smallest contractible vertex first; a single bare genus-zero
    vertex is final too.  Returns the result, checked by the piece rules,
    in index form: its vertices as indices of the input, and for each edge
    its halfedge pair as input halfedges 2i + s.
    """
    if len(verts) == 1:  # nothing to contract, and the piece rules hold
        loops = [(2 * i, 2 * i + 1) for i in edges]
        return list(verts), [genera[verts[0]]], [(0, 0)] * len(loops), loops
    h_at = {v: set() for v in verts}
    mate = {}
    for i in edges:
        u, w = ends[i]
        h_at[u].add(2 * i)
        h_at[w].add(2 * i + 1)
        mate[2 * i] = 2 * i + 1
        mate[2 * i + 1] = 2 * i
    # a vertex only becomes contractible when a neighbouring leaf goes, and
    # is pushed then, so the heap always holds every contractible vertex;
    # verts ascend, so the list is a heap already
    heap = [v for v in verts if not genera[v] and len(h_at[v]) <= 2]
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
            u = ends[m >> 1][m & 1]
            h_at[u].discard(m)
            if not genera[u] and len(h_at[u]) <= 2:
                heapq.heappush(heap, u)
            dead = (h, m)
        for x in dead:
            del mate[x]
        del h_at[v]
    index = {v: j for j, v in enumerate(h_at)}
    pairs = [(h, m) for h, m in mate.items() if h < m]
    p_genera = [genera[v] for v in h_at]
    p_ends = [(index[ends[h >> 1][h & 1]], index[ends[m >> 1][m & 1]]) for h, m in pairs]
    _check_piece(p_genera, p_ends)
    return list(h_at), p_genera, p_ends, pairs


def _graph_of(vids, halves, piece) -> StableGraph:
    """A piece of ``_stabilized`` as a legless graph with the ids of its
    host, whose vertex ids are ``vids`` and halfedge pairs ``halves``."""
    verts, genera, ends, pairs = piece
    hs = [halves[h >> 1][h & 1] for pair in pairs for h in pair]
    hvertex = zip(hs, [vids[verts[v]] for e in ends for v in e])
    genus = {vids[v]: g for v, g in zip(verts, genera)}
    return StableGraph(genus, hvertex, zip(hs[::2], hs[1::2]), {})


def stabilize_component(graph: StableGraph) -> StableGraph:
    """Contract rational tails and bridges until none remain.

    Genus-zero vertices of valence one merge into their neighbour; valence
    two fuses the two incident edges (a double edge to one neighbour leaves
    a loop).  An isolated genus-zero vertex with a single loop is final.
    Surviving vertices keep their ids.  The result class is independent of
    the contraction order.
    """
    (_, legs, branch, _), _ = graph.to_raw()
    if legs or any(branch):
        raise DomainError("stabilization input must carry no legs or branch points")
    vids, genera, ends, halves = graph._indexed()
    piece = _stabilized(genera, ends, range(len(genera)), range(len(ends)))
    return _graph_of(vids, halves, piece)


def stabilize(components) -> "PolystableGraph":
    """Stabilize a disjoint union of connected legless graphs."""
    return PolystableGraph(tuple(stabilize_component(c) for c in components))


def _valences(genera, ends) -> list:
    valence = [0] * len(genera)
    for u, w in ends:
        valence[u] += 1
        valence[w] += 1
    return valence


def _check_piece(genera, ends) -> None:
    """The rules for one polystable piece, given as the genera and edge
    ends of a legless graph: stable of genus >= 2, an irreducible
    genus-one vertex, or a bare genus-zero vertex."""
    g = sum(genera) + len(ends) - len(genera) + 1
    if g >= 2:
        if any(2 * gv - 2 + d <= 0 for gv, d in zip(genera, _valences(genera, ends))):
            raise DomainError("genus >= 2 piece must be stable")
    elif len(genera) != 1:
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
            (genera, legs, branch, ends), _ = c.to_raw()
            if legs or any(branch):
                raise DomainError("polystable pieces carry no legs or branch points")
            _check_piece(genera, ends)
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


def _pst_pieces(genera, ends) -> list:
    """The pieces of ``pst`` of a graph in index form, given by its genera
    and edge ends (legs and branch points play no part).

    Returns the stabilized pieces of positive genus, in the order of their
    smallest vertex, each as ``_stabilized`` returns it: checked, and in
    index form with its vertices as indices of the input and its halfedge
    pairs as input halfedges 2i + s.  The inputs are not changed.
    """
    k = len(genera)
    bridges = bridge_edge_indices(k, ends)
    kept = [i for i in range(len(ends)) if i not in bridges]
    comps = connected_components(range(k), [ends[i] for i in kept])
    comp_of = {v: c for c, comp in enumerate(comps) for v in comp}
    comp_edges = [[] for _ in comps]
    for i in kept:
        comp_edges[comp_of[ends[i][0]]].append(i)
    return [
        _stabilized(genera, ends, sorted(comp), edges)
        for comp, edges in zip(comps, comp_edges)
        if sum(genera[v] for v in comp) + len(edges) - len(comp) + 1 > 0
    ]


def pst(graph: StableGraph) -> PolystableGraph:
    """Forget markings, normalize at all separating edges, stabilize, and
    drop the genus-zero pieces.  Vertex and halfedge ids of survivors are
    preserved; pieces come in the order of their smallest vertex id."""
    vids, genera, ends, halves = graph._indexed()
    return PolystableGraph._from_checked(
        tuple(_graph_of(vids, halves, p) for p in _pst_pieces(genera, ends))
    )


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


def _c1_blocks(genera, ends, halves) -> list:
    """The C1 blocks of a connected bridgeless graph in index form, as lists
    of edge indices: the edges grouped by cycle-space label.  A separating
    edge raises DomainError."""
    labels = _cycle_labels(len(genera), ends)
    if not all(labels):
        bridge = min(tuple(sorted(h)) for h, lab in zip(halves, labels) if not lab)
        raise DomainError(
            f"graph has separating edge {bridge}; C1-sets are undefined"
        )
    blocks: dict = {}
    for i, lab in enumerate(labels):
        blocks.setdefault(lab, []).append(i)
    return list(blocks.values())


def c1_sets(graph: StableGraph) -> C1Partition:
    """Compute the C1 partition of a connected bridgeless graph."""
    _, genera, ends, halves = graph._indexed()
    edges = [tuple(sorted(h)) for h in halves]
    sets = [frozenset(edges[i] for i in block) for block in _c1_blocks(genera, ends, halves)]
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
    _, genera, ends, halves = piece._indexed()
    return _incidence_key(genera, ends, _c1_blocks(genera, ends, halves))


def _piece_part(genera, ends, halves) -> bytes:
    """One bridgeless piece's share of the class key, from its index form:
    its C1 incidence key and its moduli flag (some vertex has
    3g - 3 + valence > 0)."""
    blocks = _c1_blocks(genera, ends, halves)
    positive = any(3 * g - 3 + d > 0 for g, d in zip(genera, _valences(genera, ends)))
    return _incidence_key(genera, ends, blocks) + (b"|m1" if positive else b"|m0")


@lru_cache(maxsize=None)
def _one_vertex_part(genus: int, loops: int) -> bytes:
    """``_piece_part`` of one vertex with loops: each loop is its own C1
    block, so the part depends on the genus and the loop count alone."""
    return _piece_part((genus,), [(0, 0)] * loops, [(0, 1)] * loops)


def _pieces_key(pieces) -> bytes:
    """Class key of polystable pieces in index form, as ``_pst_pieces``
    returns them."""
    parts = [
        _one_vertex_part(genera[0], len(ends)) if len(genera) == 1
        else _piece_part(genera, ends, halves)
        for _, genera, ends, halves in pieces
    ]
    return b"TK1;" + b"||".join(sorted(parts))


def polystable_key(poly: PolystableGraph) -> bytes:
    """Class key: equal exactly for C1-equivalent unions with equal flags."""
    return _pieces_key(piece._indexed() for piece in poly.components)


def torelli_key(graph: StableGraph) -> bytes:
    """Class key of a stable graph of positive genus: the key of its
    ``pst`` pieces, computed without building them as graphs."""
    _, genera, ends, _ = graph._indexed()
    if sum(genera) + len(ends) - len(genera) + 1 < 1:
        raise DomainError("genus-zero graphs have no class key")
    return _pieces_key(_pst_pieces(genera, ends))


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
    _, genera, ends, _ = _index_form(genus, hvertex, edges)
    return _pieces_key(_pst_pieces(genera, ends))


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
