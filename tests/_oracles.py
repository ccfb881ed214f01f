"""Independent oracles used by the test suite.

Everything here recomputes results by a route different from the library:
brute force over permutations, direct connectivity recounts, independent
generation schemes, and counting recurrences.  Oracles stay deliberately
naive; they are the ground truth the implementations are checked against.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from functools import lru_cache
from math import factorial

from torelli_graphs import Degeneration, DomainError, StableGraph
from torelli_graphs.contraction import (
    _build_stratum,
    _pick_signature,
    _slot_classes,
    _strata_base,
)
from torelli_graphs.enumeration import check_type, iter_degenerations, raw_contract
from torelli_graphs.graph_core import canonicalize_raw, connected_components, raw_from_key
from torelli_graphs.torelli import _stratum_key


# ---------------------------------------------------------------------------
# A raw graph through the validating constructor.
# ---------------------------------------------------------------------------

def build_numbered_graph(raw) -> StableGraph:
    """The graph of a raw tuple, built through ``StableGraph.__init__`` with
    the halfedges numbered as ``StableGraph.build`` numbers them: edge i
    gets (2i, 2i + 1), 2i at its first end; then one halfedge per leg in
    label order; then one stub per branch point, by vertex."""
    genera, legs, branch, edges = raw
    halfedges = []
    pairs = []
    for i, (u, v) in enumerate(edges):
        halfedges += [(2 * i, u), (2 * i + 1, v)]
        pairs.append((2 * i, 2 * i + 1))
    h = 2 * len(edges)
    leg_halfedges = []
    for lab, v in sorted(legs):
        halfedges.append((h, v))
        leg_halfedges.append((lab, h))
        h += 1
    for v, count in enumerate(branch):
        for _ in range(count):
            halfedges.append((h, v))
            h += 1
    return StableGraph(list(enumerate(genera)), halfedges, pairs, leg_halfedges)


# ---------------------------------------------------------------------------
# Connectivity and separating edges, recomputed naively.
# ---------------------------------------------------------------------------

def components_after_deleting(graph: StableGraph, edge) -> int:
    verts = graph.vertices()
    adj = {v: set() for v in verts}
    for e in graph.edges():
        if e == tuple(sorted(edge)):
            continue
        u, w = graph.edge_vertices(e)
        adj[u].add(w)
        adj[w].add(u)
    seen = set()
    count = 0
    for v in verts:
        if v in seen:
            continue
        count += 1
        stack = [v]
        seen.add(v)
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return count


def naive_separating_edges(graph: StableGraph) -> frozenset:
    out = set()
    for e in graph.edges():
        if graph.is_loop(e):
            continue
        if components_after_deleting(graph, e) == 2:
            out.add(e)
    return frozenset(out)


def surviving_inserted_edges(graph: StableGraph, inserted) -> frozenset:
    """The non-separating edges at the ``inserted`` vertices of a fiber
    stratum, one set per inserted vertex that keeps any.  An edge to a
    component is named by its halfedge on the component; an edge between
    inserted vertices by the two sets of such halfedges beyond its ends,
    reached through inserted vertices only.  Strata with equal results have
    the same bridgeless part, up to the ids of inserted vertices."""
    bridges = naive_separating_edges(graph)
    at = {}  # inserted vertex -> (edge, far halfedge) per incident edge
    for a, b in graph.edges():
        for x, y in ((a, b), (b, a)):
            if graph.vertex_of(x) in inserted:
                at.setdefault(graph.vertex_of(x), []).append(((a, b), y))

    def beyond(v, cut):
        out, seen, stack = set(), {v}, [v]
        while stack:
            for e, y in at[stack.pop()]:
                u = graph.vertex_of(y)
                if e == cut:
                    continue
                if u not in inserted:
                    out.add(y)
                elif u not in seen:
                    seen.add(u)
                    stack.append(u)
        return frozenset(out)

    sets = []
    for v, incident in at.items():
        names = set()
        for e, y in incident:
            if e in bridges:
                continue
            u = graph.vertex_of(y)
            names.add(y if u not in inserted else frozenset((beyond(v, e), beyond(u, e))))
        if names:
            sets.append(frozenset(names))
    return frozenset(sets)


# ---------------------------------------------------------------------------
# Deleting and cutting edges, on the public accessors.
# ---------------------------------------------------------------------------

def _known_edges(graph: StableGraph, edges) -> list:
    """The edges as sorted halfedge pairs; DomainError for one not in
    ``graph``."""
    known = set(graph.edges())
    out = []
    for e in edges:
        e = tuple(sorted(e))
        if e not in known:
            raise DomainError(f"unknown edge {e}")
        out.append(e)
    return out


def _split(graph: StableGraph, unpaired: set, keep_as_branch: set) -> list:
    """The connected components, as graphs with the ids of ``graph``, once
    the halfedges ``unpaired`` lose their mates: those in
    ``keep_as_branch`` stay as branch points, the others go."""
    where = {h: graph.vertex_of(h) for h in graph.halfedges()}
    kept = [(a, b) for a, b in graph.edges() if a not in unpaired and b not in unpaired]
    out = []
    for comp in connected_components(graph.vertices(), [(where[a], where[b]) for a, b in kept]):
        hs = [(h, v) for h, v in where.items()
              if v in comp and (h not in unpaired or h in keep_as_branch)]
        hset = {h for h, _ in hs}
        out.append(StableGraph(
            {v: graph.vertex_genus(v) for v in comp},
            hs,
            [e for e in kept if e[0] in hset],
            {lab: h for lab, h in graph.legs.items() if h in hset},
        ))
    return out


def delete_edges(graph: StableGraph, edges) -> list:
    """Drop edges entirely (halfedges removed) and split into components."""
    gone = {h for e in _known_edges(graph, edges) for h in e}
    return _split(graph, gone, keep_as_branch=set())


def normalize_at(graph: StableGraph, edges) -> list:
    """Cut each edge, keeping both halfedges as branch points, then split
    into connected components.  Vertex and halfedge ids are preserved."""
    loose = {h for e in _known_edges(graph, edges) for h in e}
    return _split(graph, loose, keep_as_branch=loose)


# ---------------------------------------------------------------------------
# Brute-force isomorphism and automorphisms at the halfedge level.
# ---------------------------------------------------------------------------

def _vertex_data(graph: StableGraph, v) -> tuple:
    loops = len(graph.loops_at(v))
    return (
        graph.vertex_genus(v),
        graph.legs_at(v),
        len(graph.branch_points_at(v)),
        loops,
    )


def brute_force_isomorphic(g1: StableGraph, g2: StableGraph) -> bool:
    """Existence of a genus-preserving vertex bijection matching legs, branch
    counts, loops, and adjacency multiplicities."""
    v1, v2 = g1.vertices(), g2.vertices()
    if len(v1) != len(v2) or len(g1.edges()) != len(g2.edges()):
        return False

    def mult(graph):
        m = {}
        for e in graph.edges():
            u, w = sorted(graph.edge_vertices(e))
            m[(u, w)] = m.get((u, w), 0) + 1
        return m

    m1, m2 = mult(g1), mult(g2)
    for perm in itertools.permutations(v2):
        phi = dict(zip(v1, perm))
        if any(_vertex_data(g1, v) != _vertex_data(g2, phi[v]) for v in v1):
            continue
        ok = True
        for (u, w), c in m1.items():
            a, b = sorted((phi[u], phi[w]))
            if m2.get((a, b), 0) != c:
                ok = False
                break
        if ok and len(m1) == len(m2):
            return True
    return False


def brute_force_halfedge_aut_order(graph: StableGraph) -> int:
    """Count halfedge permutations commuting with all structure.

    A permutation must induce a well-defined vertex bijection preserving
    genus, must commute with the edge pairing, and must fix each labelled
    leg.  Only practical for graphs with few halfedges.
    """
    hs = graph.halfedges()
    legs = graph.legs
    leg_of = {h: lab for lab, h in legs.items()}
    count = 0
    for perm in itertools.permutations(hs):
        tau = dict(zip(hs, perm))
        if any(tau[h] != h for h in leg_of):
            continue
        # legs are already fixed pointwise; pairs must go to pairs and the
        # pairing must commute, which also keeps stubs on stubs
        ok = True
        for h in hs:
            m = graph.mate(h)
            if m is None:
                if graph.mate(tau[h]) is not None:
                    ok = False
                    break
            elif graph.mate(tau[h]) != tau[m]:
                ok = False
                break
        if not ok:
            continue
        vmap = {}
        for h in hs:
            v, w = graph.vertex_of(h), graph.vertex_of(tau[h])
            if vmap.setdefault(v, w) != w:
                ok = False
                break
        if not ok or len(set(vmap.values())) != len(vmap):
            continue
        if any(graph.vertex_genus(v) != graph.vertex_genus(w) for v, w in vmap.items()):
            continue
        count += 1
    return count


def brute_force_vertex_automorphisms(raw, tags=None) -> list:
    """Every vertex permutation of a raw graph (perm[i] = image of i) that
    keeps genera, leg labels, branch counts, tags and the edge multiset.
    Tries all k! permutations, so only for a few vertices."""
    genera, legs, branch, edges = raw
    k = len(genera)
    legs_at = [sorted(lab for lab, v in legs if v == i) for i in range(k)]
    data = [
        (genera[i], legs_at[i], branch[i], None if tags is None else tags[i])
        for i in range(k)
    ]
    multiset = sorted(tuple(sorted(e)) for e in edges)
    out = []
    for perm in itertools.permutations(range(k)):
        if any(data[perm[i]] != data[i] for i in range(k)):
            continue
        if sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges) == multiset:
            out.append(perm)
    return out


# ---------------------------------------------------------------------------
# Brute-force catalog generation (small types only).
# ---------------------------------------------------------------------------

def brute_force_catalog_keys(genus: int, markings: int) -> set:
    """Enumerate all stable graphs directly: vertex counts, genus vectors,
    edge multisets, and labelled leg placements, deduplicated by key."""
    check_type(genus, markings)
    keys = set()
    max_vertices = 2 * genus - 2 + markings
    for k in range(1, max_vertices + 1):
        cells = [(i, j) for i in range(k) for j in range(i, k)]
        for gvec in _genus_vectors(k, genus):
            n_edges = genus - sum(gvec) + k - 1
            if n_edges < 0 or n_edges > 3 * genus - 3 + markings:
                continue
            for edge_counts in _compositions(n_edges, len(cells)):
                edges = []
                for (i, j), c in zip(cells, edge_counts):
                    edges.extend([(i, j)] * c)
                if not _connected(k, edges):
                    continue
                val = [0] * k
                for u, v in edges:
                    val[u] += 1
                    val[v] += 1
                # each vertex must end with 2g-2+val+legs > 0
                need = [max(0, 1 - (2 * gvec[v] - 2 + val[v])) for v in range(k)]
                if sum(need) > markings:
                    continue
                for placement in _leg_placements(markings, k, need):
                    legs = {lab: v for lab, v in placement}
                    g = StableGraph.build(
                        dict(enumerate(gvec)), edges, legs
                    )
                    if g.is_stable() and g.genus() == genus:
                        keys.add(g.canonical_key())
    return keys


def _genus_vectors(k, total):
    if k == 1:
        for g in range(total + 1):
            yield (g,)
        return
    for g in range(total + 1):
        for rest in _genus_vectors(k - 1, total - g):
            yield (g,) + rest


def _compositions(total, cells):
    if cells == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, cells - 1):
            yield (first,) + rest


def _connected(k, edges) -> bool:
    if k == 1:
        return True
    adj = {i: set() for i in range(k)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == k


def _leg_placements(n, k, need):
    """All assignments of labels 1..n to vertices meeting per-vertex minima."""
    def rec(lab, counts):
        if lab > n:
            if all(counts[v] >= need[v] for v in range(k)):
                yield ()
            return
        remaining = n - lab + 1
        deficit = sum(max(0, need[v] - counts[v]) for v in range(k))
        if deficit > remaining:
            return
        for v in range(k):
            counts[v] += 1
            for rest in rec(lab + 1, counts):
                yield ((lab, v),) + rest
            counts[v] -= 1

    yield from rec(1, [0] * k)


# ---------------------------------------------------------------------------
# Independent catalog route: insert one leg at a time.
# ---------------------------------------------------------------------------

def insert_leg_everywhere(graph: StableGraph, label: int) -> list:
    """All stable graphs obtained by adding a new labelled leg at a vertex,
    on an edge (subdividing), or at an existing leg (splitting off a
    three-valent genus-zero vertex)."""
    out = []
    verts = {v: graph.vertex_genus(v) for v in graph.vertices()}
    base_edges = [graph.edge_vertices(e) for e in graph.edges()]
    base_legs = {lab: graph.vertex_of(h) for lab, h in graph.legs.items()}
    nv = max(graph.vertices()) + 1
    for v in graph.vertices():
        legs = dict(base_legs)
        legs[label] = v
        out.append(StableGraph.build(verts, base_edges, legs))
    for i, (u, w) in enumerate(base_edges):
        edges = base_edges[:i] + base_edges[i + 1:] + [(u, nv), (nv, w)]
        legs = dict(base_legs)
        legs[label] = nv
        out.append(StableGraph.build({**verts, nv: 0}, edges, legs))
    for lab, v in base_legs.items():
        legs = dict(base_legs)
        legs[lab] = nv
        legs[label] = nv
        edges = base_edges + [(v, nv)]
        out.append(StableGraph.build({**verts, nv: 0}, edges, legs))
    return out


def leg_insertion_catalog_keys(base_keys: set, label: int) -> set:
    keys = set()
    for key in base_keys:
        g = StableGraph.from_canonical_key(key)
        for child in insert_leg_everywhere(g, label):
            keys.add(child.canonical_key())
    return keys


# ---------------------------------------------------------------------------
# Counting stable leaf-labelled genus-zero trees by a partition recurrence.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _branch_count(k: int) -> int:
    """Rooted branches on k labelled leaves: a single leaf, or a root vertex
    with at least two sub-branches."""
    if k == 1:
        return 1
    total = 0
    for parts in _int_partitions(k, k):
        if len(parts) < 2:
            continue
        ways = factorial(k)
        for p in parts:
            ways //= factorial(p)
        mult = {}
        for p in parts:
            mult[p] = mult.get(p, 0) + 1
        for m in mult.values():
            ways //= factorial(m)
        prod = 1
        for p in parts:
            prod *= _branch_count(p)
        total += ways * prod
    return total


def _int_partitions(n, cap):
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _int_partitions(n - first, first):
            yield (first,) + rest


def stable_tree_count(n_leaves: int) -> int:
    """Number of stable genus-zero trees with n labelled leaves: hang leaf n
    on a root vertex of valence >= 3, i.e. split the other leaves into at
    least two rooted branches."""
    if n_leaves < 3:
        raise ValueError("need at least 3 leaves")
    return _branch_count(n_leaves - 1)


def genus_zero_catalog_size(n: int) -> int:
    return stable_tree_count(n)


# ---------------------------------------------------------------------------
# Exhaustive separating-bridge search (not only maximal).
# ---------------------------------------------------------------------------

def exhaustive_separating_bridge_union(graph: StableGraph) -> frozenset:
    from torelli_graphs import classify_bridge

    candidates = [
        v
        for v in graph.vertices()
        if graph.vertex_genus(v) == 0
        and not graph.legs_at(v)
        and not graph.branch_points_at(v)
        and not graph.loops_at(v)
    ]
    union = set()
    for r in range(1, len(candidates) + 1):
        for combo in itertools.combinations(candidates, r):
            rec = classify_bridge(graph, combo)
            if rec is not None and rec.category == "separating":
                union |= rec.vertices
    return frozenset(union)


# ---------------------------------------------------------------------------
# Random-order stabilization.
# ---------------------------------------------------------------------------

def random_order_stabilize_keys(graph: StableGraph, rng: random.Random):
    """Contract tails and bridges in random order; return the canonical key
    of the result (contraction keeps a connected input connected)."""
    genus = {v: graph.vertex_genus(v) for v in graph.vertices()}
    hvertex = {h: graph.vertex_of(h) for h in graph.halfedges()}
    mate = {}
    for a, b in graph.edges():
        mate[a] = b
        mate[b] = a

    def rebuild():
        return StableGraph(genus, list(hvertex.items()), _pairs(mate), {})

    def _pairs(m):
        done = set()
        out = []
        for h, k in m.items():
            if h not in done:
                done.update((h, k))
                out.append((h, k))
        return out

    while True:
        h_at = {}
        for h, v in hvertex.items():
            h_at.setdefault(v, []).append(h)
        options = []
        for v in genus:
            hs = sorted(h_at.get(v, []))
            if genus[v] or len(hs) > 2:
                continue
            if len(hs) == 2 and mate[hs[0]] == hs[1]:
                continue
            if len(genus) == 1:
                continue
            if not hs:
                continue
            options.append((v, hs))
        if not options:
            return rebuild().canonical_key()
        v, hs = rng.choice(options)
        if len(hs) == 1:
            h = hs[0]
            m = mate[h]
            for x in (h, m):
                del hvertex[x]
                del mate[x]
            del genus[v]
        else:
            h1, h2 = hs
            m1, m2 = mate[h1], mate[h2]
            mate[m1] = m2
            mate[m2] = m1
            for x in (h1, h2):
                del hvertex[x]
                del mate[x]
            del genus[v]


# ---------------------------------------------------------------------------
# C1-equivalence by direct search, the judge of class keys.
# ---------------------------------------------------------------------------

def _block_degrees(graph, block) -> dict:
    """Halfedges at each vertex lying in the block's edges."""
    deg: Counter = Counter()
    for a, b in block:
        deg[graph.vertex_of(a)] += 1
        deg[graph.vertex_of(b)] += 1
    return dict(deg)


def c1_blocks_by_deletion(graph: StableGraph) -> list:
    """The C1 blocks of a connected bridgeless graph, from the definition:
    deleting an edge makes exactly the other edges of its block
    separating."""
    blocks = []
    for e in graph.edges():
        if not any(e in block for block in blocks):
            rest = delete_edges(graph, [e])
            blocks.append(frozenset({e}).union(*map(naive_separating_edges, rest)))
    return blocks


def _c1_flat_data(poly):
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
        for block in c1_blocks_by_deletion(c):
            deg = _block_degrees(c, block)
            blocks.append(
                (len(block), {vindex[(ci, v)]: d for v, d in deg.items()})
            )
    profile_of = [[] for _ in verts]
    for size, deg in blocks:
        for i, d in deg.items():
            profile_of[i].append((d, size))
    return verts, blocks, [tuple(sorted(p)) for p in profile_of]


def c1_equivalent(a, b):
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


# ---------------------------------------------------------------------------
# Axis graphs through their star expansion.
# ---------------------------------------------------------------------------

def star_expansion(axis):
    """Expand every hyperedge of an axis graph to a star around a fresh
    sentinel vertex of the point's genus, carrying its absorbed legs.

    Returns (graph, tags): tags mark sentinels (1) apart from genuine
    components (0), by vertex id.
    """
    vertices = {}
    tags = {}
    legs = {}
    for cid in axis.components():
        vid = ("c", cid)
        vertices[vid] = axis.component_genus(cid)
        tags[vid] = 0
        for lab in axis.component_legs(cid):
            legs[lab] = vid
    edges = []
    for i, p in enumerate(axis.singular_points()):
        svid = ("s", i)
        vertices[svid] = p.genus
        tags[svid] = 1
        for lab in p.absorbed_legs:
            legs[lab] = svid
        for cid, _sid in p.slots:
            edges.append((svid, ("c", cid)))
    return StableGraph.build(vertices, edges, legs), tags


def star_genus(axis) -> int:
    return star_expansion(axis)[0].genus()


def star_canonical_key(axis) -> bytes:
    """The ``AX1`` key of an axis graph: the tagged canonical key of its
    star expansion."""
    graph, tags = star_expansion(axis)
    raw, vids = graph.to_raw()
    return b"AX1;" + canonicalize_raw(raw, tags=tuple(tags[v] for v in vids)).key


# ---------------------------------------------------------------------------
# Fiber constancy, keying every stratum.
# ---------------------------------------------------------------------------

def exhaustive_fiber_verdict(axis):
    """Fiber verdict from the class keys of all strata at once: the first
    stratum whose key differs from stratum 0 wins; failing that, the first
    stratum (in order) with an inserted vertex of valence > 3 left by
    ``pst`` gives a moduli remnant."""
    from torelli_graphs import FiberVerdict, fiber_strata, polystable_key, pst

    strata = fiber_strata(axis)
    keys = []
    remnant = None
    for graph, inserted in zip(strata.graphs, strata.inserted_vertices):
        poly = pst(graph)
        keys.append(polystable_key(poly))
        if remnant is None:
            for piece in poly.components:
                for v in piece.vertices():
                    if v in inserted and piece.valence(v) > 3:
                        remnant = (v, piece.valence(v))
    for i, key in enumerate(keys):
        if key != keys[0]:
            return FiberVerdict(
                "varies", None, "fiber strata have differing class keys", (0, i)
            )
    if remnant is not None:
        v, val = remnant
        return FiberVerdict(
            "varies",
            None,
            f"inserted vertex {v} survives with valence {val}: "
            f"positive-dimensional moduli remnant",
            remnant,
        )
    return FiberVerdict("constant", keys[0], None, None)


def signed_combos(axis):
    """Yield each choice of the fiber, in the order of ``fiber_strata``,
    with its signature: the library's ``_pick_signature`` at every point,
    computed per stratum.  The reference for the walk of
    ``fiber_constant``, which keeps points without slot classes at pick 0
    and reads each pick's signature once."""
    base = _strata_base(axis)
    classes = _slot_classes(axis, base.big)
    for combo in itertools.product(*map(range, base.sizes)):
        yield combo, tuple(
            _pick_signature(p.multiplicity, pick, point_classes)
            for (_, p), pick, point_classes in zip(base.big, combo, classes)
        )


def fiber_keys(axis):
    """Yield the class key of every stratum, in the order of
    ``fiber_strata``, keying one stratum per signature of
    ``signed_combos``."""
    base = _strata_base(axis)
    keys: dict = {}
    for combo, sig in signed_combos(axis):
        if sig not in keys:
            keys[sig] = _stratum_key(_build_stratum(base, combo)[0])
        yield keys[sig]


# ---------------------------------------------------------------------------
# Degenerations, each contracted from its target directly.
# ---------------------------------------------------------------------------

def direct_degenerations(catalog, subsets: str = "all") -> list:
    """Every degeneration record, each contracted and canonicalized from
    its target on its own: every edge subset (by size, then in
    ``itertools.combinations`` order) or every single edge."""
    records = []
    for target_key in catalog.keys:
        raw = raw_from_key(target_key)
        n_edges = len(raw[3])
        if subsets == "all":
            pools = [
                c for r in range(n_edges + 1)
                for c in itertools.combinations(range(n_edges), r)
            ]
        else:
            pools = [(i,) for i in range(n_edges)]
        for chosen in pools:
            child, classes = raw_contract(raw, chosen)
            res = canonicalize_raw(child)
            if res.key not in catalog.index:
                raise DomainError("contraction left the catalog; it is incomplete")
            vmap = tuple(
                (pos, frozenset(classes[orig])) for pos, orig in enumerate(res.order)
            )
            records.append(Degeneration(res.key, target_key, frozenset(chosen), vmap))
    return records


def degenerations_between(catalog) -> list:
    """Materialized list of every degeneration record (all edge subsets)."""
    return list(iter_degenerations(catalog, subsets="all"))


# ---------------------------------------------------------------------------
# Edge contraction of a graph, through the raw contraction.
# ---------------------------------------------------------------------------

def contract_edges(graph: StableGraph, edges) -> StableGraph:
    """Contract edges of a graph: endpoints merge (genera add), loops are
    deleted and bump their vertex's genus.  Total genus is preserved."""
    todo = []
    eset = {e: i for i, e in enumerate(graph.edges())}
    for e in edges:
        e = tuple(sorted(e))
        if e not in eset:
            raise DomainError(f"unknown edge {e}")
        todo.append(e)
    if not todo:
        return graph
    raw, vids = graph.to_raw()
    # raw edges are sorted; recover indices by vertex pairs with multiplicity
    idx_of = {v: i for i, v in enumerate(vids)}
    pair_pool: dict = {}
    for i, (u, v) in enumerate(raw[3]):
        pair_pool.setdefault((u, v), []).append(i)
    indices = []
    for h1, h2 in todo:
        u, v = idx_of[graph.vertex_of(h1)], idx_of[graph.vertex_of(h2)]
        pair = (u, v) if u <= v else (v, u)
        indices.append(pair_pool[pair].pop())
    return StableGraph.from_raw(raw_contract(raw, indices)[0])
