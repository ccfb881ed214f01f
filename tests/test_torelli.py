import hashlib
import itertools
import json
import random

import pytest

from torelli_graphs import (
    AxisGraph,
    DomainError,
    PolystableGraph,
    SingularPoint,
    StableGraph,
    c1_sets,
    component_class_key,
    fiber_constant,
    fiber_strata,
    polystable_key,
    pst,
    stabilize,
    stabilize_component,
    torelli_key,
    z_contract,
    separating_bridge_assignment,
    classify_axis_points,
)

from _oracles import (
    c1_equivalent,
    exhaustive_fiber_verdict,
    naive_separating_edges,
    random_order_stabilize_keys,
    surviving_inserted_edges,
)
import torelli_graphs.contraction as contraction
import torelli_graphs.graph_core as graph_core
import torelli_graphs.torelli as torelli_module
from torelli_graphs.cli import main


def r_shape():
    return StableGraph.build({0: 0, 1: 1, 2: 1, 3: 1}, edges=[(0, 1), (0, 2), (0, 3)])


def four_parallel():
    return StableGraph.build({0: 1, 1: 0}, edges=[(0, 1)] * 4)


class TestStabilize:
    def test_cycle_becomes_loop_vertex(self):
        c5 = StableGraph.build({i: 0 for i in range(5)},
                               edges=[(i, (i + 1) % 5) for i in range(5)])
        out = stabilize_component(c5)
        assert len(out.vertices()) == 1
        assert out.genus() == 1
        assert len(out.edges()) == 1 and out.is_loop(out.edges()[0])

    def test_pendant_tail_merges(self):
        g = StableGraph.build({0: 2, 1: 0}, edges=[(0, 1)])
        out = stabilize_component(g)
        assert len(out.vertices()) == 1 and out.genus() == 2

    def test_stable_graph_fixed(self):
        b = StableGraph.build({0: 1, 1: 1}, edges=[(0, 1), (0, 1)])
        assert stabilize_component(b).canonical_key() == b.canonical_key()

    def test_double_edge_bridge_leaves_loop(self):
        g = StableGraph.build({0: 1, 1: 0}, edges=[(0, 1), (0, 1)])
        out = stabilize_component(g)
        assert len(out.vertices()) == 1
        assert out.vertex_genus(out.vertices()[0]) == 1
        assert len(out.loops_at(out.vertices()[0])) == 1

    def test_genus_preserved_and_order_independent(self, catalog):
        rng = random.Random(31)
        pool = []
        for g in catalog(2, 0).graphs():
            pieces = g.normalize_at(g.separating_edges())
            pool.extend(pieces)
        # also some synthetic unstable chains
        pool.append(StableGraph.build(
            {0: 1, 1: 0, 2: 0, 3: 1}, edges=[(0, 1), (1, 2), (2, 3)]))
        pool.append(StableGraph.build(
            {0: 0, 1: 0, 2: 0, 3: 2}, edges=[(0, 1), (1, 2), (2, 3), (0, 2)]))
        for piece in pool:
            bare = StableGraph(
                {v: piece.vertex_genus(v) for v in piece.vertices()},
                [(h, piece.vertex_of(h))
                 for e in piece.edges() for h in e],
                piece.edges(),
                {},
            )
            expected = stabilize_component(bare).canonical_key()
            assert stabilize_component(bare).genus() == bare.genus()
            for _ in range(100):
                assert random_order_stabilize_keys(bare, rng) == expected

    def test_disjoint_union_wrapper(self):
        a = StableGraph.build({0: 2, 1: 0}, edges=[(0, 1)])
        b = StableGraph.build({0: 0, 1: 0}, edges=[(0, 1), (0, 1)])
        poly = stabilize([a, b])
        assert sorted(c.genus() for c in poly.components) == [1, 2]


class TestPst:
    def test_r_shape_three_elliptic_points(self):
        poly = pst(r_shape())
        assert [c.genus() for c in poly.components] == [1, 1, 1]
        assert all(len(c.vertices()) == 1 and not c.edges()
                   for c in poly.components)

    def test_four_parallel_fixpoint(self):
        poly = pst(four_parallel())
        assert len(poly.components) == 1
        (c,) = poly.components
        assert c.genus() == 4 and len(c.edges()) == 4

    def test_genus2_chain_splits(self):
        g = StableGraph.build({0: 2, 1: 2}, edges=[(0, 1)])
        poly = pst(g)
        assert sorted(c.genus() for c in poly.components) == [2, 2]

    def test_direct_construction_rejects_bridge(self):
        chain = StableGraph.build({0: 1, 1: 1}, edges=[(0, 1)])
        with pytest.raises(DomainError, match="no separating edges"):
            PolystableGraph((chain,))

    def test_no_second_bridge_search(self, catalog, monkeypatch):
        # pst builds its pieces bridgeless and does not search them again
        calls = []
        real = StableGraph.separating_edges

        def counting(graph):
            calls.append(graph)
            return real(graph)

        monkeypatch.setattr(StableGraph, "separating_edges", counting)
        for g in catalog(2, 1).graphs():
            pst(g)
        assert calls == []

    def test_idempotent_on_catalogs(self, catalog):
        for gn in [(2, 0), (1, 2), (2, 1)]:
            for g in catalog(*gn).graphs():
                poly = pst(g)
                for piece in poly.components:
                    again = pst(piece)
                    assert len(again.components) == 1
                    assert again.components[0].canonical_key() == \
                        piece.canonical_key()

    def test_invariant_under_leg_permutation(self, catalog):
        for g in catalog(1, 3).graphs():
            legs = {lab: g.vertex_of(h) for lab, h in g.legs.items()}
            permuted = {1: legs[2], 2: legs[3], 3: legs[1]}
            g2 = StableGraph.build(
                {v: g.vertex_genus(v) for v in g.vertices()},
                [g.edge_vertices(e) for e in g.edges()],
                permuted,
            )
            assert polystable_key(pst(g2)) == polystable_key(pst(g))

    def test_invariant_under_separating_tree_attachment(self):
        base = four_parallel()
        # hang a separating rational tree carrying two genus-1 tips off the core
        g = StableGraph.build(
            {0: 1, 1: 0, 10: 0, 11: 1, 12: 1},
            edges=[(0, 1)] * 4 + [(0, 10), (10, 11), (10, 12)],
        )
        poly = pst(g)
        keys = sorted(c.canonical_key() for c in poly.components)
        base_keys = sorted(c.canonical_key() for c in pst(base).components)
        # the separating tree contributes the two genus-1 tails as extra
        # components and leaves the core unchanged
        assert base_keys[0] in keys
        assert len(keys) == 3


class TestNoDictBuild:
    """The class keys of a graph that keeps its raw read the raw: its
    halfedge dicts are never built."""

    @pytest.fixture
    def view_builds(self, monkeypatch):
        calls = []
        raw_views = graph_core._raw_views

        def counting(raw):
            calls.append(raw)
            return raw_views(raw)

        monkeypatch.setattr(graph_core, "_raw_views", counting)
        return calls

    def test_torelli_key_on_kept_raw(self, catalog, view_builds):
        cat = catalog(2, 3)
        for i in range(len(cat)):
            torelli_key(cat.graph(i))
        assert view_builds == []

    def test_torelli_classes_command(self, catalog, view_builds, capsys):
        catalog(2, 3)  # cached, so the command reads it from the cache
        assert main(["torelli-classes", "--genus", "2", "--markings", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["payload"]["catalog_size"] == 555
        assert view_builds == []


class TestC1Sets:
    def test_cycle_single_block(self):
        for k in (2, 3, 4):
            cyc = StableGraph.build({i: 1 for i in range(k)},
                                    edges=[(i, (i + 1) % k) for i in range(k)])
            part = c1_sets(cyc)
            assert len(part.blocks) == 1
            assert len(part.blocks[0]) == k

    def test_banana_three_singletons(self):
        b3 = StableGraph.build({0: 1, 1: 1}, edges=[(0, 1)] * 3)
        part = c1_sets(b3)
        assert sorted(len(b) for b in part.blocks) == [1, 1, 1]

    def test_loop_singleton(self):
        g = StableGraph.build({0: 1}, edges=[(0, 0)])
        part = c1_sets(g)
        assert len(part.blocks) == 1 and len(part.blocks[0]) == 1

    def test_bridge_rejected(self):
        g = StableGraph.build({0: 1, 1: 1}, edges=[(0, 1)])
        with pytest.raises(DomainError):
            c1_sets(g)

    def test_well_definedness_law(self, catalog):
        # bridgeless catalog graphs, and pst pieces, which keep the ids of
        # their host
        pool = [g for gn in [(2, 0), (2, 1), (1, 3)] for g in catalog(*gn).graphs()
                if not g.separating_edges()]
        pool += [piece for gn in [(2, 2), (3, 0)] for g in catalog(*gn).graphs()
                 for piece in pst(g).components]
        for g in pool:
            part = c1_sets(g)
            covered = set()
            for block in part.blocks:
                assert not (covered & block)
                covered |= block
                for p in block:
                    pieces = g.delete_edges([p])
                    seps = frozenset().union(
                        *(naive_separating_edges(x) for x in pieces)
                    )
                    assert seps == block - {p}
            assert covered == set(g.edges())


class TestC1Equivalence:
    def test_reflexive(self, catalog):
        for g in catalog(2, 0).graphs():
            poly = pst(g)
            ok, witness = c1_equivalent(poly, poly)
            assert ok and witness

    def test_genus_multiset_mismatch(self):
        b3 = pst(StableGraph.build({0: 1, 1: 1}, edges=[(0, 1)] * 3))
        cyc = pst(StableGraph.build({0: 1, 1: 1, 2: 0},
                                    edges=[(0, 1), (1, 2), (2, 0)]))
        assert not c1_equivalent(b3, cyc)[0]

    def test_component_permutation(self):
        a = PolystableGraph((StableGraph.build({0: 1}),
                             StableGraph.build({0: 2, 1: 0}, edges=[(0, 1)] * 3)))
        b = PolystableGraph((StableGraph.build({5: 2, 6: 0}, edges=[(5, 6)] * 3),
                             StableGraph.build({9: 1})))
        ok, witness = c1_equivalent(a, b)
        assert ok

    def test_equivalence_relation_on_catalog(self, catalog):
        polys = [pst(g) for g in catalog(2, 0).graphs()]
        n = len(polys)
        rel = [[c1_equivalent(polys[i], polys[j])[0] for j in range(n)]
               for i in range(n)]
        for i in range(n):
            assert rel[i][i]
            for j in range(n):
                assert rel[i][j] == rel[j][i]
                for k in range(n):
                    if rel[i][j] and rel[j][k]:
                        assert rel[i][k]

    def test_isomorphic_implies_equivalent(self, catalog):
        for g in catalog(2, 1).graphs():
            poly = pst(g)
            relabeled = PolystableGraph(tuple(
                StableGraph.from_canonical_key(c.canonical_key())
                for c in poly.components
            ))
            assert c1_equivalent(poly, relabeled)[0]


class TestTorelliKey:
    def test_matches_c1_equivalence(self, catalog):
        polys = [pst(g) for g in catalog(2, 0).graphs()]
        keys = [polystable_key(p) for p in polys]
        for i in range(len(polys)):
            for j in range(len(polys)):
                same = keys[i] == keys[j]
                equiv = c1_equivalent(polys[i], polys[j])[0]
                flags = polys[i].moduli_positive_flags() == \
                    polys[j].moduli_positive_flags()
                assert same == (equiv and flags)

    def test_rational_bridge_insertion_keeps_key(self):
        # a separating rational tree inside the graph is absorbed
        plain = StableGraph.build({0: 0, 1: 1, 2: 1, 3: 1},
                                  edges=[(0, 1), (0, 2), (0, 3)])
        refined = StableGraph.build(
            {0: 0, 4: 0, 1: 1, 2: 1, 3: 1},
            edges=[(0, 1), (0, 4), (4, 2), (4, 3)],
        )
        assert torelli_key(plain) == torelli_key(refined)

    def test_pairing_within_a_block_is_free(self):
        # one C1-set meets four vertices in two orders: the graphs are not
        # isomorphic, but C1-equivalent, so they share a class
        genera = {0: 1, 1: 1, 2: 2, 3: 2}
        a = StableGraph.build(genera, edges=[(0, 1), (1, 2), (2, 3), (3, 0)])
        b = StableGraph.build(genera, edges=[(0, 2), (2, 1), (1, 3), (3, 0)])
        assert a.canonical_key() != b.canonical_key()
        assert c1_equivalent(pst(a), pst(b))[0]
        assert torelli_key(a) == torelli_key(b)

    def test_banana_vs_separating_pair_distinct(self):
        banana = StableGraph.build({0: 1, 1: 1}, edges=[(0, 1), (0, 1)])
        pair = StableGraph.build({0: 1, 1: 1}, edges=[(0, 1)])
        assert torelli_key(banana) != torelli_key(pair)

    def test_smooth_vs_nodal_genus_one_distinct(self, catalog):
        keys = {torelli_key(g) for g in catalog(1, 1).graphs()}
        assert len(keys) == 2

    def test_genus_zero_rejected(self):
        g = StableGraph.build({0: 0}, legs={1: 0, 2: 0, 3: 0})
        with pytest.raises(DomainError):
            torelli_key(g)

    def test_key_refines_genus(self, catalog):
        seen = {}
        for gn in [(1, 2), (2, 0)]:
            for g in catalog(*gn).graphs():
                seen.setdefault(torelli_key(g), set()).add(pst(g).genus())
        for genera in seen.values():
            assert len(genera) == 1


class TestKeyContract:
    # sha256 over "graph key<TAB>class key" lines, catalogs in this order and
    # each in sorted key order; class keys are persisted, so any byte
    # change to them must show here
    PINNED = "313e8d4b725a59f02e7eb1477e6d015ba12d58b723c42ddb332fa32b5a00df45"

    def test_class_keys_pinned(self, catalog):
        lines = []
        for gn in [(2, 2), (3, 0), (1, 4), (2, 3)]:
            for key in sorted(catalog(*gn).keys):
                graph = StableGraph.from_canonical_key(key)
                lines.append(key.decode() + "\t" + torelli_key(graph).decode())
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.PINNED


def banana(m):
    """Two genus-0 vertices on m parallel edges."""
    return StableGraph.build({0: 0, 1: 0}, edges=[(0, 1)] * m)


def centre(c):
    """A genus-0 centre with c genus-1 arms, each on a double edge."""
    return StableGraph.build(
        {0: 0, **{i: 1 for i in range(1, c + 1)}},
        edges=[(0, i) for i in range(1, c + 1) for _ in range(2)],
    )


class TestSymmetricFamilies:
    # class keys computed with the search that visited every leaf
    PINNED = {
        ("banana", 5): "TK1;TG1;k=7;g=0,0,0,0,0,0,0;l=;b=;e=0-2,0-3,0-4,0-5,0-6,1-2,1-3,1-4,1-5,1-6;t=0:0,1:0,2:1,3:1,4:1,5:1,6:1|m1",
        ("banana", 6): "TK1;TG1;k=8;g=0,0,0,0,0,0,0,0;l=;b=;e=0-2,0-3,0-4,0-5,0-6,0-7,1-2,1-3,1-4,1-5,1-6,1-7;t=0:0,1:0,2:1,3:1,4:1,5:1,6:1,7:1|m1",
        ("banana", 7): "TK1;TG1;k=9;g=0,0,0,0,0,0,0,0,0;l=;b=;e=0-2,0-3,0-4,0-5,0-6,0-7,0-8,1-2,1-3,1-4,1-5,1-6,1-7,1-8;t=0:0,1:0,2:1,3:1,4:1,5:1,6:1,7:1,8:1|m1",
        ("banana", 8): "TK1;TG1;k=10;g=0,0,0,0,0,0,0,0,0,0;l=;b=;e=0-2,0-3,0-4,0-5,0-6,0-7,0-8,0-9,1-2,1-3,1-4,1-5,1-6,1-7,1-8,1-9;t=0:0,1:0,2:1,3:1,4:1,5:1,6:1,7:1,8:1,9:1|m1",
        ("banana", 9): "TK1;TG1;k=11;g=0,0,0,0,0,0,0,0,0,0,0;l=;b=;e=0-2,0-3,0-4,0-5,0-6,0-7,0-8,0-9,0-10,1-2,1-3,1-4,1-5,1-6,1-7,1-8,1-9,1-10;t=0:0,1:0,2:1,3:1,4:1,5:1,6:1,7:1,8:1,9:1,10:1|m1",
        ("centre", 5): "TK1;TG1;k=11;g=0,1,1,1,1,1,0,0,0,0,0;l=;b=;e=0-6,0-6,0-7,0-7,0-8,0-8,0-9,0-9,0-10,0-10,1-6,1-6,2-7,2-7,3-8,3-8,4-9,4-9,5-10,5-10;t=0:0,1:0,2:0,3:0,4:0,5:0,6:1,7:1,8:1,9:1,10:1|m1",
        ("centre", 6): "TK1;TG1;k=13;g=0,1,1,1,1,1,1,0,0,0,0,0,0;l=;b=;e=0-7,0-7,0-8,0-8,0-9,0-9,0-10,0-10,0-11,0-11,0-12,0-12,1-7,1-7,2-8,2-8,3-9,3-9,4-10,4-10,5-11,5-11,6-12,6-12;t=0:0,1:0,2:0,3:0,4:0,5:0,6:0,7:1,8:1,9:1,10:1,11:1,12:1|m1",
        ("centre", 7): "TK1;TG1;k=15;g=0,1,1,1,1,1,1,1,0,0,0,0,0,0,0;l=;b=;e=0-8,0-8,0-9,0-9,0-10,0-10,0-11,0-11,0-12,0-12,0-13,0-13,0-14,0-14,1-8,1-8,2-9,2-9,3-10,3-10,4-11,4-11,5-12,5-12,6-13,6-13,7-14,7-14;t=0:0,1:0,2:0,3:0,4:0,5:0,6:0,7:0,8:1,9:1,10:1,11:1,12:1,13:1,14:1|m1",
        ("centre", 8): "TK1;TG1;k=17;g=0,1,1,1,1,1,1,1,1,0,0,0,0,0,0,0,0;l=;b=;e=0-9,0-9,0-10,0-10,0-11,0-11,0-12,0-12,0-13,0-13,0-14,0-14,0-15,0-15,0-16,0-16,1-9,1-9,2-10,2-10,3-11,3-11,4-12,4-12,5-13,5-13,6-14,6-14,7-15,7-15,8-16,8-16;t=0:0,1:0,2:0,3:0,4:0,5:0,6:0,7:0,8:0,9:1,10:1,11:1,12:1,13:1,14:1,15:1,16:1|m1",
    }

    def test_class_keys_pinned(self):
        family = {"banana": banana, "centre": centre}
        for (name, n), key in self.PINNED.items():
            assert torelli_key(family[name](n)).decode() == key

    def test_search_leaves_bounded(self, monkeypatch):
        # the incidence graph of banana m has m interchangeable blocks and
        # centre c has c interchangeable arms; without automorphism pruning
        # they take 2*m! and c! leaves
        calls = []
        real = graph_core._certificate

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(graph_core, "_certificate", counting)
        for m in range(2, 13):
            calls.clear()
            torelli_key(banana(m))
            assert len(calls) <= m + 1
        for c in range(1, 11):
            calls.clear()
            torelli_key(centre(c))
            assert len(calls) <= c


class TestOneVertexPieces:
    def test_memo_matches_component_class_key(self):
        for g in range(5):
            for loops in range(7):
                piece = StableGraph.build({0: g}, [(0, 0)] * loops)
                flag = b"|m1" if 3 * g - 3 + 2 * loops > 0 else b"|m0"
                assert torelli_module._one_vertex_part(g, loops) == \
                    component_class_key(piece) + flag

    def test_polystable_key_of_one_vertex_pieces(self):
        # the memo serves polystable_key too
        spec = [(1, 0), (0, 1), (2, 3), (1, 2)]
        pieces = tuple(StableGraph.build({0: g}, [(0, 0)] * loops) for g, loops in spec)
        parts = sorted(
            component_class_key(p) + (b"|m1" if 3 * g - 3 + 2 * loops > 0 else b"|m0")
            for p, (g, loops) in zip(pieces, spec)
        )
        assert polystable_key(PolystableGraph(pieces)) == b"TK1;" + b"||".join(parts)


class TestFiberConstant:
    def test_separating_four_axis_constant(self):
        axis = AxisGraph(
            [(i, 1, []) for i in range(4)],
            [SingularPoint(0, ((0, 0), (1, 0), (2, 0), (3, 0)))],
        )
        verdict = fiber_constant(axis)
        assert verdict.constant
        expected = polystable_key(
            PolystableGraph(tuple(StableGraph.build({i: 1}) for i in range(4)))
        )
        assert verdict.key == expected

    def test_profile_four_varies(self):
        axis = AxisGraph([(0, 1, [])],
                         [SingularPoint(0, ((0, 0), (0, 1), (0, 2), (0, 3)))])
        verdict = fiber_constant(axis)
        assert verdict.verdict == "varies"

    def test_profile_two_two_varies(self):
        axis = AxisGraph(
            [(0, 1, []), (1, 1, [])],
            [SingularPoint(0, ((0, 0), (0, 1), (1, 0), (1, 1)))],
        )
        assert fiber_constant(axis).verdict == "varies"

    def test_profile_three_one_constant(self):
        axis = AxisGraph(
            [(0, 2, []), (1, 1, [])],
            [SingularPoint(0, ((0, 0), (0, 1), (0, 2), (1, 0)))],
        )
        assert fiber_constant(axis).constant

    def test_matches_quasi_separating_criterion(self, catalog):
        # catalog-derived axis graphs: verdict constant exactly when every
        # large point is quasi-separating
        for gn in [(3, 0), (2, 2)]:
            for g in catalog(*gn).graphs():
                if g.genus() < 1:
                    continue
                axis = z_contract(g, separating_bridge_assignment(g))
                cls = classify_axis_points(axis)
                assert cls.is_quasi_separating_axis_like
                assert fiber_constant(axis).constant

    def test_non_axis_like_rejected(self):
        axis = AxisGraph(
            [(0, 1, []), (1, 2, [])],
            [SingularPoint(1, ((0, 0), (1, 0)))],
        )
        with pytest.raises(DomainError):
            fiber_constant(axis)

    def test_profile_two_two_key_mismatch_witness(self):
        # the (2,2) profile varies because stratum 1 already has another
        # class key; the remnant rule is never consulted
        axis = AxisGraph(
            [(0, 1, []), (1, 1, [])],
            [SingularPoint(0, ((0, 0), (0, 1), (1, 0), (1, 1)))],
        )
        verdict = fiber_constant(axis)
        assert verdict.verdict == "varies"
        assert verdict.reason == "fiber strata have differing class keys"
        assert verdict.witness == (0, 1)


def profile_axis(profile, reverse=False):
    """One singular point of type (0, sum(profile)) over genus-1 components,
    component c carrying profile[c] slots; ``reverse`` flips the slot order
    the fiber's trees see."""
    cids = list(range(len(profile)))
    if reverse:
        cids.reverse()
    slots = [(cid, sid) for cid, count in zip(cids, profile) for sid in range(count)]
    return AxisGraph([(cid, 1, []) for cid in cids], [SingularPoint(0, tuple(slots))])


GENERAL_PROFILES = [
    (2, 2, 1), (3, 2), (4, 1), (5,),
    (2, 2, 1, 1), (2, 2, 2), (3, 2, 1), (3, 3), (4, 1, 1), (4, 2), (5, 1), (6,),
]
QUASI_SEPARATING_PROFILES = [
    (1,) * 5, (2, 1, 1, 1), (3, 1, 1),
    (1,) * 6, (2, 1, 1, 1, 1), (3, 1, 1, 1),
]


def slot_orders(profiles):
    """(profile, reverse) pairs: both slot orders for 5 slots, one for 6
    (a 6-slot fiber has 236 strata)."""
    return [(p, r) for p in profiles for r in (False, True)[: 2 if sum(p) == 5 else 1]]


def genus_one_axis(n_components, *points):
    """Genus-1 components 0..n-1 and genus-0 points, each given by its
    slots."""
    return AxisGraph([(c, 1, []) for c in range(n_components)],
                     [SingularPoint(0, tuple(slots)) for slots in points])


# axes with two points of multiplicity >= 3: the fiber is a product, and
# the first point's pick varies slowest
MULTI_POINT_AXES = {
    # a separating 4-slot point over components 0-3 and a separating
    # 5-slot point over 3-7: constant, 4 * 26 strata
    "separating-4-5": genus_one_axis(
        8,
        [(0, 0), (1, 0), (2, 0), (3, 0)],
        [(3, 1), (4, 0), (5, 0), (6, 0), (7, 0)],
    ),
    # both points on components 0-3, the second with a second slot on 0:
    # each joins the other's slots, 4 * 26 strata
    "shared-components": genus_one_axis(
        4,
        [(0, 0), (1, 0), (2, 0), (3, 0)],
        [(0, 1), (1, 1), (2, 1), (3, 1), (0, 2)],
    ),
    # a separating first point and a (2,2,1) second point: the first
    # differing stratum changes only the second point's pick
    "second-point-varies": genus_one_axis(
        6,
        [(0, 0), (1, 0), (2, 0), (3, 0)],
        [(0, 1), (4, 0), (4, 1), (5, 0), (5, 1)],
    ),
    # a (2,2,1) first point and a separating second point: every pick of
    # the second point comes before the first differing stratum
    "first-point-varies": genus_one_axis(
        7,
        [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)],
        [(2, 1), (3, 0), (4, 0), (5, 0), (6, 0)],
    ),
}


def fiber_constant_axes(catalog):
    """The axes of ``TestFiberConstant``, and the rule-F contractions of
    every (3,0) and (2,2) graph."""
    axes = [
        AxisGraph([(i, 1, []) for i in range(4)],
                  [SingularPoint(0, ((0, 0), (1, 0), (2, 0), (3, 0)))]),
        AxisGraph([(0, 1, [])],
                  [SingularPoint(0, ((0, 0), (0, 1), (0, 2), (0, 3)))]),
        # the (2,2) profile, whose keys differ at stratum 1
        AxisGraph([(0, 1, []), (1, 1, [])],
                  [SingularPoint(0, ((0, 0), (0, 1), (1, 0), (1, 1)))]),
        AxisGraph([(0, 2, []), (1, 1, [])],
                  [SingularPoint(0, ((0, 0), (0, 1), (0, 2), (1, 0)))]),
    ]
    for gn in [(3, 0), (2, 2)]:
        for g in catalog(*gn).graphs():
            axes.append(z_contract(g, separating_bridge_assignment(g)))
    return axes


class TestFiberEarlyExit:
    """The streaming check must give the verdict of keying the whole fiber."""

    def test_matches_exhaustive_on_fiber_constant_axes(self, catalog):
        for axis in fiber_constant_axes(catalog):
            assert fiber_constant(axis) == exhaustive_fiber_verdict(axis)

    @pytest.mark.parametrize("profile, reverse", slot_orders(GENERAL_PROFILES))
    def test_matches_exhaustive_on_general_profiles(self, profile, reverse):
        axis = profile_axis(profile, reverse)
        verdict = fiber_constant(axis)
        assert verdict.verdict == "varies"
        assert verdict == exhaustive_fiber_verdict(axis)

    @pytest.mark.parametrize("profile, reverse", slot_orders(QUASI_SEPARATING_PROFILES))
    def test_matches_exhaustive_on_quasi_separating_profiles(self, profile, reverse):
        axis = profile_axis(profile, reverse)
        verdict = fiber_constant(axis)
        assert verdict.constant
        assert verdict == exhaustive_fiber_verdict(axis)

    def test_matches_exhaustive_on_multi_point_axes(self):
        verdicts = {}
        for name, axis in MULTI_POINT_AXES.items():
            verdicts[name] = fiber_constant(axis)
            assert verdicts[name] == exhaustive_fiber_verdict(axis), name
        assert verdicts["separating-4-5"].constant
        assert verdicts["shared-components"].verdict == "varies"
        # product order: stratum i has picks (i // 26, i % 26)
        _, i = verdicts["second-point-varies"].witness
        assert 0 < i < 26
        _, i = verdicts["first-point-varies"].witness
        assert i >= 26

    def test_raw_strata_match_fiber_strata(self, catalog):
        axes = fiber_constant_axes(catalog) + [
            profile_axis(profile, reverse)
            for profile, reverse in slot_orders(GENERAL_PROFILES + QUASI_SEPARATING_PROFILES)
        ]
        # sha256 over the JSON of every stratum with its inserted vertices
        # and choice, as the fiber code gave them when it built a
        # StableGraph for every stratum
        digest = hashlib.sha256()
        count = 0
        for axis in axes:
            fs = fiber_strata(axis)
            raw = list(torelli_module._raw_strata(axis))
            assert len(raw) == fs.total
            for (stratum, inserted, choice), graph, ins, ch in zip(
                raw, fs.graphs, fs.inserted_vertices, fs.choices
            ):
                genus, hvertex, edges, legs = stratum
                data = graph.to_json_dict()
                assert data == {
                    "vertices": [{"id": v, "genus": genus[v]} for v in sorted(genus)],
                    "halfedges": [{"id": h, "vertex": hvertex[h]} for h in sorted(hvertex)],
                    "edges": sorted([min(e), max(e)] for e in edges),
                    "legs": {str(lab): h for lab, h in sorted(legs.items())},
                }
                assert (inserted, choice) == (ins, ch)
                digest.update(json.dumps([data, sorted(ins), list(ch)], sort_keys=True).encode())
                digest.update(b"\n")
                count += 1
        assert (len(axes), count) == (146, 3093)
        assert digest.hexdigest() == (
            "51b9cd009bc7f2a0eed4ff6773455a61c265f036851c53f83f236af068efce6d"
        )

    @pytest.mark.parametrize("profile", [(2, 2, 1), (2, 2, 1, 1), (4, 1, 1)])
    def test_keys_stop_at_witness(self, profile, monkeypatch):
        axis = profile_axis(profile)
        calls = count_stratum_keys(monkeypatch)
        verdict = fiber_constant(axis)
        _, i = verdict.witness
        assert verdict.reason == "fiber strata have differing class keys"
        # the keyed strata are strata up to the witness, in order, and
        # include stratum 0 and the witness
        raw = [stratum for stratum, _, _ in torelli_module._raw_strata(axis)]
        keyed = [raw.index(stratum) for stratum in calls]
        assert keyed == sorted(set(keyed))
        assert keyed[0] == 0 and keyed[-1] == i

    def test_memo_keys_match_stratum_keys(self, catalog):
        axes = fiber_constant_axes(catalog) + list(MULTI_POINT_AXES.values())
        for axis in axes:
            assert list(torelli_module._fiber_keys(axis)) == [
                torelli_module._stratum_key(stratum)
                for stratum, _, _ in torelli_module._raw_strata(axis)
            ]

    def test_signatures_match_surviving_edges(self, catalog):
        # two strata share a signature exactly when a naive bridge search
        # on their graphs leaves the same edges at the inserted vertices
        five_slot = [p for p in GENERAL_PROFILES + QUASI_SEPARATING_PROFILES if sum(p) == 5]
        axes = fiber_constant_axes(catalog) + list(MULTI_POINT_AXES.values()) + [
            profile_axis(profile, reverse) for profile, reverse in slot_orders(five_slot)
        ]
        for axis in axes:
            fs = fiber_strata(axis)
            base = contraction._strata_base(axis)
            memo = [sig for _, sig in contraction._signed_combos(axis, base)]
            naive = [
                surviving_inserted_edges(graph, inserted)
                for graph, inserted in zip(fs.graphs, fs.inserted_vertices)
            ]
            assert len(set(zip(memo, naive))) == len(set(memo)) == len(set(naive))

    def test_constant_seven_slot_fiber_keyed_once(self, monkeypatch):
        axis = profile_axis((1,) * 7)
        calls = count_stratum_keys(monkeypatch)
        assert fiber_constant(axis).constant
        assert fiber_strata(axis).total == 2752
        assert len(calls) == 1


def count_stratum_keys(monkeypatch) -> list:
    """Record every stratum that ``fiber_constant`` keys."""
    calls = []
    stratum_key = torelli_module._stratum_key

    def counting_stratum_key(stratum):
        calls.append(stratum)
        return stratum_key(stratum)

    monkeypatch.setattr(torelli_module, "_stratum_key", counting_stratum_key)
    return calls
