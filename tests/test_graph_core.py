import hashlib
import itertools
import random

import pytest

from torelli_graphs import (
    SEPARATING_BRIDGES,
    DomainError,
    StableGraph,
    StructuralError,
    torelli_key,
    z_contract,
)
from torelli_graphs import graph_core
from torelli_graphs import torelli as torelli_module
from torelli_graphs.enumeration import raw_contract
from torelli_graphs.graph_core import (
    MAX_GENUS,
    canonicalize_raw,
    connected_components,
    raw_from_key,
)

from _oracles import (
    brute_force_halfedge_aut_order,
    brute_force_isomorphic,
    brute_force_vertex_automorphisms,
    build_numbered_graph,
    naive_separating_edges,
    normalize_at,
)


def banana(g1, g2, n_edges):
    return StableGraph.build({0: g1, 1: g2}, edges=[(0, 1)] * n_edges)


class TestConstruction:
    def test_dangling_halfedge(self):
        with pytest.raises(StructuralError):
            StableGraph({0: 1}, [(0, 5)], [], {})

    def test_broken_involution(self):
        with pytest.raises(StructuralError):
            StableGraph({0: 1}, [(0, 0), (1, 0)], [(0, 1), (1, 0)], {})

    def test_self_paired_halfedge(self):
        with pytest.raises(StructuralError):
            StableGraph({0: 1}, [(0, 0)], [(0, 0)], {})

    def test_leg_on_paired_halfedge(self):
        with pytest.raises(StructuralError):
            StableGraph({0: 1}, [(0, 0), (1, 0)], [(0, 1)], {1: 0})

    def test_disconnected_rejected(self):
        with pytest.raises(StructuralError):
            StableGraph({0: 1, 1: 1}, [], [], {})

    def test_duplicate_leg_halfedge(self):
        with pytest.raises(StructuralError):
            StableGraph({0: 1}, [(0, 0)], [], {1: 0, 2: 0})

    def test_duplicate_leg_label(self):
        # "1" and "01" are one label once read as integers
        with pytest.raises(StructuralError, match="duplicate leg label"):
            StableGraph({0: 1}, [(0, 0), (1, 0)], [], {"1": 0, "01": 1})


def graph_record(g) -> list:
    """Everything a graph shows, raw-level operations first."""
    chosen = SEPARATING_BRIDGES.value(g)
    return [
        g.canonical_key(),
        g.canonical_labeling(),
        g.automorphisms(),
        g.separating_edges(),
        g.is_stable(),
        chosen,
        g.induced_components(chosen),
        g.vertices(),
        g.halfedges(),
        g.edges(),
        g.legs,
        [g.legs_at(v) for v in g.vertices()],
        g.branch_points(),
        g.genus(),
        g.to_json_dict(),
        g.to_dot(),
    ]


class TestKeptRaw:
    """A graph built from a key or a raw keeps the raw as its stored form,
    and its halfedge accessors answer as the validating constructor's."""

    def test_catalog_graphs_match_validating_constructor(self, catalog):
        count = 0
        for gn in [(0, 6), (1, 4), (2, 3), (3, 1), (2, 4)]:
            cat = catalog(*gn)
            for i, key in enumerate(cat.keys):
                want = build_numbered_graph(raw_from_key(key))
                assert graph_record(cat.graph(i)) == graph_record(want), key
                count += 1
        assert count == 236 + 163 + 555 + 181 + 5608

    def test_raw_operations_build_no_dicts(self, catalog, halfedge_lookups):
        cat = catalog(2, 4)
        contracted = 0
        for i in range(len(cat)):
            g = cat.graph(i)
            chosen = SEPARATING_BRIDGES.value(g)
            if chosen:
                z_contract(g, chosen)
                contracted += 1
            g.canonical_key()
            g.separating_edges()
            g.is_stable()
            g.to_raw()
        assert contracted == 700
        assert halfedge_lookups == []

    @pytest.mark.parametrize("raw, match", [
        (((1, 1), (), (0, 0), ((0, 2),)), "not a pair"),
        (((1, 1), (), (0, 0), ((1, 0),)), "not a pair"),
        (((1, 1), (), (0, 0), ()), "not connected"),
        (((1, 0), (), (0, 0), ((0, 1), (1, 1), (0, 0))), "out of order"),
        (((1,), ((1, 0), (1, 0)), (0,), ()), "duplicate leg label"),
        (((1,), ((2, 0), (1, 0)), (0,), ()), "out of label order"),
        (((1,), ((1, 1),), (0,), ()), "unknown vertex"),
        (((MAX_GENUS + 1,), (), (0,), ()), "out of range"),
        (((-1, 2), (), (0, 0), ((0, 1),)), "out of range"),
        (((), (), (), ()), "at least one vertex"),
    ], ids=["edge-end-out-of-range", "edge-ends-reversed", "disconnected",
            "edges-unsorted", "duplicate-leg-label", "legs-unsorted",
            "leg-on-unknown-vertex", "genus-too-large", "genus-negative", "empty"])
    def test_from_raw_refusals(self, halfedge_lookups, raw, match):
        with pytest.raises(StructuralError, match=match):
            StableGraph.from_raw(raw)
        assert halfedge_lookups == []

    @pytest.mark.parametrize("key", [
        b"TG1;k=3;g=0,0,0;l=;b=7:1;e=0-1,1-2",  # branch position past k
        b"TG1;k=3;g=0,0;l=;b=;e=0-1",  # k disagrees with the genera
        b"TG1;k=2;g=1,1;l=1;b=;e=0-1",  # a leg without its vertex
        b"TG1;k=2;g=1,1;l=;b=;e=0+1",
        b"TG1;k=2;g=1,1;l=;b=",
        b"TG1;k=x",
        b"TG1;k=2;g=1,1;l=;b=-1:1;e=0-1",  # a negative position
        b"TG1;k=2;g=1,1;l=;b=;e=0-+1",
        b"TG1;k=2;g=1,1_0;l=;b=;e=0-1",
        b"TG1;g=1,1;k=2;l=;b=;e=0-1",  # fields out of order
        b"TG1;k=2;g=1,1;l=;b=;e=0-1;t=0:0",
        b"TG1;k=2;g=1,1;l=;b=;e=0-1,",  # an empty list item
        "TG1;k=2;g=1,\u0661;l=;b=;e=0-1".encode(),  # a non-ASCII digit
        b"TG1;k=99999999999;g=0;l=;b=;e=",  # refused before [0] * k
        # text that parses but that _serialize never writes
        b"TG1;k=1;g=01;l=1:0,2:0;b=;e=",  # a leading zero
        b"TG1;k=01;g=1;l=1:0,2:0;b=;e=",
        b"TG1;k=1;g=0;l=01:0,2:0,3:0;b=;e=",
        b"TG1;k=1;g=1;l=1:0,2:0;b=0:0;e=0-0",  # a zero branch count
        b"TG1;k=1;g=1;l=1:0;b=0:01;e=0-0",
        b"TG1;k=2;g=1,1;l=;b=0:1,0:1;e=0-1",  # a repeated branch item
        b"TG1;k=2;g=1,1;l=;b=1:1,0:1;e=0-1",  # unsorted branch items
        b"TG1;k=2;g=1,1;l=;b=;e=1-1,0-1",  # unsorted edges
        b"TG1;k=2;g=1,1;l=;b=;e=1-0",  # an edge written v-u
        b"TG1;k=2;g=0,0;l=2:0,1:1,3:1;b=;e=0-1,0-1",  # unsorted legs
    ])
    def test_unreadable_key_refused(self, key):
        with pytest.raises(StructuralError):
            raw_from_key(key)
        with pytest.raises(StructuralError):
            StableGraph.from_canonical_key(key)


class TestAccessors:
    """The halfedge accessors of a graph built from halfedge data answer
    from that data, under random ids; pieces cut at bridges carry stubs."""

    def test_answers_match_the_input(self, catalog):
        rng = random.Random(5)
        checked = 0
        for g in catalog(2, 2).graphs():
            for piece in [g] + normalize_at(g, g.separating_edges()):
                hids = piece.halfedges()
                new_v = dict(zip(piece.vertices(), rng.sample(range(100), len(piece.vertices()))))
                new_h = dict(zip(hids, rng.sample(range(1000), len(hids))))
                where = {new_h[h]: new_v[piece.vertex_of(h)] for h in hids}
                pairs = [(new_h[b], new_h[a]) for a, b in piece.edges()]
                legs = {lab: new_h[h] for lab, h in piece.legs.items()}
                genus = {new_v[v]: piece.vertex_genus(v) for v in piece.vertices()}
                x = StableGraph(genus, list(where.items()), pairs, legs)
                mate = dict(pairs) | {b: a for a, b in pairs}
                stubs = set(where) - set(mate) - set(legs.values())
                assert x.vertices() == sorted(genus)
                assert x.halfedges() == sorted(where)
                assert x.edges() == tuple(sorted(tuple(sorted(p)) for p in pairs))
                assert x.legs == legs and x.branch_points() == stubs
                assert [x.vertex_of(h) for h in where] == list(where.values())
                assert [x.mate(h) for h in where] == [mate.get(h) for h in where]
                for v in genus:
                    at = sorted(h for h in where if where[h] == v)
                    assert x.vertex_genus(v) == genus[v] and x.valence(v) == len(at)
                    assert x.legs_at(v) == tuple(sorted(lab for lab, h in legs.items() if h in at))
                    assert x.branch_points_at(v) == tuple(h for h in at if h in stubs)
                    assert x.loops_at(v) == tuple(sorted(
                        tuple(sorted(p)) for p in pairs if where[p[0]] == where[p[1]] == v
                    ))
                for ask in (x.vertex_genus, x.valence, x.vertex_of):
                    with pytest.raises(KeyError):
                        ask(-1)
                assert (x.mate(-1), x.legs_at(-1), x.branch_points_at(-1), x.loops_at(-1)) \
                    == (None, (), (), ())
                checked += 1
        assert checked > 100


class TestGenus:
    def test_single_genus2(self):
        assert StableGraph.build({0: 2}).genus() == 2

    def test_two_genus1_two_edges(self):
        assert banana(1, 1, 2).genus() == 3

    def test_loop_plus_leg(self):
        g = StableGraph.build({0: 0}, edges=[(0, 0)], legs={1: 0})
        assert g.genus() == 1


class TestStability:
    def test_three_legs(self):
        g = StableGraph.build({0: 0}, legs={1: 0, 2: 0, 3: 0})
        assert g.is_stable()

    def test_bare_genus1(self):
        assert not StableGraph.build({0: 1}).is_stable()

    def test_genus0_loop_only(self):
        assert not StableGraph.build({0: 0}, edges=[(0, 0)]).is_stable()


class TestCanonicalForm:
    def test_relabel_invariance(self):
        t1 = StableGraph.build(
            {0: 0, 1: 0, 2: 0}, edges=[(0, 1), (1, 2), (2, 0)], legs={1: 0, 2: 1, 3: 2}
        )
        t2 = StableGraph.build(
            {7: 0, 9: 0, 5: 0}, edges=[(9, 7), (5, 9), (7, 5)], legs={1: 7, 2: 9, 3: 5}
        )
        assert t1.canonical_key() == t2.canonical_key()

    def test_banana_genera_swap(self):
        assert banana(1, 0, 3).canonical_key() == banana(0, 1, 3).canonical_key()

    def test_banana_vs_chain_distinct(self):
        chain = StableGraph.build({0: 1, 1: 0}, edges=[(0, 1)] * 2)
        assert banana(1, 0, 3).canonical_key() != chain.canonical_key()

    def test_key_roundtrip(self):
        g = banana(1, 0, 3)
        assert StableGraph.from_canonical_key(g.canonical_key()).canonical_key() \
            == g.canonical_key()

    def test_legs_fixed_pointwise(self):
        g1 = StableGraph.build({0: 1, 1: 1}, edges=[(0, 1)], legs={1: 0, 2: 1})
        g2 = StableGraph.build({0: 1, 1: 1}, edges=[(0, 1)], legs={1: 1, 2: 0})
        # swapping which vertex carries which label is an isomorphism here
        assert g1.canonical_key() == g2.canonical_key()
        g3 = StableGraph.build({0: 1, 1: 2}, edges=[(0, 1)], legs={1: 0})
        g4 = StableGraph.build({0: 1, 1: 2}, edges=[(0, 1)], legs={1: 1})
        assert g3.canonical_key() != g4.canonical_key()

    def test_matches_brute_force_on_catalog_pairs(self, catalog):
        graphs = list(catalog(2, 1).graphs())
        rng = random.Random(11)
        sample = rng.sample(list(itertools.combinations(range(len(graphs)), 2)), 40)
        for i, j in sample:
            same_key = graphs[i].canonical_key() == graphs[j].canonical_key()
            assert same_key == brute_force_isomorphic(graphs[i], graphs[j])
        # catalog entries are pairwise distinct, so shuffled copies must match
        for g in graphs[:10]:
            relabel = {v: v + 100 for v in g.vertices()}
            shuffled = StableGraph.build(
                {relabel[v]: g.vertex_genus(v) for v in g.vertices()},
                [tuple(relabel[u] for u in g.edge_vertices(e)) for e in g.edges()],
                {lab: relabel[g.vertex_of(h)] for lab, h in g.legs.items()},
            )
            assert shuffled.canonical_key() == g.canonical_key()
            assert brute_force_isomorphic(shuffled, g)


class TestAutomorphisms:
    def test_single_vertex_trivial(self):
        assert StableGraph.build({0: 2}).automorphisms().order == 1

    def test_banana_order_four(self):
        g = banana(1, 1, 2)
        assert brute_force_halfedge_aut_order(g) == 4
        assert g.automorphisms().order == 4

    def test_four_cycle_dihedral(self):
        g = StableGraph.build(
            {i: 1 for i in range(4)}, edges=[(0, 1), (1, 2), (2, 3), (3, 0)]
        )
        assert brute_force_halfedge_aut_order(g) == 8
        assert g.automorphisms().order == 8

    def test_legs_pin_vertices(self):
        g = StableGraph.build({0: 1, 1: 1}, edges=[(0, 1)], legs={1: 0})
        auts = g.automorphisms()
        assert auts.vertex_order == 1

    def test_brute_force_sweep(self, catalog):
        for g in catalog(2, 0).graphs():
            if len(g.halfedges()) <= 8:
                assert g.automorphisms().order == brute_force_halfedge_aut_order(g)
        for g in catalog(1, 2).graphs():
            if len(g.halfedges()) <= 8:
                assert g.automorphisms().order == brute_force_halfedge_aut_order(g)

    def test_generators_preserve_structure(self, catalog):
        for g in catalog(2, 0).graphs():
            for perm in g.automorphisms().vertex_generators:
                assert sorted(perm) == g.vertices()
                for v in g.vertices():
                    assert g.vertex_genus(perm[v]) == g.vertex_genus(v)
                    assert g.legs_at(perm[v]) == g.legs_at(v)


def relabeled_raw(raw, tags, rng):
    """The same raw graph (and tags) under a random vertex renaming."""
    genera, legs, branch, edges = raw
    k = len(genera)
    p = rng.sample(range(k), k)
    inv = sorted(range(k), key=p.__getitem__)
    raw2 = (
        tuple(genera[i] for i in inv),
        tuple(sorted((lab, p[v]) for lab, v in legs)),
        tuple(branch[i] for i in inv),
        tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges)),
    )
    return raw2, None if tags is None else tuple(tags[i] for i in inv)


def generated_group(gens, k) -> set:
    identity = tuple(range(k))
    group = {identity}
    frontier = [identity]
    while frontier:
        g = frontier.pop()
        for s in gens:
            h = tuple(s[g[i]] for i in range(k))
            if h not in group:
                group.add(h)
                frontier.append(h)
    return group


def assert_group_matches_oracle(raw, tags=None):
    k = len(raw[0])
    res = canonicalize_raw(raw, tags)
    auts = brute_force_vertex_automorphisms(raw, tags)
    assert res.vertex_aut_order == len(auts)
    orbits, covered = [], set()
    for v in range(k):
        if v not in covered:
            orbit = frozenset(p[v] for p in auts)
            covered |= orbit
            orbits.append(orbit)
    assert res.vertex_orbits == tuple(orbits)
    assert generated_group(res.vertex_generators, k) == set(auts)


class TestGroupAgainstOracle:
    """Group order, orbits and generators of ``canonicalize_raw`` against
    every vertex permutation, tried one by one."""

    def test_catalog_graphs(self, catalog):
        rng = random.Random(5)
        for gn in [(1, 1), (1, 2), (1, 3), (1, 4), (2, 0), (2, 1), (2, 2), (2, 3), (3, 0)]:
            for key in sorted(catalog(*gn).keys):
                raw = raw_from_key(key)
                if len(raw[0]) <= 8:
                    assert_group_matches_oracle(raw)
                    assert_group_matches_oracle(*relabeled_raw(raw, None, rng))

    def test_class_key_incidence_raws(self, monkeypatch, cold_class_memos):
        raws = []

        def recording(raw, tags=None):
            if tags is not None:  # the incidence searches, not the piece keys
                raws.append((raw, tags))
            return canonicalize_raw(raw, tags)

        monkeypatch.setattr(torelli_module, "canonicalize_raw", recording)
        for m in range(2, 7):
            torelli_key(banana(0, 0, m))
        for c in range(1, 4):
            torelli_key(StableGraph.build(
                {0: 0, **{i: 1 for i in range(1, c + 1)}},
                [(0, i) for i in range(1, c + 1) for _ in range(2)],
            ))
        assert len(raws) == 8 and max(len(raw[0]) for raw, _ in raws) == 8
        rng = random.Random(6)
        for raw, tags in raws:
            assert_group_matches_oracle(raw, tags)
            assert_group_matches_oracle(*relabeled_raw(raw, tags, rng))


def labelling_line(raw) -> str:
    res = canonicalize_raw(raw)
    orbits = ";".join(",".join(map(str, sorted(o))) for o in res.vertex_orbits)
    order = StableGraph.from_raw(raw).automorphisms().order
    return (
        f"{res.key.decode()}\t{','.join(map(str, res.order))}\t"
        f"{res.vertex_aut_order}\t{orbits}\t{order}"
    )


class TestLabellingContract:
    # sha256 over labelling_line of every key of these types, of its copy
    # under a vertex renaming from seed 3, and of the one-edge contractions
    # of both, catalogs in this order and keys sorted; computed while every
    # labelling still carried its halfedge group order
    PINNED = "96924994c17c17a30ee28bcb033c7711eec9f5e795a3ce91e2f5fb2ea0cdfe3c"

    def test_labellings_pinned(self, catalog):
        rng = random.Random(3)
        lines = []
        for gn in [(2, 3), (1, 4), (0, 6)]:
            for key in sorted(catalog(*gn).keys):
                raw = raw_from_key(key)
                for r in (raw, relabeled_raw(raw, None, rng)[0]):
                    lines.append(labelling_line(r))
                    for e in range(len(r[3])):
                        lines.append(labelling_line(raw_contract(r, (e,))[0]))
        assert len(lines) == 8462
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.PINNED


class TestSeparatingEdges:
    def test_single_bridge(self):
        g = StableGraph.build({0: 1, 1: 1}, edges=[(0, 1)])
        assert g.separating_edges() == frozenset(g.edges())

    def test_parallel_pair_not_separating(self):
        assert banana(1, 1, 2).separating_edges() == frozenset()

    def test_loop_never_separating(self):
        g = StableGraph.build({0: 1, 1: 0}, edges=[(0, 1), (1, 1)])
        seps = g.separating_edges()
        assert all(not g.is_loop(e) for e in seps)
        assert len(seps) == 1

    def test_against_naive_oracle(self, catalog):
        for gn in [(2, 0), (2, 1), (1, 3)]:
            for g in catalog(*gn).graphs():
                assert g.separating_edges() == naive_separating_edges(g)


class TestConnectedComponents:
    def test_order_of_first_vertex(self):
        comps = connected_components([5, 3, 9, 1, 7], [(9, 1), (3, 7), (7, 7)])
        assert comps == [[5], [3, 7], [9, 1]]

    def test_no_vertices(self):
        assert connected_components([], []) == []

    def test_induced_components_in_set_pop_order(self):
        # neither ascending nor the set's iteration order: set.pop after
        # removing a component of two; z_contract numbers its points so
        g = StableGraph.build({0: 1, 99: 1, 77: 1, 6: 1, 93: 1},
                              [(99, 93), (0, 99), (0, 77), (0, 6)])
        assert g.induced_components([99, 77, 6, 93]) == [{93, 99}, {6}, {77}]


class TestNormalizeAt:
    def test_cut_bridge(self):
        g = StableGraph.build({0: 1, 1: 1}, edges=[(0, 1)])
        comps = normalize_at(g, g.edges())
        assert sorted(c.genus() for c in comps) == [1, 1]
        assert all(len(c.branch_points()) == 1 for c in comps)

    def test_cut_one_banana_edge(self):
        g = banana(1, 1, 2)
        (comp,) = normalize_at(g, [g.edges()[0]])
        assert comp.genus() == g.genus() - 1
        assert len(comp.branch_points()) == 2

    def test_cut_nothing(self):
        g = banana(1, 1, 2)
        (comp,) = normalize_at(g, [])
        assert comp.canonical_key() == g.canonical_key()

    def test_unknown_edge(self):
        g = banana(1, 1, 2)
        with pytest.raises(DomainError):
            normalize_at(g, [(998, 999)])

    def test_reglue_restores_graph(self, catalog):
        # regluing the cut halfedges reproduces the original graph
        for g in catalog(2, 1).graphs():
            cut = list(g.separating_edges()) + [
                e for e in g.edges() if not g.is_loop(e)
            ][:1]
            comps = normalize_at(g, cut)
            vs, hs, es, legs = {}, [], [], {}
            for c in comps:
                for v in c.vertices():
                    vs[v] = c.vertex_genus(v)
                for h in c.halfedges():
                    hs.append((h, c.vertex_of(h)))
                es.extend(c.edges())
                legs.update(c.legs)
            es.extend(tuple(sorted(e)) for e in set(map(tuple, map(sorted, cut))))
            reglued = StableGraph(vs, hs, es, legs)
            assert reglued.canonical_key() == g.canonical_key()
            assert reglued.genus() == g.genus()


class TestSerialization:
    def test_json_roundtrip(self, catalog):
        import json

        for g in list(catalog(2, 1).graphs())[:8]:
            data = json.loads(json.dumps(g.to_json_dict()))
            back = StableGraph.from_json_dict(data)
            assert back.canonical_key() == g.canonical_key()

    def test_dot_mentions_all_vertices(self):
        g = StableGraph.build({0: 2, 1: 0}, edges=[(0, 1)], legs={1: 1}, branch_points=[1])
        dot = g.to_dot()
        assert "v0:g2" in dot and "v1:g0" in dot
        assert 'label="1"' in dot
        assert "bp_0" in dot

    # sha256 over repr(raw_from_key(key)) lines of every key of the sweep
    # types and (2,4), catalogs in this order and keys sorted; taken with the
    # reader that preceded the strict one
    RAWS_PINNED = "adf827eb7c263ecd60f0a89b6fb7af5a5f89302aa32aed9240a423c5fa2a8daf"

    @pytest.mark.slow
    def test_key_round_trip_pinned(self, catalog):
        from test_acceptance import SWEEP_6

        digest = hashlib.sha256()
        count = 0
        for gn in SWEEP_6 + [(2, 4)]:
            for key in sorted(catalog(*gn).keys):
                raw = raw_from_key(key)
                assert graph_core._serialize(range(len(raw[0])), raw, None) == key
                digest.update(repr(raw).encode() + b"\n")
                count += 1
        assert count == 729671
        assert digest.hexdigest() == self.RAWS_PINNED
