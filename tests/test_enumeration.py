import hashlib
import random
from collections import Counter

import pytest

from torelli_graphs import (
    SEPARATING_BRIDGES,
    BoundExceededError,
    DomainError,
    ExtremalAssignment,
    GraphCatalog,
    StableGraph,
    enumerate_stable_graphs,
    iter_degenerations,
    verify_extremal,
)
from torelli_graphs import assignment, enumeration
from torelli_graphs.enumeration import raw_contract
from torelli_graphs.graph_core import canonicalize_raw, raw_from_key

from _oracles import (
    brute_force_catalog_keys,
    contract_edges,
    degenerations_between,
    direct_degenerations,
    leg_insertion_catalog_keys,
)


class TestCatalogAnchors:
    def test_0_3_unique(self):
        cat = enumerate_stable_graphs(0, 3)
        assert len(cat) == 1
        g = cat.graph(0)
        assert len(g.vertices()) == 1 and not g.edges() and g.n_markings() == 3

    def test_1_1_two_graphs(self):
        cat = enumerate_stable_graphs(1, 1)
        assert len(cat) == 2
        shapes = sorted((len(g.edges()), g.vertex_genus(g.vertices()[0])) for g in cat.graphs())
        assert shapes == [(0, 1), (1, 0)]

    def test_every_entry_stable_and_typed(self, catalog):
        for g, n in [(1, 2), (2, 1), (0, 5)]:
            cat = catalog(g, n)
            for graph in cat.graphs():
                assert graph.is_stable()
                assert graph.genus() == g
                assert sorted(graph.legs) == list(range(1, n + 1))

    def test_keys_sorted_and_unique(self, catalog):
        cat = catalog(2, 1)
        assert cat.keys == sorted(set(cat.keys))

    def test_invalid_type(self):
        with pytest.raises(DomainError):
            enumerate_stable_graphs(0, 2)

    def test_bound_exceeded(self):
        with pytest.raises(BoundExceededError) as exc:
            enumerate_stable_graphs(4, 0, bound=8)
        assert exc.value.required_bound == 9


class TestCatalogCompleteness:
    def test_agrees_with_brute_force(self):
        for g, n in [(0, 4), (0, 5), (1, 1), (1, 2), (2, 0)]:
            brute = brute_force_catalog_keys(g, n)
            cat = enumerate_stable_graphs(g, n)
            assert set(cat.keys) == brute

    def test_agrees_with_leg_insertion(self, catalog):
        base = set(catalog(1, 2).keys)
        assert leg_insertion_catalog_keys(base, 3) == set(catalog(1, 3).keys)


class TestContractEdges:
    def test_loop_contraction_bumps_genus(self):
        g = StableGraph.build({0: 0}, edges=[(0, 0)], legs={1: 0})
        out = contract_edges(g, g.edges())
        assert out.genus() == 1 and not out.edges()
        assert sorted(out.legs) == [1]

    def test_banana_edge_contraction(self):
        g = StableGraph.build({0: 0, 1: 0}, edges=[(0, 1)] * 3)
        out = contract_edges(g, [g.edges()[0]])
        assert out.genus() == g.genus()
        assert len(out.vertices()) == 1 and len(out.edges()) == 2

    def test_empty_contraction_is_identity(self):
        g = StableGraph.build({0: 1, 1: 1}, edges=[(0, 1)])
        assert contract_edges(g, []) is g

    def test_unknown_edge(self):
        g = StableGraph.build({0: 1, 1: 1}, edges=[(0, 1)])
        with pytest.raises(DomainError):
            contract_edges(g, [(55, 56)])

    def test_genus_and_legs_preserved_randomized(self, catalog):
        rng = random.Random(23)
        for gn in [(2, 1), (1, 3)]:
            for graph in catalog(*gn).graphs():
                edges = list(graph.edges())
                for _ in range(4):
                    subset = [e for e in edges if rng.random() < 0.5]
                    out = contract_edges(graph, subset)
                    assert out.genus() == graph.genus()
                    assert sorted(out.legs) == sorted(graph.legs)
                    assert out.is_stable()


class TestDegenerations:
    def test_1_1_records(self, catalog):
        cat = catalog(1, 1)
        degs = degenerations_between(cat)
        smooth = next(k for k in cat.keys if b"e=" == k[-2:])
        loop = next(k for k in cat.keys if k != smooth)
        non_identity = [d for d in degs if d.contracted_indices]
        assert len(non_identity) == 1
        (d,) = non_identity
        assert d.source == smooth and d.target == loop
        # the one source vertex degenerates onto the whole loop graph
        assert d.mapping() == {0: frozenset({0})}
        identities = [d for d in degs if not d.contracted_indices]
        assert len(identities) == 2

    def test_roundtrip_and_vertex_map_laws(self, catalog):
        cat = catalog(2, 0)
        for d in degenerations_between(cat):
            target = StableGraph.from_canonical_key(d.target)
            source = StableGraph.from_canonical_key(d.source)
            out = contract_edges(target, list(d.contracted_edge_ids()))
            assert out.canonical_key() == d.source
            # images partition the target vertex set
            union = set()
            for v, m in d.vertex_map:
                assert not (union & m)
                union |= m
            assert union == set(target.vertices())
            # each image is connected by the contracted edges and carries the
            # genus of its source vertex; the complete subgraph additionally
            # holds one internal edge per loop of the source vertex
            contracted = d.contracted_edge_ids()
            for v, m in d.vertex_map:
                sub_edges = [
                    e for e in target.edges()
                    if set(target.edge_vertices(e)) <= m
                ]
                witness_edges = [e for e in sub_edges if e in contracted]
                piece = StableGraph(
                    {u: target.vertex_genus(u) for u in m},
                    [(h, target.vertex_of(h)) for e in witness_edges for h in e],
                    witness_edges,
                    {},
                )
                assert piece.genus() == source.vertex_genus(v)
                n_loops = len(source.loops_at(v))
                complete = StableGraph(
                    {u: target.vertex_genus(u) for u in m},
                    [(h, target.vertex_of(h)) for e in sub_edges for h in e],
                    sub_edges,
                    {},
                )
                assert complete.genus() == source.vertex_genus(v) + n_loops

    def test_reflexive_and_transitive(self, catalog):
        cat = catalog(1, 2)
        rel = {(d.source, d.target) for d in degenerations_between(cat)}
        for k in cat.keys:
            assert (k, k) in rel
        for a, b in rel:
            for c, d in rel:
                if b == c:
                    assert (a, d) in rel

    def test_single_mode_subset_of_all(self, catalog):
        cat = catalog(1, 2)
        all_recs = {
            (d.source, d.target, d.contracted_indices)
            for d in degenerations_between(cat)
        }
        single = {
            (d.source, d.target, d.contracted_indices)
            for d in iter_degenerations(cat, subsets="single")
        }
        assert single <= all_recs
        assert all(len(s) == 1 for _, _, s in single)


def record_line(d) -> str:
    vmap = ";".join(f"{v}:" + ",".join(map(str, sorted(m))) for v, m in d.vertex_map)
    contracted = ",".join(map(str, sorted(d.contracted_indices)))
    return f"{d.target.decode()}\t{contracted}\t{d.source.decode()}\t{vmap}"


class TestComposedDegenerations:
    # sha256 over record_line of every all-mode record, catalogs in this
    # order and records in walk order, computed when every record was still
    # contracted and canonicalized directly from its target
    PINNED = "369e0de9d920e000737c1c164018cb91da30f78d0b805c69d372e3b08f8e3e3e"

    def test_all_mode_records_pinned(self, catalog):
        lines = [
            record_line(d)
            for gn in [(2, 2), (3, 0), (1, 4)]
            for d in iter_degenerations(catalog(*gn), subsets="all")
        ]
        assert len(lines) == 3171
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.PINNED

    def test_records_equal_direct_contraction(self, catalog, monkeypatch):
        types = [(2, 2), (3, 0), (3, 1), (1, 4), (2, 3)]
        expected = {
            (gn, mode): direct_degenerations(catalog(*gn), mode)
            for gn in types
            for mode in ("all", "single")
        }
        calls = Counter()  # by the mode being walked
        raw_contract = enumeration.raw_contract

        def counted(raw, chosen):
            calls[mode, len(chosen) > 1] += 1
            return raw_contract(raw, chosen)

        monkeypatch.setattr(enumeration, "raw_contract", counted)
        for (gn, mode), records in expected.items():
            assert list(iter_degenerations(catalog(*gn), mode)) == records
            calls[mode, "records"] += len(records)
        # all mode: a symmetric new source is contracted from its target
        assert calls["all", True] >= 1
        # single mode: a parallel copy reuses the previous record
        assert calls["single", False] < calls["single", "records"]

    def test_incomplete_catalog_rejected(self, catalog):
        full = catalog(2, 2)
        records = direct_degenerations(full, "all")
        first = {}
        for n, d in enumerate(records):
            if d.source != d.target:
                first.setdefault(d.source, n)
        # a key the walk first reaches by contracting two or more edges
        dropped, at = next(
            (key, n) for key, n in first.items()
            if len(records[n].contracted_indices) >= 2
        )
        partial = GraphCatalog.from_keys(
            2, 2, [k for k in full.keys if k != dropped]
        )
        walked = []
        with pytest.raises(DomainError, match="left the catalog"):
            for d in iter_degenerations(partial, subsets="all"):
                walked.append(d)
        assert walked == [d for d in records[:at] if d.target != dropped]
        with pytest.raises(DomainError, match="left the catalog"):
            for _ in iter_degenerations(partial, subsets="single"):
                pass


RECORD_TYPES = [(0, 6), (1, 4), (2, 2), (2, 3), (3, 0), (3, 1)]


def type_id(gn) -> str:
    return f"{gn[0]}-{gn[1]}"


def pick_one_of_pair(graph):
    """An orbit-breaking value: one endpoint of a swappable pair."""
    for orbit in graph.automorphisms().vertex_orbits:
        if len(orbit) > 1:
            return [sorted(orbit)[0]]
    return []


def distinct_steps(raw):
    """(edge index, pair) of each edge that is not a parallel copy of the
    edge before it."""
    edges = raw[3]
    return [(e, p) for e, p in enumerate(edges) if not e or p != edges[e - 1]]


class TestEnumerationRecords:
    """A freshly enumerated catalog carries the one-edge steps its
    labellings gave; walks that read them give the records of a catalog
    without them, and both equal the direct contractions."""

    @pytest.mark.parametrize("gn", RECORD_TYPES, ids=type_id)
    def test_records_equal_cold_and_direct(self, gn):
        fresh = enumerate_stable_graphs(*gn)
        cold = GraphCatalog.from_keys(*gn, fresh.keys)
        assert fresh._steps is not None and cold._steps is None
        assert fresh == cold and repr(fresh) == repr(cold)
        for mode in ("all", "single"):
            expected = direct_degenerations(cold, mode)
            assert list(iter_degenerations(fresh, mode)) == expected
            assert list(iter_degenerations(cold, mode)) == expected

    @pytest.mark.parametrize("gn", RECORD_TYPES + [(2, 0)], ids=type_id)
    def test_reports_equal_cold(self, gn):
        fresh = enumerate_stable_graphs(*gn)
        cold = GraphCatalog.from_keys(*gn, fresh.keys)
        for mode in ("all", "single"):
            report = verify_extremal(SEPARATING_BRIDGES, fresh, mode)
            assert report.ok
            assert report == verify_extremal(SEPARATING_BRIDGES, cold, mode)

    def test_orbit_breaking_reports_equal_cold(self):
        fresh = enumerate_stable_graphs(2, 0)
        cold = GraphCatalog.from_keys(2, 0, fresh.keys)
        bad = ExtremalAssignment("asymmetric", rule=pick_one_of_pair)
        for mode in ("all", "single"):
            report = verify_extremal(bad, fresh, mode)
            assert len(report.axiom1_violations) == 3
            assert report == verify_extremal(bad, cold, mode)

    def test_only_rigid_parents_recorded(self):
        for gn in RECORD_TYPES:
            steps = enumerate_stable_graphs(*gn)._steps
            assert all(steps.rigid[steps.position[p]] for p in steps.parents)

    def test_wrong_record_image_detected(self):
        fresh = enumerate_stable_graphs(0, 6)
        steps = fresh._steps
        expected = direct_degenerations(fresh, "single")
        assert list(iter_degenerations(fresh, "single")) == expected
        # swap two image entries of a record of a four-vertex graph, away
        # from the contracted edge
        t, k = next(
            (t, len(raw_from_key(key)[0]))
            for t, key in enumerate(fresh.keys)
            if len(raw_from_key(key)[0]) == 4 and steps.head[t]
        )
        at = (steps.head[t] - 1) * steps.width
        v = steps.slots[at + k]
        p, q = [p for p in range(k) if steps.slots[at + p] not in (v, k - 1)]
        steps.slots[at + p], steps.slots[at + q] = steps.slots[at + q], steps.slots[at + p]
        walked = list(iter_degenerations(fresh, "single"))
        changed = [n for n, (a, b) in enumerate(zip(walked, expected)) if a != b]
        assert changed and all(walked[n].target == fresh.keys[t] for n in changed)

    def test_single_mode_labels_only_loops_and_symmetric_steps(self, monkeypatch):
        labelled = []
        for module in (enumeration, assignment):
            real = module.canonicalize_raw

            def counting(raw, tags=None, real=real):
                labelled.append(raw)
                return real(raw, tags)

            monkeypatch.setattr(module, "canonicalize_raw", counting)
        fresh = enumerate_stable_graphs(0, 6)
        labelled.clear()
        assert verify_extremal(SEPARATING_BRIDGES, fresh, "single").ok
        assert labelled == []

        fresh = enumerate_stable_graphs(2, 3)
        labelled.clear()
        assert verify_extremal(SEPARATING_BRIDGES, fresh, "single").ok
        # axiom 1 labels the symmetric keys with a nonempty value
        expected = sum(
            1 for i, key in enumerate(fresh.keys)
            if SEPARATING_BRIDGES.value_mask(key) and not fresh.known_rigid(i)
        )
        for t, key in enumerate(fresh.keys):
            raw = raw_from_key(key)
            recorded = fresh._steps.steps_of(t, len(raw[0]))
            for e, pair in distinct_steps(raw):
                source = canonicalize_raw(raw_contract(raw, (e,))[0])
                if pair[0] == pair[1] or source.vertex_aut_order > 1:
                    expected += 1
                elif pair not in recorded:
                    # a rigid source is missed only for a symmetric target,
                    # whose other edges of the same orbit got the record
                    assert not fresh.known_rigid(t)
                    expected += 1
        # 8 axiom-1 keys, 334 loops, 54 symmetric sources and 37 steps of
        # symmetric targets without a record
        assert len(labelled) == expected == 433
