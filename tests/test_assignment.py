import pytest

from torelli_graphs import assignment
from torelli_graphs import (
    CoverageError,
    DomainError,
    ExtremalAssignment,
    SEPARATING_BRIDGES,
    StableGraph,
    classify_bridge,
    is_z_quasi_separating,
    load_assignment_table,
    rational_multibridges,
    separating_bridge_assignment,
    verify_extremal,
)
from torelli_graphs.enumeration import enumerate_stable_graphs

from _oracles import exhaustive_separating_bridge_union


def r_shape():
    """Central rational vertex carrying three genus-one components."""
    return StableGraph.build({0: 0, 1: 1, 2: 1, 3: 1}, edges=[(0, 1), (0, 2), (0, 3)])


def four_parallel():
    return StableGraph.build({0: 1, 1: 0}, edges=[(0, 1)] * 4)


class TestBridgeClassifier:
    def test_r_shape_is_separating_3_bridge(self):
        report = rational_multibridges(r_shape())
        assert len(report.bridges) == 1
        (b,) = report.bridges
        assert b.vertices == frozenset({0})
        assert b.multiplicity == 3
        assert b.category == "separating"
        assert b.attachment_profile == (1, 1, 1)

    def test_four_parallel_is_general_4_bridge(self):
        report = rational_multibridges(four_parallel())
        (b,) = report.bridges
        assert b.multiplicity == 4
        assert b.category == "general"
        assert b.attachment_profile == (4,)

    def test_no_bridges_without_rational_vertices(self):
        g = StableGraph.build({0: 2, 1: 2}, edges=[(0, 1), (0, 1)])
        assert rational_multibridges(g).bridges == ()

    def test_quasi_separating_profile(self):
        # bridge attached twice to one side, once to the other
        g = StableGraph.build(
            {0: 2, 1: 0, 2: 1}, edges=[(0, 1), (0, 1), (1, 2)]
        )
        rec = classify_bridge(g, [1])
        assert rec.category == "quasi-separating"
        assert rec.attachment_profile == (2, 1)

    def test_legged_vertices_disqualified(self):
        g = StableGraph.build({0: 0, 1: 1, 2: 1, 3: 1},
                              edges=[(0, 1), (0, 2), (0, 3)], legs={1: 0})
        assert classify_bridge(g, [0]) is None

    def test_trichotomy_exhaustive_and_exclusive(self, catalog):
        cats = ["separating", "quasi-separating", "general"]
        for gn in [(3, 0), (2, 2)]:
            for g in catalog(*gn).graphs():
                for rec in rational_multibridges(g).bridges:
                    assert rec.category in cats
                    profile = rec.attachment_profile
                    if rec.category == "separating":
                        assert profile == (1,) * rec.multiplicity
                    elif rec.category == "quasi-separating":
                        assert profile != (1,) * rec.multiplicity
                        assert profile[0] <= 3
                        assert sum(1 for c in profile if c > 1) == 1
                    else:
                        assert profile[0] > 3 or sum(1 for c in profile if c > 1) > 1


class TestSeparatingBridgeAssignment:
    def test_r_shape(self):
        assert separating_bridge_assignment(r_shape()) == {0}

    def test_four_parallel_empty(self):
        assert separating_bridge_assignment(four_parallel()) == frozenset()

    def test_smooth_empty(self):
        assert separating_bridge_assignment(StableGraph.build({0: 3})) == frozenset()

    def test_unstable_graph_rejected(self):
        # the bare genus-0 middle vertex has valence 2: no multibridge
        g = StableGraph.build({0: 1, 1: 0, 2: 1}, edges=[(0, 1), (1, 2)])
        assert classify_bridge(g, {1}) is None
        with pytest.raises(DomainError, match="input graph must be stable"):
            separating_bridge_assignment(g)

    def test_equals_exhaustive_union(self, catalog):
        for gn in [(3, 0), (2, 1), (1, 3), (2, 2)]:
            for g in catalog(*gn).graphs():
                assert separating_bridge_assignment(g) == \
                    exhaustive_separating_bridge_union(g)

    def test_aut_invariant(self, catalog):
        for g in catalog(3, 0).graphs():
            value = separating_bridge_assignment(g)
            for perm in g.automorphisms().vertex_generators:
                assert frozenset(perm[v] for v in value) == value

    def test_components_are_separating_bridges(self, catalog):
        for gn in [(3, 0), (2, 1)]:
            for g in catalog(*gn).graphs():
                value = separating_bridge_assignment(g)
                remaining = set(value)
                while remaining:
                    comp = {remaining.pop()}
                    grew = True
                    while grew:
                        grew = False
                        for e in g.edges():
                            u, w = g.edge_vertices(e)
                            if u in comp and w in value and w not in comp:
                                comp.add(w); grew = True
                            elif w in comp and u in value and u not in comp:
                                comp.add(u); grew = True
                    remaining -= comp
                    rec = classify_bridge(g, comp)
                    assert rec is not None and rec.category == "separating"


@pytest.fixture
def labelled(monkeypatch):
    """The raws that ``verify_extremal``'s axiom-1 loop labels."""
    raws = []
    canonicalize_raw = assignment.canonicalize_raw

    def counting(raw, tags=None):
        raws.append(raw)
        return canonicalize_raw(raw, tags)

    monkeypatch.setattr(assignment, "canonicalize_raw", counting)
    return raws


class TestVerifyExtremal:
    def test_builtin_passes_small_catalogs(self, catalog):
        for gn in [(3, 0), (2, 1), (1, 3)]:
            report = verify_extremal(SEPARATING_BRIDGES, catalog(*gn), mode="all")
            assert report.ok, (gn, report.axiom1_violations[:3],
                               report.axiom2_violations[:3])

    def test_single_edge_mode_agrees_with_all(self, catalog):
        for gn in [(2, 1), (1, 3)]:
            full = verify_extremal(SEPARATING_BRIDGES, catalog(*gn), mode="all")
            single = verify_extremal(SEPARATING_BRIDGES, catalog(*gn), mode="single")
            assert full.ok == single.ok

    def test_improper_value_rejected(self, catalog):
        cat = catalog(1, 1)
        bad = ExtremalAssignment("everything", rule=lambda g: g.vertices())
        report = verify_extremal(bad, cat, mode="single")
        assert any("proper" in reason for _, reason in report.axiom1_violations)

    # reports below were computed while axiom 1 labelled every key; now it
    # labels only keys with a nonempty value, since an empty one splits no
    # orbit
    @pytest.mark.parametrize("mode, degenerations", [("all", 12643), ("single", 2269)])
    def test_builtin_labels_nonzero_masks_only(self, catalog, labelled, mode, degenerations):
        cat = catalog(2, 3)
        report = verify_extremal(SEPARATING_BRIDGES, cat, mode=mode)
        nonzero = [k for k in cat.keys if SEPARATING_BRIDGES.value_mask(k)]
        assert len(labelled) == len(nonzero) == 42
        assert report.to_json_dict() == {
            "assignment": "separating-bridges",
            "genus": 2,
            "markings": 3,
            "verified": True,
            "graphs_checked": 555,
            "degenerations_checked": degenerations,
            "mode": mode,
            "axiom1_violations": [],
            "axiom2_violations": [],
            "coverage_missing": [],
        }

    def test_orbit_breaking_value_rejected(self, catalog, labelled):
        cat = catalog(2, 0)

        def pick_one_of_pair(graph):
            # choose one endpoint of an automorphism-swappable pair
            for orbit in graph.automorphisms().vertex_orbits:
                if len(orbit) > 1:
                    return [sorted(orbit)[0]]
            return []

        bad = ExtremalAssignment("asymmetric", rule=pick_one_of_pair)
        report = verify_extremal(bad, cat, mode="single")
        assert any("invariant" in reason for _, reason in report.axiom1_violations)
        assert len(labelled) == sum(1 for k in cat.keys if bad.value_mask(k))
        assert report.axiom1_violations == [
            (key, "not Aut-invariant on orbit [0, 1]")
            for key in [
                "TG1;k=2;g=0,0;l=;b=;e=0-0,0-1,1-1",
                "TG1;k=2;g=0,0;l=;b=;e=0-1,0-1,0-1",
                "TG1;k=2;g=1,1;l=;b=;e=0-1",
            ]
        ]
        assert report.graphs_checked == 7 and report.degenerations_checked == 12

    def test_degeneration_closure_violation_detected(self, catalog):
        cat = catalog(1, 1)
        # choosing the vertex only on the loop graph breaks closure under
        # contracting the loop
        loop_key = next(k for k in cat.keys if b"0-0" in k)

        def only_loop_vertex(graph):
            if graph.canonical_key() == loop_key:
                return []
            return []

        table = {k: frozenset() for k in cat.keys}
        table[loop_key] = frozenset({0})
        bad = ExtremalAssignment("loop-only", table=table)
        report = verify_extremal(bad, cat, mode="all")
        assert report.axiom2_violations


class TestTableLoading:
    def test_roundtrip_and_closure(self, catalog):
        cat = catalog(2, 0)
        entries = {
            k.decode(): [i for i in range(8) if SEPARATING_BRIDGES.value_mask(k) >> i & 1]
            for k in cat.keys
        }
        data = {"schema": "torelli-graphs/1", "name": "copy", "entries": entries}
        loaded = load_assignment_table(data, cat)
        for k in cat.keys:
            assert loaded.value_mask(k) == SEPARATING_BRIDGES.value_mask(k)

    def test_coverage_error(self, catalog):
        cat = catalog(1, 1)
        data = {"entries": {cat.keys[0].decode(): []}}
        with pytest.raises(CoverageError):
            load_assignment_table(data, cat)

    def test_orbit_closure_applied(self, catalog):
        cat = catalog(2, 0)
        # the two-loop dumbbell has a swappable pair of genus-0 vertices
        target = next(
            k for k in cat.keys
            if StableGraph.from_canonical_key(k).vertices() ==
            [0, 1] and b"g=0,0" in k and b"0-0" in k
        )
        entries = {k.decode(): [] for k in cat.keys}
        entries[target.decode()] = [0]  # one of an orbit pair
        loaded = load_assignment_table({"entries": entries}, cat)
        assert loaded.value_mask(target) == 0b11


class TestZQuasiSeparating:
    def test_builtin_always_quasi_separating(self, catalog):
        for gn in [(3, 0), (2, 2)]:
            for g in catalog(*gn).graphs():
                assert is_z_quasi_separating(g, SEPARATING_BRIDGES)

    def test_general_bridge_detected(self):
        g = four_parallel()
        bad = ExtremalAssignment(
            "rational-vertices",
            rule=lambda gr: [
                v for v in gr.vertices()
                if gr.vertex_genus(v) == 0 and not gr.legs_at(v)
            ],
        )
        assert not is_z_quasi_separating(g, bad)

    def test_empty_value_trivially_true(self):
        g = StableGraph.build({0: 3})
        empty = ExtremalAssignment("empty", rule=lambda gr: [])
        assert is_z_quasi_separating(g, empty)
