"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line.  The sweep
covers every catalog type with 2g-2+n > 0 and 3g-3+n <= 6.  All expected
numbers below were pinned only after two independent generation routes
agreed on them (direct brute force, leg insertion chains, and the
partition-counting recurrence for genus zero).
"""

import random
from contextlib import contextmanager

import pytest

from torelli_graphs import (
    AxisGraph,
    PolystableGraph,
    SEPARATING_BRIDGES,
    SingularPoint,
    StableGraph,
    classify_axis_points,
    classify_bridge,
    fiber_constant,
    fiber_strata,
    leaf_labeled_trees,
    polystable_key,
    pst,
    rational_multibridges,
    separating_bridge_assignment,
    stabilize_component,
    torelli_key,
    verify_extremal,
    z_contract,
)
from torelli_graphs.graph_core import DomainError

from _oracles import (
    c1_equivalent,
    brute_force_catalog_keys,
    contract_edges,
    genus_zero_catalog_size,
    leg_insertion_catalog_keys,
    naive_separating_edges,
    random_order_stabilize_keys,
    stable_tree_count,
)

SWEEP_6 = [
    (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8), (0, 9),
    (1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6),
    (2, 0), (2, 1), (2, 2), (2, 3),
    (3, 0),
]

# pinned after oracle agreement (brute force / leg insertion / recurrence)
EXPECTED_COUNTS = {
    (0, 3): 1, (0, 4): 4, (0, 5): 26, (0, 6): 236, (0, 7): 2752,
    (0, 8): 39208, (0, 9): 660032,
    (1, 1): 2, (1, 2): 5, (1, 3): 23, (1, 4): 163, (1, 5): 1576,
    (1, 6): 19340,
    (2, 0): 7, (2, 1): 16, (2, 2): 75, (2, 3): 555,
    (3, 0): 42,
}

# exhaustive degeneration subsets below this catalog size, one-edge above
FULL_DEGEN_LIMIT = 3000


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({title}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({title}): PASS")


def test_criterion_1_extremality_of_builtin(catalog):
    with criterion(1, "extremality of the separating-bridge assignment"):
        for g, n in SWEEP_6:
            cat = catalog(g, n)
            mode = "all" if len(cat) <= FULL_DEGEN_LIMIT else "single"
            report = verify_extremal(SEPARATING_BRIDGES, cat, mode=mode)
            assert report.ok, (
                (g, n),
                report.axiom1_violations[:3],
                report.axiom2_violations[:3],
            )
            print(f"  ({g},{n}) verified over {report.degenerations_checked} "
                  f"degenerations [{mode}]")


def test_criterion_2_genus_three_shape(catalog):
    with criterion(2, "genus-3 nonempty locus"):
        cat = catalog(3, 0)
        nonempty = []
        for graph in cat.graphs():
            chosen = separating_bridge_assignment(graph)
            axis = z_contract(graph, chosen) if chosen else None
            has_big_point = axis is not None and any(
                p.multiplicity >= 3 for p in axis.singular_points()
            )
            assert bool(chosen) == has_big_point
            if not chosen:
                continue
            nonempty.append(graph)
            # shape: one rational tree carrying exactly three genus-1 pieces
            # attached by one edge each
            rec = classify_bridge(graph, chosen)
            assert rec is not None and rec.category == "separating"
            assert rec.multiplicity == 3
            assert rec.attachment_profile == (1, 1, 1)
            poly = pst(graph)
            assert len(poly.components) == 3
            assert all(
                c.genus() == 1 and len(c.vertices()) == 1
                for c in poly.components
            )
        assert nonempty, "the elliptic-triple locus must be nonempty"
        print(f"  {len(nonempty)} of {len(cat)} graphs carry the "
              f"separating 3-bridge shape")


def test_criterion_3_main_dichotomy():
    with criterion(3, "main dichotomy"):
        four_points = AxisGraph(
            [(i, 1, []) for i in range(4)],
            [SingularPoint(0, ((0, 0), (1, 0), (2, 0), (3, 0)))],
        )
        verdict = fiber_constant(four_points)
        assert verdict.constant
        expected = polystable_key(
            PolystableGraph(tuple(StableGraph.build({i: 1}) for i in range(4)))
        )
        assert verdict.key == expected

        profile_4 = AxisGraph(
            [(0, 1, [])],
            [SingularPoint(0, ((0, 0), (0, 1), (0, 2), (0, 3)))],
        )
        assert fiber_constant(profile_4).verdict == "varies"

        profile_2_2 = AxisGraph(
            [(0, 1, []), (1, 1, [])],
            [SingularPoint(0, ((0, 0), (0, 1), (1, 0), (1, 1)))],
        )
        assert fiber_constant(profile_2_2).verdict == "varies"


def test_criterion_4_fiber_products(catalog):
    with criterion(4, "fiber product structure"):
        # per-point counts pinned after the independent recurrence agrees
        assert len(leaf_labeled_trees(4)) == stable_tree_count(4) == 4
        assert len(leaf_labeled_trees(5)) == stable_tree_count(5) == 26
        for g, n in SWEEP_6:
            cat = catalog(g, n)
            strata_total = 0
            for graph in cat.graphs():
                chosen = separating_bridge_assignment(graph)
                axis = z_contract(graph, chosen) if chosen else None
                if axis is None:
                    continue
                fs = fiber_strata(axis)
                product = 1
                for p in axis.singular_points():
                    if p.multiplicity >= 3:
                        product *= stable_tree_count(p.multiplicity)
                assert fs.total == len(fs.graphs) == product
                strata_total += fs.total
            print(f"  ({g},{n}) fiber strata checked ({strata_total} total)")


def test_criterion_5_c1_machinery(catalog):
    from torelli_graphs import c1_sets

    with criterion(5, "C1 partition law"):
        checked = 0
        for g, n in SWEEP_6:
            cat = catalog(g, n)
            for graph in cat.graphs():
                if graph.separating_edges():
                    continue
                part = c1_sets(graph)
                covered = set()
                for block in part.blocks:
                    assert not (covered & block)
                    covered |= block
                    for p in block:
                        pieces = graph.delete_edges([p])
                        seps = frozenset().union(
                            *(naive_separating_edges(x) for x in pieces)
                        ) if pieces else frozenset()
                        assert seps == block - {p}
                assert covered == set(graph.edges())
                checked += 1
        assert checked > 100
        print(f"  law verified on {checked} bridgeless graphs")


def test_criterion_6_key_vs_direct_equivalence(catalog):
    with criterion(6, "class key matches direct C1-equivalence"):
        pool = []
        for g, n in [(2, 0), (1, 2), (2, 1)]:
            for graph in catalog(g, n).graphs():
                pool.append(pst(graph))
        keys = [polystable_key(p) for p in pool]
        flags = [p.moduli_positive_flags() for p in pool]
        mismatches = 0
        for i in range(len(pool)):
            for j in range(len(pool)):
                same_key = keys[i] == keys[j]
                direct = c1_equivalent(pool[i], pool[j])[0] and flags[i] == flags[j]
                if same_key != direct:
                    mismatches += 1
        assert mismatches == 0
        print(f"  {len(pool)}^2 pairs, zero mismatches")


def test_criterion_7_conservation_and_idempotence(catalog):
    with criterion(7, "conservation and idempotence"):
        rng = random.Random(2024)
        cases = 0

        # contraction conserves genus and legs
        for g, n in [(2, 1), (1, 3), (2, 2), (3, 0), (1, 4), (1, 5), (2, 3)]:
            for graph in catalog(g, n).graphs():
                edges = list(graph.edges())
                for _ in range(4):
                    subset = [e for e in edges if rng.random() < 0.5]
                    out = contract_edges(graph, subset)
                    assert out.genus() == graph.genus()
                    assert sorted(out.legs) == sorted(graph.legs)
                    cases += 1

        # subgraph contraction into singular points conserves genus
        for g, n in [(2, 2), (3, 0), (1, 4), (2, 3)]:
            for graph in catalog(g, n).graphs():
                verts = graph.vertices()
                for _ in range(6):
                    chosen = frozenset(v for v in verts if rng.random() < 0.35)
                    if not chosen or chosen == set(verts):
                        continue
                    try:
                        axis = z_contract(graph, chosen)
                    except DomainError:
                        continue
                    assert axis.genus() == graph.genus()
                    cases += 1

        # fiber insertion round trips conserve genus and the axis form
        for g, n in [(3, 0), (2, 2), (1, 4), (1, 5), (2, 3)]:
            for graph in catalog(g, n).graphs():
                chosen = separating_bridge_assignment(graph)
                if not chosen:
                    continue
                axis = z_contract(graph, chosen)
                fs = fiber_strata(axis)
                for fg, inserted in zip(fs.graphs, fs.inserted_vertices):
                    assert fg.genus() == axis.genus()
                    assert z_contract(fg, inserted).canonical_key() == \
                        axis.canonical_key()
                    cases += 1

        assert cases >= 10000, cases

        # polystable reduction is idempotent on its image
        for g, n in [(2, 0), (1, 2), (2, 1), (2, 2), (3, 0), (1, 3)]:
            for graph in catalog(g, n).graphs():
                poly = pst(graph)
                for piece in poly.components:
                    again = pst(piece)
                    assert len(again.components) == 1
                    assert again.components[0].canonical_key() == \
                        piece.canonical_key()

        # stabilization is order independent
        pool = []
        for graph in catalog(2, 2).graphs():
            bare = StableGraph(
                {v: graph.vertex_genus(v) for v in graph.vertices()},
                [(h, graph.vertex_of(h)) for e in graph.edges() for h in e],
                graph.edges(),
                {},
            )
            pool.append(bare)
        rng2 = random.Random(7)
        for bare in pool[:20]:
            expected = stabilize_component(bare).canonical_key()
            for _ in range(100):
                assert random_order_stabilize_keys(bare, rng2) == expected

        print(f"  {cases} randomized conservation cases")


def test_criterion_8_enumeration_cross_validation(catalog):
    with criterion(8, "enumeration cross-validation"):
        # anchors
        assert len(catalog(1, 1)) == 2
        assert len(catalog(0, 3)) == 1

        for g, n in SWEEP_6:
            cat = catalog(g, n)
            assert len(cat) == EXPECTED_COUNTS[(g, n)], (g, n, len(cat))

        # independent route 1: brute force over raw structures
        for g, n in [(0, 4), (0, 5), (0, 6), (1, 1), (1, 2), (1, 3),
                     (2, 0), (2, 1), (2, 2), (3, 0)]:
            assert brute_force_catalog_keys(g, n) == set(catalog(g, n).keys)
        print("  brute-force route agrees on 10 types")

        # independent route 2: leg insertion chains
        for base, target in [((1, 3), (1, 4)), ((1, 4), (1, 5)),
                             ((1, 5), (1, 6)), ((2, 2), (2, 3)),
                             ((0, 6), (0, 7)), ((0, 7), (0, 8))]:
            inserted = leg_insertion_catalog_keys(
                set(catalog(*base).keys), target[1]
            )
            assert inserted == set(catalog(*target).keys), (base, target)
        print("  leg-insertion route agrees on 6 types")

        # independent route 3: counting recurrence for genus zero
        for n in range(3, 10):
            assert len(catalog(0, n)) == genus_zero_catalog_size(n)
        print("  genus-zero counting recurrence agrees up to 9 markings")
