"""Constructors: simplices, cubes, products, pyramids, combinatorial families."""

from __future__ import annotations

import random

import pytest

from polyclass import (
    Graph,
    Polytope,
    Poset,
    all_01_polytopes,
    cube,
    dilate,
    edge_polytope,
    fixture,
    fixture_names,
    order_polytope,
    product,
    pyramid,
    random_01_polytopes,
    simplex,
    stable_set_polytope,
)
from oracles import filters_by_scan, stable_sets_by_scan
from support import FOUR_CYCLE, TRIANGLE_GRAPH, named_corpus, random_poset, two_triangles_bridge


class TestSimplexAndCube:
    def test_simplex_zero_is_a_point(self):
        assert simplex(0).vertices == ((),)
        assert simplex(0).dim == 0
        assert simplex(0).lattice_points == ((),)  # R^0 is 0/1: its points are its vertices

    def test_simplex_one_is_unit_segment(self):
        assert simplex(1).vertices == ((0,), (1,))

    def test_simplex_two_has_three_facets(self):
        assert len(simplex(2).facets) == 3

    def test_simplex_vertex_count(self):
        for n in range(1, 5):
            assert len(simplex(n).vertices) == n + 1
            assert simplex(n).dim == n

    def test_cube_matches_segment_in_dim_one(self):
        assert cube(1) == simplex(1)

    def test_cube_counts(self):
        assert len(cube(3).vertices) == 8
        assert len(cube(3).facets) == 6
        assert cube(3).lattice_points == cube(3).vertices

    def test_cube_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cube(0)
        with pytest.raises(ValueError):
            simplex(-1)


class TestProduct:
    def test_square(self):
        assert product(simplex(1), simplex(1)) == cube(2)

    def test_prism_facet_count(self):
        prism = product(simplex(1), simplex(2))
        assert prism.dim == 3
        assert len(prism.facets) == 2 + 3

    def test_two_triangles(self):
        p = product(simplex(2), simplex(2))
        assert p.dim == 4
        assert len(p.facets) == 6
        assert len(p.vertices) == 9

    def test_left_factor_coordinates_come_first(self):
        p = product(simplex(2), simplex(1))
        assert (1, 0, 1) in p.vertices
        assert p.ambient_dim == 3

    def test_facet_counts_add_up(self):
        pool = [simplex(1), simplex(2), cube(2), dilate(simplex(1), 2), fixture("P2")]
        for a in pool:
            for b in pool:
                assert len(product(a, b).facets) == len(a.facets) + len(b.facets)

    def test_lattice_points_multiply(self):
        a, b = fixture("P1"), dilate(simplex(1), 2)
        assert len(product(a, b).lattice_points) == (
            len(a.lattice_points) * len(b.lattice_points))


class TestPyramid:
    def test_over_square(self):
        p = pyramid(cube(2))
        assert p == Polytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)])

    def test_over_segment_gives_triangle(self):
        assert pyramid(simplex(1)) == simplex(2)

    def test_apex_is_lifted_origin(self):
        p = pyramid(fixture("P1"), 3)
        assert (0, 0, 3) in p.vertices
        assert p.dim == 3

    def test_unit_lift_keeps_other_points_in_base(self):
        p = pyramid(dilate(simplex(1), 2))
        base = {(0, 0), (1, 0), (2, 0)}
        assert {v for v in p.lattice_points if v[-1] == 0} == {(x, 0) for (x,) in
                                                              dilate(simplex(1), 2).lattice_points}
        assert [v for v in p.lattice_points if v[-1] != 0] == [(0, 1)]

    def test_higher_lift_can_trap_points_off_base(self):
        p = pyramid(dilate(simplex(1), 2), 2)
        off_base = [v for v in p.lattice_points if v[-1] != 0]
        assert len(off_base) > 1

    def test_rejects_nonpositive_lift(self):
        with pytest.raises(ValueError):
            pyramid(simplex(1), 0)


class TestPoset:
    def test_relations_closed_transitively(self):
        poset = Poset.from_relations(3, [(0, 1), (1, 2)])
        assert poset.leq[0][2]

    def test_cycle_detected(self):
        with pytest.raises(ValueError):
            Poset.from_relations(2, [(0, 1), (1, 0)])

    def test_closure_detection(self):
        assert Poset.from_relations(3, [(0, 1), (1, 2), (0, 2)]).is_transitively_closed_input(
            [(0, 1), (1, 2), (0, 2)])
        assert not Poset.from_relations(3, [(0, 1), (1, 2)]).is_transitively_closed_input(
            [(0, 1), (1, 2)])

    def test_filters_of_chain(self):
        chain = Poset.from_relations(3, [(0, 1), (1, 2)])
        assert len(chain.filters()) == 4

    def test_filters_of_antichain(self):
        assert len(Poset.from_relations(3, []).filters()) == 8

    def test_rejects_out_of_range_elements(self):
        with pytest.raises(ValueError):
            Poset.from_relations(2, [(0, 5)])

    def test_rejects_a_negative_size(self):
        with pytest.raises(ValueError, match="^poset size must be nonnegative$"):
            Poset.from_relations(-1, [])

    def test_rejects_a_relation_that_is_not_reflexive(self):
        with pytest.raises(ValueError, match="^order relation must be reflexive$"):
            Poset(2, [[True, True], [False, False]])


class TestSubsetClosures:
    """Filters and stable sets, content and order, against a scan of all 2^n subsets."""

    def test_filters_of_random_posets(self):
        rng = random.Random(5)
        for _ in range(150):
            poset = random_poset(rng, rng.randint(0, 8))
            assert poset.filters() == filters_by_scan(poset), poset.leq

    def test_stable_sets_of_random_graphs(self):
        rng = random.Random(6)
        for _ in range(150):
            n = rng.randint(0, 8)
            p = rng.choice((0.1, 0.3, 0.6))
            graph = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                              if rng.random() < p])
            assert graph.stable_sets() == stable_sets_by_scan(graph), graph.edges


class TestOrderPolytope:
    def test_antichain_gives_cube(self):
        assert order_polytope(Poset.from_relations(3, [])) == cube(3)

    def test_two_chain_gives_triangle(self):
        p = order_polytope(Poset.from_relations(2, [(0, 1)]))
        assert p == Polytope([(0, 0), (0, 1), (1, 1)])

    def test_singleton(self):
        assert order_polytope(Poset.from_relations(1, [])) == simplex(1)

    def test_rejects_the_empty_poset(self):
        with pytest.raises(ValueError, match="^order polytope needs at least one element$"):
            order_polytope(Poset.from_relations(0, []))


class TestGraph:
    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 0)])

    def test_deduplicates_parallel_edges(self):
        g = Graph(2, [(0, 1), (1, 0)])
        assert len(g.edges) == 1

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)])

    def test_rejects_a_negative_size(self):
        with pytest.raises(ValueError, match="^graph size must be nonnegative$"):
            Graph(-1, [])

    def test_stable_sets_of_triangle(self):
        assert set(TRIANGLE_GRAPH.stable_sets()) == {
            frozenset(), frozenset({0}), frozenset({1}), frozenset({2})}


class TestStableSetPolytope:
    def test_edgeless_graph_gives_cube(self):
        assert stable_set_polytope(Graph(2, [])) == cube(2)

    def test_triangle_gives_simplex(self):
        assert stable_set_polytope(TRIANGLE_GRAPH) == Polytope(
            [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])

    def test_single_edge(self):
        assert stable_set_polytope(Graph(2, [(0, 1)])) == simplex(2)

    def test_rejects_the_empty_graph(self):
        with pytest.raises(ValueError, match="^stable set polytope needs at least one vertex$"):
            stable_set_polytope(Graph(0, []))


class TestEdgePolytope:
    def test_triangle(self):
        p = edge_polytope(TRIANGLE_GRAPH)
        assert p == Polytope([(1, 1, 0), (1, 0, 1), (0, 1, 1)])
        assert p.dim == 2

    def test_four_cycle_is_planar(self):
        p = edge_polytope(FOUR_CYCLE)
        assert p.ambient_dim == 4
        assert p.dim == 2
        assert len(p.vertices) == 4

    def test_bridged_triangles(self):
        g = two_triangles_bridge()
        assert g.n == 7
        assert len(g.edges) == 8
        p = edge_polytope(g)
        assert p.ambient_dim == 7
        assert p.dim == 6
        assert len(p.vertices) == 8

    def test_longer_bridge(self):
        g = two_triangles_bridge(3)
        assert g.n == 8
        assert len(g.edges) == 9

    def test_rejects_edgeless_graph(self):
        with pytest.raises(ValueError):
            edge_polytope(Graph(3, []))


class TestFixtures:
    def test_names(self):
        assert fixture_names() == ["EX38", "P1", "P2", "P3"]

    def test_vertex_counts(self):
        assert len(fixture("P1").vertices) == 6
        assert len(fixture("P2").vertices) == 4
        assert len(fixture("P3").vertices) == 4
        assert len(fixture("EX38").vertices) == 5

    def test_vertex_data(self):
        assert fixture("P1") == Polytope([(0, 0), (1, 0), (0, 1), (2, 1), (1, 2), (2, 2)])
        assert fixture("P2") == Polytope([(1, 0), (0, 1), (2, 1), (1, 2)])
        assert fixture("P3") == Polytope([(0, 0), (1, 4), (2, 5), (3, 1)])
        assert fixture("EX38") == Polytope(
            [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            fixture("nope")


class TestExhaustiveFamily:
    def test_dimension_one(self):
        assert [p.vertices for p in all_01_polytopes(1)] == [((0,), (1,))]

    def test_dimension_two_count(self):
        fam = list(all_01_polytopes(2))
        # four triangles plus the square
        assert len(fam) == 5
        assert cube(2) in fam

    def test_dimension_three_count(self):
        fam = list(all_01_polytopes(3))
        # 256 corner subsets minus 93 of size < 4 minus 12 coplanar quadruples
        assert len(fam) == 151
        assert len(set(fam)) == 151
        assert all(p.dim == 3 and p.is_01 for p in fam)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            list(all_01_polytopes(5))
        with pytest.raises(ValueError):
            list(all_01_polytopes(0))


class TestRandomFamily:
    def test_deterministic_in_seed(self):
        a = list(random_01_polytopes(3, 25, seed=42))
        b = list(random_01_polytopes(3, 25, seed=42))
        assert a == b

    def test_seed_changes_sequence(self):
        assert (list(random_01_polytopes(3, 25, seed=0))
                != list(random_01_polytopes(3, 25, seed=1)))

    def test_members_are_full_dimensional(self):
        for p in random_01_polytopes(4, 10, seed=3):
            assert p.dim == 4
            assert p.is_01

    def test_count_must_be_nonnegative(self):
        assert list(random_01_polytopes(3, 0, seed=0)) == []
        with pytest.raises(ValueError, match="nonnegative"):
            random_01_polytopes(3, -2, seed=0)


def test_corpus_members_are_distinct():
    items = named_corpus()
    assert len({name for name, _ in items}) == len(items)
