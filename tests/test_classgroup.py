"""Class matrices and divisor class group presentations."""

from __future__ import annotations

import random

import pytest

import oracles
from polyclass import (
    ClassGroupPresentation,
    Graph,
    InvariantViolation,
    Polytope,
    class_group,
    class_matrix,
    cube,
    dilate,
    fixture,
    is_compressed,
    k_number,
    order_polytope,
    polytope_checks,
    product,
    simplex,
    stable_set_polytope,
)
from polyclass import classgroup
from support import named_corpus, random_poset

SEGMENT_02 = dilate(simplex(1), 2)


class TestClassMatrix:
    def test_segment(self):
        cm = class_matrix(SEGMENT_02)
        assert sorted(cm.matrix.entries) == [(0, 1, 2), (2, 1, 0)]
        assert SEGMENT_02.lattice_points == ((0,), (1,), (2,))
        assert (cm.matrix.rows, cm.matrix.cols) == (2, len(SEGMENT_02.lattice_points))

    def test_unit_segment(self):
        assert sorted(class_matrix(simplex(1)).matrix.entries) == [(0, 1), (1, 0)]

    def test_unit_square(self):
        cm = class_matrix(cube(2))
        assert cube(2).lattice_points == ((0, 0), (0, 1), (1, 0), (1, 1))
        assert (cm.matrix.rows, cm.matrix.cols) == (4, len(cube(2).lattice_points))
        assert sorted(cm.matrix.entries) == [
            (0, 0, 1, 1), (0, 1, 0, 1), (1, 0, 1, 0), (1, 1, 0, 0)]

    def test_rows_follow_canonical_facet_order(self):
        p = fixture("P1")
        cm = class_matrix(p)
        assert list(cm.matrix.entries) == oracles.facet_rows_by_forms(p)

    @pytest.mark.parametrize("fn", [class_matrix, is_compressed, k_number],
                             ids=lambda fn: fn.__name__)
    def test_rejects_points(self, fn):
        with pytest.raises(ValueError, match="has no facets"):
            fn(Polytope([(4, 2)]))

    def test_entry_invariants_across_corpus(self):
        for name, p in named_corpus():
            cm = class_matrix(p)
            for row in cm.matrix.entries:
                assert min(row) == 0 or p.dim == 0
                assert all(v >= 0 for v in row)
            # no lattice point sits on every facet
            for j in range(cm.matrix.cols):
                assert any(row[j] for row in cm.matrix.entries), name


class TestClassGroup:
    def test_rank_other_than_dim_plus_one_is_an_invariant_violation(self, monkeypatch):
        real = classgroup.snf
        monkeypatch.setattr(classgroup, "snf", lambda m: real(m)[:-1])
        with pytest.raises(InvariantViolation,
                           match=r"^class matrix rank 2 != dim \+ 1 = 3 for vertices \[\(0, 0\),"):
            class_group(fixture("P3"))

    def test_skew_quadrilateral_is_free_of_rank_one(self):
        cg = class_group(fixture("P3"))
        assert cg.free_rank == 1
        assert cg.full_factors == (1, 1, 1)
        assert cg.torsion == ()
        assert cg.describe() == "Z"

    def test_five_point_threedim_fixture(self):
        cg = class_group(fixture("EX38"))
        assert cg.free_rank == 2
        assert cg.torsion == ()
        assert cg.describe() == "Z^2"

    def test_quad_fixture_has_two_torsion(self):
        cg = class_group(fixture("P2"))
        assert cg.free_rank == 1
        assert cg.torsion == (2, 2)
        assert cg.describe() == "Z x Z/2 x Z/2"

    def test_hexagon(self):
        cg = class_group(fixture("P1"))
        assert cg.free_rank == 3
        assert cg.torsion == ()

    def test_even_segment_is_cyclic_of_order_two(self):
        cg = class_group(SEGMENT_02)
        assert cg.free_rank == 0
        assert cg.torsion == (2,)
        assert cg.describe() == "Z/2"

    def test_unit_square_is_free_of_rank_one(self):
        cg = class_group(cube(2))
        assert (cg.free_rank, cg.torsion) == (1, ())
        assert class_group(cube(2)).is_torsionfree

    def test_simplices_are_trivial(self):
        for n in range(1, 5):
            cg = class_group(simplex(n))
            assert cg.free_rank == 0
            assert cg.full_factors == (1,) * (n + 1)
            assert cg.describe() == "0"

    def test_dilated_triangle_has_torsion(self):
        assert class_group(dilate(simplex(2), 2)).torsion == (2,)
        assert not class_group(dilate(simplex(2), 2)).is_torsionfree

    def test_dilated_segment_torsion_scales(self):
        for d in (2, 3, 4, 5):
            cg = class_group(dilate(simplex(1), d))
            assert cg.free_rank == 0
            assert cg.torsion == (d,)

    def test_products_of_simplices_are_free_of_rank_one(self):
        for a, b in ((1, 1), (1, 2), (2, 2)):
            cg = class_group(product(simplex(a), simplex(b)))
            assert (cg.free_rank, cg.torsion) == (1, ())

    def test_factor_count_matches_facet_count(self):
        for name, p in named_corpus():
            if p.dim == 0:
                continue
            cg = class_group(p)
            assert len(cg.full_factors) == p.dim + 1, name
            assert cg.free_rank == len(p.facets) - (p.dim + 1), name


class TestPresentation:
    def test_describe_trivial(self):
        assert ClassGroupPresentation(0, ()).describe() == "0"

    def test_describe_mixed(self):
        pres = ClassGroupPresentation(2, (1, 2, 6))
        assert pres.torsion == (2, 6)
        assert pres.describe() == "Z^2 x Z/2 x Z/6"
        assert not pres.is_torsionfree

    def test_rejects_bad_factor_chain(self):
        with pytest.raises(ValueError):
            ClassGroupPresentation(0, (3, 2))
        with pytest.raises(ValueError):
            ClassGroupPresentation(0, (4, 2))

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(ValueError):
            ClassGroupPresentation(0, (0,))

    def test_rejects_negative_rank(self):
        with pytest.raises(ValueError):
            ClassGroupPresentation(-1, ())


def _random_posets(seed: int, count: int):
    rng = random.Random(seed)
    return [random_poset(rng, rng.randint(1, 6)) for _ in range(count)]


def _cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def _complement(g: Graph) -> Graph:
    return Graph(g.n, [(i, j) for i in range(g.n) for j in range(i + 1, g.n)
                       if j not in g.adj[i]])


class TestClosedForms:
    """Class groups of two poset families against closed forms counted by brute force."""

    def test_order_polytopes(self):
        # Stanley, "Two poset polytopes" (1986): the facets of O(P) are the
        # covers of P-hat.  The class group is free of rank facets - dim - 1.
        for poset in _random_posets(31, 200):
            p = order_polytope(poset)
            covers = oracles.bounded_covers_by_scan(poset)
            assert len(p.facets) == covers, poset.leq
            assert is_compressed(p), poset.leq
            cg = class_group(p)
            assert (cg.free_rank, cg.torsion) == (covers - poset.n - 1, ()), poset.leq
            assert False not in polytope_checks(p).values(), poset.leq

    def test_stable_set_polytopes_of_comparability_graphs(self):
        # A comparability graph is perfect and its maximal cliques are the
        # maximal chains, so Stab(G) has the n facets x_i >= 0 and one
        # clique facet per maximal chain.
        for poset in _random_posets(32, 200):
            n = poset.n
            graph = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                              if poset.leq[i][j] or poset.leq[j][i]])
            chains = oracles.maximal_chains_by_scan(poset)
            assert oracles.maximal_cliques_by_scan(graph) == chains, poset.leq
            assert oracles.is_perfect_by_scan(graph), poset.leq
            p = stable_set_polytope(graph)
            assert len(p.facets) == n + len(chains), poset.leq
            assert is_compressed(p), poset.leq
            cg = class_group(p)
            assert (cg.free_rank, cg.torsion) == (len(chains) - 1, ()), poset.leq
            assert False not in polytope_checks(p).values(), poset.leq

    def test_stable_set_polytopes_of_random_graphs(self):
        # Chvatal (1975): for a perfect G the facets are x_v >= 0 and one
        # per maximal clique, and Stab(G) is compressed iff G is perfect.
        rng = random.Random(33)
        perfect = 0
        for _ in range(150):
            n = rng.randint(1, 7)
            prob = rng.choice((0.3, 0.5, 0.7))
            graph = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                              if rng.random() < prob])
            p = stable_set_polytope(graph)
            assert False not in polytope_checks(p).values(), graph.edges
            if not oracles.is_perfect_by_scan(graph):
                assert not is_compressed(p), graph.edges
                continue
            perfect += 1
            cliques = oracles.maximal_cliques_by_scan(graph)
            assert len(p.facets) == n + len(cliques), graph.edges
            assert is_compressed(p), graph.edges
            cg = class_group(p)
            assert (cg.free_rank, cg.torsion) == (len(cliques) - 1, ()), graph.edges
        assert perfect == 144  # the seed draws 6 graphs with an odd hole or antihole

    @pytest.mark.parametrize("graph", [_cycle(5), _cycle(7), _complement(_cycle(7))],
                             ids=["C5", "C7", "co-C7"])
    def test_odd_holes_and_antiholes_are_not_compressed(self, graph):
        assert not oracles.is_perfect_by_scan(graph)
        assert not is_compressed(stable_set_polytope(graph))
