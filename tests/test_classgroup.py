"""Class matrices and divisor class group presentations."""

from __future__ import annotations

import pytest

import oracles
from polyclass import (
    ClassGroupPresentation,
    Polytope,
    class_group,
    class_matrix,
    cube,
    dilate,
    fixture,
    product,
    simplex,
)
from support import named_corpus

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

    def test_rejects_points(self):
        with pytest.raises(ValueError):
            class_matrix(Polytope([(4, 2)]))

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

    def test_rejects_negative_rank(self):
        with pytest.raises(ValueError):
            ClassGroupPresentation(-1, ())
