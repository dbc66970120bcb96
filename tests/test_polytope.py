"""Polytope geometry: hulls, facets, lattice points, dilation, height lattice."""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from polyclass import IntMatrix, Polytope, cube, dilate, fixture, in_row_lattice, simplex
from support import REEVE_SIMPLEX, SQUARE_PYRAMID, hull_of_points
from test_invariance import unimodular_images

SEGMENT_02 = Polytope([(0,), (2,)])


def form_value(form, v) -> int:
    a, b = form
    return sum(map(mul, a, v)) + b


class TestConstruction:
    def test_rejects_empty_vertex_list(self):
        with pytest.raises(ValueError):
            Polytope([])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Polytope([(0, 0), (1, 1), (0, 0)])

    def test_rejects_mixed_lengths(self):
        with pytest.raises(ValueError):
            Polytope([(0, 0), (1,)])

    def test_vertex_length_errors_name_the_vertex(self):
        with pytest.raises(ValueError, match="^all vertices must have the same dimension$"):
            Polytope([(0, 0), (1,)])
        with pytest.raises(ValueError, match="^all vertices must have the same dimension$"):
            Polytope([(1, 2), (0, 0, 0)])
        with pytest.raises(ValueError, match=r"^point \(1,\) is not a vertex of the hull$"):
            Polytope([(0,), (1,), (2,)])
        # the ambient dimension is the vertices' length; it is not passed
        with pytest.raises(TypeError):
            Polytope([(1, 2)], 3)

    def test_rejects_non_integer_coordinates(self):
        with pytest.raises(TypeError):
            Polytope([(0.0, 1), (1, 0)])
        with pytest.raises(TypeError):
            Polytope([(True, 0), (0, 1)])
        with pytest.raises(TypeError):
            Polytope([(Fraction(1, 2), 0), (1, 1)])

    @pytest.mark.parametrize("verts, message", [
        ([(0, 0), (1, 1.5)], "vertex 1, coordinate 1: expected an integer, got 1.5"),
        ([(0, 1), (True, 0)], "vertex 1, coordinate 0: expected an integer, got True"),
    ], ids=["float", "bool"])
    def test_coordinate_error_names_its_position(self, verts, message):
        with pytest.raises(TypeError) as err:
            Polytope(verts)
        assert str(err.value) == message

    def test_rejects_interior_point_listed_as_vertex(self):
        with pytest.raises(ValueError):
            Polytope([(0,), (1,), (2,)])

    def test_from_points_drops_non_vertices(self):
        p = hull_of_points([(0,), (1,), (2,)])
        assert p.vertices == ((0,), (2,))
        q = hull_of_points([(0, 0), (2, 0), (0, 2), (1, 1), (1, 0)])
        assert q == Polytope([(0, 0), (2, 0), (0, 2)])

    def test_vertices_sorted_and_hashable(self):
        p = Polytope([(1, 0), (0, 1), (0, 0)])
        assert p.vertices == ((0, 0), (0, 1), (1, 0))
        assert p == Polytope([(0, 1), (0, 0), (1, 0)])
        assert len({p, Polytope([(0, 0), (0, 1), (1, 0)])}) == 1


class TestDimension:
    def test_single_point(self):
        assert Polytope([(3, 5, 7)]).dim == 0

    def test_planar_hexagon(self):
        assert fixture("P1").dim == 2

    def test_cube(self):
        assert cube(3).dim == 3

    def test_embedded_lower_dimension(self):
        # a triangle sitting inside a plane of R^3
        p = Polytope([(0, 0, 0), (1, 0, 1), (0, 1, 1)])
        assert p.dim == 2
        assert p.ambient_dim == 3

    def test_is_01(self):
        assert cube(3).is_01
        assert not SEGMENT_02.is_01
        assert not fixture("P2").is_01
        assert fixture("EX38").is_01


class TestFacets:
    def test_segment_value_rows(self):
        assert SEGMENT_02.lattice_points == ((0,), (1,), (2,))
        assert sorted(fd.row for fd in SEGMENT_02.facets) == [(0, 1, 2), (2, 1, 0)]

    def test_segment_divisor_normalization(self):
        # both supporting forms take even values on vertices; the gcd
        # normalization divides them back to (0, 1, 2)
        for fd in SEGMENT_02.facets:
            g = 0
            for v in fd.row:
                g = gcd(g, v)
            assert g == 1

    def test_quad_fixture_values(self):
        p = fixture("P2")
        assert len(p.facets) == 4
        # every facet evaluates to 1 at the interior point (1, 1)
        center = p.lattice_points.index((1, 1))
        assert all(fd.row[center] == 1 for fd in p.facets)
        through = next(fd for fd in p.facets
                       if {(1, 0), (0, 1)} <= {p.vertices[i] for i in fd.vertex_set})
        nonzero = {v for v in through.row if v}
        assert nonzero == {1, 2}

    def test_values_zero_exactly_on_facet(self):
        for p in (fixture("P1"), fixture("P3"), cube(3), SQUARE_PYRAMID):
            pts = p.lattice_points
            for fd in p.facets:
                on_facet = {p.vertices[i] for i in fd.vertex_set}
                for v, val in zip(pts, fd.row):
                    if val == 0:
                        assert form_value(fd.int_form, v) == 0
                    else:
                        assert v not in on_facet

    def test_five_point_threedim_fixture_hyperplanes(self):
        expected = [
            ((1, 0, 0), 0),
            ((0, 1, 0), 0),
            ((0, 0, 1), 0),
            ((1, -1, -1), 1),
            ((-1, 1, -1), 1),
            ((-1, -1, 1), 1),
        ]
        p = fixture("EX38")
        assert len(p.facets) == len(expected)
        matched = set()
        for a, b in expected:
            raw = [sum(ai * xi for ai, xi in zip(a, v)) + b for v in p.lattice_points]
            g = 0
            for val in raw:
                g = gcd(g, val)
            target = tuple(val // g for val in raw)
            hits = [i for i, fd in enumerate(p.facets) if fd.row == target]
            assert len(hits) == 1
            matched.add(hits[0])
        assert len(matched) == 6

    def test_degenerate_tetrahedron_divisor(self):
        # facet forms of this tetrahedron take only even values on its
        # lattice points before normalization
        p = Polytope([(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)])
        assert {fd.divisor for fd in p.facets} == {2}
        assert sorted(sorted(fd.row) for fd in p.facets) == [[0, 0, 0, 1]] * 4

    def test_facet_data_consistency(self):
        for p in (fixture("P1"), SQUARE_PYRAMID, cube(2)):
            pts = p.lattice_points
            for fd in p.facets:
                for v, val in zip(pts, fd.row):
                    assert val >= 0
                    assert form_value(fd.int_form, v) == fd.divisor * val


class TestLatticePoints:
    def test_hexagon_has_one_interior_point(self):
        p = fixture("P1")
        assert len(p.lattice_points) == 7
        assert (1, 1) in p.lattice_points
        assert set(p.vertices) <= set(p.lattice_points)

    def test_skew_quadrilateral(self):
        assert len(fixture("P3").lattice_points) == 11

    def test_triangle(self):
        assert simplex(2).lattice_points == ((0, 0), (0, 1), (1, 0))

    def test_lex_sorted(self):
        for p in (fixture("P1"), cube(3), SEGMENT_02):
            assert list(p.lattice_points) == sorted(p.lattice_points)


class TestContains:
    @settings(deadline=None, max_examples=100)
    @given(unimodular_images())
    def test_integer_points_of_a_box_around_the_hull(self, pair):
        # A point of the box one wider than the vertices' is a lattice point
        # iff it meets every equation and facet inequality of the hull.  The
        # images embedded in a larger space are lower-dimensional, so this
        # exercises the affine hull equations as well as the facets.
        for p in pair:
            aff, facets = p._hull
            ranges = [range(min(col) - 1, max(col) + 2) for col in zip(*p.vertices)]
            inside = set(p.lattice_points)
            for x in product(*ranges):
                member = all(form_value(f, x) == 0 for f in aff) and \
                    all(form_value(f, x) >= 0 for f, _ in facets)
                assert member == (x in inside), x


class TestSimplicity:
    def test_cube_is_simple(self):
        assert cube(3).is_simple()

    def test_square_pyramid_is_not(self):
        assert not SQUARE_PYRAMID.is_simple()

    def test_polygons_are_simple(self):
        assert fixture("P1").is_simple()
        assert fixture("P2").is_simple()


class TestDilate:
    def test_segment(self):
        assert dilate(simplex(1), 2) == SEGMENT_02

    def test_identity(self):
        p = fixture("P1")
        assert dilate(p, 1) is p

    def test_triangle_doubled(self):
        q = dilate(simplex(2), 2)
        assert q == Polytope([(0, 0), (2, 0), (0, 2)])
        assert len(q.lattice_points) == 6

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(ValueError):
            dilate(simplex(1), 0)

    def test_lattice_points_scale_consistently(self):
        # points of hP agree with brute enumeration through the scaled copy
        for p, h in ((fixture("P2"), 2), (simplex(3), 2), (fixture("P1"), 3)):
            scaled = Polytope([tuple(h * c for c in v) for v in p.vertices])
            assert dilate(p, h).lattice_points == scaled.lattice_points


class TestHeightLattice:
    def test_unit_segment_generates_everything(self):
        assert simplex(1).lattice_height_basis == IntMatrix.from_rows([[1, 0], [0, 1]])

    def test_even_segment_still_generates_everything(self):
        # (1,1) - (0,1) = (1,0), so (0,1) and (1,0) are both reachable
        assert SEGMENT_02.lattice_height_basis == IntMatrix.from_rows([[1, 0], [0, 1]])

    def test_reeve_simplex_has_index_two(self):
        hnf = REEVE_SIMPLEX.lattice_height_basis
        diag = 1
        for i, row in enumerate(hnf.entries):
            pivot = next(v for v in row if v)
            diag *= pivot
        assert hnf.rows == 4
        assert diag == 2
        assert in_row_lattice(hnf, (1, 1, 2, 1))
        assert not in_row_lattice(hnf, (0, 0, 1, 1))
        assert not in_row_lattice(hnf, (1, 1, 1, 1))


coordinate = st.integers(-4, 4)
planar_point_sets = st.lists(
    st.tuples(coordinate, coordinate), min_size=3, max_size=8, unique=True)


class TestPlanarHullProperties:
    @settings(deadline=None, max_examples=150)
    @given(planar_point_sets)
    def test_vertices_match_monotone_chain(self, points):
        expected = oracles.hull_vertices_2d(points)
        p = hull_of_points(points)
        assert set(p.vertices) == expected

    @settings(deadline=None, max_examples=100)
    @given(planar_point_sets)
    def test_lattice_point_count_matches_pick(self, points):
        p = hull_of_points(points)
        if p.dim < 2:
            return
        ordered = oracles.order_hull_2d(set(p.vertices))
        assert len(p.lattice_points) == oracles.lattice_point_count_pick(ordered)

    @settings(deadline=None, max_examples=100)
    @given(planar_point_sets)
    def test_facet_normalization_invariants(self, points):
        p = hull_of_points(points)
        if p.dim < 2:
            return
        assert len(p.facets) == len(p.vertices)
        pts = p.lattice_points
        for fd in p.facets:
            assert min(fd.row) == 0
            g = 0
            for v in fd.row:
                g = gcd(g, v)
            assert g == 1
            # every endpoint of the edge shows up with value zero
            zero = {v for v, val in zip(pts, fd.row) if val == 0}
            assert {p.vertices[i] for i in fd.vertex_set} <= zero

    @settings(deadline=None, max_examples=60)
    @given(planar_point_sets, st.integers(2, 3))
    def test_dilation_multiplies_consistently(self, points, h):
        p = hull_of_points(points)
        scaled = hull_of_points([tuple(h * c for c in v) for v in points])
        assert dilate(p, h) == scaled
