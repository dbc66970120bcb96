"""Lattice points of h*P by slicing, against the box-scan oracle and closed forms."""

from __future__ import annotations

from math import prod

import pytest
from hypothesis import given, settings

import oracles
from polyclass import Polytope, all_01_polytopes, cube, is_normal
from test_hull import NAMED, birkhoff
from test_invariance import unimodular_images

BOX_LIMIT = 10 ** 5


def box_volume(p: Polytope, h: int) -> int:
    return prod(h * (max(col) - min(col)) + 1 for col in zip(*p.vertices))


def assert_points_match_oracle(p: Polytope, heights=(1, 2, 3)) -> None:
    for h in heights:
        assert p._scaled_lattice_points(h) == oracles.lattice_points_by_box_scan(p, h), h


NAMED_CASES = [(name, h) for name in sorted(NAMED) for h in (1, 2, 3)
               if box_volume(NAMED[name], h) <= BOX_LIMIT]


class TestSlicingOracle:
    def test_exhaustive_threedim_family(self):
        for p in all_01_polytopes(3):
            assert_points_match_oracle(p)

    @pytest.mark.parametrize("name,h", NAMED_CASES)
    def test_named_corpus(self, name, h):
        assert_points_match_oracle(NAMED[name], (h,))

    @settings(deadline=None, max_examples=100)
    @given(unimodular_images())
    def test_embedded_images(self, pair):
        # Lower-dimensional images, shears and translations of small polytopes.
        for p in pair:
            assert_points_match_oracle(p)


class TestClosedForms:
    def test_birkhoff_b3_counts_magic_squares(self):
        # MacMahon: 3x3 magic squares with line sum h number 6, 21, 55.
        p = birkhoff(3)
        assert [len(p._scaled_lattice_points(h)) for h in (1, 2, 3)] == [6, 21, 55]


class TestWalls:
    """Inputs whose ambient bounding box is far larger than their point set."""

    def test_segment_in_thirty_dimensions(self):
        # Its bounding box has 2^30 points.
        p = Polytope([(0,) * 30, (1,) * 30])
        assert p.lattice_points == ((0,) * 30, (1,) * 30)

    def test_birkhoff_b3_is_normal(self):
        # The bounding boxes of 2*B3 and 3*B3 hold 3^9 and 4^9 points.
        p = birkhoff(3)
        assert is_normal(p)
        assert len(p.lattice_points) == 6

    def test_cube6_is_normal(self):
        # Levels 2..5 of cube(6) hold 3^6 .. 6^6 points.
        assert is_normal(cube(6))
