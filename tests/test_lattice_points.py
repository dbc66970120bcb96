"""Lattice points of h*P by slicing, against the box-scan oracle, closed forms and a cold memo."""

from __future__ import annotations

import sys
from math import prod

import pytest
from hypothesis import given, settings

import oracles
import test_hull
from polyclass import (
    Polytope,
    all_01_polytopes,
    cube,
    is_normal,
    polytope,
    random_01_polytopes,
    verify_family,
)
from support import named_corpus
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


def walk(p: Polytope):
    """Slices and points of h*P, h = 1..3, of a fresh copy of p (nothing cached)."""
    q = Polytope(p.vertices)
    return q._slices, [q._scaled_lattice_points(h) for h in (1, 2, 3)]


class TestPrefixMemo:
    """The prefix-projection memo changes no slice and no point, cold or warm."""

    @staticmethod
    def assert_cold_equals_warm(polys):
        memo = polytope._prefix_bounds
        cold = []
        for p in polys:
            memo.cache_clear()
            cold.append(walk(p))
        assert [walk(p) for p in polys] == cold
        misses = memo.cache_info().misses
        assert [walk(p) for p in polys] == cold
        assert memo.cache_info().misses == misses  # the second pass is all hits

    def test_exhaustive_threedim_family(self):
        self.assert_cold_equals_warm(list(all_01_polytopes(3)))

    def test_named_corpus(self):
        self.assert_cold_equals_warm([p for _, p in named_corpus()] + list(NAMED.values()))

    @settings(deadline=None, max_examples=100)
    @given(unimodular_images())
    def test_embedded_images(self, pair):
        self.assert_cold_equals_warm(pair)

    @settings(deadline=None, max_examples=200)
    @given(unimodular_images())
    def test_memo_stays_bounded(self, pair):
        # Shifted and sheared images are new keys; the memo is not cleared.
        for p in pair:
            Polytope(p.vertices)._slices
        assert polytope._prefix_bounds.cache_info().currsize <= polytope.PREFIX_MEMO_SIZE

    def test_evicted_keys_are_rebuilt_alike(self):
        # Each shifted triangle has its own projection onto x_1.
        memo = polytope._prefix_bounds
        memo.cache_clear()
        triangles = [Polytope([(t, 0), (t + 1, 0), (t, 1)])
                     for t in range(polytope.PREFIX_MEMO_SIZE + 8)]
        first = [walk(p) for p in triangles]
        assert memo.cache_info().currsize == polytope.PREFIX_MEMO_SIZE
        assert walk(triangles[0]) == first[0]
        assert memo.cache_info().misses == polytope.PREFIX_MEMO_SIZE + 9

    def test_threaded_family_matches_serial(self):
        # More threads than cores, switching often, all sharing one memo.
        runs = []
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-5)
            for workers in (None, 2, 4):
                fam = list(random_01_polytopes(4, 60, seed=3))
                polytope._prefix_bounds.cache_clear()
                report = verify_family(fam, workers=workers)
                runs.append((report, [p.lattice_points for p in fam],
                             polytope._prefix_bounds.cache_info().currsize))
        finally:
            sys.setswitchinterval(interval)
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]


class TestPrefixMemoWork:
    """Double descriptions built for prefix projections, counted from a cold memo."""

    @staticmethod
    def count_projection_hulls(monkeypatch, fam):
        polytope._prefix_bounds.cache_clear()
        calls = test_hull.TestHullWork.count_calls(monkeypatch, polytope, "_hull_candidates")
        verify_family(fam)
        return len(calls)

    def test_threedim_sweep_builds_six(self, monkeypatch):
        # 302 prefix projections (151 polytopes, 2 each) on 6 point sets:
        # the segment [0, 1] and the 5 full-dimensional 0/1 sets in R^2.
        fam = list(all_01_polytopes(3))
        assert self.count_projection_hulls(monkeypatch, fam) == 6

    def test_fourdim_samples_build_fifty_five(self, monkeypatch):
        # 300 prefix projections (100 polytopes, 3 each) on 55 point sets.
        fam = list(random_01_polytopes(4, 100, seed=0))
        assert self.count_projection_hulls(monkeypatch, fam) == 55


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
