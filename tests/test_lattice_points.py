"""Lattice points of h*P by slicing, against the box-scan oracle, closed forms and a cold memo,
and the (0,1) shortcut that takes no walk at h = 1."""

from __future__ import annotations

import sys
from functools import lru_cache
from itertools import combinations, product
from math import comb, prod

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
    polytope_checks,
    random_01_polytopes,
    simplex,
    verify_family,
)
from polyclass.analysis import _normal_height_bound
from support import benchmark_workloads, named_corpus
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

    def test_wide_pool_first_round_at_its_normality_heights(self):
        # The benchmark's analyze-wide walks h = 2..4 on these 9 members in R^5.
        for p in zero_one_family("wide-pool")[:9]:
            assert _normal_height_bound(p) == 4
            assert_points_match_oracle(p, (2, 3, 4))

    @pytest.mark.parametrize("verts", [
        [(-3,), (5,)],  # ambient dim 1: the walk runs no last-two-coordinate kernel
        [(-2, -1), (1, 0), (-1, 2)],  # ambient dim 2: the kernel runs at the empty prefix
        [(0, 0), (3, 1), (1, 3)],  # x_2 coefficients that are not +-1
        # x_2 = x_1/2 leaves x_2 no value over x_1 = 1, and x_3's bounds
        # without an x_2 term come from the equation x_1 = 2*x_3.
        [(0, 0, 0), (2, 1, 1)],
        # The equation x_3 = x_2 pins x_3, and both its halves have an x_2
        # term, so x_3's bounds are all split off on x_2.
        [(0, 0, 0), (2, 0, 0), (0, 1, 1)],
    ], ids=["segment", "triangle", "skew-triangle", "pinned-segment", "pinned-by-x2"])
    def test_kernel_boundaries(self, verts):
        assert_points_match_oracle(Polytope(verts))


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
    def count_projection_hulls(monkeypatch, fam, run):
        polytope._prefix_bounds.cache_clear()
        calls = test_hull.TestHullWork.count_calls(monkeypatch, polytope, "_hull_candidates")
        run(fam)
        return len(calls)

    @staticmethod
    def build_slices(fam):
        for p in fam:
            p._slices

    def test_threedim_sweep_builds_six(self, monkeypatch):
        # 302 prefix projections (151 polytopes, 2 each) on 6 point sets:
        # the segment [0, 1] and the 5 full-dimensional 0/1 sets in R^2.
        fam = list(all_01_polytopes(3))
        assert self.count_projection_hulls(monkeypatch, fam, self.build_slices) == 6

    def test_fourdim_samples_build_fifty_five(self, monkeypatch):
        # 300 prefix projections (100 polytopes, 3 each) on 55 point sets.
        fam = list(random_01_polytopes(4, 100, seed=0))
        assert self.count_projection_hulls(monkeypatch, fam, self.build_slices) == 55

    def test_threedim_sweep_verify_builds_two(self, monkeypatch):
        # Only the 4 members whose is_normal walks some h >= 2 slice.
        fam = list(all_01_polytopes(3))
        assert self.count_projection_hulls(monkeypatch, fam, verify_family) == 2
        assert sum("_slices" in p.__dict__ for p in fam) == 4

    def test_fourdim_samples_verify_build_ten(self, monkeypatch):
        # Only the 6 members whose is_normal walks some h >= 2 slice.
        fam = list(random_01_polytopes(4, 100, seed=0))
        assert self.count_projection_hulls(monkeypatch, fam, verify_family) == 10
        assert sum("_slices" in p.__dict__ for p in fam) == 6


ZERO_ONE = ("cube3-subsets", "r4-samples", "wide-pool")


@lru_cache(maxsize=None)
def zero_one_family(name: str) -> tuple[Polytope, ...]:
    """Every nonempty subset of {0,1}^3, the seed-0 R^4 samples or the seed-0 wide pool."""
    if name == "cube3-subsets":
        corners = list(product((0, 1), repeat=3))
        return tuple(Polytope(sub) for size in range(1, 9) for sub in combinations(corners, size))
    if name == "r4-samples":
        return tuple(random_01_polytopes(4, 100, seed=0))
    return tuple(Polytope(v) for v in benchmark_workloads().wide_pool(0))


def facets_by_double_description(p: Polytope):
    """``p``'s facets as ``oracles.hull_facets_by_subsets`` lists them, read off ``p._hull``."""
    return [(on, tuple(sum(c * x for c, x in zip(a, v)) + b for v in p.vertices), (a, b))
            for (a, b), on in p._hull[1]]


class TestZeroOneShortcut:
    """In the unit cube the lattice points are the corners, and a corner in P is a vertex of P.

    So ``lattice_points`` is ``vertices`` and no input point is checked for
    being a vertex on 0/1 input.  Each fact is checked against an oracle.
    """

    @pytest.mark.parametrize("family", ZERO_ONE)
    def test_lattice_points_are_the_box_scan(self, family):
        fam = zero_one_family(family)
        assert len(fam) == {"cube3-subsets": 255, "r4-samples": 100, "wide-pool": 63}[family]
        for p in fam:
            assert p.lattice_points == p.vertices == oracles.lattice_points_by_box_scan(p, 1)

    @pytest.mark.parametrize("family", ZERO_ONE)
    def test_every_point_is_a_vertex(self, family):
        # The subset-scan hull takes seconds per wide member, so the wide pool's
        # facets come from the double description (test_hull checks it).
        for p in zero_one_family(family):
            pts = list(p.vertices)
            facets = (facets_by_double_description(p) if family == "wide-pool"
                      else oracles.hull_facets_by_subsets(pts))
            assert oracles.hull_vertices_by_rank(pts, facets) == pts

    @pytest.mark.parametrize("family", ZERO_ONE)
    def test_translate_walks_to_the_vertices(self, family):
        # The translate by (2, ..., 2) is not 0/1, so its points come from the walk.
        for p in zero_one_family(family):
            q = Polytope([tuple(x + 2 for x in v) for v in p.vertices])
            assert tuple(tuple(x - 2 for x in pt) for pt in q.lattice_points) == p.vertices


class TestZeroOneWork:
    """The slice bounds are built only when some walk at h >= 2 needs them."""

    def test_cube_builds_no_slices(self):
        p = cube(3)
        assert _normal_height_bound(p) <= 1
        p.lattice_points
        p.facets
        polytope_checks(p)
        assert "_slices" not in p.__dict__

    def test_birkhoff_b3_builds_slices_to_walk(self):
        p = birkhoff(3)
        assert _normal_height_bound(p) == 3
        p.lattice_points
        assert "_slices" not in p.__dict__
        assert is_normal(p)
        assert "_slices" in p.__dict__


class TestClosedForms:
    def test_birkhoff_b3_counts_magic_squares(self):
        # MacMahon: 3x3 magic squares with line sum h number 6, 21, 55, 120, 231.
        # B3 spans a 4-space of R^9, so an equation pins its last coordinate.
        p = birkhoff(3)
        assert [len(p._scaled_lattice_points(h)) for h in range(1, 6)] == [6, 21, 55, 120, 231]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_dilated_simplex_counts(self, n):
        # h*Delta_n holds C(n + h, n) lattice points.
        p = simplex(n)
        assert ([len(p._scaled_lattice_points(h)) for h in range(1, 7)]
                == [comb(n + h, n) for h in range(1, 7)])


class TestWalls:
    """Inputs whose ambient bounding box is far larger than their point set."""

    def test_segment_in_thirty_dimensions(self):
        # Its bounding box has 2^30 points; it is 0/1, so no walk runs.
        p = Polytope([(0,) * 30, (1,) * 30])
        assert p.lattice_points == ((0,) * 30, (1,) * 30)

    def test_long_segment_in_thirty_dimensions(self):
        # Not 0/1, so the walk runs: its bounding box has 3^30 points.
        p = Polytope([(0,) * 30, (2,) * 30])
        assert p.lattice_points == ((0,) * 30, (1,) * 30, (2,) * 30)

    def test_birkhoff_b3_is_normal(self):
        # The bounding boxes of 2*B3 and 3*B3 hold 3^9 and 4^9 points.
        p = birkhoff(3)
        assert is_normal(p)
        assert len(p.lattice_points) == 6

    def test_cube6_is_normal(self):
        # Levels 2..5 of cube(6) hold 3^6 .. 6^6 points.
        assert is_normal(cube(6))
