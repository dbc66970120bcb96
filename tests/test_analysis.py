"""Structure analysis: compression, normality, unit chains, peeling, products."""

from __future__ import annotations

import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from polyclass import (
    CHECK_NAMES,
    InvariantViolation,
    Polytope,
    UnitChain,
    VerificationReport,
    all_01_polytopes,
    analyze,
    class_group,
    classify_segre,
    cube,
    dilate,
    edge_polytope,
    fixture,
    is_compressed,
    is_normal,
    k_number,
    polytope_checks,
    product,
    pyramid,
    pyramid_peel,
    random_01_polytopes,
    simplex,
    validate_unit_chain,
    verify_family,
)
from polyclass import analysis, cli
from polyclass.analysis import CheckOutcome
from oracles import (classify_segre_by_rebuild, coordinate_blocks_by_subsets, facet_rows_by_forms,
                     is_normal_bruteforce, is_normal_by_levels, pivot_columns,
                     polytope_checks_eager, pyramid_peel_stepwise, unit_chain_length_by_search)
from support import (BIRKHOFF_B3, SQUARE_PYRAMID, benchmark_workloads, complete_bipartite,
                     hull_of_points, named_corpus, pyramid_invariance_bases, two_triangles_bridge)
from test_invariance import unimodular_image, unimodular_images

# Keeps is_normal_bruteforce, which walks heights up to dim, cheap.
BRUTEFORCE_POINT_CAP = 40
# Non-normal tetrahedra whose non-sums lie at height 2.
POWER_OF_TWO_TETRAHEDRON = Polytope([(0, 0, 1), (0, 2, 0), (2, 0, 0), (2, 2, 2)])
WIDTHS_3_TETRAHEDRON = Polytope([(0, 0, 2), (2, 3, 0), (3, 1, 3), (3, 3, 0)])


class TestCompressed:
    def test_cube_is_compressed(self):
        assert is_compressed(cube(3))

    def test_dilated_segment_is_not(self):
        assert not is_compressed(dilate(simplex(1), 2))

    def test_quad_fixture_is_not(self):
        assert not is_compressed(fixture("P2"))

    def test_hexagon_is_not_compressed(self):
        # each of the six facets sees values {0, 1, 2}
        assert not is_compressed(fixture("P1"))

    def test_matches_value_sets_across_corpus(self):
        for name, p in named_corpus():
            if p.dim == 0:
                continue
            expected = all(set(row) <= {0, 1} for row in facet_rows_by_forms(p))
            assert is_compressed(p) == expected, name


class TestNormality:
    def test_low_dimension_is_always_normal(self):
        assert is_normal(dilate(simplex(1), 5))
        assert is_normal(fixture("P1"))
        assert is_normal(fixture("P3"))

    def test_known_normal_threedim(self):
        assert is_normal(fixture("EX38"))
        assert is_normal(cube(3))

    def test_bridged_triangles_edge_polytope_is_not_normal(self):
        p = edge_polytope(two_triangles_bridge())
        assert not is_normal(p)
        assert not is_normal_bruteforce(p)

    def test_agrees_with_bruteforce_on_corpus(self):
        for name, p in named_corpus():
            if p.dim == 0 or len(p.lattice_points) > 12:
                continue
            assert is_normal(p) == is_normal_bruteforce(p), name


class TestPackedNormality:
    """is_normal keys each point of h*P by one int; the oracle keeps tuples."""

    @settings(deadline=None, max_examples=150)
    @given(unimodular_images())
    def test_agrees_with_bruteforce_on_embedded_images_and_dilations(self, pair):
        # Negative coordinates, lower-dimensional embeddings and shears.
        for p in pair:
            for c in (1, 2, 3):
                q = dilate(p, c)
                if len(q.lattice_points) <= BRUTEFORCE_POINT_CAP:
                    assert is_normal(q) == is_normal_bruteforce(q), (p.vertices, c)

    def test_bridged_triangles_in_negative_coordinates(self):
        shift = (-3, -1, -4, -1, -5, -9, -2)
        p = Polytope([tuple(x + t for x, t in zip(v, shift))
                      for v in edge_polytope(two_triangles_bridge()).vertices])
        assert min(map(min, p.vertices)) < 0
        assert not is_normal(p)
        assert not is_normal_bruteforce(p)

    def test_field_width_at_a_power_of_two(self):
        # Every coordinate has width 2, so at height 2 a digit takes every
        # value 0..4 of its radix top * width + 1 = 5.
        p = POWER_OF_TWO_TETRAHEDRON
        assert p.dim == 3
        assert {max(col) - min(col) for col in zip(*p.vertices)} == {2}
        assert not is_normal(p)
        assert not is_normal_bruteforce(p)

    def test_one_bit_narrower_fields_would_hide_a_non_sum(self):
        # Widths 3 give digits of radix 2 * 3 + 1 = 7 at top = 2.  The
        # lattice pyramid over a non-normal tetrahedron has top = 2 too, and
        # its non-sum (4, 1, 2, 2) of 2P takes the top digit 2 * (2 - 1) of
        # radix 3 in the first coordinate: with radix 2 that digit carries
        # into the next one and the point gets the key of a sum.
        pyr = Polytope([(1, 1, 1, 1), (2, 0, 0, 2), (2, 0, 1, 0), (2, 1, 2, 1), (2, 2, 0, 2)])
        assert len(WIDTHS_3_TETRAHEDRON.lattice_points) == 5
        assert analysis._normal_height_bound(pyr) == 2
        for p in (WIDTHS_3_TETRAHEDRON, pyr):
            assert not is_normal(p)
            assert not is_normal_bruteforce(p)

    @pytest.mark.parametrize("p", [
        POWER_OF_TWO_TETRAHEDRON,
        WIDTHS_3_TETRAHEDRON,
        edge_polytope(two_triangles_bridge()),
        BIRKHOFF_B3,
    ], ids=["power-of-two", "widths-3", "bridged-triangles", "birkhoff-b3"])
    def test_sparse_levels_past_the_dense_key_box(self, p):
        # Shearing the last keyed coordinate by 10^7 * x_1 keeps the walks
        # cheap but stretches the key box far past a dense bitset, so the
        # levels become sets of keys.  On full-dimensional inputs that is
        # the last coordinate; on the others the affine hull fixes the last
        # coordinate, so shearing it would leave the key as it is.
        weights = analysis._level_key(p, 2)[0]
        j = max(i for i, w in enumerate(weights) if w)
        sheared = Polytope([v[:j] + (v[j] + 10 ** 7 * v[0],) + v[j + 1:] for v in p.vertices])
        for q, sparse in ((p, False), (sheared, True)):
            top = analysis._normal_height_bound(q)
            assert top >= 2
            assert (analysis._level_key(q, top)[2] > analysis._DENSE_LEVEL_BITS) == sparse
            assert is_normal(q) == is_normal_bruteforce(q)

    @staticmethod
    def assert_keyed_on_pivot_coordinates(p: Polytope) -> None:
        # is_normal's docstring: the key digits are the pivot coordinates of
        # the echelon form of the rows (1, v), v a vertex, after the first;
        # _level_key keys the coordinates that _solve_last leaves free.
        keyed = {j for j, w in enumerate(analysis._level_key(p, 2)[0]) if w}
        cols = pivot_columns([[1, *v] for v in p.vertices], p.ambient_dim + 1)
        assert keyed == {c - 1 for c in cols[1:]}, p.vertices

    def test_key_digits_are_the_pivot_coordinates(self):
        from polyclass import all_01_polytopes
        sweep = list(all_01_polytopes(3))
        deep = [Polytope(v) for v in benchmark_workloads().deep_corpus().values()]
        assert len(sweep) == 151
        for p in [p for _, p in named_corpus()] + sweep + deep:
            self.assert_keyed_on_pivot_coordinates(p)

    @settings(deadline=None, max_examples=150)
    @given(unimodular_images())
    def test_key_digits_are_the_pivot_coordinates_of_embedded_images(self, pair):
        for p in pair:
            self.assert_keyed_on_pivot_coordinates(p)

    def test_benchmark_inputs_key_into_dense_levels(self):
        # The key runs over the pivot coordinates of the affine hull, not
        # the ambient ones: B3 is keyed on 4 of its 9 coordinates.
        workloads = benchmark_workloads()
        corpus = workloads.deep_corpus()
        walked = 0
        for verts in list(corpus.values()) + workloads.wide_pool(0):
            p = Polytope(verts)
            top = analysis._normal_height_bound(p)
            if top >= 2:
                walked += 1
                assert analysis._level_key(p, top)[2] <= analysis._DENSE_LEVEL_BITS, verts
        assert walked == 7 + 63
        b3 = Polytope(corpus["birkhoff-b3"])
        assert analysis._level_key(b3, analysis._normal_height_bound(b3))[2] == 4 ** 4


@st.composite
def pyramids_and_products(draw):
    """Pyramids of lift 1 and 2 and products of two or three small polytopes, moved.

    Factors are hulls of 2..5 points with coordinates 0..3 in R^1, R^2 or
    R^3, so they may be segments in the plane or polygons in space; the
    results have dimension at most 4.  A factor may be homogenized,
    v -> (v, 3 - sum(v)), so that a product has affine hull equations
    whose kernel basis mixes the factors' coordinates.  A pyramid of lift
    1 is a lattice pyramid; one of lift 2 is not.  The result is
    embedded, sheared and translated by ``unimodular_image``.
    """
    def factor(n: int) -> Polytope:
        box = st.tuples(*[st.integers(0, 3)] * n)
        f = hull_of_points(draw(st.lists(box, min_size=2, max_size=5, unique=True)))
        if draw(st.booleans()):
            f = Polytope([v + (3 - sum(v),) for v in f.vertices])
        return f

    if draw(st.booleans()):
        dims = draw(st.sampled_from(((1, 1), (1, 2), (2, 2), (1, 3), (1, 1, 1), (1, 1, 2))))
        p = factor(dims[0])
        for n in dims[1:]:
            p = product(p, factor(n))
    else:
        base = factor(draw(st.integers(1, 3)))
        if base.ambient_dim < 3 and draw(st.booleans()):
            base = product(base, factor(1))
        p = pyramid(base, draw(st.sampled_from((1, 2))))
    return unimodular_image(draw, p)


class TestNormalHeightBound:
    """is_normal walks h*P only up to the height bound of its pyramids and products."""

    @settings(deadline=None, max_examples=120)
    @given(pyramids_and_products())
    def test_agrees_with_the_full_level_test(self, p):
        normal = is_normal(p)
        assert normal == is_normal_by_levels(p), p.vertices
        if len(p.lattice_points) <= BRUTEFORCE_POINT_CAP:
            assert normal == is_normal_bruteforce(p), p.vertices

    @staticmethod
    def walked_heights(monkeypatch, p: Polytope) -> tuple[bool, list[int]]:
        heights = []
        real = Polytope._scaled_lattice_points

        def counted(self, h):
            if h >= 2:
                heights.append(h)
            return real(self, h)
        monkeypatch.setattr(Polytope, "_scaled_lattice_points", counted)
        return is_normal(p), heights

    @pytest.mark.parametrize("make", [
        lambda: cube(7),
        lambda: Polytope([(1,) * i + (0,) * (12 - i) for i in range(13)]),
        lambda: product(simplex(5), simplex(5)),
        lambda: pyramid(product(simplex(1), simplex(10))),
        lambda: dilate(cube(4), 2),
        lambda: edge_polytope(complete_bipartite(4, 4)),
        lambda: pyramid(edge_polytope(complete_bipartite(3, 4))),
    ], ids=["cube7", "staircase-r12", "d5xd5", "pyr-d1xd10", "box-0-2-r4", "edge-k4-4",
            "pyr-edge-k3-4"])
    def test_pyramids_and_products_walk_no_dilation(self, monkeypatch, make):
        assert self.walked_heights(monkeypatch, make()) == (True, [])

    def test_birkhoff_b3_walks_heights_two_and_three(self, monkeypatch):
        # Neither a pyramid nor a product: heights 2 .. dim - 1.
        assert self.walked_heights(monkeypatch, BIRKHOFF_B3) == (True, [2, 3])

    @pytest.mark.parametrize("make", [
        lambda t: product(t, simplex(1)),
        lambda t: product(simplex(1), t),
        lambda t: pyramid(t),
    ], ids=["factor-first", "factor-second", "lattice-pyramid"])
    def test_a_non_normal_factor_shows_below_the_bound(self, monkeypatch, make):
        # This tetrahedron's non-sums lie at height 2; the polytopes built
        # from it have dimension 4, so the unreduced test would walk to 3.
        t = POWER_OF_TWO_TETRAHEDRON
        p = make(t)
        assert (p.dim, analysis._normal_height_bound(p)) == (4, 2)
        assert self.walked_heights(monkeypatch, p) == (False, [2])


def coordinate_blocks(p: Polytope) -> list[tuple[list[int], int]]:
    """``analysis._coordinate_blocks`` on the affine hull and facet forms of ``p``."""
    aff, raw = p._hull
    return analysis._coordinate_blocks([a for a, _ in aff], [a for (a, _), _ in raw],
                                       p.ambient_dim)


class TestCoordinateBlocks:
    """The reduced supports split the coordinates as the subset scan does."""

    @staticmethod
    def check(p: Polytope) -> None:
        blocks = coordinate_blocks(p)
        assert [c for c, _ in blocks] == coordinate_blocks_by_subsets(p.vertices), p.vertices
        for coords, free in blocks:
            proj = [tuple(v[j] for j in coords) for v in p.vertices]
            assert free == len(pivot_columns([[a - b for a, b in zip(q, proj[0])] for q in proj],
                                             len(coords))), p.vertices

    def test_threedim_sweep(self):
        from polyclass import all_01_polytopes
        for p in all_01_polytopes(3):
            self.check(p)

    def test_fourdim_samples(self):
        for p in random_01_polytopes(4, 100, seed=0):
            self.check(p)

    def test_named_and_deep_corpora(self):
        deep = benchmark_workloads().deep_corpus().values()
        for p in [p for _, p in named_corpus()] + [Polytope(v) for v in deep]:
            self.check(p)

    @settings(deadline=None, max_examples=100)
    @given(pyramids_and_products())
    def test_pyramids_and_products(self, p):
        self.check(p)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_complete_bipartite_edge_polytopes(self, m):
        for n in range(1, 5):
            self.check(edge_polytope(complete_bipartite(m, n)))


def block_factors(p: Polytope) -> list[Polytope]:
    """The projections of the vertices of ``p`` onto its coordinate blocks."""
    return [Polytope(sorted({tuple(v[j] for j in coords) for v in p.vertices}))
            for coords, _ in coordinate_blocks(p)]


class TestProductDecomposition:
    """Products of small polytopes split into their factors; the rest stay whole."""

    @staticmethod
    def factors(p: Polytope) -> list[Polytope]:
        TestCoordinateBlocks.check(p)
        return block_factors(p)

    def test_square_splits_into_segments(self):
        assert self.factors(cube(2)) == [simplex(1), simplex(1)]

    def test_prism_splits_into_segment_and_triangle(self):
        assert self.factors(product(simplex(1), simplex(2))) == [simplex(1), simplex(2)]

    def test_triangle_is_indecomposable(self):
        assert self.factors(simplex(2)) == [simplex(2)]

    def test_cube_splits_fully(self):
        assert self.factors(cube(3)) == [simplex(1)] * 3

    def test_right_triangle_is_indecomposable(self):
        p = Polytope([(0, 0), (0, 1), (1, 1)])
        assert self.factors(p) == [p]

    def test_product_of_two_nine_simplices(self):
        # 18 varying coordinates: too many for the 2^c subset scan of check.
        p = product(simplex(9), simplex(9))
        assert coordinate_blocks(p) == [(list(range(9)), 9), (list(range(9, 18)), 9)]
        assert block_factors(p) == [simplex(9)] * 2

    def test_segment_in_r20_is_indecomposable(self):
        # 20 varying coordinates, as above.
        p = Polytope([(0,) * 20, (1,) * 20])
        assert coordinate_blocks(p) == [(list(range(20)), 1)]
        assert block_factors(p) == [p]

    def test_vertex_counts_multiply(self):
        for p in (cube(4), product(simplex(2), simplex(1)), fixture("EX38")):
            total = 1
            for f in self.factors(p):
                total *= len(f.vertices)
            assert total == len(p.vertices)


class TestSolveLast:
    """One equation is solved as its row made primitive, with or without a repeated copy."""

    @staticmethod
    def check(a, n: int) -> None:
        # The reduced form clears the copy to zero and keeps the first row as it is.
        assert analysis._solve_last([a], n) == analysis._solve_last([a, a], n), a

    def test_random_rows(self):
        rng = random.Random(0)
        for _ in range(500):
            n = rng.randint(1, 7)
            b = [rng.randint(-4, 4) for _ in range(n)]
            last = max((j for j, x in enumerate(b) if x), default=None)
            if last is None:
                continue
            g = gcd(*b)
            b = [u // g for u in b]
            k = rng.choice([-6, -3, -2, -1, 1, 2, 5])
            a = tuple(k * u for u in b)
            self.check(a, n)
            # Primitive, with the orientation of the input row.
            assert analysis._solve_last([a], n) == {last: b if k > 0 else [-u for u in b]}

    def test_one_apex_systems(self):
        # The one equation _normal_height_bound solves on a full-dimensional P with one apex.
        from polyclass import all_01_polytopes
        polys = list(all_01_polytopes(3))
        for seed in range(3):
            polys += random_01_polytopes(4, 100, seed=seed)
        rows = []
        for p in polys:
            apexes = analysis._apexes(p)
            if len(apexes) == 1 and not p.affine_hull_forms:
                rows.append(p.facets[next(iter(apexes))].int_form[0])
        for a in rows:
            self.check(a, len(a))
        # 48 in the sweep and 32 in the samples; 35 end in a negative coefficient.
        negative = [a for a in rows if a[max(j for j, x in enumerate(a) if x)] < 0]
        assert (len(rows), len(negative)) == (80, 35)


class TestUnitChains:
    def test_hexagon_reaches_three(self):
        chain = k_number(fixture("P1"))
        assert chain.k == 3
        assert validate_unit_chain(fixture("P1"), chain)

    def test_quad_fixture_stops_at_one(self):
        chain = k_number(fixture("P2"))
        assert chain.k == 1
        assert validate_unit_chain(fixture("P2"), chain)

    def test_skew_quadrilateral_stops_at_one(self):
        assert k_number(fixture("P3")).k == 1

    def test_triangle_reaches_full_length(self):
        chain = k_number(simplex(2))
        assert chain.k == 3
        assert validate_unit_chain(simplex(2), chain)

    def test_square_reaches_full_length(self):
        assert k_number(cube(2)).k == 3

    def test_chain_certificates_validate_across_corpus(self):
        for name, p in named_corpus():
            if p.dim == 0:
                continue
            chain = k_number(p)
            assert 1 <= chain.k <= p.dim + 1, name
            assert validate_unit_chain(p, chain), name

    def test_validation_rejects_tampered_chain(self):
        p = fixture("P2")
        good = k_number(p)
        # (0, 1) has value 0, not 1, on facet 0
        assert not validate_unit_chain(p, UnitChain(((0, 1),), good.facet_ids))

    def test_validation_rejects_repeated_point(self):
        p = cube(2)
        assert not validate_unit_chain(p, UnitChain(((1, 0), (1, 0)), (0, 1)))

    def test_validation_rejects_point_off_earlier_facets(self):
        p = cube(2)
        good = k_number(p)
        assert good.k == 3
        # swapping the first two points breaks the containment condition
        swapped = UnitChain((good.points[1], good.points[0], good.points[2]), good.facet_ids)
        assert not validate_unit_chain(p, swapped)

    def test_chain_constructor_checks_lengths(self):
        with pytest.raises(ValueError):
            UnitChain(((0, 0),), (0, 1))
        with pytest.raises(ValueError):
            UnitChain(((0, 0), (1, 1)), (0,))

    def test_empty_chain_is_representable_and_valid(self):
        # the chain conditions are vacuous at length zero
        empty = UnitChain((), ())
        assert validate_unit_chain(cube(2), empty)


class TestFacetRowsAndChains:
    """Value rows and unit-chain lengths against the point-by-point oracles.

    The plain chain search costs one step per ordered sequence: a few ms
    up to dim 3, and up to ~0.4 s on a 0/1 polytope in R^4 with at most
    SEARCH_POINT_CAP lattice points, but seconds with more.
    """

    SEARCH_POINT_CAP = 8

    def check(self, p: Polytope) -> None:
        assert [f.row for f in p.facets] == facet_rows_by_forms(p)
        if p.dim <= 3 or len(p.lattice_points) <= self.SEARCH_POINT_CAP:
            assert k_number(p).k == unit_chain_length_by_search(p)

    @settings(deadline=None, max_examples=100)
    @given(unimodular_images())
    def test_unimodular_images(self, pair):
        for p in pair:
            self.check(p)

    def test_named_corpus(self):
        for _, p in named_corpus():
            if p.dim >= 1:
                self.check(p)

    def test_fourdim_samples(self):
        for p in random_01_polytopes(4, 100, seed=0):
            self.check(p)


class TestPyramidPeel:
    def test_square_pyramid(self):
        core, apexes = pyramid_peel(SQUARE_PYRAMID)
        assert apexes == 1
        assert core == Polytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])

    def test_simplices_peel_to_a_point(self):
        for n in range(1, 5):
            core, apexes = pyramid_peel(simplex(n))
            assert core.dim == 0
            assert apexes == n

    def test_hexagon_does_not_peel(self):
        p = fixture("P1")
        core, apexes = pyramid_peel(p)
        assert core is p and apexes == 0

    def test_agrees_with_the_stepwise_peel(self):
        from polyclass import all_01_polytopes
        for p in list(all_01_polytopes(3)) + [p for _, p in named_corpus()]:
            assert pyramid_peel(p) == pyramid_peel_stepwise(p), p.vertices

    @settings(deadline=None, max_examples=100)
    @given(pyramids_and_products())
    def test_agrees_with_the_stepwise_peel_on_pyramids_and_products(self, p):
        assert pyramid_peel(p) == pyramid_peel_stepwise(p), p.vertices

    @staticmethod
    def assert_report_peels_stepwise(p):
        core, apexes = pyramid_peel_stepwise(p)
        assert analyze(p).to_dict()["pyramid_peel"] == {
            "apex_count": apexes, "core_dim": core.dim,
            "core_vertices": [list(v) for v in core.vertices]}, p.vertices

    def test_report_peel_section_agrees_with_the_stepwise_peel(self):
        corpus = [Polytope(v) for v in benchmark_workloads().deep_corpus().values()]
        corpus += [p for _, p in named_corpus() if p.dim >= 1]
        for p in list(all_01_polytopes(3)) + corpus + [simplex(n) for n in range(1, 5)]:
            self.assert_report_peels_stepwise(p)

    @settings(deadline=None, max_examples=100)
    @given(pyramids_and_products())
    def test_report_peel_section_agrees_on_pyramids_and_products(self, p):
        self.assert_report_peels_stepwise(p)

    def test_peel_preserves_group_presentation(self):
        for base in pyramid_invariance_bases(20):
            lifted = pyramid(base)
            cb = class_group(base)
            cp = class_group(lifted)
            assert (cb.free_rank, cb.torsion) == (cp.free_rank, cp.torsion)
            # the pyramid has one extra facet, hence exactly one extra
            # trivial factor in the long form
            assert len(cp.full_factors) == len(cb.full_factors) + 1


class TestSegreClassification:
    def test_square(self):
        c = classify_segre(cube(2))
        assert (c.tag, c.simplex_dims, c.apex_count) == ("SEGRE", (1, 1), 0)

    def test_square_pyramid(self):
        c = classify_segre(SQUARE_PYRAMID)
        assert (c.tag, c.simplex_dims, c.apex_count) == ("SEGRE", (1, 1), 1)

    def test_double_pyramid_over_square(self):
        c = classify_segre(pyramid(pyramid(cube(2))))
        assert (c.tag, c.simplex_dims, c.apex_count) == ("SEGRE", (1, 1), 2)

    def test_prism(self):
        c = classify_segre(product(simplex(1), simplex(2)))
        assert (c.tag, c.simplex_dims, c.apex_count) == ("SEGRE", (1, 2), 0)

    def test_two_triangles(self):
        c = classify_segre(product(simplex(2), simplex(2)))
        assert (c.tag, c.simplex_dims) == ("SEGRE", (2, 2))

    def test_two_nine_simplices(self):
        c = classify_segre(product(simplex(9), simplex(9)))
        assert (c.tag, c.simplex_dims, c.apex_count) == ("SEGRE", (9, 9), 0)

    def test_cube_has_too_many_facets(self):
        c = classify_segre(cube(3))
        assert c.tag == "NOT_APPLICABLE"
        assert c.simplex_dims is None

    def test_simplex_has_too_few_facets(self):
        assert classify_segre(simplex(3)).tag == "NOT_APPLICABLE"

    def test_rejects_non_01_polytopes(self):
        with pytest.raises(ValueError):
            classify_segre(fixture("P2"))

    def test_segre_members_have_free_rank_one(self):
        for p in (cube(2), SQUARE_PYRAMID, product(simplex(2), simplex(2))):
            assert classify_segre(p).tag == "SEGRE"
            cg = class_group(p)
            assert (cg.free_rank, cg.torsion) == (1, ())
            assert is_normal(p)

    def test_exhaustive_family_classification_is_total(self):
        from polyclass import all_01_polytopes
        seen_segre = 0
        for p in all_01_polytopes(3):
            c = classify_segre(p)
            if len(p.facets) == p.dim + 2:
                assert c.tag == "SEGRE"
                seen_segre += 1
            else:
                assert c.tag == "NOT_APPLICABLE"
        assert seen_segre > 0


def segre_corpus() -> list[Polytope]:
    """708 (0,1)-polytopes for the Segre rebuild oracle, 243 of them with dim + 2 facets.

    The full-dimensional ones in R^3, 400 samples in R^4, the (0,1)
    members of the named and deep corpora, and Δa x Δb (a <= b <= 4)
    under 0-2 pyramids in two random coordinate orders, each also with
    a constant coordinate appended, and the edge polytopes of K_{m,n}
    (m, n <= 4), which are Δ(m-1) x Δ(n-1) in R^(m+n).
    """
    rng = random.Random(19)
    out = list(all_01_polytopes(3))
    for seed in range(4):
        out.extend(random_01_polytopes(4, 100, seed=seed))
    out.extend(p for _, p in named_corpus() if p.is_01)
    out.extend(p for p in map(Polytope, benchmark_workloads().deep_corpus().values()) if p.is_01)
    for a in range(1, 5):
        for b in range(a, 5):
            p = product(simplex(a), simplex(b))
            for _ in range(3):
                for _ in range(2):
                    order = rng.sample(range(p.ambient_dim), p.ambient_dim)
                    q = Polytope([tuple(v[j] for j in order) for v in p.vertices])
                    out.extend((q, Polytope([v + (1,) for v in q.vertices])))
                p = pyramid(p)
    out.extend(edge_polytope(complete_bipartite(m, n)) for m in range(1, 5) for n in range(1, 5))
    return out


def segre_outcome(classify, p):
    """``(tag, simplex_dims, apex_count)`` of a classification, or "violation"."""
    try:
        c = classify(p)
    except InvariantViolation:
        return "violation"
    return c if isinstance(c, tuple) else (c.tag, c.simplex_dims, c.apex_count)


class TestSegreOracle:
    def test_agrees_with_the_rebuild(self):
        tags = []
        for p in segre_corpus():
            got = segre_outcome(classify_segre, p)
            assert got == segre_outcome(classify_segre_by_rebuild, p), p.vertices
            tags.append(got[0])
        assert (tags.count("SEGRE"), tags.count("NOT_APPLICABLE")) == (243, 465)

    @pytest.mark.parametrize("apexes", [
        lambda p: {},  # the apex lies on 4 facets
        lambda p: dict(enumerate(p.vertices[:2])),  # a core of dimension 1
    ], ids=["no-apex", "two-apexes"])
    def test_forged_apexes_leave_no_simple_core(self, monkeypatch, apexes):
        monkeypatch.setattr(analysis, "_apexes", apexes)
        with pytest.raises(InvariantViolation, match="not simple"):
            classify_segre(SQUARE_PYRAMID)

    @pytest.mark.parametrize("blocks", [
        [([0, 1, 2], 3)],
        [([0, 1], 2), ([2], 1)],  # a square, without apexes, and a segment
    ], ids=["one-block", "square-and-segment"])
    def test_forged_blocks_are_not_two_simplices(self, monkeypatch, blocks):
        p = product(simplex(1), simplex(2))
        monkeypatch.setattr(analysis, "_coordinate_blocks", lambda eqs, forms, n: blocks)
        with pytest.raises(InvariantViolation, match="two simplices"):
            classify_segre(p)

    def test_forged_non_normal_square_fails_the_group_check(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(analysis, "is_normal", lambda p: False)
        with pytest.raises(InvariantViolation, match="class group Z and be normal"):
            classify_segre(cube(2))
        path = tmp_path / "square.json"
        path.write_text('{"vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]}')
        assert cli.main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err.startswith("invariant violation: ")


class TestSegreBuildsNoPolytope:
    """The classification and the report read the core and its factors off P itself."""

    @pytest.fixture
    def built(self, monkeypatch):
        count = [0]
        init = Polytope.__init__

        def counting_init(self, *args, **kwargs):
            count[0] += 1
            init(self, *args, **kwargs)
        monkeypatch.setattr(Polytope, "__init__", counting_init)
        return count

    @pytest.mark.parametrize("make, apexes", [
        (lambda: Polytope(benchmark_workloads().deep_corpus()["pyramid-d2xd2"]), 1),
        (lambda: Polytope(benchmark_workloads().deep_corpus()["segment-r16"]), 1),
        (lambda: simplex(3), 3),
    ], ids=["pyramid-d2xd2", "segment-r16", "simplex3"])
    def test_analyze_builds_none(self, built, make, apexes):
        p = make()
        built[0] = 0
        assert analyze(p).peel_apexes == apexes
        assert built[0] == 0

    @pytest.mark.parametrize("make", [
        lambda: cube(2),
        lambda: SQUARE_PYRAMID,
        lambda: pyramid(pyramid(product(simplex(1), simplex(3)))),
        lambda: Polytope(benchmark_workloads().deep_corpus()["pyramid-d2xd2"]),
    ], ids=["square", "square-pyramid", "double-pyramid-d1xd3", "pyramid-d2xd2"])
    def test_classify_segre_builds_none(self, built, make):
        p = make()
        built[0] = 0
        assert classify_segre(p).tag == "SEGRE"
        assert built[0] == 0

    def test_analyze_of_the_square_builds_none(self, built):
        p = cube(2)
        built[0] = 0
        analyze(p)
        assert built[0] == 0


class TestChecks:
    def test_check_names_are_stable(self):
        assert CHECK_NAMES == (
            "unit_chain_factors_one",
            "chain_length_bound",
            "full_chain_torsionfree",
            "compressed_normal_torsionfree",
            "facet_count_iff_class_z",
            "few_facets_normal_torsionfree",
        )

    def test_all_pass_on_threedim_fixture(self):
        assert polytope_checks(fixture("EX38")) == {name: True for name in CHECK_NAMES}

    def test_01_only_checks_skip_on_other_polytopes(self):
        checks = polytope_checks(fixture("P1"))
        assert checks["facet_count_iff_class_z"] is None
        assert checks["few_facets_normal_torsionfree"] is None
        assert checks["unit_chain_factors_one"] is True


class TestLazyNormality:
    """polytope_checks runs is_normal only where a verdict reads it, with the eager verdicts."""

    @staticmethod
    def assert_eager(polys) -> int:
        count = 0
        for p in polys:
            assert polytope_checks(p) == polytope_checks_eager(p), p.vertices
            count += 1
        return count

    def test_fixtures_and_named_corpus(self):
        assert self.assert_eager(p for _, p in named_corpus()) == len(named_corpus())

    def test_threedim_sweep(self):
        from polyclass import all_01_polytopes
        assert self.assert_eager(all_01_polytopes(3)) == 151

    def test_deep_corpus(self):
        polys = [Polytope(v) for v in benchmark_workloads().deep_corpus().values()]
        assert self.assert_eager(polys) == len(polys)
        skipped = [p for p in polys if not p.is_01]
        assert skipped and all(polytope_checks(p)["facet_count_iff_class_z"] is None
                               for p in skipped)

    def test_wide_pool(self):
        assert self.assert_eager(Polytope(v) for v in benchmark_workloads().wide_pool(0)) == 63

    def test_fourdim_samples(self):
        for seed in range(4):
            assert self.assert_eager(random_01_polytopes(4, 100, seed=seed)) == 100

    @staticmethod
    def spy_on_is_normal(monkeypatch) -> list[Polytope]:
        """The list that each call of ``analysis.is_normal`` appends its polytope to."""
        calls = []
        real = analysis.is_normal
        monkeypatch.setattr(analysis, "is_normal", lambda p: calls.append(p) or real(p))
        return calls

    def test_normality_runs_where_a_verdict_reads_it(self, monkeypatch):
        from polyclass import all_01_polytopes
        calls = self.spy_on_is_normal(monkeypatch)
        tested = spared = 0
        for p in all_01_polytopes(3):
            calls.clear()
            polytope_checks(p)
            cg = class_group(p)
            if is_compressed(p) and cg.is_torsionfree:
                # compressed_normal_torsionfree reads the test, not compressedness.
                assert calls == [p], p.vertices
                tested += 1
            elif len(p.facets) > p.dim + 2 and cg.free_rank != 1:
                assert calls == [], p.vertices
                spared += 1
        assert (tested, spared) == (123, 28)

    def test_the_01_checks_read_normality_without_compressedness(self, monkeypatch):
        # Every sweep member with at most dim + 2 facets is compressed, so hide
        # that: the facet-count checks must still ask for normality on their own.
        from polyclass import all_01_polytopes
        calls = self.spy_on_is_normal(monkeypatch)
        monkeypatch.setattr(analysis, "is_compressed", lambda p: False)
        few = 0
        for p in all_01_polytopes(3):
            calls.clear()
            polytope_checks(p)
            if len(p.facets) <= p.dim + 2:
                assert calls == [p], p.vertices
                few += 1
            else:
                assert calls == [], p.vertices
        assert few == 118


class TestVerifyFamily:
    def test_fixture_family_passes(self):
        report = verify_family(p for _, p in named_corpus())
        assert report.ok
        assert report.total == len(named_corpus())
        assert [o for o in report.outcomes if o.failed] == []

    def test_workers_do_not_change_the_outcome(self):
        fam = [p for _, p in named_corpus()]
        assert verify_family(fam, workers=4) == verify_family(fam, workers=1)

    def test_serial_path_streams_the_family(self, monkeypatch):
        events = []
        checks = analysis.polytope_checks

        def logged_checks(p):
            events.append(("check", p.vertices))
            return checks(p)
        monkeypatch.setattr(analysis, "polytope_checks", logged_checks)

        def family():
            for i, name in enumerate(["P1", "P2", "P3"]):
                events.append(("yield", i))
                yield fixture(name)
        verify_family(family())
        assert events == [("yield", 0), ("check", fixture("P1").vertices),
                          ("yield", 1), ("check", fixture("P2").vertices),
                          ("yield", 2), ("check", fixture("P3").vertices)]

    def test_first_counterexample_keeps_its_index(self, monkeypatch):
        first_check = CHECK_NAMES[0]

        def fails_off_p1(p):
            return {name: name != first_check or p == fixture("P1") for name in CHECK_NAMES}
        monkeypatch.setattr(analysis, "polytope_checks", fails_off_p1)
        report = verify_family(fixture(n) for n in ["P1", "P2", "P3"])
        by_name = {o.name: o for o in report.outcomes}
        assert (by_name[first_check].failed, by_name[first_check].first_index) == (2, 1)
        assert by_name[first_check].first_counterexample == fixture("P2")
        assert all(o.first_index is None for o in report.outcomes if o.name != first_check)

    def test_skip_accounting(self):
        report = verify_family([fixture("P1"), fixture("EX38")])
        by_name = {o.name: o for o in report.outcomes}
        assert by_name["facet_count_iff_class_z"].passed == 1
        assert by_name["facet_count_iff_class_z"].skipped == 1

    def test_failure_reporting_shape(self):
        bad = CheckOutcome("chain_length_bound", passed=1, failed=1, skipped=0,
                           first_counterexample=cube(2))
        good = CheckOutcome("unit_chain_factors_one", passed=2, failed=0, skipped=0,
                            first_counterexample=None)
        report = VerificationReport(total=2, outcomes=(good, bad))
        assert not report.ok
        assert [o for o in report.outcomes if o.failed] == [bad]


class TestInvariantViolationSurface:
    def test_error_type_is_distinct_from_value_error(self):
        assert issubclass(InvariantViolation, RuntimeError)
        assert not issubclass(InvariantViolation, ValueError)
