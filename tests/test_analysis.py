"""Structure analysis: compression, normality, unit chains, peeling, products."""

from __future__ import annotations

import pytest

from polyclass import (
    CHECK_NAMES,
    InvariantViolation,
    Polytope,
    UnitChain,
    VerificationReport,
    class_group,
    classify_segre,
    cube,
    dilate,
    edge_polytope,
    fixture,
    is_compressed,
    is_normal,
    is_normal_bruteforce,
    k_number,
    polytope_checks,
    product,
    product_decompose_01,
    pyramid,
    pyramid_peel,
    simplex,
    two_triangles_bridge,
    validate_unit_chain,
    verify_family,
)
from polyclass.analysis import CheckOutcome
from support import SQUARE_PYRAMID, named_corpus, pyramid_invariance_bases


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
            expected = all(set(fd.values.values()) <= {0, 1} for fd in p.facets)
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
        assert not validate_unit_chain(p, UnitChain(1, ((0, 1),), good.facet_ids))

    def test_validation_rejects_repeated_point(self):
        p = cube(2)
        assert not validate_unit_chain(p, UnitChain(2, ((1, 0), (1, 0)), (0, 1)))

    def test_validation_rejects_point_off_earlier_facets(self):
        p = cube(2)
        good = k_number(p)
        assert good.k == 3
        # swapping the first two points breaks the containment condition
        swapped = UnitChain(3, (good.points[1], good.points[0], good.points[2]),
                            good.facet_ids)
        assert not validate_unit_chain(p, swapped)

    def test_chain_constructor_checks_lengths(self):
        with pytest.raises(ValueError):
            UnitChain(2, ((0, 0),), (0, 1))
        with pytest.raises(ValueError):
            UnitChain(1, ((0, 0), (1, 1)), (0,))

    def test_empty_chain_is_representable_and_valid(self):
        # the chain conditions are vacuous at length zero
        empty = UnitChain(0, (), ())
        assert validate_unit_chain(cube(2), empty)


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
        core, apexes = pyramid_peel(fixture("P1"))
        assert apexes == 0
        assert core == fixture("P1")

    def test_peel_preserves_group_presentation(self):
        for base in pyramid_invariance_bases(20):
            lifted = pyramid(base)
            cb = class_group(base)
            cp = class_group(lifted)
            assert (cb.free_rank, cb.torsion) == (cp.free_rank, cp.torsion)
            # the pyramid has one extra facet, hence exactly one extra
            # trivial factor in the long form
            assert len(cp.full_factors) == len(cb.full_factors) + 1


class TestProductDecomposition:
    def test_square_splits_into_segments(self):
        factors = product_decompose_01(cube(2))
        assert factors == [simplex(1), simplex(1)]

    def test_prism_splits_into_segment_and_triangle(self):
        factors = product_decompose_01(product(simplex(1), simplex(2)))
        assert factors == [simplex(1), simplex(2)]

    def test_triangle_is_indecomposable(self):
        assert product_decompose_01(simplex(2)) == [simplex(2)]

    def test_cube_splits_fully(self):
        assert product_decompose_01(cube(3)) == [simplex(1)] * 3

    def test_right_triangle_is_indecomposable(self):
        p = Polytope([(0, 0), (0, 1), (1, 1)])
        assert product_decompose_01(p) == [p]

    def test_rejects_non_01_input(self):
        with pytest.raises(ValueError):
            product_decompose_01(dilate(simplex(1), 2))

    def test_vertex_counts_multiply(self):
        for p in (cube(4), product(simplex(2), simplex(1)), fixture("EX38")):
            factors = product_decompose_01(p)
            total = 1
            for f in factors:
                total *= len(f.vertices)
            assert total == len(p.vertices)


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


class TestVerifyFamily:
    def test_fixture_family_passes(self):
        report = verify_family(p for _, p in named_corpus())
        assert report.ok
        assert report.total == len(named_corpus())
        assert report.failures() == []

    def test_workers_do_not_change_the_outcome(self):
        fam = [p for _, p in named_corpus()]
        assert verify_family(fam, workers=4) == verify_family(fam, workers=1)

    def test_progress_callback(self):
        for workers in (None, 2):
            seen = []
            verify_family([fixture("P1"), fixture("P2"), fixture("P3")],
                          workers=workers, progress=seen.append)
            assert seen == [1, 2, 3]

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
        assert report.failures() == [bad]


class TestInvariantViolationSurface:
    def test_error_type_is_distinct_from_value_error(self):
        assert issubclass(InvariantViolation, RuntimeError)
        assert not issubclass(InvariantViolation, ValueError)
