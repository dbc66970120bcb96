"""Integer linear algebra: normal forms, ranks, kernels, minor gcds.

Ranks and kernels are read off ``_echelon_int`` the way the hull reads them;
``gcd_minors`` is the Bareiss minor-gcd oracle of ``oracles``.
"""

from __future__ import annotations

import doctest
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from oracles import gcd_minors
from polyclass import (
    IntMatrix,
    Polytope,
    hnf_row_lattice,
    in_row_lattice,
    snf,
)
from polyclass import intlinalg
from support import benchmark_workloads, named_corpus, random_int_matrix

IDENTITY_3 = IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
UNIT_SQUARE_MATRIX = IntMatrix.from_rows([
    [0, 0, 1, 1],
    [1, 1, 0, 0],
    [0, 1, 0, 1],
    [1, 0, 1, 0],
])


def rank(m: IntMatrix) -> int:
    return len(intlinalg._echelon_int(m.entries, m.cols)[1])


def int_kernel_basis(rows, n: int) -> list[tuple[int, ...]]:
    return intlinalg._kernel_of_echelon(*intlinalg._echelon_int(rows, n)[:2], n)


@st.composite
def int_matrices(draw, max_rows=6, max_cols=6, bound=9):
    r = draw(st.integers(1, max_rows))
    c = draw(st.integers(1, max_cols))
    entries = [[draw(st.integers(-bound, bound)) for _ in range(c)]
               for _ in range(r)]
    return IntMatrix.from_rows(entries)


@st.composite
def generator_matrices(draw, max_rows=7, max_cols=6, bound=1000):
    """Lattice generators: zero rows allowed, down to no rows at all."""
    c = draw(st.integers(1, max_cols))
    rows = draw(st.lists(st.tuples(*[st.integers(-bound, bound)] * c), max_size=max_rows))
    return IntMatrix(c, tuple(rows))


@st.composite
def low_rank_matrices(draw, max_rows=5, max_cols=5, bound=3):
    """Products of r-by-k and k-by-c factors, k < min(r, c): minors above size k vanish."""
    r = draw(st.integers(2, max_rows))
    c = draw(st.integers(2, max_cols))
    k = draw(st.integers(1, min(r, c) - 1))
    left = [[draw(st.integers(-bound, bound)) for _ in range(k)] for _ in range(r)]
    right = [[draw(st.integers(-bound, bound)) for _ in range(c)] for _ in range(k)]
    return IntMatrix.from_rows(
        [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left])


@st.composite
def invertible_matrices(draw, max_n=7, bound=3):
    """P*L*D*U: unit triangular L, U, nonzero diagonal D, row permutation P.

    L*D*U has nonzero leading minors; P moves rows, so whenever a zero of L
    in the first column lands on top, elimination must swap rows.
    """
    n = draw(st.integers(1, max_n))
    entry = st.integers(-bound, bound)
    low = [[draw(entry) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    diag = [draw(st.integers(1, bound)) * draw(st.sampled_from([1, -1])) for _ in range(n)]
    up = [[draw(entry) if j > i else diag[i] * (i == j) for j in range(n)] for i in range(n)]
    lu = [[sum(a * b for a, b in zip(row, col)) for col in zip(*up)] for row in low]
    return [lu[i] for i in draw(st.permutations(range(n)))]


def test_module_doctests_pass():
    # 6 examples: snf 3, hnf_row_lattice 2, _adjugate_rays 1.
    failures, attempted = doctest.testmod(intlinalg)
    assert failures == 0
    assert attempted == 6


class TestIntMatrix:
    def test_from_rows_rejects_non_integers(self):
        with pytest.raises(TypeError):
            IntMatrix.from_rows([[1, 2.0]])
        with pytest.raises(TypeError):
            IntMatrix.from_rows([[True, 1]])

    def test_from_rows_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, 2], [3]])

    def test_rejects_a_negative_column_count(self):
        with pytest.raises(ValueError, match="^column count must be nonnegative$"):
            IntMatrix(-1, ())

    def test_empty_matrices_are_legal(self):
        empty = IntMatrix.from_rows([], cols=3)
        assert (empty.rows, empty.cols) == (0, 3)
        assert snf(empty) == ()
        no_cols = IntMatrix(0, ((),))
        assert len(snf(no_cols)) == 0
        with pytest.raises(ValueError):
            IntMatrix.from_rows([])


class TestSnf:
    def test_two_by_three_example(self):
        res = snf(IntMatrix.from_rows([[0, 1, 2], [2, 1, 0]]))
        assert len(res) == 2
        assert res == (1, 2)

    def test_identity(self):
        assert snf(IDENTITY_3) == (1, 1, 1)

    def test_diagonal_needing_no_work(self):
        assert snf(IntMatrix.from_rows([[2, 0], [0, 4]])) == (2, 4)

    def test_diagonal_violating_divisibility(self):
        # diag(2, 3) is not in normal form; the factors are (1, 6)
        assert snf(IntMatrix.from_rows([[2, 0], [0, 3]])) == (1, 6)

    def test_zero_matrix(self):
        res = snf(IntMatrix.from_rows([[0] * 5, [0] * 5]))
        assert res == ()

    @settings(deadline=None, max_examples=60)
    @given(int_matrices(max_rows=5, max_cols=5))
    def test_factors_match_minor_gcd_ratios(self, m):
        assert snf(m) == oracles.invariant_factors_by_minors(m)

    @settings(deadline=None, max_examples=60)
    @given(int_matrices(max_rows=5, max_cols=6, bound=2))
    def test_small_entries_match_minor_gcd_ratios(self, m):
        # Entries in -2..2 put a +-1 at varied positions, where the pivot scan stops.
        assert snf(m) == oracles.invariant_factors_by_minors(m)

    @settings(deadline=None)
    @given(int_matrices(), st.randoms(use_true_random=False))
    def test_invariant_under_row_and_column_shuffles(self, m, rng):
        rows = list(m.entries)
        rng.shuffle(rows)
        cols = list(range(m.cols))
        rng.shuffle(cols)
        shuffled = IntMatrix.from_rows([[row[c] for c in cols] for row in rows])
        assert snf(shuffled) == snf(m)

    @settings(deadline=None)
    @given(int_matrices())
    def test_transpose_has_same_normal_form(self, m):
        assert snf(IntMatrix.from_rows(zip(*m.entries))) == snf(m)

    @settings(deadline=None)
    @given(int_matrices())
    def test_factor_chain_divides(self, m):
        factors = snf(m)
        assert all(s >= 1 for s in factors)
        assert all(b % a == 0 for a, b in zip(factors, factors[1:]))


class TestGcdMinors:
    def test_two_by_three_example(self):
        m = IntMatrix.from_rows([[0, 1, 2], [2, 1, 0]])
        assert gcd_minors(m, 1) == 1
        assert gcd_minors(m, 2) == 2

    def test_size_zero_is_one(self):
        assert gcd_minors(IntMatrix.from_rows([[7]]), 0) == 1

    def test_identity(self):
        assert gcd_minors(IDENTITY_3, 3) == 1

    def test_size_out_of_range(self):
        m = IntMatrix.from_rows([[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            gcd_minors(m, 3)
        with pytest.raises(ValueError):
            gcd_minors(m, -1)

    def test_size_above_rank_gives_zero(self):
        m = IntMatrix.from_rows([[1, 2], [2, 4]])
        assert gcd_minors(m, 2) == 0

    @settings(deadline=None, max_examples=60)
    @given(int_matrices(max_rows=6, max_cols=6) | low_rank_matrices(max_rows=6, max_cols=6),
           st.integers(0, 6))
    def test_small_sizes_match_permutation_expansion(self, m, size):
        size = min(size, m.rows, m.cols)
        assert gcd_minors(m, size) == oracles.minor_gcd(m, size)

    def test_large_sizes_stay_consistent_with_snf(self):
        rng = random.Random(5)
        for _ in range(25):
            m = random_int_matrix(rng, max_rows=8, max_cols=10)
            g = 1
            for i, s in enumerate(snf(m), start=1):
                g *= s
                assert gcd_minors(m, i) == g


@st.composite
def zero_column_matrices(draw, max_rows=6, max_cols=6):
    """``int_matrices`` with a drawn set of columns set to zero."""
    m = draw(int_matrices(max_rows, max_cols))
    zero = draw(st.sets(st.integers(0, m.cols - 1)))
    return IntMatrix.from_rows([[0 if j in zero else x for j, x in enumerate(row)]
                                for row in m.entries])


class TestEchelon:
    """``_echelon_int`` is a fraction-free reduced row echelon form."""

    @settings(deadline=None, max_examples=200)
    @given(int_matrices() | low_rank_matrices(max_rows=6, max_cols=6) | zero_column_matrices())
    @example(IntMatrix.from_rows([[0, 0, 0], [0, 0, 0]]))
    @example(IntMatrix.from_rows([[0, 2, 4], [0, 1, 2], [0, 3, 7]]))
    def test_matches_rational_reduced_form(self, m):
        rows = [list(r) for r in m.entries]
        ech, cols, src = intlinalg._echelon_int(m.entries, m.cols)
        ref, ref_cols = oracles.reduced_row_echelon(rows, m.cols)
        assert cols == ref_cols
        assert len(ech) == len(src) == len(cols)
        if not cols:
            return
        d = ech[-1][cols[-1]]
        # D is +-det of the pivot minor, and that is nonzero: the pivot rows
        # are independent input rows.
        minor = [[rows[i][c] for c in cols] for i in src]
        assert abs(d) == abs(oracles.det_by_permutations(minor)) > 0
        for row, c, want in zip(ech, cols, ref):
            assert row[c] == d
            assert [Fraction(x, d) for x in row] == want


class TestRank:
    def test_examples(self):
        assert rank(IntMatrix.from_rows([[0, 1, 2], [2, 1, 0]])) == 2
        assert rank(IntMatrix.from_rows([[0] * 5, [0] * 5])) == 0
        assert rank(UNIT_SQUARE_MATRIX) == 3

    @settings(deadline=None)
    @given(int_matrices(max_rows=7, max_cols=7))
    def test_matches_rational_elimination(self, m):
        assert rank(m) == oracles.rank_by_elimination(m)


class TestKernels:
    def test_single_row(self):
        (vec,) = int_kernel_basis([[1, 1]], 2)
        assert vec[0] * 1 + vec[1] * 1 == 0
        assert vec != (0, 0)

    def test_identity_has_trivial_kernel(self):
        assert int_kernel_basis([[int(i == j) for j in range(4)] for i in range(4)], 4) == []

    def test_known_one_dimensional_kernel(self):
        basis = int_kernel_basis([[0, 1, 2], [2, 1, 0]], 3)
        assert basis in ([(1, -2, 1)], [(-1, 2, -1)])

    @settings(deadline=None)
    @given(int_matrices(max_rows=6, max_cols=7))
    def test_integer_kernel_properties(self, m):
        basis = int_kernel_basis(m.entries, m.cols)
        assert len(basis) == m.cols - rank(m)
        for vec in basis:
            # in the kernel, primitive, first nonzero entry positive
            assert all(sum(a * x for a, x in zip(row, vec)) == 0
                       for row in m.entries)
            from math import gcd
            g = 0
            for x in vec:
                g = gcd(g, x)
            assert g == 1
            assert next(x for x in vec if x) > 0

    @settings(deadline=None, max_examples=200)
    @given(int_matrices(max_rows=6, max_cols=7))
    def test_matches_rational_back_substitution(self, m):
        assert int_kernel_basis(m.entries, m.cols) == \
            oracles.kernel_basis_by_elimination([list(r) for r in m.entries], m.cols)


class TestAdjugateRays:
    @settings(deadline=None, max_examples=200)
    @given(invertible_matrices())
    @example([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    @example([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
    def test_rays_match_kernel_of_the_other_rows(self, b):
        rays = intlinalg._adjugate_rays(b)
        assert len(rays) == len(b)
        for i, ray in enumerate(rays):
            vals = [sum(a * x for a, x in zip(row, ray)) for row in b]
            assert gcd(*ray) == 1
            assert vals[i] > 0
            assert all(v == 0 for j, v in enumerate(vals) if j != i)
            (kernel,) = oracles.kernel_basis_by_elimination(b[:i] + b[i + 1:], len(b))
            assert ray in (kernel, tuple(-x for x in kernel))


class TestRowLattice:
    def test_full_lattice_from_skew_generators(self):
        m = IntMatrix.from_rows([[2, 0], [0, 3], [1, 1]])
        assert hnf_row_lattice(m).entries == ((1, 0), (0, 1))

    def test_identity_fixed(self):
        assert hnf_row_lattice(IDENTITY_3) == IDENTITY_3

    def test_zero_rows_dropped(self):
        assert hnf_row_lattice(IntMatrix.from_rows([[0, 0]])).entries == ()

    def test_membership(self):
        hnf = hnf_row_lattice(IntMatrix.from_rows([[2, 0], [0, 3]]))
        assert in_row_lattice(hnf, (2, 3))
        assert in_row_lattice(hnf, (-4, 9))
        assert not in_row_lattice(hnf, (1, 0))
        assert not in_row_lattice(hnf, (0, 1))

    def test_membership_refuses_a_vector_of_another_length(self):
        hnf = hnf_row_lattice(IntMatrix.from_rows([[2, 0], [0, 3]]))
        with pytest.raises(ValueError, match="^vector length does not match lattice ambient"):
            in_row_lattice(hnf, (2, 0, 0))

    @settings(deadline=None)
    @given(int_matrices(max_rows=5, max_cols=5),
           st.lists(st.integers(-3, 3), min_size=5, max_size=5))
    def test_combinations_of_rows_are_members(self, m, coeffs):
        hnf = hnf_row_lattice(m)
        combo = [0] * m.cols
        for c, row in zip(coeffs, m.entries):
            combo = [acc + c * x for acc, x in zip(combo, row)]
        assert in_row_lattice(hnf, combo)

    @settings(deadline=None, max_examples=300)
    @given(generator_matrices())
    @example(IntMatrix(3, ()))
    @example(IntMatrix.from_rows([[0, 0, 0], [0, 0, 0]]))
    @example(IntMatrix.from_rows([[0, 0], [2, 1], [0, 0], [4, 3]]))
    @example(IntMatrix.from_rows([[-3, 5, 1], [-7, 0, 2], [0, -4, -6]]))
    @example(IntMatrix.from_rows([[-1000, 999, -998], [999, -1000, 1000], [-999, 1000, 997]]))
    @example(IntMatrix.from_rows([[1000, -1000], [-999, 1000], [998, 999], [-1000, -997]]))
    def test_agrees_with_the_bezout_oracle(self, m):
        assert hnf_row_lattice(m) == oracles.hnf_by_xgcd(m)

    def test_agrees_with_the_bezout_oracle_on_lattice_point_matrices(self):
        deep = [Polytope(v) for v in benchmark_workloads().deep_corpus().values()]
        for p in [p for _, p in named_corpus()] + deep:
            m = IntMatrix.from_rows([pt + (1,) for pt in p.lattice_points])
            assert p.lattice_height_basis == oracles.hnf_by_xgcd(m)

    @settings(deadline=None)
    @given(int_matrices(max_rows=5, max_cols=5), st.randoms(use_true_random=False))
    def test_canonical_under_generator_shuffles(self, m, rng):
        hnf = hnf_row_lattice(m)
        rows = list(m.entries) + list(hnf.entries)
        rng.shuffle(rows)
        again = hnf_row_lattice(IntMatrix.from_rows(rows))
        assert again == hnf
