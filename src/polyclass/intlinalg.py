"""Exact linear algebra over the integers.

Everything here works with Python's arbitrary-precision ``int``; there
is no floating point, no overflow and no ``Fraction``: eliminations are
fraction-free.  The module provides the normal forms the rest of the
package is built on:

* ``snf`` -- Smith normal form invariant factors and rank, by
  diagonalization and a gcd/lcm pass over the diagonal,
* ``hnf_row_lattice`` -- a Hermite-style basis for the lattice spanned
  by the rows, plus a membership test.

``_echelon_int``, a fraction-free reduced echelon form, is the one rational
elimination: kernels (``_kernel_of_echelon``), the hull's start rays
(``_adjugate_rays``) and ``analysis._solve_last`` read its rows; the hull
reads its affine hull off its points' form, through the kernel reader.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, NamedTuple, Sequence


class _IntMatrix(NamedTuple):
    cols: int
    entries: tuple[tuple[int, ...], ...]


class IntMatrix(_IntMatrix):
    """Immutable integer matrix stored row-major as nested tuples."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> IntMatrix:
        self = super().__new__(cls, *args, **kwargs)
        if self.cols < 0:
            raise ValueError("column count must be nonnegative")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")
            for v in row:
                if type(v) is not int:
                    raise TypeError(f"entries must be int, got {v!r}")
        return self

    @property
    def rows(self) -> int:
        return len(self.entries)

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        ents = tuple(tuple(row) for row in rows)
        if cols is None:
            if not ents:
                raise ValueError("cannot infer column count of an empty matrix")
            cols = len(ents[0])
        return cls(cols, ents)


class _SnfResult(NamedTuple):
    invariant_factors: tuple[int, ...]


class SnfResult(_SnfResult):
    """Invariant factors of an integer matrix; ``rank`` is their count.

    ``invariant_factors`` are the positive diagonal entries of the Smith
    normal form, each dividing the next.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> SnfResult:
        self = super().__new__(cls, *args, **kwargs)
        if any(s < 1 for s in self.invariant_factors):
            raise ValueError("invariant factors must be positive")
        for a, b in zip(self.invariant_factors, self.invariant_factors[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisibility chain")
        return self

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)


def snf(m: IntMatrix) -> SnfResult:
    """Smith normal form of ``m``.

    Row/column elimination with the pivot chosen as the entry of minimal
    nonzero absolute value in the trailing submatrix (ties broken by
    smallest (row, col) position, so the run is deterministic) diagonalizes
    it.  The row-major scan stops at the first entry of absolute value 1,
    which is that pivot.  The diagonal need not be a divisibility chain
    yet; since Z/a x Z/b is Z/gcd(a, b) x Z/lcm(a, b), replacing each pair
    by its gcd and lcm makes it one without changing the group (Newman,
    *Integral Matrices*, 1972).

    >>> snf(IntMatrix.from_rows([[0, 1, 2], [2, 1, 0]])).invariant_factors
    (1, 2)
    >>> snf(IntMatrix.from_rows([[2, 0], [0, 4]])).invariant_factors
    (2, 4)
    >>> snf(IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    SnfResult(invariant_factors=(1, 1, 1))
    """
    a = [list(row) for row in m.entries]
    nr, nc = m.rows, m.cols
    factors: list[int] = []
    r = 0
    while r < min(nr, nc):
        # Minimal |entry| in the trailing submatrix, lexicographic ties.
        best = None
        for i in range(r, nr):
            for j in range(r, nc):
                v = a[i][j]
                if v and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
                    if best[0] == 1:
                        break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, bi, bj = best
        if bi != r:
            a[r], a[bi] = a[bi], a[r]
        if bj != r:
            for row in a:
                row[r], row[bj] = row[bj], row[r]
        if a[r][r] < 0:
            a[r] = [-v for v in a[r]]
        p = a[r][r]
        dirty = False
        for i in range(r + 1, nr):
            if a[i][r]:
                q = a[i][r] // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                if a[i][r]:
                    dirty = True
        for j in range(r + 1, nc):
            if a[r][j]:
                q = a[r][j] // p
                if q:
                    for row in a:
                        row[j] -= q * row[r]
                if a[r][j]:
                    dirty = True
        if dirty:
            continue
        factors.append(p)
        r += 1
    # After pass i, factors[i] divides every later factor.
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            g = gcd(factors[i], factors[j])
            factors[i], factors[j] = g, factors[i] // g * factors[j]
    return SnfResult(tuple(factors))


def _echelon_int(rows: Sequence[Sequence[int]], ncols: int):
    """Fraction-free (Bareiss) reduced row echelon form of an integer matrix.

    Returns ``(echelon_rows, pivot_cols, pivot_rows)``, pivot_rows being
    the (independent) input rows the pivots came from.  Each step clears
    its pivot column in every other row, above and below, with the same
    exact division by the previous pivot (Bareiss 1968); a row with 0
    there is kept as it is when piv == prev.  So each pivot column is zero
    outside its own row, every pivot entry equals the last pivot D, +-det
    of the pivot minor, and all arithmetic stays in int.
    """
    m = [list(r) for r in rows]
    order = list(range(len(m)))
    pivot_cols: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        sel = None
        for i in range(r, len(m)):
            if m[i][c]:
                sel = i
                break
        if sel is None:
            continue
        if sel != r:
            m[r], m[sel] = m[sel], m[r]
            order[r], order[sel] = order[sel], order[r]
        row_r = m[r]
        piv = row_r[c]
        for i, row in enumerate(m):
            f = row[c]
            if i == r or not f and piv == prev:
                continue
            for j in range(c if i > r else 0, ncols):  # rows below are 0 left of c
                row[j] = (row[j] * piv - f * row_r[j]) // prev
        prev = piv
        pivot_cols.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivot_cols, order[:r]


def _primitive(vec: Sequence[int]) -> tuple[int, ...]:
    """``vec`` divided by the gcd of its entries; the zero vector is kept."""
    g = gcd(*vec)
    if g > 1:
        return tuple([v // g for v in vec])
    return tuple(vec)


def _kernel_of_echelon(ech: Sequence[Sequence[int]], pivot_cols: Sequence[int],
                       ncols: int) -> list[tuple[int, ...]]:
    """Primitive integer basis of the right null space of rows :func:`_echelon_int` reduced.

    ``ech`` and ``pivot_cols`` are the first two results of
    :func:`_echelon_int` on a matrix with ``ncols`` columns.  There is one
    basis vector per free column, in column order, each scaled to integers
    with gcd 1 and leading entry positive.  (This is a basis of the null
    space as a Q-vector space, not necessarily of the integer kernel
    lattice, which is all the geometry code needs.)  As every pivot entry
    of ``ech`` equals the last pivot D, the vector of free column f is D
    at f, minus each row's entry f at that row's pivot, and 0 at the other
    free columns.
    """
    d = ech[-1][pivot_cols[-1]] if ech else 1
    pivset = set(pivot_cols)
    basis: list[tuple[int, ...]] = []
    for f in range(ncols):
        if f in pivset:
            continue
        x = [0] * ncols
        x[f] = d
        for row, c in zip(ech, pivot_cols):
            x[c] = -row[f]
        vec = _primitive(x)
        if next(v for v in vec if v) < 0:
            vec = tuple([-v for v in vec])
        basis.append(vec)
    return basis


def _adjugate_rays(b: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Ray i of an invertible square B: primitive, zero on its other rows, > 0 on row i.

    The reduced form of [B^T | I] (:func:`_echelon_int`) is
    [D*I | D*B^-T]; ray i is the right block of row i, column i of
    D*B^-1 (a signed adj(B)), made primitive with the sign of D.

    >>> _adjugate_rays([[0, 1], [2, 1]])
    [(-1, 2), (1, 0)]
    """
    n = len(b)
    ech, _, _ = _echelon_int(
        [list(col) + [int(i == j) for j in range(n)] for i, col in enumerate(zip(*b))], 2 * n)
    sign = 1 if ech[0][0] > 0 else -1
    return [_primitive([sign * x for x in row[n:]]) for row in ech]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, x, y) with g = a*x + b*y and g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        return -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def hnf_row_lattice(m: IntMatrix) -> IntMatrix:
    """Hermite-style basis of the lattice generated by the rows of ``m``.

    The result has one row per pivot, pivot entries positive, entries
    above each pivot reduced into [0, pivot), rows ordered by pivot
    column.  Zero input rows are dropped; a rank-0 input yields a
    0-by-cols matrix.

    >>> hnf_row_lattice(IntMatrix.from_rows([[2, 0], [0, 3], [1, 1]])).entries
    ((1, 0), (0, 1))
    >>> hnf_row_lattice(IntMatrix.from_rows([[0, 0]])).entries
    ()
    """
    pivots: dict[int, list[int]] = {}
    for row0 in m.entries:
        row = list(row0)
        while True:
            lead = next((j for j, v in enumerate(row) if v), None)
            if lead is None:
                break
            if lead not in pivots:
                if row[lead] < 0:
                    row = [-v for v in row]
                pivots[lead] = row
                break
            p = pivots[lead]
            g, x, y = _xgcd(p[lead], row[lead])
            coef_p = p[lead] // g
            coef_r = row[lead] // g
            new_p = [x * u + y * v for u, v in zip(p, row)]
            row = [coef_p * v - coef_r * u for u, v in zip(p, row)]
            pivots[lead] = new_p
    cols_sorted = sorted(pivots)
    # Reduce entries above each pivot so the basis is canonical.  Pivot
    # columns are swept left to right: reducing at column c only touches
    # columns >= c, so columns already canonical stay canonical.
    for idx, c in enumerate(cols_sorted):
        base = pivots[c]
        for b in cols_sorted[:idx]:
            upper = pivots[b]
            q = upper[c] // base[c]
            if q:
                pivots[b] = [u - q * v for u, v in zip(upper, base)]
    rows_out = tuple(tuple(pivots[c]) for c in cols_sorted)
    return IntMatrix(m.cols, rows_out)


def in_row_lattice(hnf: IntMatrix, vec: Sequence[int]) -> bool:
    """Membership of ``vec`` in the row lattice described by an hnf basis."""
    if len(vec) != hnf.cols:
        raise ValueError("vector length does not match lattice ambient dimension")
    v = list(vec)
    for row in hnf.entries:
        c = next(j for j, x in enumerate(row) if x)
        if v[c]:
            q, rem = divmod(v[c], row[c])
            if rem:
                return False
            if q:
                v = [a - q * b for a, b in zip(v, row)]
    return not any(v)
