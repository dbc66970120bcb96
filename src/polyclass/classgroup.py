"""Divisor class groups of lattice polytopes via facet value matrices.

The class matrix of a polytope has one row per facet and one column per
lattice point, with entries the normalized facet values.  Its Smith
normal form presents the divisor class group of the associated toric
ring: with F facets and rank r = dim + 1,

    Cl = Z^(F - r)  x  Z/s_1 x ... x Z/s_r,

where the s_i are the invariant factors (trivial factors 1 contribute
nothing).  The group-theoretic reading of the presentation assumes the
polytope is normal; for a non-normal polytope the same matrix data is
still well defined and is reported as a formal presentation.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvariantViolation
from .intlinalg import IntMatrix, snf
from .polytope import Point, Polytope


class _ClassMatrix(NamedTuple):
    matrix: IntMatrix
    row_labels: tuple[int, ...]        # facet ids, canonical order
    col_labels: tuple[Point, ...]      # lattice points, lex order


class ClassMatrix(_ClassMatrix):
    """Facet-by-lattice-point matrix of normalized facet values."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> ClassMatrix:
        self = super().__new__(cls, *args, **kwargs)
        if self.matrix.rows != len(self.row_labels):
            raise ValueError("row label count mismatch")
        if self.matrix.cols != len(self.col_labels):
            raise ValueError("column label count mismatch")
        return self


def class_matrix(p: Polytope) -> ClassMatrix:
    """Class matrix of ``p``; requires dim >= 1.

    Rows follow the canonical facet order, columns the lex order of the
    lattice points.  Every entry is a nonnegative integer, each row has
    gcd 1, and each column is nonzero (no lattice point lies on every
    facet).
    """
    if p.dim < 1:
        raise ValueError("class matrix requires a polytope of dimension >= 1")
    pts = p.lattice_points
    return ClassMatrix(
        matrix=IntMatrix.from_rows([f.row for f in p.facets], len(pts)),
        row_labels=tuple(f.facet_id for f in p.facets),
        col_labels=pts,
    )


class _ClassGroupPresentation(NamedTuple):
    free_rank: int
    full_factors: tuple[int, ...]
    formal: bool = False


class ClassGroupPresentation(_ClassGroupPresentation):
    """Z^free_rank x Z/s_1 x ... with the trivial factors kept in full_factors.

    ``formal`` is set when the polytope is not known to be normal, in
    which case the data still presents the cokernel of the class matrix
    but its interpretation as a divisor class group is not guaranteed.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> ClassGroupPresentation:
        self = super().__new__(cls, *args, **kwargs)
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        if any(s < 1 for s in self.full_factors):
            raise ValueError("invariant factors must be positive")
        for a, b in zip(self.full_factors, self.full_factors[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisibility chain")
        return self

    @property
    def torsion(self) -> tuple[int, ...]:
        return tuple(s for s in self.full_factors if s > 1)

    @property
    def is_torsionfree(self) -> bool:
        return not self.torsion

    def describe(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{s}" for s in self.torsion)
        return " x ".join(parts) if parts else "0"


def class_group(p: Polytope, *, formal: bool = False) -> ClassGroupPresentation:
    """Divisor class group presentation of the toric ring of ``p``.

    The rank of the class matrix must equal dim + 1; anything else
    contradicts the underlying theory and raises InvariantViolation
    rather than returning silently wrong group data.

    ``formal`` marks the presentation as formal-only; the caller decides
    it from its own normality check (the analysis layer does).
    """
    cm = class_matrix(p)
    res = snf(cm.matrix)
    expected = p.dim + 1
    if res.rank != expected:
        raise InvariantViolation(
            f"class matrix rank {res.rank} != dim + 1 = {expected} "
            f"for vertices {list(p.vertices)}")
    return ClassGroupPresentation(
        free_rank=cm.matrix.rows - res.rank,
        full_factors=res.invariant_factors,
        formal=formal,
    )
