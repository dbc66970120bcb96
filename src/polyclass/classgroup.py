"""Divisor class groups of lattice polytopes via facet value matrices.

The class matrix of a polytope has one row per facet and one column per
lattice point, with entries the normalized facet values.  Its Smith
normal form presents the divisor class group of the associated toric
ring: with F facets and rank r = dim + 1,

    Cl = Z^(F - r)  x  Z/s_1 x ... x Z/s_r,

where the s_i are the invariant factors (trivial factors 1 contribute
nothing).  The group-theoretic reading of the presentation assumes the
polytope is normal; for a non-normal polytope the same matrix data is
still well defined, and the report calls it a formal presentation.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvariantViolation
from .intlinalg import IntMatrix, snf
from .polytope import Polytope


# A one-field tuple only because perfbench/tracing.py::_count_matrix reads ``res.matrix``.
class ClassMatrix(NamedTuple):
    """Facet-by-lattice-point matrix of normalized facet values."""

    matrix: IntMatrix


def class_matrix(p: Polytope) -> ClassMatrix:
    """Class matrix of ``p``; requires dim >= 1.

    Rows follow the canonical facet order, columns the lex order of the
    lattice points.  Every entry is a nonnegative integer, each row has
    gcd 1, and each column is nonzero (no lattice point lies on every
    facet).
    """
    if p.dim < 1:
        raise ValueError("class matrix requires a polytope of dimension >= 1")
    return ClassMatrix(IntMatrix.from_rows([f.row for f in p.facets], len(p.lattice_points)))


class _ClassGroupPresentation(NamedTuple):
    free_rank: int
    full_factors: tuple[int, ...]


class ClassGroupPresentation(_ClassGroupPresentation):
    """Z^free_rank x Z/s_1 x ... with the trivial factors kept in full_factors."""

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


def class_group(p: Polytope) -> ClassGroupPresentation:
    """Divisor class group presentation of the toric ring of ``p``.

    The rank of the class matrix must equal dim + 1; anything else
    contradicts the underlying theory and raises InvariantViolation
    rather than returning silently wrong group data.
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
    )
