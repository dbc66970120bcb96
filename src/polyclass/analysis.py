"""Structural predicates and classification for lattice polytopes.

This module decides the properties the class-group machinery feeds on:

* ``is_compressed`` -- every facet value is 0 or 1,
* ``is_normal`` -- the semigroup generated by the lattice points at
  height 1 saturates inside its own lattice; checked degree by degree
  up to a height bound.  The Hilbert basis of the cone over the
  polytope lives in heights below the dimension, and a lattice pyramid
  or a coordinate product is normal iff its base or its factors are,
  so the bound is dim - 1 less one per pyramid apex, or, when the
  apex-free core splits into coordinate blocks, the largest such bound
  of a block, found exactly by ``_coordinate_blocks``.  The test still
  runs on the polytope itself: a non-sum of a face or a factor is one of
  the whole.  Each level is one int used as a bitset over a mixed-radix
  key of the pivot coordinates of the affine hull, so a level is built
  by shifts and ors,
* ``k_number`` -- the longest chain of distinct lattice points and
  distinct facets where each point lies on all earlier facets and has
  value 1 on its own facet; such a chain of length k forces the first
  k invariant factors of the class matrix to be 1,
* ``pyramid_peel`` -- strips the apexes ``_peel`` reads off P, whose removal
  provably preserves the class group (all other lattice points on the base),
* ``classify_segre`` -- decides from the apexes and core factors of the
  normality bound whether a (0,1)-polytope with dim + 2 facets is, up to
  polynomial extension, a product of two simplices (a Segre product),
* ``verify_family`` -- runs the battery of implications above over a
  family and reports counterexamples in a ``VerificationReport``, a named
  tuple like every result type here; ``polytope_checks`` runs
  ``is_normal`` only on a polytope where a verdict reads its value.
"""

from __future__ import annotations

from collections import Counter
from contextlib import nullcontext
from itertools import chain
from math import gcd
from operator import itemgetter, mul
from typing import Iterable, Literal, NamedTuple, Sequence

from .classgroup import class_group
from .errors import InvariantViolation
from .intlinalg import _echelon_int, in_row_lattice
from .polytope import Point, Polytope

Verdict = bool | None

_DENSE_LEVEL_BITS = 1 << 20  # is_normal's levels are bitsets up to this key box (128 KB)


def is_compressed(p: Polytope) -> bool:
    """True when every normalized facet value lies in {0, 1}.

    With the gcd normalization in place this is equivalent to the
    nonzero values of each facet forming a one-element set.
    """
    if p.dim < 1:
        raise ValueError("compressedness needs dimension >= 1")
    return all(set(f.row) <= {0, 1} for f in p.facets)


def _apexes(p: Polytope) -> dict[int, Point]:
    """The lattice-pyramid apexes of P, keyed by the id of their facet.

    An apex is the only lattice point off a facet: the facet's row has
    one nonzero entry, a 1.  Distinct apex facets have distinct apexes.
    """
    pts = p.lattice_points
    rest = len(p.vertices) - 1  # implied by the row; compared first as it is cheaper
    return {f.facet_id: pts[f.row.index(1)] for f in p.facets
            if len(f.vertex_set) == rest and f.row.count(0) == len(pts) - 1}


def _solve_last(eqs: list[Sequence[int]], n: int) -> dict[int, list[int]]:
    """Linear equations solved for their last coordinates: {coordinate j: row}.

    Primitive row j ends at j and is zero at the other solved coordinates:
    a row of the reduced echelon form of ``eqs`` from the right, which
    :func:`_echelon_int` gives on reversed columns, reversed back.
    """
    ech, cols, _ = _echelon_int([a[::-1] for a in eqs], n)
    solved: dict[int, list[int]] = {}
    for r, c in zip(ech, cols):
        g = gcd(*r)
        solved[n - 1 - c] = [u // g for u in reversed(r)]
    return solved


def _coordinate_blocks(eqs: list[Sequence[int]], forms: list[Sequence[int]],
                       n: int) -> list[tuple[list[int], int]]:
    """The finest factorization of a polytope as a product over coordinate blocks.

    ``eqs`` and ``forms`` are the linear parts of the polytope's affine
    hull equations and facet forms.  With ``eqs`` solved (:func:`_solve_last`)
    a form reduced modulo the rows is a function of the free coordinates,
    unique up to scale.  Free coordinates in the support of one row or
    reduced form are joined, and a solved one goes with its row.  Forms
    that each depend on one block cut out the product of the projections
    onto the blocks, and a facet of a coordinate product reduces into one
    factor's block, so the blocks are exact.  Returns ``(coordinates, free
    count)`` per block, by first coordinate; constant coordinates are in none.
    """
    solved = _solve_last(eqs, n)
    free = [j for j in range(n) if j not in solved]
    label = list(range(n))
    blocks = len(free)
    for i, a in enumerate(chain(solved.values(), forms)):
        if blocks <= 1:
            break
        if solved and i >= len(solved):  # a form: reduce it
            for j, row in solved.items():
                x = a[j]
                if x:
                    a = [u * row[j] - x * v for u, v in zip(a, row)]
        joined = {label[k] for k in free if a[k]}
        if len(joined) > 1:
            t = min(joined)
            label = [t if b in joined else b for b in label]
            blocks -= len(joined) - 1
    for j, row in solved.items():
        label[j] = next((label[k] for k in free if row[k]), -1)
    out: dict[int, list[int]] = {}
    for j, b in enumerate(label):
        if b >= 0:
            out.setdefault(b, []).append(j)
    return [(block, len([j for j in block if j not in solved])) for block in out.values()]


def _core_factors(p: Polytope, apexes: dict[int, Point]) -> list[tuple[int, int]]:
    """``(dimension, apex count)`` of each factor of the core, one per coordinate block.

    The core is the face of P the facets of ``apexes`` (:func:`_apexes`)
    cut out.  It is read off P, and no polytope is built.  A lone factor
    is the core, and a point alone off a facet of P is an apex of P.
    """
    others = [f for f in p.facets if f.facet_id not in apexes] if apexes else p.facets
    eqs = [a for a, _ in p.affine_hull_forms] + [p.facets[i].int_form[0] for i in apexes]
    blocks = _coordinate_blocks(eqs, [f.int_form[0] for f in others], p.ambient_dim)
    if len(blocks) == 1:
        return [(blocks[0][1], 0)]
    out = []
    for coords, free in blocks:
        # The factor's apexes: lone projected points off a facet of P (the
        # apexes are on it).  On a one-coordinate block a projection is an int.
        proj = list(map(itemgetter(*coords), p.lattice_points))
        lone = set()
        for f in others:
            off = {q for q, v in zip(proj, f.row) if v}
            if len(off) == 1:
                lone |= off
        out.append((free, len(lone)))
    return out


def _normal_height_bound(p: Polytope) -> int:
    """A height ``top`` such that P is normal iff h*P passes the level test for h <= top.

    Starts from dim - 1 and lowers it through lattice pyramids and the
    factors of their core (see :func:`is_normal`).
    """
    if p.dim <= 2:
        return p.dim - 1
    apexes = _apexes(p)
    top = p.dim - 1 - len(apexes)
    if top <= 1:
        return top
    return max(e - 1 - a for e, a in _core_factors(p, apexes))


def is_normal(p: Polytope) -> bool:
    """Saturation of the lattice-point semigroup, degree by degree.

    Writing L for the lattice spanned by {(v,1) : v a lattice point},
    the polytope is normal when every point of h*P lying in L at height
    h is a sum of a height-(h-1) semigroup element and a generator.
    The Hilbert basis of the cone over a lattice polytope of dimension
    e lies at heights <= e - 1, so a non-normal P has a point that is no
    such sum at some height <= dim - 1, and heights 2 .. top suffice for
    any ``top`` at or above the height of such a witness.
    :func:`_normal_height_bound` lowers ``top`` from dim - 1 (Bruns &
    Gubeladze, *Polytopes, Rings, and K-Theory*, 2009):

    * **Lattice pyramids.**  An apex is the only lattice point off a
      facet F; then L is L_F plus Z(a, 1), a direct sum, and the cone
      over P meets L in (C_F cap L_F) + N(a, 1), so P is normal iff F is.
      Its value row has one nonzero entry (:func:`_apexes`); distinct
      apex facets have distinct apexes, and k of them make P a k-fold
      pyramid over the face ``core`` spanned by the other vertices, of
      dimension dim - k.  So top = dim - 1 - k, and with dim - k <= 2 (a
      simplex without other lattice points has k = dim + 1) there is
      nothing to walk.
    * **Coordinate products.**  From the equations of aff(P) and of the
      apex facets, which cut out aff(core), and the other facet forms,
      :func:`_coordinate_blocks` finds the finest coordinate blocks B,
      and the core is the product of its projections Q_B onto them.  A
      product is normal iff each factor is: at height h its lattice
      points and its points in L are the products of the factors' ones,
      so a factor's non-sum z at height h pairs with h times one lattice
      point of the other factors to a non-sum of the core.  Each factor
      is again reduced by its apexes: the lone projected core points off
      a facet of P.  So top is the largest dim_B - 1 - k_B, dim_B the
      number of free coordinates in B and k_B the number of those apexes.

    Checking P itself at heights <= top is exact: a point of a face
    decomposes inside the face (the face's lattice lies in L), so the
    witness of a non-normal core or factor is one of P.  Only sheared
    products are missed: a unimodular map that mixes the factors'
    coordinates leaves no coordinate split, and top stays dim - 1 - k.

    Each point z of h*P is held as one int key_h(z), a mixed-radix
    number over the pivot coordinates of aff(P): the columns after the
    first that the echelon form of the rows (1, v), v a vertex, pivots
    on.  Every other coordinate is an affine function of them on the
    vertices, hence on aff(P), so they determine a point of h*aff(P).
    Digit i is z_i - h*m_i with radix R_i = top*(M_i - m_i) + 1, m_i and
    M_i the least and greatest i-th vertex coordinates, so it lies in
    [0, R_i) for h <= top and key_h is injective on h*P.  As key_h(z) =
    raw(z) - h*base with raw linear, key_{h-1}(s) + key_1(g) =
    key_h(s + g), and the level at height h is the set of keys of such
    sums.  While the key box prod(R_i) is within _DENSE_LEVEL_BITS the
    level is one int used as a bitset, the or of prev << key_1(g) over
    the generators, sized by its bit count; past that (a shear can
    stretch a coordinate by millions while the walk stays cheap) it is a
    set of the same keys.  A point of h*P is a sum exactly when its key
    is in the level; only the points that miss are tested against the
    lattice, whose basis is built on the first such test.  The level
    holds keys of points of h*P only, so when it is as large as h*P
    every point is a sum and no key needs computing.
    """
    top = _normal_height_bound(p)
    if top <= 1:
        return True
    weights, base, box = _level_key(p, top)
    gen_keys = [sum(map(mul, g, weights)) - base for g in p.lattice_points]
    dense = box <= _DENSE_LEVEL_BITS
    prev = sum(1 << k for k in gen_keys) if dense else set(gen_keys)
    for h in range(2, top + 1):
        if dense:
            level = 0
            for k in gen_keys:
                level |= prev << k
            size = level.bit_count()
        else:
            level = {s + k for s in prev for k in gen_keys}
            size = len(level)
        pts = p._scaled_lattice_points(h)
        if size < len(pts):
            for z in pts:
                k = sum(map(mul, z, weights)) - h * base
                if (not (level >> k & 1 if dense else k in level)
                        and in_row_lattice(p.lattice_height_basis, z + (h,))):
                    return False
        prev = level
    return True


def _level_key(p: Polytope, top: int) -> tuple[list[int], int, int]:
    """``(weights, base, box)`` of :func:`is_normal`'s key up to height ``top``.

    key_h(z) = sum(weights[j] * z_j) - h*base lies in range(box) for z in
    h*P, h <= top.  Coordinate j is a pivot unless :func:`_solve_last`
    solves an equation of aff(P) for it.
    """
    fixed = _solve_last([a for a, _ in p.affine_hull_forms], p.ambient_dim)
    weights = [0] * p.ambient_dim
    base, box = 0, 1
    for j, col in enumerate(zip(*p.vertices)):
        if j not in fixed:
            weights[j] = box
            base += box * min(col)
            box *= top * (max(col) - min(col)) + 1
    return weights, base, box


class _UnitChain(NamedTuple):
    points: tuple[Point, ...]
    facet_ids: tuple[int, ...]


class UnitChain(_UnitChain):
    """A witness chain: points[i] lies on facets[0..i-1] and has value 1 on facets[i]."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> UnitChain:
        self = super().__new__(cls, *args, **kwargs)
        if len(self.points) != len(self.facet_ids):
            raise ValueError("chain length mismatch")
        return self

    @property
    def k(self) -> int:
        return len(self.points)


def k_number(p: Polytope) -> UnitChain:
    """Longest unit chain of the polytope, with a witness.

    Depth-first search over (point, facet) choices.  The set of points
    usable at a state depends only on the set of facets chosen so far
    (each used point is off its own facet, hence never reusable), so
    states are memoized on the chosen facet set.  Point sets and facet
    sets are int bitmasks: bit i of a facet's unit (zero) mask is set
    when lattice point i has value 1 (0) on it, and a state is the mask
    of the chosen facet ids.  Points are tried in increasing index, that
    is lex, order.  The chain length is capped by dim + 1 and the search
    exits early on reaching the cap.
    """
    if p.dim < 1:
        raise ValueError("unit chains need dimension >= 1")
    pts = p.lattice_points
    facets = p.facets
    cap = p.dim + 1
    unit = []
    zero = []
    for f in facets:
        unit.append(sum([1 << i for i, v in enumerate(f.row) if v == 1]))
        zero.append(sum([1 << i for i, v in enumerate(f.row) if v == 0]))
    nf = len(facets)
    best: list[tuple[int, int]] = []
    visited: set[int] = set()

    def dfs(avail: int, used_fs: int, chain: list[tuple[int, int]]) -> bool:
        nonlocal best
        if len(chain) > len(best):
            best = list(chain)
            if len(best) == cap:
                return True
        if used_fs in visited:
            return False
        visited.add(used_fs)
        cands = []
        for fid in range(nf):
            if not used_fs >> fid & 1:
                ch = unit[fid] & avail
                if ch:
                    cands.append((fid, ch))
        if len(chain) + len(cands) <= len(best):
            return False
        for fid, ch in cands:
            while ch:
                low = ch & -ch
                ch ^= low
                chain.append((low.bit_length() - 1, fid))
                if dfs(avail & zero[fid], used_fs | 1 << fid, chain):
                    return True
                chain.pop()
        return False

    dfs((1 << len(pts)) - 1, 0, [])
    del dfs  # a recursive closure is a reference cycle: free its memo now, not at the next gc
    return UnitChain(
        points=tuple(pts[i] for i, _ in best),
        facet_ids=tuple(fid for _, fid in best),
    )


def validate_unit_chain(p: Polytope, chain: UnitChain) -> bool:
    """Re-check a chain certificate against the definition, from scratch."""
    if len(chain.points) != len(chain.facet_ids):
        return False
    if len(set(chain.points)) != chain.k or len(set(chain.facet_ids)) != chain.k:
        return False
    rows = {f.facet_id: f.row for f in p.facets} if p.dim >= 1 else {}
    index = {pt: i for i, pt in enumerate(p.lattice_points)}
    for i in range(chain.k):
        j = index.get(chain.points[i])
        if j is None or chain.facet_ids[i] not in rows:
            return False
        if rows[chain.facet_ids[i]][j] != 1:
            return False
        for l in range(i):
            if rows[chain.facet_ids[l]][j] != 0:
                return False
    return True


def _peel(p: Polytope) -> tuple[list[Point], int, dict[int, Point]]:
    """``(core vertices, apex count, apexes)``: :func:`pyramid_peel` building no polytope."""
    apexes = _apexes(p) if p.dim >= 1 else {}
    core = [v for v in p.vertices if v not in apexes.values()] or [p.vertices[0]]
    return core, min(len(apexes), p.dim), apexes


def pyramid_peel(p: Polytope) -> tuple[Polytope, int]:
    """Strip the apexes of P in the lattice-pyramid sense: ``(core, apex count)``.

    An apex is the only lattice point off some facet, which is then the
    base and carries the same class group data.  The other apexes of P
    are exactly those of the base, so the core is spanned by the vertices
    that are not apexes; an empty simplex, all apexes, keeps its first
    vertex with dim apexes.  Without apexes the core is P itself.
    """
    core, k, _ = _peel(p)
    return (Polytope(core) if k else p), k


class SegreClassification(NamedTuple):
    """Outcome of the dim+2-facet classification of a (0,1)-polytope.

    ``tag`` is SEGRE when the polytope peels to a product of exactly two
    simplices of dimensions ``simplex_dims`` after removing
    ``apex_count`` pyramid apexes (each apex is a polynomial variable
    adjoined to the Segre product); NOT_APPLICABLE when the facet count
    is not dim + 2.
    """

    tag: Literal["SEGRE", "NOT_APPLICABLE"]
    simplex_dims: tuple[int, int] | None
    apex_count: int


def classify_segre(p: Polytope) -> SegreClassification:
    """Classify a (0,1)-polytope with dim + 2 facets, with cross-checks.

    For an applicable polytope the structure theory guarantees the peel
    core is simple with two simplex factors and that the class group is
    Z with the ring normal; any failure of those facts is an invariant
    violation, not a soft negative.  The core and its factors are read off
    P (:func:`_peel`, :func:`_core_factors`).  A core vertex lies on the k
    apex facets too, so the core is simple iff each other vertex of P lies
    on dim facets, and a factor of dimension e with e + 1 apexes is a simplex.
    """
    if not p.is_01:
        raise ValueError("classification requires a (0,1)-polytope")
    if p.dim < 1 or len(p.facets) != p.dim + 2:
        return SegreClassification("NOT_APPLICABLE", None, 0)
    core, k, apexes = _peel(p)
    on = Counter(p.vertices[i] for f in p.facets for i in f.vertex_set)  # facets per vertex
    if p.dim - k < 2 or any(on[v] != p.dim for v in core):
        raise InvariantViolation(
            f"peel core of a dim+2-facet polytope is not simple with dim+2 facets: "
            f"core vertices {core}")
    factors = _core_factors(p, apexes)
    if len(factors) != 2 or any(a != e + 1 for e, a in factors):
        raise InvariantViolation(
            f"peel core did not factor into two simplices: "
            f"core vertices {core}")
    dims = tuple(sorted(e for e, _ in factors))
    cg = class_group(p)
    if not (cg.free_rank == 1 and cg.is_torsionfree and is_normal(p)):
        raise InvariantViolation(
            f"classified polytope should have class group Z and be normal, got "
            f"rank {cg.free_rank}, torsion {cg.torsion}")
    return SegreClassification("SEGRE", (dims[0], dims[1]), k)


CHECK_NAMES = (
    "unit_chain_factors_one",
    "chain_length_bound",
    "full_chain_torsionfree",
    "compressed_normal_torsionfree",
    "facet_count_iff_class_z",
    "few_facets_normal_torsionfree",
)


def polytope_checks(p: Polytope) -> dict[str, Verdict]:
    """Evaluate the implication battery on one polytope.

    Returns True/False per check, or None when the check does not apply
    (the last two are statements about (0,1)-polytopes only).

    ``is_normal`` runs only where a verdict reads its value: on a
    torsionfree P that is compressed (``compressed_normal_torsionfree``)
    or is a (0,1)-polytope with at most dim + 2 facets (the last two; a
    group Z means dim + 2 facets, as ``class_group`` checks that the class
    matrix has rank dim + 1).  Elsewhere the other operands of each formula
    decide it, so ``norm`` is False there and every verdict keeps the value
    it has for either normality.  No verdict infers normality from
    compressedness: a compressed, torsionfree P is still tested, so
    ``compressed_normal_torsionfree`` checks the paper's claim.
    """
    cg = class_group(p)
    chain = k_number(p)
    comp = is_compressed(p)
    tf = cg.is_torsionfree
    nfacets = len(p.facets)
    norm = tf and (comp or (p.is_01 and nfacets <= p.dim + 2)) and is_normal(p)
    res: dict[str, Verdict] = {
        "unit_chain_factors_one": all(s == 1 for s in cg.full_factors[:chain.k]),
        "chain_length_bound": chain.k <= p.dim + 1,
        "full_chain_torsionfree": chain.k < p.dim + 1 or tf,
        "compressed_normal_torsionfree": not comp or (norm and tf),
    }
    if p.is_01:
        class_z = cg.free_rank == 1 and tf
        res["facet_count_iff_class_z"] = (nfacets == p.dim + 2) == (norm and class_z)
        res["few_facets_normal_torsionfree"] = nfacets > p.dim + 2 or (norm and tf)
    else:
        res["facet_count_iff_class_z"] = None
        res["few_facets_normal_torsionfree"] = None
    return res


class CheckOutcome(NamedTuple):
    name: str
    passed: int
    failed: int
    skipped: int
    first_counterexample: Polytope | None
    first_index: int | None = None  # position of first_counterexample in the family


class VerificationReport(NamedTuple):
    total: int
    outcomes: tuple[CheckOutcome, ...]

    @property
    def ok(self) -> bool:
        return all(o.failed == 0 for o in self.outcomes)


def verify_family(polytopes: Iterable[Polytope], workers: int | None = None) -> VerificationReport:
    """Run ``polytope_checks`` over a family and aggregate the outcomes.

    Serially each polytope is checked and tallied before the next is
    drawn, keeping only each check's first counterexample and its index.
    ``workers`` > 1 fans out over a thread pool, imported on first use,
    which holds the family and gives no speedup: the checks are pure Python
    under the GIL.  It stays because ``perfbench/walls.py`` times it.
    Aggregation is in input order either way, so the report is deterministic.
    """
    counts = {name: [0, 0, 0] for name in CHECK_NAMES}
    first: dict[str, tuple[Polytope, int]] = {}
    total = 0
    pool = nullcontext()
    if workers and workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        pool = ThreadPoolExecutor(max_workers=workers)
    with pool as ex:
        if ex:
            items = list(polytopes)
            checked = zip(items, ex.map(polytope_checks, items))
        else:
            checked = ((p, polytope_checks(p)) for p in polytopes)
        for p, res in checked:
            for name in CHECK_NAMES:
                v = res[name]
                if v is None:
                    counts[name][2] += 1
                elif v:
                    counts[name][0] += 1
                else:
                    counts[name][1] += 1
                    first.setdefault(name, (p, total))
            total += 1
    outcomes = tuple(
        CheckOutcome(name, *counts[name], *first.get(name, (None, None)))
        for name in CHECK_NAMES)
    return VerificationReport(total=total, outcomes=outcomes)
