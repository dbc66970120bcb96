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
  of a block.  The test still runs on the polytope itself: a non-sum of
  a face or a factor is one of the whole.  Each level is one int used
  as a bitset over a mixed-radix key of the pivot coordinates of the
  affine hull, so a level is built by shifts and ors.
  ``is_normal_bruteforce`` re-decides the same question point by point
  up to height dim and serves as an independent oracle,
* ``k_number`` -- the longest chain of distinct lattice points and
  distinct facets where each point lies on all earlier facets and has
  value 1 on its own facet; such a chain of length k forces the first
  k invariant factors of the class matrix to be 1,
* ``pyramid_peel`` -- strips pyramid apexes whose removal provably
  preserves the class group (all other lattice points on the base),
* ``product_decompose_01`` -- finest coordinate-block factorization of
  a (0,1)-polytope into a cartesian product,
* ``classify_segre`` -- decides whether a (0,1)-polytope with exactly
  dim + 2 facets is, up to polynomial extension, a product of two
  simplices (toric ring a Segre product of two polynomial rings),
* ``verify_family`` -- runs the battery of implications above over a
  family and reports counterexamples.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from operator import mul
from typing import Callable, Iterable, Literal

from .classgroup import class_group
from .errors import InvariantViolation
from .intlinalg import _echelon_int, in_row_lattice
from .polytope import Point, Polytope, _eval_form

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


def _normal_height_bound(p: Polytope) -> int:
    """A height ``top`` such that P is normal iff h*P passes the level test for h <= top.

    Starts from dim - 1 and lowers it through lattice pyramids and
    coordinate products; see :func:`is_normal` for the argument.  Builds
    no polytope: everything is read off ``p._hull``, the facet values and
    the lattice points.
    """
    d = p.dim
    if d <= 2:
        return d - 1
    verts = p.vertices
    aff, raw = p._hull
    # Apexes: a facet missing one vertex is an apex facet when that vertex
    # is the only lattice point off it.
    apexes = set()
    rest = len(verts) - 1
    for f in p.facets:
        if len(f.vertex_set) == rest and len(f.row) - f.row.count(0) == 1:
            apexes.add(next(i for i in range(len(verts)) if i not in f.vertex_set))
    top = d - 1 - len(apexes)
    if top <= 1:
        return top
    # Coordinate blocks of the core: union-find over the form supports.
    core = [v for i, v in enumerate(verts) if i not in apexes]
    var = [j for j, col in enumerate(zip(*core)) if min(col) < max(col)]
    root = {j: j for j in var}

    def find(j: int) -> int:
        while root[j] != j:
            root[j] = root[root[j]]
            j = root[j]
        return j

    blocks = len(var)
    supports = []
    for a in [a for a, _ in aff] + [a for (a, _), _ in raw]:
        support = [j for j in var if a[j]]
        supports.append(support)
        for j in support[1:]:
            r, s = find(support[0]), find(j)
            if r != s:
                root[s] = r
                blocks -= 1
                if blocks == 1:
                    return top
    apex_pts = {verts[i] for i in apexes}
    pts = p.lattice_points
    tops = []
    for b in {find(j) for j in var}:
        block = [j for j in var if find(j) == b]
        proj = {tuple([v[j] for j in block]) for v in core}
        dim_b = len(_echelon_int([(1,) + q for q in proj], len(block) + 1)[1]) - 1
        # The factor's apexes: lone projected core points off a facet of P
        # whose support on the varying coordinates lies in the block.
        lone = set()
        for fid, support in enumerate(supports[len(aff):]):
            if support and find(support[0]) == b:
                off = {tuple([z[j] for j in block])
                       for z, v in zip(pts, p.facets[fid].row) if v and z not in apex_pts}
                if len(off) == 1:
                    lone |= off
        tops.append(dim_b - 1 - len(lone))
    return max(tops)


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
      Facets missing exactly one vertex are the candidates, confirmed by
      their values; distinct apex facets have distinct apexes, and k of
      them make P a k-fold pyramid over the face ``core`` spanned by the
      other vertices, of dimension dim - k.  So top = dim - 1 - k, and
      with dim - k <= 2 (a simplex without other lattice points has
      k = dim + 1) there is nothing to walk.
    * **Coordinate products.**  Join, by union-find, the coordinates
      that vary on the core and appear together in the support of an
      affine hull equation or facet form of P.  On the core the other
      coordinates are constant, so each form is a function of one
      block, and with more than one block the core is exactly the
      product of its projections Q_B onto the blocks.  A product is
      normal iff each factor is: at height h its lattice points and
      its points in L are the products of the factors' ones, so a
      factor's non-sum z at height h pairs with h times one lattice
      point of the other factors to a non-sum of the core.  Each factor
      is again reduced by its apexes: the lone projected core points
      off a facet of P supported in its block.  So top is the largest
      dim_B - 1 - k_B, dim_B the affine rank of the projected core
      vertices and k_B the number of those apexes.

    Checking P itself at heights <= top is exact: a point of a face
    decomposes inside the face (the face's lattice lies in L), so the
    witness of a non-normal core or factor is one of P.  The test is
    only sufficient for products: forms of P may couple coordinates the
    core's own facets do not.

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
    h*P, h <= top.  Coordinate j is a pivot unless an equation of aff(P),
    in echelon form from the right, has its last nonzero coefficient at j.
    """
    n = p.ambient_dim
    fixed = {n - 1 - c for c in _echelon_int([a[::-1] for a, _ in p.affine_hull_forms], n)[1]}
    weights = [0] * n
    base, box = 0, 1
    for j, col in enumerate(zip(*p.vertices)):
        if j not in fixed:
            weights[j] = box
            base += box * min(col)
            box *= top * (max(col) - min(col)) + 1
    return weights, base, box


def is_normal_bruteforce(p: Polytope) -> bool:
    """Independent normality oracle: per-point decomposability search.

    For each height h = 2 .. max(2, dim) (not dim - 1: the extra degree
    also exercises the height bound the fast path relies on), every point
    of h*P in the lattice at height h must split off some generator with
    the remainder decomposable at height h - 1.  Top-down with
    memoization; intentionally a different algorithm from ``is_normal``.
    """
    gens = p.lattice_points
    gen_set = set(gens)
    lat = p.lattice_height_basis
    aff = p.affine_hull_forms
    ineqs = tuple(form for form, _ in p._hull[1])
    memo: dict[tuple[Point, int], bool] = {}

    def in_scaled(z: Point, h: int) -> bool:
        for a, b in aff:
            if _eval_form((a, h * b), z) != 0:
                return False
        for a, b in ineqs:
            if _eval_form((a, h * b), z) < 0:
                return False
        return True

    def decomposable(z: Point, h: int) -> bool:
        if h == 1:
            return z in gen_set
        key = (z, h)
        cached = memo.get(key)
        if cached is not None:
            return cached
        res = False
        for g in gens:
            w = tuple(a - b for a, b in zip(z, g))
            if in_scaled(w, h - 1) and decomposable(w, h - 1):
                res = True
                break
        memo[key] = res
        return res

    for h in range(2, max(2, p.dim) + 1):
        for z in p._scaled_lattice_points(h):
            if in_row_lattice(lat, z + (h,)) and not decomposable(z, h):
                return False
    return True


@dataclass(frozen=True)
class UnitChain:
    """A witness chain: points[i] lies on facets[0..i-1] and has value 1 on facets[i]."""

    k: int
    points: tuple[Point, ...]
    facet_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        if not (self.k == len(self.points) == len(self.facet_ids)):
            raise ValueError("chain length mismatch")


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
        k=len(best),
        points=tuple(pts[i] for i, _ in best),
        facet_ids=tuple(fid for _, fid in best),
    )


def validate_unit_chain(p: Polytope, chain: UnitChain) -> bool:
    """Re-check a chain certificate against the definition, from scratch."""
    if chain.k != len(chain.points) or chain.k != len(chain.facet_ids):
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


def pyramid_peel(p: Polytope) -> tuple[Polytope, int]:
    """Strip apexes while the polytope is a pyramid in the lattice sense.

    An apex is a lattice point that is the only one off some facet; the
    facet is then the base and carries the same class group data.  The
    first peelable facet in canonical order is used, repeatedly, and
    the final core plus the apex count is returned.
    """
    core = p
    apexes = 0
    while core.dim >= 1:
        base = next((f for f in core.facets if len(f.row) - f.row.count(0) == 1), None)
        if base is None:
            break
        core = Polytope([core.vertices[i] for i in base.vertex_set], core.ambient_dim)
        apexes += 1
    return core, apexes


def product_decompose_01(p: Polytope) -> list[Polytope]:
    """Finest cartesian factorization of a (0,1)-polytope's vertex set.

    Coordinates constant across all vertices are dropped (they only
    contribute single-point factors).  Among the rest, a coordinate
    subset S is splitting when the vertex set equals the product of its
    projections to S and its complement; splitting sets are closed
    under intersection and complement, so the minimal splitting set
    through each coordinate is well defined and these atoms partition
    the coordinates.  Factors are returned as polytopes in their own
    coordinates, ordered by their smallest original coordinate, and a
    non-decomposable input yields a singleton list.  Cost is 2^c scans
    of the vertex set for c varying coordinates.  ``is_normal`` splits
    coordinates by the supports of the facet forms instead, which is
    cheaper but may miss a factorization; this one is exact.
    """
    if not p.is_01:
        raise ValueError("product decomposition requires a (0,1)-polytope")
    verts = p.vertices
    var = [j for j in range(p.ambient_dim)
           if any(v[j] != verts[0][j] for v in verts)]
    if not var:
        return [p]
    n = len(var)
    vset = [tuple(v[j] for j in var) for v in verts]
    total = len(vset)
    full = (1 << n) - 1

    def proj_size(mask: int) -> int:
        idx = [i for i in range(n) if mask >> i & 1]
        return len({tuple(v[i] for i in idx) for v in vset})

    splitting = [full]
    for mask in range(1, full):
        if proj_size(mask) * proj_size(full ^ mask) == total:
            splitting.append(mask)
    atoms = []
    for i in range(n):
        m = full
        for s in splitting:
            if s >> i & 1:
                m &= s
        atoms.append(m)
    blocks = sorted(set(atoms), key=lambda m: next(i for i in range(n) if m >> i & 1))
    covered = 0
    for b in blocks:
        if covered & b:
            raise InvariantViolation("splitting atoms failed to partition coordinates")
        covered |= b
    if covered != full:
        raise InvariantViolation("splitting atoms failed to cover coordinates")
    out = []
    size_product = 1
    for b in blocks:
        idx = [i for i in range(n) if b >> i & 1]
        proj = sorted({tuple(v[i] for i in idx) for v in vset})
        size_product *= len(proj)
        out.append(Polytope(proj, len(idx)))
    if size_product != total:
        raise InvariantViolation("factor projections do not multiply back to the vertex set")
    return out


@dataclass(frozen=True)
class SegreClassification:
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
    violation, not a soft negative.
    """
    if not p.is_01:
        raise ValueError("classification requires a (0,1)-polytope")
    if p.dim < 1 or len(p.facets) != p.dim + 2:
        return SegreClassification("NOT_APPLICABLE", None, 0)
    core, apexes = pyramid_peel(p)
    if core.dim < 2 or len(core.facets) != core.dim + 2 or not core.is_simple():
        raise InvariantViolation(
            f"peel core of a dim+2-facet polytope is not simple with dim+2 facets: "
            f"core vertices {list(core.vertices)}")
    factors = product_decompose_01(core)
    if len(factors) != 2 or any(len(f.vertices) != f.dim + 1 for f in factors):
        raise InvariantViolation(
            f"peel core did not factor into two simplices: "
            f"core vertices {list(core.vertices)}")
    dims = tuple(sorted(f.dim for f in factors))
    cg = class_group(p)
    if not (cg.free_rank == 1 and cg.is_torsionfree and is_normal(p)):
        raise InvariantViolation(
            f"classified polytope should have class group Z and be normal, got "
            f"rank {cg.free_rank}, torsion {cg.torsion}")
    return SegreClassification("SEGRE", (dims[0], dims[1]), apexes)


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
    """
    cg = class_group(p)
    chain = k_number(p)
    norm = is_normal(p)
    comp = is_compressed(p)
    tf = cg.is_torsionfree
    res: dict[str, Verdict] = {
        "unit_chain_factors_one": all(s == 1 for s in cg.full_factors[:chain.k]),
        "chain_length_bound": chain.k <= p.dim + 1,
        "full_chain_torsionfree": chain.k < p.dim + 1 or tf,
        "compressed_normal_torsionfree": not comp or (norm and tf),
    }
    if p.is_01:
        nfacets = len(p.facets)
        class_z = cg.free_rank == 1 and tf
        res["facet_count_iff_class_z"] = (nfacets == p.dim + 2) == (norm and class_z)
        res["few_facets_normal_torsionfree"] = nfacets > p.dim + 2 or (norm and tf)
    else:
        res["facet_count_iff_class_z"] = None
        res["few_facets_normal_torsionfree"] = None
    return res


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: int
    failed: int
    skipped: int
    first_counterexample: Polytope | None
    first_index: int | None = None  # position of first_counterexample in the family


@dataclass(frozen=True)
class VerificationReport:
    total: int
    outcomes: tuple[CheckOutcome, ...]

    @property
    def ok(self) -> bool:
        return all(o.failed == 0 for o in self.outcomes)

    def failures(self) -> list[CheckOutcome]:
        return [o for o in self.outcomes if o.failed]


def verify_family(polytopes: Iterable[Polytope], workers: int | None = None,
                  progress: Callable[[int], None] | None = None) -> VerificationReport:
    """Run ``polytope_checks`` over a family and aggregate the outcomes.

    Serially each polytope is checked and tallied before the next is
    drawn, keeping only each check's first counterexample and its index.
    ``workers`` > 1 fans out over a thread pool, which holds the family
    (aggregation is in input order either way, so the report is
    deterministic).  ``progress`` is called with the running count of
    finished polytopes, in input order, in both cases.
    """
    counts = {name: [0, 0, 0] for name in CHECK_NAMES}
    first: dict[str, tuple[Polytope, int]] = {}
    total = 0
    pool = ThreadPoolExecutor(max_workers=workers) if workers and workers > 1 else nullcontext()
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
            if progress:
                progress(total)
    outcomes = tuple(
        CheckOutcome(name, *counts[name], *first.get(name, (None, None)))
        for name in CHECK_NAMES)
    return VerificationReport(total=total, outcomes=outcomes)
