"""Structural predicates and classification for lattice polytopes.

This module decides the properties the class-group machinery feeds on:

* ``is_compressed`` -- every facet value is 0 or 1,
* ``is_normal`` -- the semigroup generated by the lattice points at
  height 1 saturates inside its own lattice; checked degree by degree
  up to dim - 1, which is sufficient because the Hilbert basis of the
  cone over the polytope lives in heights below the dimension.
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
from typing import Callable, Iterable, Literal

from .classgroup import class_group
from .errors import InvariantViolation
from .intlinalg import in_row_lattice
from .polytope import Form, Point, Polytope, _eval_form

Verdict = bool | None


def is_compressed(p: Polytope) -> bool:
    """True when every normalized facet value lies in {0, 1}.

    With the gcd normalization in place this is equivalent to the
    nonzero values of each facet forming a one-element set.
    """
    if p.dim < 1:
        raise ValueError("compressedness needs dimension >= 1")
    return all(v in (0, 1) for f in p.facets for v in f.values.values())


def _scaled_forms(forms: Iterable[Form], h: int) -> list[Form]:
    return [(a, h * b) for a, b in forms]


def is_normal(p: Polytope) -> bool:
    """Saturation of the lattice-point semigroup, degree by degree.

    Writing L for the lattice spanned by {(v,1) : v a lattice point},
    the polytope is normal when every point of h*P lying in L at height
    h is a sum of a height-(h-1) semigroup element and a generator.
    Heights 2 .. dim-1 suffice; dimensions at most 2 are always normal.
    """
    d = p.dim
    if d <= 2:
        return True
    gens = p.lattice_points
    lat = p.lattice_height_basis
    prev = set(gens)
    w = p.ambient_dim
    for h in range(2, d):
        level = set()
        for s in prev:
            for g in gens:
                level.add(tuple(s[i] + g[i] for i in range(w)))
        for z in p._scaled_lattice_points(h):
            if z not in level and in_row_lattice(lat, z + (h,)):
                return False
        prev = level
    return True


def is_normal_bruteforce(p: Polytope, max_height: int | None = None) -> bool:
    """Independent normality oracle: per-point decomposability search.

    For each height h up to dim (not dim - 1: the extra degree also
    exercises the height bound the fast path relies on), every point of
    h*P in the lattice at height h must split off some generator with
    the remainder decomposable at height h - 1.  Top-down with
    memoization; intentionally a different algorithm from ``is_normal``.
    """
    d = p.dim
    top = max_height if max_height is not None else max(2, d)
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

    for h in range(2, top + 1):
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
    states are memoized on the chosen facet set.  The chain length is
    capped by dim + 1 and the search exits early on reaching the cap.
    """
    if p.dim < 1:
        raise ValueError("unit chains need dimension >= 1")
    pts = p.lattice_points
    facets = p.facets
    cap = p.dim + 1
    unit = []
    zero = []
    for f in facets:
        unit.append(frozenset(i for i, pt in enumerate(pts) if f.values[pt] == 1))
        zero.append(frozenset(i for i, pt in enumerate(pts) if f.values[pt] == 0))
    nf = len(facets)
    best: list[tuple[int, int]] = []
    visited: set[frozenset[int]] = set()

    def dfs(avail: frozenset[int], used_fs: frozenset[int],
            chain: list[tuple[int, int]]) -> bool:
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
            if fid not in used_fs:
                ch = unit[fid] & avail
                if ch:
                    cands.append((fid, ch))
        if len(chain) + len(cands) <= len(best):
            return False
        for fid, ch in cands:
            for i in sorted(ch):
                chain.append((i, fid))
                if dfs(avail & zero[fid], used_fs | {fid}, chain):
                    return True
                chain.pop()
        return False

    dfs(frozenset(range(len(pts))), frozenset(), [])
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
    facets = {f.facet_id: f for f in p.facets} if p.dim >= 1 else {}
    pts = set(p.lattice_points)
    for i in range(chain.k):
        v = chain.points[i]
        if v not in pts or chain.facet_ids[i] not in facets:
            return False
        if facets[chain.facet_ids[i]].values[v] != 1:
            return False
        for l in range(i):
            if facets[chain.facet_ids[l]].values[v] != 0:
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
        pts = core.lattice_points
        base = None
        for f in core.facets:
            off = [pt for pt in pts if f.values[pt] != 0]
            if len(off) == 1:
                base = f
                break
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
    of the vertex set for c varying coordinates.
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

    ``workers`` > 1 fans out over a thread pool (the work is pure and
    per-polytope; aggregation happens in input order either way, so the
    report is deterministic).  ``progress`` is called with the running
    count of finished polytopes, in input order, in both cases.
    """
    items = list(polytopes)
    results: list[dict[str, Verdict]] = []
    pool = ThreadPoolExecutor(max_workers=workers) if workers and workers > 1 else nullcontext()
    with pool as ex:
        for res in (ex.map if ex else map)(polytope_checks, items):
            results.append(res)
            if progress:
                progress(len(results))
    counts = {name: [0, 0, 0] for name in CHECK_NAMES}
    first: dict[str, Polytope] = {}
    for p, res in zip(items, results):
        for name in CHECK_NAMES:
            v = res[name]
            if v is None:
                counts[name][2] += 1
            elif v:
                counts[name][0] += 1
            else:
                counts[name][1] += 1
                first.setdefault(name, p)
    outcomes = tuple(
        CheckOutcome(name, counts[name][0], counts[name][1], counts[name][2],
                     first.get(name))
        for name in CHECK_NAMES)
    return VerificationReport(total=len(items), outcomes=outcomes)
