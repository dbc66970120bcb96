"""Builders for standard polytope families and combinatorial inputs.

Covers simplices, cubes, products, pyramids, order polytopes of posets,
stable-set and edge polytopes of graphs, a handful of named fixture
polytopes used throughout the test suite, and generators for the
exhaustive / sampled (0,1)-polytope families the verifier runs over.
"""

from __future__ import annotations

import random
from itertools import combinations, product as iterproduct
from typing import Iterable, Iterator, Sequence

from .polytope import Point, Polytope


def simplex(n: int) -> Polytope:
    """Standard simplex conv{0, e_1, ..., e_n} in R^n."""
    if n < 0:
        raise ValueError("simplex dimension must be nonnegative")
    zero = (0,) * n
    verts = [zero] + [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    return Polytope(verts)


def cube(n: int) -> Polytope:
    """Unit cube [0,1]^n."""
    if n < 1:
        raise ValueError("cube dimension must be positive")
    return Polytope(list(iterproduct((0, 1), repeat=n)))


def product(p: Polytope, q: Polytope) -> Polytope:
    """Cartesian product, with p's coordinates first."""
    verts = [u + v for u in p.vertices for v in q.vertices]
    return Polytope(verts)


def pyramid(base: Polytope, lift: int = 1) -> Polytope:
    """Pyramid over ``base``: base embedded at height 0, apex at height ``lift``.

    With lift 1 every non-apex lattice point of the result lies in the
    base; larger lifts can introduce lattice points at intermediate
    heights.
    """
    if type(lift) is not int or lift < 1:
        raise ValueError("lift must be a positive integer")
    verts = [v + (0,) for v in base.vertices]
    verts.append((0,) * base.ambient_dim + (lift,))
    return Polytope(verts)


def dilate(p: Polytope, k: int) -> Polytope:
    """The dilation k*P, k >= 1."""
    if type(k) is not int or k < 1:
        raise ValueError("dilation factor must be a positive integer")
    if k == 1:
        return p
    return Polytope([tuple(k * x for x in v) for v in p.vertices])


class Poset:
    """Finite poset on elements 0..n-1, stored as its full order relation."""

    def __init__(self, n: int, leq: Sequence[Sequence[bool]]):
        self.n = n
        self.leq = tuple(tuple(bool(x) for x in row) for row in leq)
        for i in range(n):
            if not self.leq[i][i]:
                raise ValueError("order relation must be reflexive")
            for j in range(n):
                if i != j and self.leq[i][j] and self.leq[j][i]:
                    raise ValueError(f"cycle between {i} and {j}: not a partial order")

    @classmethod
    def from_relations(cls, n: int, relations: Iterable[tuple[int, int]]) -> "Poset":
        """Build from generating pairs (i, j) meaning i <= j; closure is taken."""
        if n < 0:
            raise ValueError("poset size must be nonnegative")
        leq = [[i == j for j in range(n)] for i in range(n)]
        for i, j in relations:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"relation ({i}, {j}) out of range")
            leq[i][j] = True
        for k in range(n):  # Warshall: what is above k is above all below k
            for row in leq:
                if row[k]:
                    row[:] = [a or b for a, b in zip(row, leq[k])]
        return cls(n, leq)

    def is_transitively_closed_input(self, relations: Iterable[tuple[int, int]]) -> bool:
        given = {(i, j) for i, j in relations if i != j}
        closed = {(i, j) for i in range(self.n) for j in range(self.n)
                  if i != j and self.leq[i][j]}
        return given == closed

    def filters(self) -> list[frozenset[int]]:
        """All upward-closed subsets, ordered by their sorted element lists.

        A filter is a union of principal filters, so the filters are the
        closure of the empty mask under or-ing each element's up-set mask.
        """
        masks = {0}
        for row in self.leq:
            up = sum(1 << j for j, x in enumerate(row) if x)
            masks |= {m | up for m in masks}
        return _sets_of_masks(masks, self.n)


class Graph:
    """Finite simple graph on vertices 0..n-1."""

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("graph size must be nonnegative")
        self.n = n
        es = set()
        for a, b in edges:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a}, {b}) out of range")
            if a == b:
                raise ValueError(f"loop at vertex {a} not allowed")
            es.add((min(a, b), max(a, b)))
        self.edges = tuple(sorted(es))
        self.adj = [set() for _ in range(n)]
        for a, b in self.edges:
            self.adj[a].add(b)
            self.adj[b].add(a)

    def stable_sets(self) -> list[frozenset[int]]:
        """All independent sets, the empty one too, ordered by their sorted element lists.

        Vertex i joins each stable set on 0..i-1 that misses its neighbours.
        """
        masks = [0]
        for i, nbrs in enumerate(self.adj):
            nb = sum(1 << j for j in nbrs)
            masks += [m | 1 << i for m in masks if not m & nb]
        return _sets_of_masks(masks, self.n)


def _sets_of_masks(masks: Iterable[int], n: int) -> list[frozenset[int]]:
    """Bitmasks over 0..n-1 as sets, ordered by their sorted element lists."""
    return [frozenset(s) for s in sorted([i for i in range(n) if m >> i & 1] for m in masks)]


def order_polytope(poset: Poset) -> Polytope:
    """Convex hull of the indicator vectors of the filters of the poset."""
    if poset.n == 0:
        raise ValueError("order polytope needs at least one element")
    verts = [tuple(1 if i in f else 0 for i in range(poset.n)) for f in poset.filters()]
    return Polytope(verts)


def stable_set_polytope(graph: Graph) -> Polytope:
    """Convex hull of the indicator vectors of the stable sets of the graph."""
    if graph.n == 0:
        raise ValueError("stable set polytope needs at least one vertex")
    verts = [tuple(1 if i in s else 0 for i in range(graph.n)) for s in graph.stable_sets()]
    return Polytope(verts)


def edge_polytope(graph: Graph) -> Polytope:
    """Convex hull of e_i + e_j over the edges of the graph."""
    if not graph.edges:
        raise ValueError("edge polytope needs at least one edge")
    verts = []
    for a, b in graph.edges:
        v = [0] * graph.n
        v[a] += 1
        v[b] += 1
        verts.append(tuple(v))
    return Polytope(verts)


_FIXTURE_VERTICES: dict[str, list[Point]] = {
    # Hexagon with a single interior lattice point; longest unit chain 3.
    "P1": [(0, 0), (1, 0), (0, 1), (2, 1), (1, 2), (2, 2)],
    # Diamond whose center is the only lattice point with a unit facet value.
    "P2": [(1, 0), (0, 1), (2, 1), (1, 2)],
    # Normal quadrilateral with class group Z and longest unit chain 1.
    "P3": [(0, 0), (1, 4), (2, 5), (3, 1)],
    # (0,1)-polytope in R^3 with 6 facets and class group Z^2.
    "EX38": [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
}


def fixture(name: str) -> Polytope:
    """Named test polytopes: P1, P2, P3, EX38."""
    try:
        verts = _FIXTURE_VERTICES[name]
    except KeyError:
        raise ValueError(f"unknown fixture {name!r}; choose from "
                         f"{sorted(_FIXTURE_VERTICES)}") from None
    return Polytope(verts)


def fixture_names() -> list[str]:
    return sorted(_FIXTURE_VERTICES)


def all_01_polytopes(dim: int) -> Iterator[Polytope]:
    """All full-dimensional (0,1)-polytopes in R^dim, one per vertex subset.

    Distinct vertex subsets of the cube give distinct polytopes (every
    0/1 point inside the hull of 0/1 points is itself a vertex of the
    hull), so no further dedup is needed.  Guarded to dim <= 4; the
    count grows doubly exponentially beyond that.
    """
    if not 1 <= dim <= 4:
        raise ValueError("exhaustive enumeration supported for dimensions 1..4")
    corners = sorted(iterproduct((0, 1), repeat=dim))
    for size in range(dim + 1, len(corners) + 1):
        for sub in combinations(corners, size):
            p = Polytope(sub)
            if p.dim == dim:
                yield p


def random_01_polytopes(dim: int, count: int, seed: int) -> Iterator[Polytope]:
    """Seeded sample of full-dimensional (0,1)-polytopes in R^dim, drawn lazily.

    Each draw keeps every cube corner independently with probability
    1/2 and is rejected unless the hull is full-dimensional.  Repeats
    across draws are possible; the sequence is deterministic in seed.
    A negative count is refused with ``ValueError`` at the call, and so
    is a dimension outside 1..8: each draw hulls about half of the 2^dim
    cube corners, which takes seconds per draw from R^9 on.  Members are
    built as the returned iterator is consumed, so a streaming consumer
    holds one at a time.
    """
    if not 1 <= dim <= 8:
        raise ValueError("sampling supported for dimensions 1..8")
    if count < 0:
        raise ValueError(f"sample count must be nonnegative, got {count}")
    return _random_01_draws(dim, count, seed)


def _random_01_draws(dim: int, count: int, seed: int) -> Iterator[Polytope]:
    rng = random.Random(seed)
    corners = sorted(iterproduct((0, 1), repeat=dim))
    drawn = 0
    while drawn < count:
        sub = [c for c in corners if rng.random() < 0.5]
        if len(sub) < dim + 1:
            continue
        p = Polytope(sub)
        if p.dim == dim:
            drawn += 1
            yield p
