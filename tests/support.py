"""Shared builders for the test suite."""

from __future__ import annotations

import importlib.util
import random
from itertools import permutations
from pathlib import Path

from polyclass import (
    Graph,
    IntMatrix,
    Polytope,
    Poset,
    cube,
    dilate,
    edge_polytope,
    fixture,
    fixture_names,
    order_polytope,
    product,
    pyramid,
    simplex,
    stable_set_polytope,
)
from polyclass.polytope import _hull_candidates, _vertex_flags

SQUARE_PYRAMID = Polytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)])
REEVE_SIMPLEX = Polytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)])
TRIANGLE_GRAPH = Graph(3, [(0, 1), (0, 2), (1, 2)])
FOUR_CYCLE = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
# The 3x3 permutation matrices: neither a pyramid nor a product, so
# is_normal walks it at heights 2 and 3.
BIRKHOFF_B3 = Polytope([tuple(int(s[i] == j) for i in range(3) for j in range(3))
                        for s in permutations(range(3))])


def complete_bipartite(m: int, n: int) -> Graph:
    """K_{m,n}: its edge polytope is the product of simplices Δ_{m-1} x Δ_{n-1} in R^{m+n}."""
    return Graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def two_triangles_bridge(path_length: int = 2) -> Graph:
    """Two triangles joined by a path of the given length (>= 1).

    With path length 2 the edge polytope of this graph is the standard
    small example of a non-normal edge polytope.
    """
    if path_length < 1:
        raise ValueError("path length must be at least 1")
    n = 6 + (path_length - 1)
    left = [0, 1, 2]
    right = [n - 3, n - 2, n - 1]
    edges = [(0, 1), (0, 2), (1, 2),
             (right[0], right[1]), (right[0], right[2]), (right[1], right[2])]
    chain = [2] + list(range(3, 3 + path_length - 1)) + [right[0]]
    edges.extend((chain[i], chain[i + 1]) for i in range(len(chain) - 1))
    return Graph(n, edges)


def hull_of_points(points) -> Polytope:
    """conv(points) with the non-vertices dropped.

    The vertices are the points ``_vertex_flags`` keeps after one double
    description over all of them, as ``polytope._prefix_bounds`` hulls
    projections that keep non-vertices.
    """
    pts = sorted(set(map(tuple, points)))
    _, cands = _hull_candidates(pts, len(pts[0]))
    return Polytope([v for v, vertex in zip(pts, _vertex_flags(len(pts), cands)) if vertex])


def benchmark_workloads():
    """The benchmark's input builders (``perfbench/workloads.py``), loaded by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_int_matrix(rng: random.Random, max_rows: int = 8,
                      max_cols: int = 12, bound: int = 9) -> IntMatrix:
    r = rng.randint(1, max_rows)
    c = rng.randint(1, max_cols)
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(c)] for _ in range(r)])


def named_corpus() -> list[tuple[str, Polytope]]:
    """Small named polytopes exercised by the oracle-agreement tests."""
    chain2 = Poset.from_relations(2, [(0, 1)])
    antichain3 = Poset.from_relations(3, [])
    items = [
        ("segment01", simplex(1)),
        ("triangle", simplex(2)),
        ("tetrahedron", simplex(3)),
        ("simplex4", simplex(4)),
        ("square", cube(2)),
        ("cube3", cube(3)),
        ("segment02", dilate(simplex(1), 2)),
        ("segment03", dilate(simplex(1), 3)),
        ("triangle-x2", dilate(simplex(2), 2)),
        ("triangle-x3", dilate(simplex(2), 3)),
        ("tetrahedron-x2", dilate(simplex(3), 2)),
        ("prism", product(simplex(1), simplex(2))),
        ("square-pyramid", SQUARE_PYRAMID),
        ("pyramid-lift2", pyramid(simplex(2), 2)),
        ("reeve", REEVE_SIMPLEX),
        ("order-chain2", order_polytope(chain2)),
        ("order-antichain3", order_polytope(antichain3)),
        ("stableset-k3", stable_set_polytope(TRIANGLE_GRAPH)),
        ("edge-k3", edge_polytope(TRIANGLE_GRAPH)),
        ("edge-c4", edge_polytope(FOUR_CYCLE)),
    ]
    items.extend((name, fixture(name)) for name in fixture_names())
    return items


def pyramid_invariance_bases(total: int = 50) -> list[Polytope]:
    """Deterministic pool of pyramid bases: named polytopes plus random ones."""
    from polyclass import random_01_polytopes

    bases = [
        simplex(1), simplex(2), simplex(3), cube(2), cube(3),
        fixture("P1"), fixture("P2"), fixture("P3"), fixture("EX38"),
        dilate(simplex(1), 2), dilate(simplex(1), 3), dilate(simplex(2), 2),
        product(simplex(1), simplex(2)), edge_polytope(TRIANGLE_GRAPH),
    ]
    bases.extend(random_01_polytopes(3, total - len(bases), seed=11))
    return bases
