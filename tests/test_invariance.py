"""Invariants survive lattice-preserving changes of coordinates.

A polytope is drawn small (dim <= 3, coordinates 0..2), embedded by
x -> (x, Ax + c), sheared by at most two elementary GL_n(Z) operations
x_i -> x_i +- x_j and translated.  Each step is an affine lattice
isomorphism onto its image, so every invariant below must come out the
same; the non-full-dimensional code paths see the embedded images.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from polyclass import (
    Polytope,
    class_group,
    is_compressed,
    is_normal,
    k_number,
    pyramid_peel,
)
from support import hull_of_points


def unimodular_image(draw, p: Polytope) -> Polytope:
    """``p`` embedded by x -> (x, Ax + c) (A has 0 or 1 rows), sheared and translated."""
    n = p.ambient_dim
    m = draw(st.integers(0, 1))
    small = st.integers(-1, 1)
    rows = draw(st.lists(st.tuples(*[small] * n), min_size=m, max_size=m))
    shift = draw(st.tuples(*[small] * m))
    image = [v + tuple(sum(a * x for a, x in zip(row, v)) + c for row, c in zip(rows, shift))
             for v in p.vertices]
    d = n + m
    if d > 1:
        axis = st.integers(0, d - 1)
        ops = st.tuples(axis, axis, st.sampled_from((1, -1))).filter(lambda o: o[0] != o[1])
        for i, j, s in draw(st.lists(ops, max_size=2)):
            image = [v[:i] + (v[i] + s * v[j],) + v[i + 1:] for v in image]
    t = draw(st.tuples(*[st.integers(-2, 2)] * d))
    return Polytope([tuple(x + y for x, y in zip(v, t)) for v in image])


@st.composite
def unimodular_images(draw):
    n = draw(st.integers(1, 3))
    box = st.tuples(*[st.integers(0, 2)] * n)
    pts = draw(st.lists(box, min_size=2, max_size=6, unique=True))
    p = hull_of_points(pts)
    return p, unimodular_image(draw, p)


def invariants(p: Polytope):
    group = class_group(p)
    return (p.dim, len(p.vertices), len(p.lattice_points), group.full_factors,
            group.free_rank, is_normal(p), is_compressed(p), k_number(p).k,
            len(p.facets), p.is_simple(), len(p.vertices) - len(pyramid_peel(p)))


@settings(deadline=None, max_examples=150)
@given(unimodular_images())
def test_invariants_are_unchanged_by_unimodular_maps(pair):
    p, q = pair
    assert invariants(q) == invariants(p)
