"""End-to-end acceptance checks with pinned runtimes.

Each test prints a single PASS/FAIL line (straight to the terminal,
bypassing capture) and enforces a wall-clock budget, so a full run reads
as a ten-line scorecard.
"""

from __future__ import annotations

import random
import time
from math import gcd as _gcd

from polyclass import (
    all_01_polytopes,
    class_group,
    dilate,
    edge_polytope,
    fixture,
    is_normal,
    k_number,
    pyramid,
    random_01_polytopes,
    simplex,
    snf,
    validate_unit_chain,
    verify_family,
)
from oracles import gcd_minors, is_normal_bruteforce
from support import (named_corpus, pyramid_invariance_bases, random_int_matrix,
                     two_triangles_bridge)


def report(capsys, num, ok, detail, elapsed, budget):
    with capsys.disabled():
        tag = "PASS" if ok and elapsed < budget else "FAIL"
        print(f"\nACCEPTANCE {num:2d}: {tag}  {detail}  [{elapsed:.2f}s of {budget:.0f}s]")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.2f}s)"


def test_01_hexagon_unit_chain(capsys):
    t0 = time.perf_counter()
    p = fixture("P1")
    chain = k_number(p)
    ok = chain.k == 3 and validate_unit_chain(p, chain)
    report(capsys, 1, ok,
           f"hexagon fixture has a valid unit chain of length {chain.k} (expected 3)",
           time.perf_counter() - t0, 1.0)


def test_02_quad_fixture_unit_values(capsys):
    t0 = time.perf_counter()
    p = fixture("P2")
    chain = k_number(p)
    center = p.lattice_points.index((1, 1))
    all_one = all(fd.row[center] == 1 for fd in p.facets)
    ok = chain.k == 1 and len(p.facets) == 4 and all_one
    report(capsys, 2, ok,
           "quad fixture: chain length 1 and the center evaluates to 1 on all 4 facets",
           time.perf_counter() - t0, 1.0)


def test_03_skew_quadrilateral_group(capsys):
    t0 = time.perf_counter()
    p = fixture("P3")
    cg = class_group(p)
    ok = (is_normal(p) and k_number(p).k == 1
          and cg.full_factors == (1, 1, 1) and cg.free_rank == 1)
    report(capsys, 3, ok,
           f"skew quadrilateral: normal, chain length 1, factors (1,1,1), group {cg.describe()}",
           time.perf_counter() - t0, 1.0)


def test_04_threedim_fixture_facets_and_group(capsys):
    t0 = time.perf_counter()
    p = fixture("EX38")
    expected_forms = [
        ((1, 0, 0), 0),
        ((0, 1, 0), 0),
        ((0, 0, 1), 0),
        ((1, -1, -1), 1),
        ((-1, 1, -1), 1),
        ((-1, -1, 1), 1),
    ]
    matched = set()
    for a, b in expected_forms:
        raw = [sum(c * x for c, x in zip(a, v)) + b for v in p.lattice_points]
        g = 0
        for val in raw:
            g = _gcd(g, val)
        target = tuple(val // g for val in raw)
        hits = [i for i, fd in enumerate(p.facets) if fd.row == target]
        if len(hits) == 1:
            matched.add(hits[0])
    cg = class_group(p)
    ok = (len(p.facets) == 6 and len(matched) == 6 and is_normal(p)
          and cg.free_rank == 2 and cg.torsion == ())
    report(capsys, 4, ok,
           f"five-point 3-polytope: all 6 expected facets, normal, group {cg.describe()}",
           time.perf_counter() - t0, 1.0)


def test_05_dilated_simplex_torsion(capsys):
    t0 = time.perf_counter()
    ok = True
    cases = 0
    for n in (2, 3, 4):
        for d in (2, 3, 4):
            cg = class_group(dilate(simplex(n - 1), d))
            ok = ok and cg.torsion != ()
            cases += 1
    for d in (2, 3, 4):
        p = dilate(simplex(1), d)
        cg = class_group(p)
        ok = ok and cg.free_rank == 0 and cg.torsion == (d,)
        # the factor values again via the minor-gcd route
        from polyclass import class_matrix
        m = class_matrix(p).matrix
        g1, g2 = gcd_minors(m, 1), gcd_minors(m, 2)
        ok = ok and (g1, g2 // g1) == cg.full_factors
    report(capsys, 5, ok,
           f"dilated simplices: torsion in all {cases} cases, dilated segments exactly Z/d",
           time.perf_counter() - t0, 10.0)


def test_06_exhaustive_threedim_characterization(capsys):
    t0 = time.perf_counter()
    total = 0
    ok = True
    for p in all_01_polytopes(3):
        total += 1
        nf = len(p.facets)
        cg = class_group(p)
        is_z = cg.free_rank == 1 and cg.torsion == ()
        if (nf == 5) != (is_normal(p) and is_z):
            ok = False
            break
        if nf <= 5 and not (is_normal(p) and cg.torsion == ()):
            ok = False
            break
    ok = ok and total == 151
    report(capsys, 6, ok,
           f"all {total} full-dimensional (0,1)-polytopes in R^3: "
           "5 facets iff (normal and group Z); at most 5 facets implies normal torsionfree",
           time.perf_counter() - t0, 60.0)


def test_07_property_battery(capsys):
    t0 = time.perf_counter()
    family = list(all_01_polytopes(3)) + list(random_01_polytopes(4, 500, seed=0))
    rep = verify_family(family)
    by_name = {o.name: o for o in rep.outcomes}
    ok = (rep.ok
          and by_name["unit_chain_factors_one"].failed == 0
          and by_name["compressed_normal_torsionfree"].failed == 0
          and by_name["chain_length_bound"].failed == 0)
    report(capsys, 7, ok,
           f"{rep.total} polytopes (R^3 exhaustive + 500 sampled R^4): "
           "leading factors 1, compressed implies normal torsionfree, chain length <= dim+1",
           time.perf_counter() - t0, 300.0)


def test_08_pyramid_group_invariance(capsys):
    t0 = time.perf_counter()
    bases = pyramid_invariance_bases(50)
    ok = len(bases) == 50
    for base in bases:
        cb = class_group(base)
        cp = class_group(pyramid(base, 1))
        if (cb.free_rank, cb.torsion) != (cp.free_rank, cp.torsion):
            ok = False
            break
    # lift 2 over the even segment: extra points escape the base, so no
    # invariance claim is made; the computation just has to go through
    tall = pyramid(dilate(simplex(1), 2), 2)
    escaped = [v for v in tall.lattice_points if v[-1] != 0]
    ok = ok and len(escaped) > 1 and class_group(tall) is not None
    report(capsys, 8, ok,
           "50 unit-lift pyramids preserve free rank and torsion of the base",
           time.perf_counter() - t0, 30.0)


def test_09_normal_form_versus_minor_gcds(capsys):
    t0 = time.perf_counter()
    rng = random.Random(20260823)
    ok = True
    for _ in range(1000):
        m = random_int_matrix(rng, max_rows=8, max_cols=12, bound=9)
        factors = snf(m)
        prev = 1
        for i, s in enumerate(factors, start=1):
            g = gcd_minors(m, i)
            if g != prev * s:
                ok = False
                break
            prev = g
        if not ok:
            break
        if len(factors) < min(m.rows, m.cols) and gcd_minors(m, len(factors) + 1) != 0:
            ok = False
            break
    report(capsys, 9, ok,
           "1000 random matrices up to 8x12: normal form factors equal minor-gcd ratios",
           time.perf_counter() - t0, 60.0)


def test_10_normality_oracle_agreement(capsys):
    t0 = time.perf_counter()
    ok = True
    count = 0
    pool = [p for _, p in named_corpus()] + list(all_01_polytopes(3))
    for p in pool:
        if p.dim == 0 or len(p.lattice_points) > 12:
            continue
        if is_normal(p) != is_normal_bruteforce(p):
            ok = False
            break
        count += 1
    bridge = edge_polytope(two_triangles_bridge())
    ok = (ok and len(bridge.lattice_points) <= 12
          and is_normal(bridge) is False and is_normal_bruteforce(bridge) is False)
    count += 1
    report(capsys, 10, ok,
           f"incremental and brute-force normality agree on {count} polytopes "
           "including the non-normal bridged-triangles edge polytope",
           time.perf_counter() - t0, 120.0)
