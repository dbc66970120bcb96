"""Long tier: the algorithmic walls, each asserted on its answer.

    python -m pytest longtests

The tier-1 command does not collect this directory (``testpaths`` leaves
it out).  Each test runs its computation in a child Python process of its
own, with a timeout and a 2 GiB address-space limit set on that child
only, so a hang or a runaway enumeration fails one test instead of
stalling or exhausting the run.

A wall that is not fixed yet is marked ``xfail(strict=True)``.  When a
change fixes it, its test passes and the strict marker turns that into a
failure until the marker is removed, so the marker list is the list of
walls still standing.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MEMORY_LIMIT = 2 << 30
TIMEOUT_S = 180

PRELUDE = """
from itertools import combinations, permutations
from polyclass import *
"""


def limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_child(argv: list[str], timeout: float = TIMEOUT_S) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                              timeout=timeout, preexec_fn=limit_memory, env=env)
    except subprocess.TimeoutExpired:
        pytest.fail(f"not finished after {timeout} s")
    last = (proc.stderr.strip().splitlines() or ["no stderr"])[-1]
    assert proc.returncode == 0, f"exit {proc.returncode}: {last}"
    return proc


def evaluate(setup: str, expr: str, timeout: float = TIMEOUT_S) -> str:
    """The repr of ``expr``, evaluated in a child process after ``setup``."""
    code = f"{PRELUDE}\n{setup}\nprint(repr({expr}))\n"
    return run_child(["-c", code], timeout).stdout.strip()


BIRKHOFF_4 = ("p = Polytope([tuple(int(s[i] == j) for i in range(4) for j in range(4))"
              " for s in permutations(range(4))])")
CROSS_8 = "p = Polytope([tuple(s * (i == j) for j in range(8)) for i in range(8) for s in (1, -1)])"
EDGE_K10 = "p = edge_polytope(Graph(10, combinations(range(10), 2)))"
STABLE_P9 = "p = stable_set_polytope(Graph(9, [(i, i + 1) for i in range(8)]))"
STABLE_C9 = "p = stable_set_polytope(Graph(9, [(i, (i + 1) % 9) for i in range(9)]))"
# One seeded unimodular shear U of R^n, starting from U = I: 3n times,
# add c times row j to row i, for a random pair i != j and c in ±1, ±2.
# Each vertex v maps to Uv, so the image is normal exactly when p is.
SHEAR = """
import random
from operator import mul
def shear(p):
    n, rng = p.ambient_dim, random.Random(1)
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
    return Polytope([tuple(sum(map(mul, row, v)) for row in U) for v in p.vertices])
"""
SHEARED_D4xD4 = SHEAR + "p = shear(product(simplex(4), simplex(4)))"
SHEARED_CUBE_7 = SHEAR + "p = shear(cube(7))"
MEMORY_WALL = pytest.mark.xfail(strict=True, reason="MemoryError under the 2 GiB limit")
SHEAR_WALL = pytest.mark.xfail(strict=True, reason="the slicing walk's cost grows with the shear")


@pytest.mark.parametrize("setup, timeout", [
    (BIRKHOFF_4, TIMEOUT_S), (EDGE_K10, TIMEOUT_S), (CROSS_8, TIMEOUT_S),
    pytest.param(STABLE_P9, TIMEOUT_S, marks=MEMORY_WALL),
    pytest.param(STABLE_C9, TIMEOUT_S, marks=MEMORY_WALL),
    (SHEARED_D4xD4, TIMEOUT_S),
    pytest.param(SHEARED_CUBE_7, 60, marks=SHEAR_WALL),
], ids=["birkhoff-4", "edge-K10", "cross-8", "stable-set-P9", "stable-set-C9",
        "sheared-D4xD4", "sheared-cube-7"])
def test_is_normal(setup, timeout):
    assert evaluate(setup, "is_normal(p)", timeout) == "True"


# A fix answers the two walls below in well under a second, so they get
# a shorter timeout. The thin polytope hangs; 1000·Δ3 may hang or run
# out of memory.
@pytest.mark.xfail(strict=True, reason="enumerates C(1003, 3) lattice points")
def test_dilated_simplex_facets():
    # Each facet keeps a value for every lattice point of 1000·Δ3.
    assert evaluate("p = dilate(simplex(3), 1000)", "len(p.facets)", timeout=60) == "4"


@pytest.mark.xfail(strict=True, reason="the slicing walk visits every x_1 of the projection")
def test_thin_polytope_lattice_points():
    # Five lattice points, and a walk linear in N: 10^12 would take days.
    setup = "N = 10**12\np = Polytope([(0, 0, 0), (N, 1, 0), (0, 0, 1), (1, 0, 0), (N + 1, 1, 1)])"
    assert evaluate(setup, "len(p.lattice_points)", timeout=60) == "5"


def test_verify_exhaustive_dimension_four():
    proc = run_child(["-m", "polyclass", "verify", "--dim", "4", "--exhaustive"])
    lines = proc.stdout.splitlines()
    assert lines[0] == "verified 60879 polytope(s)"
    rows = [line.split() for line in lines[2:-1]]
    assert len(rows) == 6
    assert all(row[1:] == ["60879", "0", "0"] for row in rows), rows
    assert lines[-1] == "result: OK"
