"""Probe of polyclass's algorithmic walls; not part of the gated benchmark.

    python3 perfbench/walls.py

Runs each entry in a child process of its own, one at a time, with a
hard timeout of TIMEOUT_S seconds and a 1 GiB address-space limit, so
a hang or a runaway enumeration becomes a row of the table instead of
a stuck probe.  Each child times only the call named in the row, after
its inputs are built.
Prints a Markdown table.
"""

from __future__ import annotations

import resource
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MEMORY_LIMIT = 1 << 30
TIMEOUT_S = 60

PRELUDE = """
import sys, time
from itertools import permutations
from polyclass import *
"""

# (label, set-up code, timed statement)
ENTRIES = [
    ("`cube(5)` constructor (hull)", "", "cube(5)"),
    ("segment 0→(1,…,1) in R^16, `lattice_points`",
     "p = Polytope([(0,) * 16, (1,) * 16])", "p.lattice_points"),
    ("segment 0→(1,…,1) in R^18, `lattice_points`",
     "p = Polytope([(0,) * 18, (1,) * 18])", "p.lattice_points"),
    ("Birkhoff B3 (dim 4 in R^9), `is_normal`",
     "p = Polytope([tuple(int(s[i] == j) for i in range(3) for j in range(3))"
     " for s in permutations(range(3))])", "is_normal(p)"),
    ("`verify_family`, 451 sampled R^4 polytopes, workers=1",
     "fam = random_01_polytopes(4, 451, seed=7)", "verify_family(fam, workers=1)"),
    ("`verify_family`, 451 sampled R^4 polytopes, workers=2",
     "fam = random_01_polytopes(4, 451, seed=7)", "verify_family(fam, workers=2)"),
    ("`cube(6)` constructor", "", "cube(6)"),
    ("`1000·Δ3`, `facets`", "p = dilate(simplex(3), 1000)", "p.facets"),
]


def child_code(setup: str, stmt: str) -> str:
    return (f"{PRELUDE}\n{setup}\nt = time.perf_counter()\n{stmt}\n"
            f"print(time.perf_counter() - t)\n")


def limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def probe(setup: str, stmt: str) -> str:
    try:
        proc = subprocess.run(
            [sys.executable, "-c", child_code(setup, stmt)],
            capture_output=True, text=True, timeout=TIMEOUT_S, preexec_fn=limit_memory,
            env={"PYTHONPATH": str(SRC)})
    except subprocess.TimeoutExpired:
        return f"timeout: not finished after {TIMEOUT_S} s"
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or ["?"])[-1]
        return f"failed (exit {proc.returncode}): {last}"
    return f"{float(proc.stdout.split()[-1]):.3f} s"


def main() -> int:
    print("| workload | result |")
    print("| --- | --- |")
    for label, setup, stmt in ENTRIES:
        print(f"| {label} | {probe(setup, stmt)} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
