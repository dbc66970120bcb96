"""The benchmark's workloads: inputs, operations and output checks.

Each workload is a sequence of ``polyclass`` command lines, run in
process through ``polyclass.cli.main``.  Operation ``i`` is
``workload.argv(i)``; its stdout must match the pinned sha256 in
``reference.json`` for ``workload.key(i)`` when the run's seed is pinned
there, and otherwise passes the workload's structural check.  Inputs are
made from the seed by this module alone, never by the package, so
set-up time does not move when the package changes.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations, permutations, product
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

WIDE_DIM = 5
# Vertex counts 12..20 in the order each round runs them: every prefix
# of a round is centred on 16, so the operations a run adds after its
# first pass over the pool keep the mix of sizes.
WIDE_VERTEX_COUNTS = (16, 12, 20, 14, 18, 13, 19, 15, 17)
# One pass over 7 rounds takes about 28 s on the host the benchmark was
# defined on, so a 35 s run measures the whole pool.  Fewer rounds,
# cycled more often, would let the few members near the median decide
# latency_p50_ms: at a fixed vertex count analyze time varies by about
# 20% between polytopes.
WIDE_ROUNDS = 7
VERIFY_SAMPLES = 100
# Seed of verify call i in a run with seed s; distinct across runs.
VERIFY_SEED_STRIDE = 1_000_000


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def affine_rank(points: list[tuple[int, ...]]) -> int:
    """Dimension of the affine hull of ``points``, by fraction-free elimination."""
    rows = [[a - b for a, b in zip(p, points[0])] for p in points[1:]]
    rank = 0
    for col in range(len(points[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            if f:
                rows[r] = [top[col] * x - f * y for x, y in zip(rows[r], top)]
        rank += 1
    return rank


# -- analyze-deep corpus: vertex lists built here, from the definitions ----

def _unit(n: int, *idx: int, k: int = 1) -> tuple[int, ...]:
    v = [0] * n
    for i in idx:
        v[i] += k
    return tuple(v)


def _simplex(n: int, k: int = 1) -> list[tuple[int, ...]]:
    return [(0,) * n] + [_unit(n, i, k=k) for i in range(n)]


def _edge(n: int, edges: list[tuple[int, int]]) -> list[tuple[int, ...]]:
    return [_unit(n, a, b) for a, b in edges]


def deep_corpus() -> dict[str, list[tuple[int, ...]]]:
    """Polytopes of low dimension in their ambient space, or with many lattice points.

    The member count is odd, so the median latency falls inside one
    member's block of samples, not between the blocks of two members.
    """
    k5 = list(combinations(range(5), 2))
    k6 = list(combinations(range(6), 2))
    # Two triangles joined by a path of length 2 (a non-normal edge polytope).
    bridge = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6), (5, 6)]
    tri = _simplex(2)
    return {
        "birkhoff-b3": [tuple(int(perm[i] == j) for i in range(3) for j in range(3))
                        for perm in permutations(range(3))],
        "edge-k5": _edge(5, k5),
        "edge-k6": _edge(6, k6),
        "edge-bridge": _edge(7, bridge),
        "edge-c5": _edge(5, [(i, (i + 1) % 5) for i in range(5)]),
        "segment-r16": [(0,) * 16, (1,) * 16],
        "pyramid-d2xd2": [u + v + (0,) for u in tri for v in tri] + [(0,) * 4 + (1,)],
        "simplex4-x3": _simplex(4, k=3),
        "simplex3-x8": _simplex(3, k=8),
        "cross4-x2": [_unit(4, i, k=s) for i in range(4) for s in (2, -2)],
        "cube4-x2": list(product((0, 2), repeat=4)),
    }


def wide_pool(seed: int) -> list[list[tuple[int, ...]]]:
    """Full-dimensional (0,1)-polytopes in R^5 with 12..20 vertices, drawn from ``seed``.

    Round r holds one polytope of each vertex count, in the order of
    WIDE_VERTEX_COUNTS, so every prefix of the pool has a balanced mix.
    """
    rng = random.Random(seed)
    corners = list(product((0, 1), repeat=WIDE_DIM))
    pool = []
    for _ in range(WIDE_ROUNDS):
        for count in WIDE_VERTEX_COUNTS:
            while True:
                verts = sorted(rng.sample(corners, count))
                if affine_rank(verts) == WIDE_DIM:
                    break
            pool.append(verts)
    return pool


# -- output checks used when the seed is not pinned ------------------------

def check_wide_report(text: str, verts: list[tuple[int, ...]]) -> bool:
    """Structural check of one ``analyze --json`` report of a (0,1)-polytope in R^5.

    Every facet must be a supporting hyperplane, zero exactly on its
    listed vertices, which span a hyperplane, and every ridge must lie
    in exactly two of them; values, class matrix and group rank must
    agree with the facet list.  A facet left out entirely passes these
    checks; only the pinned seeds catch that.
    """
    doc = json.loads(text)
    vlist = [list(v) for v in sorted(verts)]
    if (doc["dim"], doc["ambient_dim"]) != (WIDE_DIM, WIDE_DIM) or doc["trivial"]:
        return False
    # A (0,1)-polytope has no lattice points besides its vertices.
    if doc["vertices"] != vlist or doc["lattice_points"] != vlist:
        return False
    facets = doc["facets"]
    seen = set()
    on_count = [0] * len(vlist)
    for f in facets:
        raw = [sum(a * x for a, x in zip(f["normal"], v)) + f["offset"] for v in vlist]
        zeros = [i for i, val in enumerate(raw) if val == 0]
        if min(raw) < 0 or zeros != f["vertex_indices"] or tuple(zeros) in seen:
            return False
        if affine_rank([tuple(vlist[i]) for i in zeros]) != WIDE_DIM - 1:
            return False
        if f["values"] != [val // f["divisor"] for val in raw]:
            return False
        seen.add(tuple(zeros))
        for i in zeros:
            on_count[i] += 1
    if min(on_count) < WIDE_DIM:
        return False
    # Every ridge found as the intersection of two facets lies in exactly two.
    ridges: dict[frozenset[int], int] = {}
    sets = [frozenset(f["vertex_indices"]) for f in facets]
    for a, b in combinations(range(len(sets)), 2):
        common = sets[a] & sets[b]
        if len(common) >= WIDE_DIM - 1 and common not in ridges:
            if affine_rank([tuple(vlist[i]) for i in sorted(common)]) == WIDE_DIM - 2:
                ridges[common] = sum(common <= s for s in sets)
    if not ridges or any(n != 2 for n in ridges.values()):
        return False
    group = doc["class_group"]
    return (doc["class_matrix"] == [f["values"] for f in facets]
            and group["free_rank"] == len(facets) - WIDE_DIM - 1
            and len(group["invariant_factors"]) == WIDE_DIM + 1)


def check_verify_table(text: str) -> bool:
    """The ``verify`` table must show every check passing on every sample."""
    lines = text.splitlines()
    if lines[0] != f"verified {VERIFY_SAMPLES} polytope(s)" or lines[-1] != "result: OK":
        return False
    rows = lines[2:-1]
    if len(rows) != 6:
        return False
    for row in rows:
        passed, failed, skipped = (int(x) for x in row.split()[1:])
        if failed or passed + skipped != VERIFY_SAMPLES:
            return False
    return True


# -- workloads --------------------------------------------------------------

class Workload:
    """One workload: ``argv(i)`` is operation i, ``key(i)`` its reference key."""

    name: str
    polytopes_per_op: int = 1
    pass_ops: int = 1  # operations in one pass over the inputs
    trace_ops: int  # operations in one traced pass

    def __init__(self, seed: int, workdir: Path, reference: dict):
        self.seed = seed
        self.workdir = workdir
        self.pinned: dict[str, str] | None = reference.get(self.reference_seed())

    def reference_seed(self) -> str:
        return str(self.seed)

    def argv(self, i: int) -> list[str]:
        raise NotImplementedError

    def key(self, i: int) -> str:
        raise NotImplementedError

    def check(self, key: str, text: str) -> bool:
        """Output check for unpinned seeds."""
        raise NotImplementedError

    def expected(self, key: str) -> str | None:
        return None if self.pinned is None else self.pinned.get(key)


class _AnalyzeFiles(Workload):
    """``analyze --json`` over polytope files written at set-up, in a fixed cycle."""

    polytopes: list[tuple[str, list[tuple[int, ...]]]]

    def write_inputs(self) -> None:
        self.paths = []
        for name, verts in self.polytopes:
            path = self.workdir / f"{name}.json"
            path.write_text(json.dumps({"name": name, "vertices": [list(v) for v in verts]}))
            self.paths.append(str(path))
        self.pass_ops = len(self.paths)

    def argv(self, i: int) -> list[str]:
        return ["analyze", self.paths[i % len(self.paths)], "--json"]

    def key(self, i: int) -> str:
        return self.polytopes[i % len(self.polytopes)][0]


class AnalyzeWide(_AnalyzeFiles):
    name = "analyze-wide"
    trace_ops = len(WIDE_VERTEX_COUNTS)

    def __init__(self, seed: int, workdir: Path, reference: dict):
        super().__init__(seed, workdir, reference)
        self.polytopes = [(f"wide-{seed}-{i}", verts) for i, verts in enumerate(wide_pool(seed))]
        self.write_inputs()

    def check(self, key: str, text: str) -> bool:
        return check_wide_report(text, dict(self.polytopes)[key])


class AnalyzeDeep(_AnalyzeFiles):
    name = "analyze-deep"

    def __init__(self, seed: int, workdir: Path, reference: dict):
        super().__init__(seed, workdir, reference)
        self.polytopes = list(deep_corpus().items())
        self.trace_ops = len(self.polytopes)
        self.write_inputs()

    def reference_seed(self) -> str:
        return "any"  # the corpus is fixed; the seed is ignored

    def check(self, key: str, text: str) -> bool:
        return False  # every output is pinned


class VerifyR4(Workload):
    name = "verify-r4"
    polytopes_per_op = VERIFY_SAMPLES
    trace_ops = 2

    def argv(self, i: int) -> list[str]:
        return ["verify", "--dim", "4", "--samples", str(VERIFY_SAMPLES),
                "--seed", str(self.seed * VERIFY_SEED_STRIDE + i)]

    def key(self, i: int) -> str:
        return str(i)

    def check(self, key: str, text: str) -> bool:
        return check_verify_table(text)


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (AnalyzeWide, AnalyzeDeep, VerifyR4)}


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def make(name: str, seed: int, workdir: Path) -> Workload:
    """Set up workload ``name``: draw its inputs, write them, load the references."""
    return WORKLOADS[name](seed, workdir, load_reference().get(name, {}))

