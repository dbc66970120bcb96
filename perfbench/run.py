"""Benchmark of polyclass: ``python3 perfbench/run.py --workload NAME [--seed N]
[--seconds S] [--trace 0|1]``, run from the repository root.

Runs the workload's ``polyclass`` command lines in process through
``polyclass.cli.main``, one after another (a closed loop with a single
client), imported from ``src/`` of the checkout this file sits in.
``POLYCLASS_THREADS`` is removed from the environment first, so every
run measures the serial configuration.

--trace 0 (timed run): sets up SETUP_REPEATS times (here and in child
processes) and reports the median as ``setup_s``, runs one untimed
warm-up operation, then runs operations for ``--seconds``, but at least
one whole pass over the workload's inputs, and reports the end-to-end
metrics.  Set-up times, operation latencies and the throughput computed
from their sum are scaled to a nominal host speed with a probe loop
timed around each of them (see PROBE_NOMINAL_S); the unscaled figures
are printed above the result line.

--trace 1 (traced run): alternates an untraced and a traced pass over
the same fixed operations while another pair fits in ``--seconds``, and
reports per-layer self times and work counters per polytope, plus the
tracing overhead (traced wall over untraced wall, minus one).

Every operation's output is checked (see ``workloads.py``).  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 21  # this process plus twenty children
TAIL_BEYOND = 10   # samples required beyond the tail percentile
# Host-speed probe: a fixed pure-Python loop timed between operations.
# On a shared host the clock rate of every instruction drifts by +-20%
# within seconds; operation latencies track the probe closely
# (correlation 0.85-0.94), so each latency and set-up time is scaled
# by PROBE_NOMINAL_S / (mean of the probes before and after it).
# PROBE_NOMINAL_S is the probe's median on the 2-CPU CPython 3.11.7
# container the benchmark was defined on.
PROBE_LOOPS = 15000
PROBE_NOMINAL_S = 0.00146
SETUP_PROBES = 5

# Span names whose self time has a per-layer metric of its own; the
# self time of every other span is summed into "other_s".  The spans
# left out never run on some workload (report, peel and Segre on
# verify-r4, sampling on the analyze workloads), so their self time
# would read exactly 0.0 on every run of it, and a time that reads the
# same on every run is not a measurement.  Counters are exact counts,
# constant on a fixed input by design, so they may read 0 where a
# layer does no work (report.json_bytes on verify-r4).
SPAN_METRICS = {
    "cli": "cli.self_s",
    "polytope.construct": "polytope.construct_s",
    "polytope.hull": "polytope.hull_s",
    "polytope.points": "polytope.points_s",
    "polytope.facet_values": "polytope.facet_values_s",
    "intlinalg.hnf": "intlinalg.hnf_s",
    "intlinalg.snf": "intlinalg.snf_s",
    "intlinalg.lattice_test": "intlinalg.lattice_s",
    "classgroup.matrix": "classgroup.matrix_s",
    "classgroup.group": "classgroup.group_s",
    "analysis.normal": "analysis.normal_s",
    "analysis.chain": "analysis.chain_s",
    "analysis.checks": "analysis.checks_s",
}
COUNTERS = (
    "polytope.hull_subsets", "polytope.facets_found", "polytope.box_points",
    "polytope.points_kept", "analysis.normal_calls", "analysis.normal_box_points",
    "classgroup.group_calls", "classgroup.matrix_calls", "classgroup.matrix_cells",
    "intlinalg.snf_cells", "intlinalg.lattice_tests", "report.json_bytes",
)


def set_up(workload: str, seed: int, workdir: Path):
    """Import the package, draw and write the inputs, load the references.

    Returns (cli module, workload, seconds taken).
    """
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from polyclass import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"polyclass was imported from {cli.__file__}, not from {SRC}")
    wl = workloads.make(workload, seed, workdir)
    return cli, wl, time.perf_counter() - start


def timed_set_up(workload: str, seed: int, workdir: Path):
    """``set_up`` between probes: (cli module, workload, raw s, scaled s).

    A set-up is some 30 times longer than one probe, so it is bracketed
    by the median of SETUP_PROBES probes on each side.
    """
    before = statistics.median(probe() for _ in range(SETUP_PROBES))
    cli, wl, raw = set_up(workload, seed, workdir)
    after = statistics.median(probe() for _ in range(SETUP_PROBES))
    return cli, wl, raw, scaled(raw, before, after)


def setup_in_child(workload: str, seed: int) -> tuple[float, float]:
    """(raw s, scaled s) of one set-up in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    raw, scaled_s = proc.stdout.split()[-2:]
    return float(raw), float(scaled_s)


def run_op(cli, argv: list[str]) -> tuple[float, object, str]:
    """One CLI call: (seconds, exit code or exception text, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except (Exception, SystemExit) as e:  # a raising operation counts as failed
            rc = repr(e)
        end = time.perf_counter()
    return end - start, rc, out.getvalue()


class Checker:
    """Decides which operations failed: nonzero exit, exception, or wrong output.

    Unpinned outputs get the workload's structural check on their first
    occurrence, right away, so no output text is kept; a repeat must
    reproduce the first occurrence's bytes.
    """

    def __init__(self, wl: workloads.Workload) -> None:
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.seen: dict[str, str | None] = {}  # unpinned key -> sha, None if bad
        self.problems: list[str] = []

    def add(self, i: int, rc: object, text: str) -> None:
        self.attempted += 1
        key = self.wl.key(i)
        if rc != 0:
            self._fail(f"op {i} ({key}): exit {rc}")
            return
        digest = workloads.sha256(text)
        expected = self.wl.expected(key)
        if expected is None and key not in self.seen:
            self.seen[key] = expected = digest if self.wl.check(key, text) else None
        elif expected is None:
            expected = self.seen[key]
        if digest != expected:
            self._fail(f"op {i} ({key}): output differs from the reference or fails its check")

    def _fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(msg)


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, percentile)."""
    s = sorted(samples)
    idx = len(s) - TAIL_BEYOND - 1
    if idx < 0:  # too few samples for any such percentile: report the maximum
        idx = len(s) - 1
    return s[idx], 100.0 * (idx + 1) / len(s)


def probe() -> float:
    """Seconds the host takes for the fixed probe loop right now."""
    start = time.perf_counter()
    x = 0
    for i in range(PROBE_LOOPS):
        x += i * i % 7
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the nominal host speed, from the probes taken around it."""
    return seconds * 2 * PROBE_NOMINAL_S / (before + after)


def timed_run(cli, wl, seconds: float, checker: Checker) -> dict[str, float]:
    """Operations for ``seconds``, and at least one whole pass over the inputs.

    The pass guarantees that a faster or slower program is measured on
    every input its parent was measured on.
    """
    run_op(cli, wl.argv(0))  # warm-up, not counted
    raw, norm = [], []
    start = time.perf_counter()
    before = probe()
    i = 0
    while i < wl.pass_ops or time.perf_counter() - start < seconds:
        dt, rc, text = run_op(cli, wl.argv(i))
        after = probe()
        checker.add(i, rc, text)
        raw.append(dt)
        norm.append(scaled(dt, before, after))
        before = after
        i += 1
    ms = [x * 1000 for x in norm]
    tail_ms, pct = tail(ms)
    raw_ms = [x * 1000 for x in raw]
    beyond = round(len(ms) * (1 - pct / 100))
    print(f"{i} operations in {time.perf_counter() - start:.2f} s; latency_tail_ms is "
          f"p{pct:.1f} of {len(ms)} samples ({beyond} beyond it)")
    print(f"unscaled: {i * wl.polytopes_per_op / sum(raw):.4f} polytopes/s, "
          f"p50 {statistics.median(raw_ms):.3f} ms, tail {tail(raw_ms)[0]:.3f} ms")
    return {
        "polytopes_per_s": i * wl.polytopes_per_op / sum(norm),
        "latency_p50_ms": statistics.median(ms),
        "latency_tail_ms": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(cli, wl, seconds: float, checker: Checker) -> dict[str, float]:
    from tracing import Tracer
    tracer = Tracer()
    untraced = 0.0
    passes = 0
    start = time.perf_counter()
    pair = 0.0  # duration of the last untraced + traced pair
    while passes == 0 or time.perf_counter() - start + pair <= seconds:
        pair_start = time.perf_counter()
        order = (False, True) if passes % 2 == 0 else (True, False)
        for traced in order:
            ctx = tracer.install() if traced else contextlib.nullcontext()
            with ctx:
                for i in range(wl.trace_ops):
                    dt, rc, text = run_op(cli, wl.argv(i))
                    checker.add(i, rc, text)
                    if not traced:
                        untraced += dt
        passes += 1
        pair = time.perf_counter() - pair_start
    n = passes * wl.trace_ops * wl.polytopes_per_op
    out: dict[str, float] = {metric: 0.0 for metric in SPAN_METRICS.values()}
    out["other_s"] = 0.0
    print(f"{passes} traced passes of {wl.trace_ops} operations; per polytope:")
    for name in sorted(tracer.self_s):
        per = tracer.self_s[name] / n
        out[SPAN_METRICS.get(name, "other_s")] += per
        print(f"  {name:<24} self {per * 1000:10.4f} ms  calls {tracer.calls[name] / n:10.3f}")
    for name in COUNTERS:
        out[name] = tracer.counts[name] / n
    out["polytope.hull_yield"] = _ratio(out["polytope.facets_found"], out["polytope.hull_subsets"])
    out["polytope.points_yield"] = _ratio(out["polytope.points_kept"], out["polytope.box_points"])
    out["trace_overhead_frac"] = tracer.wall / untraced - 1
    self_sum = sum(v for k, v in out.items() if k.endswith("_s"))
    print(f"traced wall {tracer.wall / n * 1000:.4f} ms/polytope, sum of self times "
          f"{self_sum * 1000:.4f} ms, untraced wall {untraced / n * 1000:.4f} ms")
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    os.environ.pop("POLYCLASS_THREADS", None)

    if not (SRC / "polyclass" / "__init__.py").is_file():
        print(f"error: no polyclass sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        cli, wl, setup_raw, setup_s = timed_set_up(args.workload, args.seed, workdir)
        if args.setup_only:
            print(setup_raw, setup_s)
            return 0
        checker = Checker(wl)
        if args.trace:
            values = traced_run(cli, wl, args.seconds, checker)
            wanted = spec["per_layer"]
        else:
            samples = [(setup_raw, setup_s)] + [setup_in_child(args.workload, args.seed)
                                                for _ in range(SETUP_REPEATS - 1)]
            print("setup_s samples (scaled): " + " ".join(f"{s:.4f}" for _, s in samples))
            print(f"setup_s unscaled median: {statistics.median(r for r, _ in samples):.4f}")
            values = timed_run(cli, wl, args.seconds, checker)
            values["setup_s"] = statistics.median(s for _, s in samples)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for msg in checker.problems:
        print(f"failed: {msg}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": checker.failed == 0 and checker.attempted > 0,
                      "attempted": checker.attempted, "failed": checker.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
