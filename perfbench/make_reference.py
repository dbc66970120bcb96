"""Regenerate reference.json: sha256 of every pinned operation's stdout.

    python3 perfbench/make_reference.py

Pins seed 0 (the default) and seed 1 (held out) of the seeded workloads,
every analyze-wide pool member and the first PIN_VERIFY_CALLS verify
calls, plus the whole fixed analyze-deep corpus.  Each output must also
pass the structural check that runs on unpinned seeds, so the check is
exercised on known-good data.  Run it only on a commit whose outputs are
trusted: the benchmark counts every later difference as a failure.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads

PINNED_SEEDS = (0, 1)
PIN_VERIFY_CALLS = 100


def pin(name: str, seed: int, count: int | None) -> dict[str, str]:
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        cli, wl, _ = run.set_up(name, seed, workdir)
        wl.pinned = None
        n = count if count is not None else len(wl.polytopes)
        out = {}
        for i in range(n):
            _, rc, text = run.run_op(cli, wl.argv(i))
            key = wl.key(i)
            if rc != 0:
                raise SystemExit(f"{name} seed {seed} op {i}: exit {rc}")
            if name != "analyze-deep" and not wl.check(key, text):
                raise SystemExit(f"{name} seed {seed} op {i}: structural check failed")
            out[key] = workloads.sha256(text)
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    ref = {
        "analyze-wide": {str(s): pin("analyze-wide", s, None) for s in PINNED_SEEDS},
        "analyze-deep": {"any": pin("analyze-deep", 0, None)},
        "verify-r4": {str(s): pin("verify-r4", s, PIN_VERIFY_CALLS) for s in PINNED_SEEDS},
    }
    workloads.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
