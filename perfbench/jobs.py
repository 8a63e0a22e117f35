"""Reference figure: news-batch ``dates`` and ``places`` with ``--jobs 2`` against ``--jobs 1``.

    python3 perfbench/jobs.py [--seed 1] [--rounds 6]

Not a workload: it runs the news-batch calls of one seed with each setting,
alternating which goes first, and prints the least total time of each.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import tempfile
import time
from pathlib import Path

import gen
import run
from placetime import cli


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=6)
    args = parser.parse_args()
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        workload = run.NewsBatch(Path(tmp), args.seed, False)
        workload.build(gen.Generator())
        calls = [c for c in workload.calls if c.step in ("dates", "places")]
        best = {}
        for r in range(args.rounds):
            for jobs in ((1, 2) if r % 2 == 0 else (2, 1)):
                for i, call in enumerate(calls):
                    gc.collect()
                    start = time.perf_counter()
                    with contextlib.redirect_stdout(io.StringIO()):
                        if cli.main(call.argv + ["--jobs", str(jobs)]) != 0:
                            raise SystemExit("call failed: %s" % call.argv[:2])
                    elapsed = time.perf_counter() - start
                    best[jobs, i] = min(best.get((jobs, i), elapsed), elapsed)
        for step in ("dates", "places"):
            kb = sum(c.nbytes for c in calls if c.step == step) / run.KB
            for jobs in (1, 2):
                seconds = sum(t for (j, i), t in best.items()
                              if j == jobs and calls[i].step == step)
                print("%s --jobs %d: %.3f s, %.0f KB/s" % (step, jobs, seconds, kb / seconds))


if __name__ == "__main__":
    main()
