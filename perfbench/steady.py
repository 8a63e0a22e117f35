"""Steadiness check: two sets of runs of the same code, compared per metric.

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10] [--seconds S]

Each set runs ``perfbench/run.py`` once per seed (set A on seeds 1..N, set B
on seeds 101..100+N).  For every workload and end-to-end metric it prints
each set's median and quartile spread (interquartile range over median) and
whether set B's median is within the metric's bound of set A's, taking the
metric's better direction into account.  A metric other than ``setup_s``
whose spread exceeds its bound also fails.  The two sets must fail the same
share of operations.  Exits 1 when anything fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_set(workload, seeds, seconds):
    results = []
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            raise SystemExit("run failed (%s seed %d):\n%s" % (workload, seed, proc.stderr))
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        print("  %s seed %d done" % (workload, seed), file=sys.stderr)
    return results


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args(argv)

    ok = True
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        a = run_set(workload, range(1, args.runs + 1), args.seconds)
        b = run_set(workload, range(101, 101 + args.runs), args.seconds)
        share = lambda rs: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)  # noqa: E731
        print("%s: failed share A %.6f B %.6f, all correct %s"
              % (workload, share(a), share(b), all(r["correct"] for r in a + b)))
        ok = ok and share(a) == share(b)
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            va = [r["metrics"][name]["value"] for r in a]
            vb = [r["metrics"][name]["value"] for r in b]
            ma, sa, mb, sb = statistics.median(va), spread(va), statistics.median(vb), spread(vb)
            worse = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
            good = (name == "setup_s" or max(sa, sb) <= bound) and worse <= bound
            print("  %-22s A median %12.6g spread %.3f | B median %12.6g spread %.3f"
                  " | B worse by %+.3f (bound %.2f) %s"
                  % (name, ma, sa, mb, sb, worse, bound, "ok" if good else "FAIL"))
            for label, values in (("A", va), ("B", vb)):
                print("      %s: %s" % (label, " ".join("%.4g" % v for v in values)))
            ok = ok and good
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
