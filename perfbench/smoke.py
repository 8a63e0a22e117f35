"""Smoke run: every workload at its smallest size, untraced and traced.

    python3 perfbench/smoke.py

Checks only the shape of each result: the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted`` is a
positive whole number; the metrics are exactly the end-to-end metrics of
BENCHMARK.json (``--trace 0``) or its per-layer metrics (``--trace 1``), each
with its unit.  Timings are not judged.  Exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "0", "--trace", str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            where = "%s --trace %d" % (workload, trace)
            if proc.returncode != 0:
                sys.exit("%s: exit %d\n%s" % (where, proc.returncode, proc.stderr))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                sys.exit("%s: keys %s" % (where, sorted(result)))
            if got != want:
                sys.exit("%s: metrics differ from BENCHMARK.json: %s"
                         % (where, sorted(set(got.items()) ^ set(want.items()))))
            if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
                    and isinstance(result["failed"], int) and result["failed"] >= 0):
                sys.exit("%s: bad operation counts" % where)
            if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                sys.exit("%s: a metric value is not a number" % where)
            print("%s: ok (%d attempted, %d failed, correct %s)"
                  % (where, result["attempted"], result["failed"], result["correct"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
