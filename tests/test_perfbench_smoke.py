"""The benchmark harness runs every workload at its smallest size and checks its outputs.

``perfbench/smoke.py`` exits 0 even when a run's outputs are wrong, so the
printed ``correct`` and ``failed`` fields are read here.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_runs_correct_on_every_workload():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "smoke.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    for workload in workloads:
        for trace in (0, 1):
            (line,) = [x for x in lines if x.startswith("%s --trace %d: " % (workload, trace))]
            assert ": ok (" in line and " 0 failed, correct True)" in line, line
