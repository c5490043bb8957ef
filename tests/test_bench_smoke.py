"""The benchmark's own self-check, `python3 perfbench/run.py --smoke`, run
from the root of the checkout as the benchmark runs it.

It runs every workload on a few instances in both trace modes, so the
tracer wraps every spanned name and its traced outputs must equal the
untraced ones.  It checks that each metric of BENCHMARK.json prints with
its unit and that the verifier rejects a solution with one edge removed.
Its last line of standard output is `smoke: ok`.  The verifier needs
networkx.
"""

import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("networkx")

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_check_passes():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "smoke: ok", proc.stdout[-2000:]
