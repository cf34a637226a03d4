"""The benchmark's traced gate, run with the tests.

`perfbench/run.py --trace 1` compares every report with the benchmark's
goldens, requires calls and counters to repeat exactly across traced runs,
and requires each function a workload exists to exercise to record calls.
The test suite collects only `tests/`, so a change that broke that gate
would pass the tests unseen; this runs the gate's smoke scope (rank 3,
degree 4, every workload once) in a child process.

The tracer sees the log-concavity scans only through poly.is_log_concave,
so the traced monomial-products run must count every scan its three
claims make; a claim that scanned around it would fall short.
"""

import json
import subprocess
import sys
from pathlib import Path

from cluster_logcc import run_claim

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"

# Scans at the smoke scope: one per monomial of conj-an (rank 3, degree 4)
# and of a2-monomials (degree 4), one per chart table of conj1-a2 (degree 4).
SMOKE_SCANS = {"conj-an": 218, "a2-monomials": 75, "conj1-a2": 370}


def test_traced_smoke_benchmark_is_correct():
    args = ["--workload", "all", "--scope", "smoke", "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(
        [sys.executable, str(RUN), *args], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    scans = result["metrics"]["monomial-products.poly.is_log_concave.calls"]["value"]
    assert scans == sum(SMOKE_SCANS.values())
    assert run_claim("conj-an", rank=3, deg=4).stats["num_monomials"] == SMOKE_SCANS["conj-an"]
    assert run_claim("a2-monomials", deg=4).stats["num_monomials"] == SMOKE_SCANS["a2-monomials"]
