"""The benchmark's traced gate, run with the tests.

`perfbench/run.py --trace 1` compares every report with the benchmark's
goldens, requires calls and counters to repeat exactly across traced runs,
and requires each function a workload exists to exercise to record calls.
The test suite collects only `tests/`, so a change that broke that gate
would pass the tests unseen; this runs the gate's smoke scope (rank 3,
degree 4, every workload once) in a child process.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def test_traced_smoke_benchmark_is_correct():
    args = ["--workload", "all", "--scope", "smoke", "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(
        [sys.executable, str(RUN), *args], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
