"""Tests of the benchmark itself, on the smoke scope (rank 3, degree 4).

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import COUNTERS, TARGETS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bench(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scope", "smoke", *args],
        capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, lines, json.loads(lines[-1]) if lines else None


def test_every_end_to_end_metric_prints_with_its_unit():
    proc, lines, last = _bench("--workload", "all", "--seconds", "0", "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    assert last["correct"] and last["failed"] == 0 and last["attempted"] == 8
    for w in WORKLOADS:
        printed = {ln.split()[1]: ln.split()[2:4] for ln in lines if ln.startswith(w.name + " ")}
        expected = {"wall_s": "s", "wall_raw_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
                    "fail_ratio": "ratio"}
        expected.update({f"{claim}_s": "s" for claim, _ in w.claims["smoke"]})
        assert {name: unit for name, (_, unit) in printed.items()} == expected
        assert float(printed["fail_ratio"][0]) == 0
        for name in run.E2E_JSON:
            assert last["metrics"][f"{w.name}.{name}"]["value"] > 0
    assert lines[0].startswith("env ")
    env = json.loads(lines[0][4:])
    assert {"python", "nproc", "git_sha", "platform", "seed"} <= set(env)


def test_traced_counts_repeat_exactly_and_cover_every_layer():
    runs = []
    for seed in (1, 2):
        proc, _, last = _bench("--workload", "all", "--seconds", "0", "--seed", str(seed),
                               "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        assert last["correct"] and last["failed"] == 0
        runs.append(last["metrics"])
    exact = [k for k in runs[0] if not k.endswith((".self_s", "overhead_s"))]
    assert {k: runs[0][k] for k in exact} == {k: runs[1][k] for k in exact}
    for w in WORKLOADS:
        for name in TARGETS:
            assert f"{w.name}.{name}.calls" in runs[0]
            assert f"{w.name}.{name}.self_s" in runs[0]
        for name in COUNTERS:
            assert f"{w.name}.{name}" in runs[0]
        for name in w.expect_called:
            assert runs[0][f"{w.name}.{name}.calls"]["value"] > 0


def test_a_report_that_differs_from_its_golden_counts_as_failed():
    goldens = json.loads(run.GOLDENS.read_text(encoding="utf-8"))
    goldens["smoke"]["chord-expansion"]["coeff012"]["sha256"] = "0" * 64
    run.OUT_DIR.mkdir(exist_ok=True)
    runner = run.Runner("smoke", goldens)
    try:
        sample = runner.run("chord-expansion", trace=False)
    finally:
        runner.close()
    assert sample["failed"] == ["coeff012"]
    assert any("differs from the golden" in e for e in runner.errors)


def test_a_layer_without_calls_fails_the_traced_run():
    errors = []
    layers = {f"{n}.calls": 1 for n in TARGETS}
    layers.update({f"{n}.self_s": 0.1 for n in TARGETS})
    layers["polygon.enumerate_t_paths.calls"] = 0
    samples = [
        {"traced": True, "complete": True, "layers": layers, "wall": 1.0, "round": 0},
        {"traced": False, "complete": True, "wall": 0.5, "round": 0},
    ]
    run._per_layer("chord-expansion", samples, errors)
    assert any("polygon.enumerate_t_paths" in e for e in errors)


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "free-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
