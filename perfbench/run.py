"""Claim-level benchmark of `cluster-logcc verify`.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S]
                             [--trace 0|1] [--scope full|smoke]

Run from anywhere; the package is imported from `src/` next to this
directory, so the benchmark measures the source tree it sits in.

Each run of a workload is a fresh interpreter (`child.py`) that calls
`cluster_logcc.cli.main(["verify", ...])` once per claim, in order, writing
each report to a file.  Runs are strictly sequential.  Every report's sha256
and exit code are compared with `goldens.json`, recorded from the reports of
the commit that introduced the benchmark; a mismatch, a crash or an
exception counts as a failed invocation.  Before each untraced run, short
set-up probes start an interpreter that only imports the package; their
samples, and those of the workload's own runs, belong to that workload.
The seed only decides how probes, workloads, and traced and untraced runs
interleave; the claims and scopes are fixed.  Rounds of runs repeat for about `--seconds` (the
last round starts only if it should end within half a round of the limit),
and every timing is a median over the runs.

The host is shared: for tens of seconds at a time it can give this process
a third less CPU, which moves the median of raw wall times by more than
any bound worth setting.  So the benchmark and its children are pinned to
one CPU, a fixed pure-Python kernel (`calibrate`, the benchmark's own code,
so no change to the package moves it) runs right before and right after
every run, and each time is scaled by CAL_REF_S over the mean of the two
kernel times around it.  A timing is therefore the time the run would take
on a host where the kernel takes CAL_REF_S; the raw median wall time is
printed next to it as wall_raw_s.

--trace 0 reports the end-to-end metrics:
  wall_s       process start to exit of one workload run, scaled as above
  setup_s      interpreter start until the package is imported, scaled
  peak_rss_mb  peak resident memory of one workload run
and, on the lines before the final JSON, wall_raw_s, each claim's scaled
time as <claim>_s (argument parsing, checking and JSON emission) and
fail_ratio, the failed share of the claim invocations attempted.

--trace 1 runs rounds of one traced and one untraced run, at least two
rounds (so on a slow workload a traced invocation can last longer than
`--seconds`), and reports the per-layer metrics: `.calls` and `.self_s` of
every wrapped function (see tracer.py), the work counters, and
trace.overhead_s, the median over rounds of traced minus untraced scaled
wall time.  Calls and counters must repeat exactly across traced runs, and
every function the workload is meant to exercise must record calls.  Each
traced run's spans are written to .perfbench-out/trace-<workload>.tsv.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 0 when
every check passed, 1 when one failed and 2 on a usage error or when the
package source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from workloads import BY_NAME, SCOPES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
GOLDENS = HERE / "goldens.json"

MIN_SETUP_SAMPLES = 15
CHILD_TIMEOUT_S = 170
E2E_JSON = ("wall_s", "setup_s", "peak_rss_mb")  # the rest print only
CAL_REF_S = 0.075  # about the kernel's time on a 2-vCPU x86-64 VM, Python 3.11
_CAL_TERMS = {(i, j): 7 * i + j for i in range(10) for j in range(10)}


def calibrate() -> float:
    """Seconds one fixed product of two 100-term dict polynomials takes, x40."""
    started = time.perf_counter()
    for _ in range(40):
        out: Dict[tuple, int] = {}
        for (a, b), u in _CAL_TERMS.items():
            for (c, d), v in _CAL_TERMS.items():
                key = (a + c, b + d)
                out[key] = out.get(key, 0) + u * v
    return time.perf_counter() - started


class Runner:
    """Spawns child interpreters one at a time and collects their samples."""

    def __init__(self, scope: str, goldens: dict) -> None:
        self.scope = scope
        self.goldens = goldens
        self.env = dict(os.environ)
        self.env.pop("CLUSTER_LOGCC_BUDGET", None)  # reports depend on it
        self.work = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
        self.spawned = 0
        self.setup: Dict[str, List[float]] = {}  # workload -> scaled samples
        self.unscaled: List[tuple] = []  # (workload, seconds) since the last kernel
        self.last_cal: Optional[float] = None
        self.calibrations: List[float] = []
        self.errors: List[str] = []

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def calibrate(self) -> float:
        """Runs the kernel; scales the set-up samples taken since the last one."""
        cal = calibrate()
        self.calibrations.append(cal)
        around = cal if self.last_cal is None else (self.last_cal + cal) / 2
        for workload, seconds in self.unscaled:
            self.setup.setdefault(workload, []).append(seconds * CAL_REF_S / around)
        self.unscaled.clear()
        self.last_cal = cal
        return cal

    def _spawn(self, workload: str, extra: List[str]) -> tuple:
        cmd = [sys.executable, str(HERE / "child.py"), str(SRC), *extra]
        started = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return time.monotonic() - started, None, f"timed out after {CHILD_TIMEOUT_S} s"
        wall = time.monotonic() - started
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        except json.JSONDecodeError:
            result = None
        if result is None:
            return wall, None, proc.stderr.strip()[-2000:]
        self.unscaled.append((workload, result["ready"] - started))
        return wall, result, None

    def probe(self, workload: str) -> None:
        _, result, err = self._spawn(workload, ["--setup-only"])
        if result is None:
            self.errors.append(f"set-up probe failed: {err}")

    def run(self, workload: str, trace: bool) -> dict:
        """One workload run; returns its sample with per-claim pass/fail."""
        self.spawned += 1
        report_dir = self.work / f"{self.spawned}-{workload}"
        report_dir.mkdir()
        extra = [
            "--workload", workload, "--scope", self.scope, "--report-dir", str(report_dir)
        ]
        if trace:
            extra += ["--trace-file", str(OUT_DIR / f"trace-{workload}.tsv")]
        claims = BY_NAME[workload].claims[self.scope]
        before = self.calibrate()
        wall, result, err = self._spawn(workload, extra)
        scale = CAL_REF_S / ((before + self.calibrate()) / 2)
        sample = {
            "wall": wall * scale, "wall_raw": wall, "traced": trace, "complete": False,
            "claims": {}, "digests": {},
        }
        if result is None:
            self.errors.append(f"{workload}: run failed: {err}")
            sample["failed"] = [c for c, _ in claims]
            return sample
        sample["complete"] = True
        sample["rss_mb"] = result["rss_kb"] / 1024
        sample["layers"] = result.get("layers")
        failed = []
        for (claim, _), got in zip(claims, result["claims"]):
            sample["claims"][claim] = got["seconds"] * scale
            path = report_dir / f"{claim}.json"
            digest = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
            sample["digests"][claim] = {"sha256": digest, "exit": got["exit"]}
            if got["error"] is not None:
                self.errors.append(f"{workload}/{claim}: {got['error']}")
                failed.append(claim)
            else:
                want = self.goldens[self.scope][workload][claim]
                if sample["digests"][claim] != want:
                    self.errors.append(
                        f"{workload}/{claim}: report or exit code differs from the golden "
                        f"(got {sample['digests'][claim]}, want {want})"
                    )
                    failed.append(claim)
        sample["failed"] = failed
        shutil.rmtree(report_dir, ignore_errors=True)
        return sample


def _summary(values: List[float]) -> tuple:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def _environment(seed: int, scope: str, seconds: float) -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_sha": sha,
        "platform": platform.platform(),
        "seed": seed,
        "scope": scope,
        "seconds": seconds,
        "cal_ref_s": CAL_REF_S,
    }


def _end_to_end(
    workload: str, scope: str, samples: List[dict], setup: List[float]
) -> Dict[str, tuple]:
    """(median, q1, q3, unit, n) for every end-to-end metric of one workload."""
    ok = [s for s in samples if s["complete"]]
    claims = [c for c, _ in BY_NAME[workload].claims[scope]]
    rows: Dict[str, tuple] = {}

    def add(name, unit, values):
        if values:
            rows[name] = (*_summary(values), unit, len(values))

    add("wall_s", "s", [s["wall"] for s in ok])
    add("wall_raw_s", "s", [s["wall_raw"] for s in ok])
    add("setup_s", "s", setup)
    add("peak_rss_mb", "MiB", [s["rss_mb"] for s in ok])
    for claim in claims:
        add(f"{claim}_s", "s", [s["claims"][claim] for s in ok])
    attempted = len(claims) * len(samples)
    failed = sum(len(s["failed"]) for s in samples)
    rows["fail_ratio"] = (failed / attempted,) * 3 + ("ratio", attempted)
    return rows


def _per_layer(workload: str, samples: List[dict], errors: List[str]) -> Dict[str, tuple]:
    """(value, unit) per per-layer metric; appends each failed check to errors."""
    done = [s for s in samples if s["complete"]]
    traced = [s["layers"] for s in done if s["traced"]]
    if not traced:
        errors.append(f"{workload}: no complete traced run")
        return {}
    first = traced[0]
    exact = [k for k in first if not k.endswith(".self_s")]
    for other in traced[1:]:
        differ = [k for k in exact if other[k] != first[k]]
        if differ:
            errors.append(f"{workload}: counts differ between traced runs: {differ}")
    for name in BY_NAME[workload].expect_called:
        if not first[f"{name}.calls"]:
            errors.append(f"{workload}: traced run recorded no calls of {name}")
    rows: Dict[str, tuple] = {}
    for key in first:
        if key.endswith(".self_s"):
            rows[key] = (statistics.median(t[key] for t in traced), "s")
        elif key.endswith("_ratio"):
            rows[key] = (first[key], "ratio")
        else:
            rows[key] = (first[key], "count")
    walls: Dict[int, Dict[bool, float]] = {}
    for s in done:
        walls.setdefault(s["round"], {})[s["traced"]] = s["wall"]
    diffs = [w[True] - w[False] for w in walls.values() if len(w) == 2]
    if diffs:
        rows["trace.overhead_s"] = (statistics.median(diffs), "s")
    else:
        errors.append(f"{workload}: no round with both a traced and an untraced run")
    return rows


def measure(names: List[str], scope: str, seed: int, seconds: float, trace: bool) -> int:
    goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))
    rng = random.Random(seed)
    env = _environment(seed, scope, seconds)
    if hasattr(os, "sched_setaffinity"):  # children inherit the one CPU
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    runner = Runner(scope, goldens)
    samples: Dict[str, List[dict]] = {w: [] for w in names}
    try:
        runner.probe(names[0])  # compiles bytecode; not a sample
        runner.calibrate()
        runner.setup.clear()
        started = time.monotonic()
        rounds = 0
        while True:
            order = list(names)
            rng.shuffle(order)
            for w in order:
                if trace:
                    kinds = [True, False]
                    rng.shuffle(kinds)
                else:
                    for _ in range(rng.randint(1, 3)):
                        runner.probe(w)
                    kinds = [False]
                for traced in kinds:
                    samples[w].append({**runner.run(w, traced), "round": rounds})
            rounds += 1
            elapsed = time.monotonic() - started
            # Stop where one more round would end more than half a round late.
            if rounds >= (2 if trace else 1) and elapsed + elapsed / rounds / 2 >= seconds:
                break
        for w in names:
            while not trace and len(runner.setup.get(w, ())) < MIN_SETUP_SAMPLES:
                runner.probe(w)
                runner.calibrate()
    finally:
        runner.close()

    env["cpu"] = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    env["cal_median_s"] = statistics.median(runner.calibrations)
    print("env " + json.dumps(env))
    metrics: Dict[str, dict] = {}
    attempted = failed = 0
    for w in names:
        claims = BY_NAME[w].claims[scope]
        attempted += len(claims) * len(samples[w])
        failed += sum(len(s["failed"]) for s in samples[w])
        if trace:
            rows = _per_layer(w, samples[w], runner.errors)
            for name, (value, unit) in rows.items():
                shown = value if isinstance(value, int) else f"{value:.6g}"
                print(f"{w}  {name}  {shown} {unit}")
            chosen = rows
        else:
            rows = _end_to_end(w, scope, samples[w], runner.setup.get(w, []))
            for name, (med, q1, q3, unit, n) in rows.items():
                spread = f"median of {n}; q1 {q1:.6g}, q3 {q3:.6g}"
                if name == "fail_ratio":
                    spread = f"of {n} claim invocations"
                print(f"{w}  {name}  {med:.6g} {unit}  ({spread})")
            chosen = {k: (v[0], v[3]) for k, v in rows.items() if k in E2E_JSON}
        prefix = "" if len(names) == 1 else f"{w}."
        for name, (value, unit) in chosen.items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    for err in runner.errors:
        print(f"error: {err}", file=sys.stderr)
    correct = not runner.errors and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*BY_NAME, "all"], required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scope", choices=SCOPES, default="full")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills and reaps the running child,
    # and the finally blocks remove the report directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "cluster_logcc" / "cli.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    names = [w.name for w in WORKLOADS] if args.workload == "all" else [args.workload]
    return measure(names, args.scope, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
