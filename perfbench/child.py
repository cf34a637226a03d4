"""One benchmark run in a fresh interpreter.

    python3 perfbench/child.py SRC_DIR --setup-only
    python3 perfbench/child.py SRC_DIR --workload NAME --scope SCOPE
        --report-dir DIR [--trace-file PATH]

Imports `cluster_logcc` from SRC_DIR, then calls
`cluster_logcc.cli.main(["verify", ...])` once per claim of the workload,
in order, writing each report to DIR/<claim>.json.  Prints one JSON line:
the monotonic time at which the package was imported and the first claim
could begin, then (unless --setup-only) each claim's time and exit code and
the peak resident memory.  With --trace-file the claims run under the
tracer, and the line also carries the per-layer metrics.
"""

import time

import argparse
import json
import sys


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("src")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--scope")
    parser.add_argument("--report-dir")
    parser.add_argument("--trace-file")
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    import cluster_logcc
    import cluster_logcc.cli

    ready = time.monotonic()
    out = {"ready": ready}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    import resource
    from pathlib import Path

    from workloads import BY_NAME

    claims = BY_NAME[args.workload].claims[args.scope]
    tracer = None
    if args.trace_file:
        from tracer import Tracer

        tracer = Tracer(cluster_logcc)
    results = []
    seeds_visited = 0
    for run_id, (claim, extra) in enumerate(claims):
        report = Path(args.report_dir) / f"{claim}.json"
        argv = ["verify", "--claim", claim, *extra, "--out", str(report)]
        if tracer is not None:
            tracer.run_id = run_id
        error = None
        code = None
        started = time.perf_counter()
        try:
            code = cluster_logcc.cli.main(argv)
        except Exception as exc:  # counted as a failed invocation by the caller
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - started
        results.append({"claim": claim, "seconds": seconds, "exit": code, "error": error})
        if tracer is not None and report.is_file():
            stats = json.loads(report.read_text(encoding="utf-8")).get("stats", {})
            seeds_visited += stats.get("num_seeds", stats.get("num_clusters", 0))
    out["claims"] = results
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        layers = tracer.layer_metrics()
        mutations = layers["pattern.mutate.calls"]
        layers["pattern.mutate.distinct_ratio"] = (
            layers["pattern.mutate.distinct_exchanges"] / mutations if mutations else 0.0
        )
        layers["pattern.seeds_visited"] = seeds_visited
        layers["pattern.new_seed_ratio"] = seeds_visited / mutations if mutations else 0.0
        out["layers"] = layers
        tracer.write(args.trace_file, [" ".join([c, *e]) for c, e in claims])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
