"""Sweeps of one workload in one interpreter, on request; started by run.py.

    python3 perfbench/worker.py --workload W --seed S --workers K [--trace]

Prints `ready` once dmlab is imported and the config for master seed S is
validated (run.py times set-up up to that line).  Then, for each line
`{"seed": master_seed, "out": directory}` on stdin, it runs one sweep and
prints one JSON line: the sweep's wall time (run_experiment plus reading the
CSV and summary back), the SHA-256 of both files, the peak resident memory so
far of this process and of any children it waited for, and, with --trace, the
per-layer statistics of that sweep.  It exits at the end of stdin.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from dmlab import runner

from workloads import workload_config


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def sweep(config, out: Path, workers: int) -> dict:
    t0 = time.perf_counter()
    result = runner.run_experiment(config, out_dir=out, threads=workers)
    csv_bytes = result.csv_path.read_bytes()
    summary_bytes = result.summary_path.read_bytes()
    rows = list(csv.DictReader(csv_bytes.decode("utf-8").splitlines()))
    json.loads(summary_bytes)
    sweep_s = time.perf_counter() - t0
    return {
        "sweep_s": sweep_s,
        "peak_rss_mb": _peak_rss_mb(),
        "trials": len(rows),
        "failed": sum(1 for r in rows if r["error"]),
        "csv_sha256": hashlib.sha256(csv_bytes).hexdigest(),
        "summary_sha256": hashlib.sha256(summary_bytes).hexdigest(),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    tracer = None
    if args.trace:
        from tracer import Tracer, layer_stats
        tracer = Tracer()
        tracer.install()
    runner.parse_config(workload_config(args.workload, args.seed))
    print("ready", flush=True)

    for line in sys.stdin:
        request = json.loads(line)
        out = Path(request["out"])
        if tracer is not None:
            tracer.spans.clear()
        config = runner.parse_config(workload_config(args.workload, request["seed"]))
        report = sweep(config, out, args.workers)
        if tracer is not None:
            tracer.write(out / "spans.jsonl")
            report["layers"] = layer_stats(tracer.spans)
        print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
