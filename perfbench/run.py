#!/usr/bin/env python3
"""Benchmark of dmlab's experiment sweeps, end to end and layer by layer.

    python3 perfbench/run.py --workload product_linf --seed 1 --seconds 25 --trace 0

Run from the repository root.  A run starts one worker process (worker.py)
per worker count and times its set-up: a fresh interpreter importing dmlab
and validating the workload's config (workloads.py).  It then runs rounds
until --seconds have passed; a round sweeps a fresh master seed derived from
--seed through `run_experiment` at 1 and at 2 workers.  With --trace 0 it
reports the medians of the end-to-end metrics; with --trace 1 the rounds run
traced 1-worker sweeps only and it reports the medians of the per-layer
metrics (tracer.py).  Every round's files are checked (checks.py) and must be
byte-identical at both worker counts.  The last line of stdout is the result
as one JSON object; the line before it holds the machine facts, and
perfbench/out/ keeps a record of the run with every sweep's numbers.

Exit code 0 on a finished run (whether or not the checks passed; see
"correct"), 2 when dmlab's sources or the workload are missing, 1 when a
sweep crashes.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One BLAS thread per process, set before numpy loads and inherited by every
# worker: with OpenBLAS's default pool on 2 cores, CPU time goes to spinning.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "GOTO_NUM_THREADS", "BLIS_NUM_THREADS")

WORKERS = (1, 2)
SWEEP_TIMEOUT_S = 150


class SweepError(RuntimeError):
    """A worker process crashed or printed no report."""


def _unit(metric: str) -> str:
    stat = metric.rsplit(".", 1)[-1]
    if stat.endswith("_s"):
        return "s"
    return "ratio" if stat == "accept_ratio" else "count"


def _git_revision():
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 cannot report it as data
        blas_name = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "git_revision": _git_revision(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


class Worker:
    """A worker.py process serving sweeps at one worker count.

    `setup_s` is its time from spawn to `ready`: a fresh interpreter
    importing dmlab and validating the config.  Every read from the process
    is bounded by SWEEP_TIMEOUT_S, after which it is killed.
    """

    def __init__(self, workload: str, seed: int, workers: int, trace: bool):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--workers", str(workers)]
        if trace:
            cmd.append("--trace")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        self.workers = workers
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=env, cwd=ROOT)
        ready = self._readline()
        self.setup_s = time.perf_counter() - t0
        if ready != "ready":
            self.close()
            raise SweepError(f"worker at {workers} worker(s) did not start "
                             f"(exit code {self.proc.returncode})")

    def _readline(self) -> str:
        watchdog = threading.Timer(SWEEP_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            return self.proc.stdout.readline().strip()
        finally:
            watchdog.cancel()

    def sweep(self, seed: int, out_dir: Path) -> dict:
        try:
            self.proc.stdin.write(json.dumps({"seed": seed, "out": str(out_dir)}) + "\n")
            self.proc.stdin.flush()
            line = self._readline()
        except BrokenPipeError:
            line = ""
        if not line:
            self.close()
            raise SweepError(f"worker at {self.workers} worker(s) exited with code "
                             f"{self.proc.returncode}")
        return json.loads(line)

    def close(self) -> None:
        if not self.proc.stdin.closed:
            try:
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
        try:
            self.proc.wait(timeout=10)  # an idle worker exits at the end of stdin
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def run_rounds(workload: str, seed: int, seconds: float, trace: bool, run_dir: Path):
    """Whole rounds of sweeps until `seconds` have passed (at least one round).

    A round sweeps one fresh master seed at each worker count (traced: at 1
    worker), always in the same order, so that each sweep follows the same
    kind of sweep from one round to the next.  Returns the sweep reports, the
    set-up times of the worker processes and the rounds as (master seed,
    output directories).
    """
    from workloads import round_seed

    plan = (1,) if trace else WORKERS
    pool: dict = {}
    sweeps, rounds = [], []
    try:
        for workers in plan:
            pool[workers] = Worker(workload, round_seed(seed, 0), workers, trace)
        start = time.perf_counter()
        for index in itertools.count():
            round_start = time.perf_counter()
            master = round_seed(seed, index)
            dirs = []
            for workers in plan:
                dirs.append(run_dir / f"round{index}-w{workers}")
                sweeps.append({**pool[workers].sweep(master, dirs[-1]),
                               "workers": workers, "round": index, "master_seed": master})
            rounds.append((master, dirs))
            now = time.perf_counter()
            # Start another round only if it ends closer to the deadline than stopping.
            if now - start + (now - round_start) / 2 >= seconds:
                break
    finally:
        for worker in pool.values():
            worker.close()
    return sweeps, [w.setup_s for w in pool.values()], rounds


def check_rounds(workload: str, rounds: list, sweeps: list) -> list:
    """Problems in any round's files, or between a round's worker counts."""
    from checks import check_run
    from workloads import workload_config

    problems = []
    for index, (master, dirs) in enumerate(rounds):
        config = workload_config(workload, master)
        outputs = config.get("outputs", {})
        found, _ = check_run(config, dirs[0] / outputs.get("csv", "trials.csv"),
                             dirs[0] / outputs.get("summary", "summary.json"))
        problems += [f"round {index}: {p}" for p in found]
        digests = {(s["csv_sha256"], s["summary_sha256"]) for s in sweeps if s["round"] == index}
        if len(digests) != 1:
            problems.append(f"round {index}: CSV or summary differ between worker counts")
    return problems


def end_to_end(sweeps: list, setups: list) -> dict:
    def times(workers):
        return statistics.median(s["sweep_s"] for s in sweeps if s["workers"] == workers)

    return {
        "setup_s": (statistics.median(setups), "s"),
        "sweep_s": (times(1), "s"),
        "sweep_w2_s": (times(2), "s"),
        # ru_maxrss only grows, so the last report is the peak over all sweeps.
        "peak_rss_mb": (max(s["peak_rss_mb"] for s in sweeps if s["workers"] == 1), "MB"),
    }


def per_layer(sweeps: list) -> dict:
    out = {}
    for name in sweeps[0]["layers"]:
        unit = _unit(name)
        # median_low keeps counts whole numbers.
        median = statistics.median_low if unit == "count" else statistics.median
        out[name] = (median(s["layers"][name] for s in sweeps), unit)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.environ.update(BLAS_PIN)
    if not (SRC / "dmlab" / "__init__.py").is_file():
        print(f"error: dmlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS or args.seed < 0:
        print(f"error: need one of {sorted(WORKLOADS)} and a nonnegative seed", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = OUT / f"{label}-pid{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    try:
        sweeps, setups, rounds = run_rounds(args.workload, args.seed, args.seconds, trace,
                                            run_dir)
        problems = check_rounds(args.workload, rounds, sweeps)
        if trace:
            shutil.copyfile(rounds[-1][1][0] / "spans.jsonl", OUT / f"{label}-spans.jsonl")
    except SweepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics = per_layer(sweeps) if trace else end_to_end(sweeps, setups)
    result = {
        "correct": not problems,
        "attempted": sum(s["trials"] for s in sweeps),
        "failed": sum(s["failed"] for s in sweeps),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    facts = machine_facts()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": facts,
              "setup_s": setups, "problems": problems, "sweeps": sweeps, "result": result}
    if trace:
        # Share of the traced sweep_s that the spans account for.
        record["span_coverage"] = statistics.median(
            s["layers"]["runner.run_experiment.span_s"] / s["sweep_s"] for s in sweeps)
        record["traced_sweep_s"] = statistics.median(s["sweep_s"] for s in sweeps)
    (OUT / f"{label}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"machine": facts}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
