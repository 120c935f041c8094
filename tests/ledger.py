"""Byte ledger: the files of a fixed set of sweeps, and a check of a rerun against them.

The set is the four benchmark workloads (`perfbench/workloads.py`), the small
config of each experiment kind (`KIND_CFGS` in `tests/test_runner.py`) and
the six acceptance configs (`CONFIGS` in `tests/test_acceptance.py`) at 2
trials, and the ledger-only configs `EXTRA_CFGS` below, all at master seed 7
and one worker.  The ledger records, per run,
the sha256 of the CSV and of the summary, the CSV cells and the summary, and
once the numpy version, the BLAS and numpy's CPU features, since GEMM
summation order and SIMD kernels decide the last bits.

  PYTHONPATH=src python tests/ledger.py write [LEDGER]   rerun and write the ledger
  PYTHONPATH=src python tests/ledger.py check [LEDGER]   rerun and compare

LEDGER defaults to `tests/golden/ledger.json`.  Where the platform matches the
ledger's, `check` compares bytes; elsewhere it compares every numeric cell of
the CSVs and summaries at relative tolerance `REL_TOL`.  It prints which
comparison it ran and, on a mismatch, the largest relative move per CSV
column over all runs and each differing run's moved columns, and exits 1.
"""

from __future__ import annotations

import csv
import ctypes
import hashlib
import importlib.util
import io
import json
import math
import platform
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from dmlab.runner import _OPENBLAS_SYMBOLS, run_experiment

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "tests" / "golden" / "ledger.json"
MASTER_SEED = 7
ACCEPTANCE_TRIALS = 2
REL_TOL = 1e-6  # cell comparison on another platform: |a - b| <= REL_TOL max(|a|, |b|)

# Paths that no config above reaches: the multi-start ascent and descent on
# LpBall(inf) and on a PolarPolytope, process suprema at a set size that is
# not a multiple of 16 (where a row-blocked GEMM may round differently), the
# greedy sparse search with more support columns than rows
# (floor(theta m) = 6 > d = 4), where the swap search keeps d x d rest grams,
# event A at floor(theta m) = 1, where the sparse supremum is the largest
# column norm, event A at m = 1, where k_main = m and the sparse supremum is
# sigma_max, sign and sphere draws through a product sweep, and a product of
# signs at m = 8, whose entries are multiples of 8^(-1/2), so the l_inf lead
# (first max or first min, the earlier on a tie) meets real ties and the
# descent's path depends on how it breaks them.
EXTRA_CFGS = {
    "multistart-linf": {
        "experimentKind": "gaussianDM", "body": {"kind": "LpBall", "p": "inf"},
        "schedule": [48, 96], "dRule": {"rule": "fixed", "d": 5}, "trials": 3,
        "distortionMethod": {"method": "multiStartOpt", "starts": 8},
    },
    "multistart-polytope": {
        "experimentKind": "gaussianDM",
        "body": {"kind": "PolarPolytope",
                 "dualVertices": [[(7 * i + 3 * j) % 11 - 5 for j in range(24)]
                                  for i in range(6)]},
        "schedule": [24], "dRule": {"rule": "fixed", "d": 4}, "trials": 3,
        "distortionMethod": {"method": "multiStartOpt", "starts": 8},
    },
    "sandbox-set255": {
        "experimentKind": "processSandbox", "schedule": [1], "dRule": {"rule": "fixed", "d": 1},
        "trials": 2, "process": {"setSize": 255, "setDim": 32, "innerTrials": 10000,
                                 "supTrials": 4096},
    },
    "event-k-above-d": {
        "experimentKind": "eventAFrequency", "body": {"kind": "LpBall", "p": 2},
        "schedule": [64], "dRule": {"rule": "fixed", "d": 4},
        "mRule": {"rule": "fixed", "m": 64}, "trials": 3,
        "ensembles": {"col": "LogConcaveSimplex"},
        "constants": {"theta": 6.5 / 64, "delta": 0.2, "kappa1": 2.0, "restarts": 4},
    },
    "event-k-one": {
        "experimentKind": "eventAFrequency", "body": {"kind": "LpBall", "p": 2},
        "schedule": [64], "dRule": {"rule": "fixed", "d": 8},
        "mRule": {"rule": "fixed", "m": 64}, "trials": 3,
        "constants": {"theta": 1.5 / 64, "delta": 0.2, "kappa1": 2.0, "restarts": 4},
    },
    "event-m-one": {
        "experimentKind": "eventAFrequency", "body": {"kind": "LpBall", "p": 2},
        "schedule": [16], "dRule": {"rule": "fixed", "d": 4},
        "mRule": {"rule": "fixed", "m": 1}, "trials": 3,
        "constants": {"theta": 0.2, "delta": 0.2, "kappa1": 2.0, "restarts": 2},
    },
    "product-signs-sphere": {
        "experimentKind": "productUniform", "body": {"kind": "LpBall", "p": "inf"},
        "schedule": [48, 96], "dRule": {"rule": "fixed", "d": 5},
        "mRule": {"rule": "multipleOfN", "c": 2.0}, "trials": 3,
        "ensembles": {"row": "RademacherIID", "col": "SphericalRows"},
        "distortionMethod": {"method": "exactRowNorm", "starts": 8},
    },
    "product-signs-ties": {
        "experimentKind": "productUniform", "body": {"kind": "LpBall", "p": "inf"},
        "schedule": [48, 96], "dRule": {"rule": "fixed", "d": 5},
        "mRule": {"rule": "fixed", "m": 8}, "trials": 3,
        "ensembles": {"row": "RademacherIID", "col": "RademacherIID"},
        "distortionMethod": {"method": "exactRowNorm", "starts": 8},
    },
}

_NUMBER = re.compile(r"([-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)")


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"_ledger_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def configs() -> dict:
    """Run name -> config, every one at MASTER_SEED."""
    workloads = _load(ROOT / "perfbench" / "workloads.py").WORKLOADS
    kinds = _load(ROOT / "tests" / "test_runner.py").KIND_CFGS
    acceptance = _load(ROOT / "tests" / "test_acceptance.py").CONFIGS
    runs = {f"perfbench-{k}": cfg for k, cfg in workloads.items()}
    runs.update({f"kind-{k}": cfg for k, cfg in kinds.items()})
    runs.update({f"acceptance-{k}": {**cfg, "trials": ACCEPTANCE_TRIALS}
                 for k, cfg in acceptance.items()})
    runs.update({f"ledger-{k}": cfg for k, cfg in EXTRA_CFGS.items()})
    return {name: {**cfg, "masterSeed": MASTER_SEED} for name, cfg in runs.items()}


def platform_facts() -> dict:
    """What the bytes depend on besides dmlab: numpy, its BLAS and its CPU features."""
    try:
        shown = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 prints its config only
        shown = {}
    blas = shown.get("Build Dependencies", {}).get("blas", {})
    blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for prefix, suffix in _OPENBLAS_SYMBOLS:  # OpenBLAS names the kernel it chose at run time
        getter = getattr(lib, f"{prefix}get_config{suffix}", None)
        if getter is not None:
            getter.argtypes, getter.restype = (), ctypes.c_char_p
            blas = " ".join(getter().decode().split())
            break
    return {"numpy": np.__version__, "blas": blas, "machine": platform.machine(),
            "simd": shown.get("SIMD Extensions", {}).get("found", [])}


def run_all(out_dir: Path) -> dict:
    """Run name -> its record: sha256 of both files, CSV cells, summary, failed trials."""
    records = {}
    for name, cfg in configs().items():
        res = run_experiment(cfg, out_dir=out_dir / name, threads=1)
        csv_bytes, summary_bytes = res.csv_path.read_bytes(), res.summary_path.read_bytes()
        records[name] = {
            "csv_sha256": hashlib.sha256(csv_bytes).hexdigest(),
            "summary_sha256": hashlib.sha256(summary_bytes).hexdigest(),
            "failures": res.failures,
            "csv": list(csv.reader(io.StringIO(csv_bytes.decode(), newline=""))),
            "summary": json.loads(summary_bytes),
        }
    return records


def _rel(x: float, y: float) -> float:
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def _move(a, b) -> float:
    """Largest relative move between two cells; inf where their text differs apart from numbers."""
    a, b = str(a), str(b)
    if a == b:
        return 0.0
    try:
        return _rel(float(a), float(b))
    except ValueError:
        pass
    pa, pb = _NUMBER.split(a), _NUMBER.split(b)
    if len(pa) != len(pb) or pa[0::2] != pb[0::2]:
        return math.inf
    return max(_rel(float(x), float(y)) for x, y in zip(pa[1::2], pb[1::2]))


def _leaves(obj, path=""):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, f"{path}.{key}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, obj


def _csv_moves(want: list, got: list) -> dict:
    """CSV column -> largest relative move, or a note where the column or the rows differ."""
    if len(want) != len(got):
        return {"(rows)": f"{len(want) - 1} rows in the ledger, {len(got) - 1} now"}
    head_w, head_g = want[0], got[0]
    moves = {c: "removed" for c in head_w if c not in head_g}
    moves.update({c: "added" for c in head_g if c not in head_w})
    for col in head_w:
        if col in head_g:
            i, j = head_w.index(col), head_g.index(col)
            moves[col] = max(_move(rw[i], rg[j]) for rw, rg in zip(want[1:], got[1:]))
    return moves


def _summary_move(want: dict, got: dict) -> float:
    lw, lg = dict(_leaves(want)), dict(_leaves(got))
    if lw.keys() != lg.keys():
        return math.inf
    return max((_move(lw[k], lg[k]) for k in lw), default=0.0)


def compare(ledger: dict, records: dict) -> tuple[str, bool, list]:
    """(the comparison run, whether it passed, the report lines)."""
    facts = platform_facts()
    by_bytes = facts == ledger["platform"]
    mode = ("bytes (the platform matches the ledger's)" if by_bytes else
            f"numeric cells at relative tolerance {REL_TOL:g} (ledger platform "
            f"{ledger['platform']}, this one {facts})")
    lines = [f"comparison: {mode}"]
    runs = ledger["runs"]
    if runs.keys() != records.keys():
        lines.append(f"runs differ: ledger {sorted(runs)}, now {sorted(records)}")
        return mode, False, lines

    failed = [name for name, rec in records.items() if rec["failures"]]
    changed = {k: [name for name in runs if runs[name][k] != records[name][k]]
               for k in ("csv_sha256", "summary_sha256")}
    notes, moves, summary_move, per_run = {}, {}, 0.0, {}
    for name in runs:
        run_moves = _csv_moves(runs[name]["csv"], records[name]["csv"])
        for col, move in run_moves.items():
            if isinstance(move, str):
                notes[col] = move
            else:
                moves[col] = max(moves.get(col, 0.0), move)
        run_summary = _summary_move(runs[name]["summary"], records[name]["summary"])
        summary_move = max(summary_move, run_summary)
        per_run[name] = (run_moves, run_summary)
    within = not notes and max([summary_move, *moves.values()]) <= REL_TOL
    moved = any(changed.values())
    ok = not failed and (not moved if by_bytes else within)

    for key, names in changed.items():
        lines.append(f"{key}: {len(names)} of {len(records)} runs differ from the ledger"
                     + (f": {', '.join(names)}" if names else ""))
    if failed:
        lines.append(f"runs with failed trials: {', '.join(failed)}")
    if moved or not within:
        lines.append("largest relative move per CSV column, over all runs:")
        lines += [f"  {col}: {note}" for col, note in notes.items()]
        lines += [f"  {col}: {move:.3g}" for col, move in moves.items() if col not in notes]
        lines.append(f"largest relative move of a summary field: {summary_move:.3g}")
        lines.append("moves per differing run:")
        for name, (run_moves, run_summary) in per_run.items():
            cols = [f"{col} {move if isinstance(move, str) else f'{move:.3g}'}"
                    for col, move in run_moves.items() if move]
            cols += [f"summary {run_summary:.3g}"] if run_summary else []
            if cols:
                lines.append(f"  {name}: {', '.join(cols)}")
    return mode, ok, lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] not in ("write", "check") or len(argv) > 2:
        print(__doc__, file=sys.stderr)
        return 2
    path = Path(argv[1]) if len(argv) > 1 else LEDGER
    with tempfile.TemporaryDirectory() as tmp:
        records = run_all(Path(tmp))
    if argv[0] == "write":
        path.parent.mkdir(parents=True, exist_ok=True)
        ledger = {"masterSeed": MASTER_SEED, "platform": platform_facts(), "runs": records}
        path.write_text(json.dumps(ledger, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path}: {len(records)} runs")
        return 0
    _, ok, lines = compare(json.loads(path.read_text(encoding="utf-8")), records)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
