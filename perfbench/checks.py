"""Correctness checks of one sweep's CSV and summary, computed apart from dmlab.

Each check recomputes what the files claim from first principles: trial seeds
from `numpy.random.SeedSequence`, summary medians from the CSV, singular
values from `numpy.linalg.svd`, and bounds that any correct estimator must
respect.  The random matrices are re-drawn with dmlab's public samplers, since
the bounds are statements about the very matrix a trial saw.

`check_run` returns the list of problems found (empty when the files pass)
and the number of trials that recorded an error.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from dmlab.ensembles import EnsembleSpec, product_spec, sample_matrix, sample_product

REL_TOL = 1e-12

# Default (row, column) laws of the product experiment kinds.
PRODUCT_LAWS = {
    "productUniform": ("UniformPM1", "UniformPM1"),
    "productLogConcave": ("UniformIsotropic", "LogConcaveSimplex"),
}

# Fresh unit vectors x per trial for the netCertified bracket check.
NET_PROBES = 256


def derived_seed(master: int, index: int) -> int:
    """Sub-stream seed of trial `index`, as documented for dmlab's seeding."""
    return int(np.random.SeedSequence([master, index]).generate_state(1, np.uint64)[0])


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


def _float(text: str):
    return float(text) if text != "" else None


def _quartiles(values):
    arr = np.array([v for v in values if v is not None and math.isfinite(v)])
    if arr.size == 0:
        return None, None, None
    return (float(np.median(arr)), float(np.quantile(arr, 0.25)),
            float(np.quantile(arr, 0.75)))


def _derive_d(config: dict, n_index: int, n: int) -> int:
    rule = config["dRule"]
    if rule["rule"] == "fixed":
        return rule["d"]
    if rule["rule"] == "fixedPerN":
        return rule["values"][n_index]
    if rule["rule"] == "logN":
        return max(1, math.floor(rule["c"] * math.log(n)))
    raise ValueError(f"the benchmark checks do not cover dRule {rule['rule']!r}")


def _derive_m(config: dict, n: int) -> int:
    rule = config.get("mRule")
    if rule is None:
        return 0
    return rule["m"] if rule["rule"] == "fixed" else math.ceil(rule["c"] * n)


def read_run(csv_path, summary_path):
    with Path(csv_path).open(newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    summary = json.loads(Path(summary_path).read_text(encoding="utf-8"))
    return rows, summary


def _check_layout(config: dict, rows: list, summary: dict, problems: list) -> None:
    schedule, trials = config["schedule"], config["trials"]
    if len(rows) != len(schedule) * trials:
        problems.append(f"CSV has {len(rows)} rows, expected {len(schedule) * trials}")
        return
    if summary.get("configEcho") != config:
        problems.append("summary configEcho differs from the config")
    for t, row in enumerate(rows):
        n_index = t // trials
        n = schedule[n_index]
        expect = {"trialIndex": t, "n": n, "seed": derived_seed(config["masterSeed"], t)}
        if config["experimentKind"] == "processSandbox":
            expect.update(d=config["process"]["setDim"], m=config["process"]["setSize"])
        else:
            expect.update(d=_derive_d(config, n_index, n), m=_derive_m(config, n))
        for key, value in expect.items():
            if row[key] != str(value):
                problems.append(f"row {t}: {key}={row[key]!r}, expected {value}")


def _check_summary(config: dict, rows: list, summary: dict, problems: list) -> None:
    schedule, trials = config["schedule"], config["trials"]
    series = summary.get("series", [])
    if len(series) != len(schedule):
        problems.append(f"summary has {len(series)} series entries, expected {len(schedule)}")
        return
    for i, entry in enumerate(series):
        chunk = [r for r in rows[i * trials:(i + 1) * trials] if not r["error"]]
        if entry.get("n") != schedule[i] or entry.get("trials") != trials:
            problems.append(f"series {i}: n/trials do not match the config")
        med, q25, q75 = _quartiles([_float(r["ratio"]) for r in chunk])
        for key, value in (("medianRatio", med), ("q25", q25), ("q75", q75)):
            if not _close(entry.get(key), value):
                problems.append(f"series {i}: {key}={entry.get(key)} but the CSV gives {value}")
        flags = [r["eventAHolds"] == "true" for r in chunk if r["eventAHolds"]]
        freq = sum(flags) / len(flags) if flags else None
        if not _close(entry.get("eventAFrequency"), freq):
            problems.append(f"series {i}: eventAFrequency={entry.get('eventAFrequency')} "
                            f"but the CSV gives {freq}")


def _redraw_product(config: dict, row: dict) -> np.ndarray:
    row_law, col_law = PRODUCT_LAWS[config["experimentKind"]]
    ens = config.get("ensembles", {})
    spec = product_spec(ens.get("row", row_law), ens.get("col", col_law),
                        n=int(row["n"]), d=int(row["d"]), m=int(row["m"]))
    return sample_product(spec, derived_seed(int(row["seed"]), 0))[0]


def _check_product_linf(config, rows, summary, problems) -> None:
    for t, row in enumerate(rows):
        if row["error"]:
            continue
        gamma = _redraw_product(config, row)
        n = gamma.shape[0]
        sup_est, inf_est = float(row["supEst"]), float(row["infEst"])
        row_max = float(np.linalg.norm(gamma, axis=1).max())
        if not _close(sup_est, row_max):
            problems.append(f"row {t}: supEst={sup_est!r} but the largest row norm is {row_max!r}")
        lower = float(np.linalg.svd(gamma, compute_uv=False)[-1]) / math.sqrt(n)
        upper = float(np.abs(gamma).max(axis=0).min())
        if not lower * (1 - REL_TOL) <= inf_est <= upper * (1 + REL_TOL):
            problems.append(f"row {t}: infEst={inf_est!r} outside [sigma_min/sqrt(n), "
                            f"min_j |Gamma e_j|_inf] = [{lower!r}, {upper!r}]")
        if not _close(float(row["ratio"]), sup_est / inf_est):
            problems.append(f"row {t}: ratio is not supEst/infEst")


def _check_net_certified(config, rows, summary, problems) -> None:
    for t, row in enumerate(rows):
        if row["error"]:
            continue
        gamma = _redraw_product(config, row)
        sup_est, inf_est = float(row["supEst"]), float(row["infEst"])
        rng = np.random.default_rng([int(row["seed"]), 7])
        X = rng.standard_normal((NET_PROBES, gamma.shape[1]))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        values = np.abs(X @ gamma.T).max(axis=1)
        inside = [float(np.linalg.norm(gamma, axis=1).max()), float(values.min()),
                  float(values.max())]
        if not all(inf_est * (1 - REL_TOL) <= v <= sup_est * (1 + REL_TOL) for v in inside):
            problems.append(f"row {t}: bracket [{inf_est!r}, {sup_est!r}] misses one of "
                            f"max row norm, min and max |Gamma x|_inf = {inside}")
        if not (math.isfinite(sup_est) and math.isfinite(inf_est)):
            problems.append(f"row {t}: bracket is not finite")


def _check_event_sparse(config, rows, summary, problems) -> None:
    consts = config["constants"]
    col = config.get("ensembles", {}).get("col", "UniformIsotropic")
    for t, row in enumerate(rows):
        if row["error"]:
            continue
        d, m = int(row["d"]), int(row["m"])
        gamma2 = sample_matrix(EnsembleSpec(col, rows=d, cols=m, vector_axis="cols"),
                               derived_seed(int(row["seed"]), 0))
        sup_est = float(row["supEst"])
        col_max = float(np.linalg.norm(gamma2, axis=0).max())
        smax = float(np.linalg.svd(gamma2, compute_uv=False)[0])
        if not col_max * (1 - REL_TOL) <= sup_est <= smax * (1 + REL_TOL):
            problems.append(f"row {t}: supEst={sup_est!r} outside [max_j |X_j|, sigma_max] "
                            f"= [{col_max!r}, {smax!r}]")
        k_event = int(consts["theta"] * m)
        k_main = max(1, k_event)
        if f"k={k_main};" not in row["methodTags"]:
            problems.append(f"row {t}: methodTags {row['methodTags']!r} lack k={k_main}")
        holds = smax / math.sqrt(m) <= consts["kappa1"] and (
            k_event < 1 or sup_est <= consts["delta"] * math.sqrt(m))
        if row["eventAHolds"] != ("true" if holds else "false"):
            problems.append(f"row {t}: eventAHolds={row['eventAHolds']} but the SVD gives {holds}")


def _check_process_sandbox(config, rows, summary, problems) -> None:
    proc = config["process"]
    for t, row in enumerate(rows):
        if row["error"]:
            continue
        rng = np.random.default_rng(derived_seed(int(row["seed"]), 0))
        V = rng.standard_normal((proc["setSize"], proc["setDim"]))
        sigma = float(np.linalg.norm(V, axis=1).max())
        sq = (V**2).sum(axis=1)
        diameter = math.sqrt(max(float((sq[:, None] + sq[None, :] - 2 * V @ V.T).max()), 0.0))
        widen = 4 * sigma / math.sqrt(proc["supTrials"])
        lower = diameter / math.sqrt(2 * math.pi) - widen
        upper = sigma * math.sqrt(2 * math.log(len(V))) + widen
        sup_est = float(row["supEst"])
        if not lower <= sup_est <= upper:
            problems.append(f"row {t}: supEst={sup_est!r} outside the gaussian-max bounds "
                            f"[{lower!r}, {upper!r}]")
    tail = summary.get("tail") or []
    if not tail:
        problems.append("summary has no tail")
    emp = [entry["empirical"] for entry in tail]
    if any(not 0.0 <= e <= 1.0 for e in emp):
        problems.append(f"tail leaves [0, 1]: {emp}")
    if any(b > a for a, b in zip(emp, emp[1:])):
        problems.append(f"tail is not non-increasing: {emp}")


WORKLOAD_CHECKS = {
    "productUniform": _check_product_linf,
    "productLogConcave": _check_net_certified,
    "eventAFrequency": _check_event_sparse,
    "processSandbox": _check_process_sandbox,
}


def check_run(config: dict, csv_path, summary_path) -> tuple[list, int]:
    """Problems found in one sweep's files, and the count of failed trials."""
    rows, summary = read_run(csv_path, summary_path)
    problems: list = []
    _check_layout(config, rows, summary, problems)
    if problems:
        return problems, sum(1 for r in rows if r.get("error"))
    _check_summary(config, rows, summary, problems)
    WORKLOAD_CHECKS[config["experimentKind"]](config, rows, summary, problems)
    return problems, sum(1 for r in rows if r["error"])
