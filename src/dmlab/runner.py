"""Experiment orchestration: validated configs, seeded sweeps, reproducible files.

A config names one experiment kind, a body family, a dimension schedule and
rules deriving the subspace dimension d and the intermediate dimension m from
each ambient n.  Every trial draws its own seed from the master seed and the
global trial index, so sweeps are embarrassingly parallel and re-running a
config reproduces the CSV and the JSON summary byte for byte at any thread
count (ordered reduction; per-trial wall time is recorded only when
`recordTiming` is set, since real timings break byte-identity).

Outputs: one RFC-4180 CSV row per trial (floats at 17 significant digits,
failures recorded in an error column instead of aborting the sweep) and a
JSON summary embedding the config echo, per-n quartile series and the frozen
calibration block.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dmlab.bodies import LpBall, dual_norm_sup, mean_width_auto, polar_polytope
from dmlab.calibration import CONCENTRATION_C, calibration_block
from dmlab.distortion import adversarial_linf_witness, measure_distortion
from dmlab.ensembles import EnsembleSpec, product_spec, sample_matrix, sample_product
from dmlab.events import check_event_A
from dmlab.nets import build_sphere_net
from dmlab.params import SolverConstants, solve_parameters
from dmlab.processes import concentration_check, emp_sup, index_set, sudakov_lower
from dmlab.seeding import child_seed


class ConfigError(ValueError):
    """Invalid experiment configuration; raised before any computation."""


EXPERIMENT_KINDS = (
    "gaussianDM",
    "cubeCounterexample",
    "productUniform",
    "productLogConcave",
    "productHeavyTailed",
    "eventAFrequency",
    "processSandbox",
)

_PRODUCT_DEFAULTS = {
    "productUniform": ("UniformPM1", "UniformPM1"),
    "productLogConcave": ("UniformIsotropic", "LogConcaveSimplex"),
    "productHeavyTailed": ("UniformIsotropic", "HeavyTailedBounded"),
}

CSV_COLUMNS = (
    "experimentId", "n", "d", "m", "seed", "trialIndex", "supEst", "infEst",
    "ratio", "ellK", "dStar", "eventAHolds", "witnessRatio", "elapsedMs",
    "methodTags", "error",
)

_TOP_KEYS = {
    "experimentKind", "body", "ensembles", "schedule", "dRule", "mRule",
    "trials", "masterSeed", "distortionMethod", "outputs", "constants",
    "process", "recordTiming",
}


def _expect_keys(d: dict, allowed: set, ctx: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown fields in {ctx}: {sorted(unknown)}")


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    raw: dict                       # validated config as given (the echo)
    experiment_kind: str
    schedule: tuple
    trials: int
    master_seed: int
    record_timing: bool

    @property
    def experiment_id(self) -> str:
        digest = hashlib.sha256(
            json.dumps(self.raw, sort_keys=True).encode()).hexdigest()[:12]
        return f"{self.experiment_kind}-{digest}"


def parse_config(cfg: dict) -> ExperimentConfig:
    """Validate a config dict (unknown fields rejected) before any sampling."""
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _expect_keys(cfg, _TOP_KEYS, "config")
    kind = cfg.get("experimentKind")
    _require(kind in EXPERIMENT_KINDS, f"experimentKind must be one of {EXPERIMENT_KINDS}")

    schedule = cfg.get("schedule")
    _require(isinstance(schedule, list) and len(schedule) >= 1, "schedule must be a nonempty list")
    _require(all(isinstance(n, int) and n >= 1 for n in schedule), "schedule entries must be positive integers")

    trials = cfg.get("trials")
    _require(isinstance(trials, int) and trials >= 1, "trials must be an integer >= 1")
    seed = cfg.get("masterSeed", 0)
    _require(isinstance(seed, int) and seed >= 0, "masterSeed must be a nonnegative integer")

    record_timing = cfg.get("recordTiming", False)
    _require(isinstance(record_timing, bool), "recordTiming must be a boolean")

    body = cfg.get("body")
    if kind != "processSandbox":
        _require(isinstance(body, dict), "body descriptor is required")
        _expect_keys(body, {"kind", "p", "dualVertices"}, "body")
        if body.get("kind") == "LpBall":
            p = body.get("p")
            _require(p == "inf" or (isinstance(p, (int, float)) and p >= 1),
                     "body.p must be >= 1 or 'inf'")
        elif body.get("kind") == "PolarPolytope":
            _require(isinstance(body.get("dualVertices"), list) and body["dualVertices"],
                     "PolarPolytope needs a nonempty dualVertices list")
        else:
            raise ConfigError("body.kind must be 'LpBall' or 'PolarPolytope'")

    d_rule = cfg.get("dRule")
    _require(isinstance(d_rule, dict), "dRule is required")
    _expect_keys(d_rule, {"rule", "d", "c", "values"}, "dRule")
    rule = d_rule.get("rule")
    if rule == "fixed":
        _require(isinstance(d_rule.get("d"), int) and d_rule["d"] >= 1, "dRule.d must be >= 1")
    elif rule == "fixedPerN":
        vals = d_rule.get("values")
        _require(isinstance(vals, list) and len(vals) == len(schedule)
                 and all(isinstance(v, int) and v >= 1 for v in vals),
                 "dRule.values must list one d >= 1 per schedule entry")
    elif rule in ("fractionOfDStar", "logN"):
        _require(isinstance(d_rule.get("c"), (int, float)) and d_rule["c"] > 0,
                 f"dRule.c must be positive for {rule}")
    else:
        raise ConfigError("dRule.rule must be fixed | fixedPerN | fractionOfDStar | logN")

    m_rule = cfg.get("mRule")
    needs_m = kind in _PRODUCT_DEFAULTS or kind == "eventAFrequency"
    if m_rule is not None:
        _expect_keys(m_rule, {"rule", "m", "c"}, "mRule")
        rule = m_rule.get("rule")
        if rule == "fixed":
            _require(isinstance(m_rule.get("m"), int) and m_rule["m"] >= 1, "mRule.m must be >= 1")
        elif rule == "multipleOfN":
            _require(isinstance(m_rule.get("c"), (int, float)) and m_rule["c"] > 0,
                     "mRule.c must be positive")
        else:
            raise ConfigError("mRule.rule must be fixed | multipleOfN")
    elif needs_m:
        raise ConfigError(f"{kind} requires an mRule")

    ens = cfg.get("ensembles", {})
    _expect_keys(ens, {"row", "col", "single"}, "ensembles")
    from dmlab.ensembles import KINDS as ENSEMBLE_KINDS
    for slot, val in ens.items():
        _require(val in ENSEMBLE_KINDS, f"ensembles.{slot} must be one of {ENSEMBLE_KINDS}")

    dist = cfg.get("distortionMethod")
    if kind == "cubeCounterexample" and dist is not None:
        _expect_keys(dist, {"method", "starts"}, "distortionMethod")
        _require(dist.get("method") == "exactRowNorm",
                 "cubeCounterexample supports only the exactRowNorm distortion method")
    elif kind in ("gaussianDM", *_PRODUCT_DEFAULTS):
        _require(isinstance(dist, dict), f"{kind} requires a distortionMethod")
        _expect_keys(dist, {"method", "starts", "rho", "candidateBudget"}, "distortionMethod")
        method = dist.get("method")
        _require(method in ("exactSpectral", "exactRowNorm", "netCertified", "multiStartOpt"),
                 "distortionMethod.method unknown")
        if method == "netCertified":
            _require(isinstance(dist.get("rho"), (int, float)) and 0 < dist["rho"] < 0.5,
                     "netCertified needs rho in (0, 1/2): the slack rho*M/(1-rho) "
                     "reaches the net maximum M at rho = 1/2, so every certified "
                     "infimum would be <= 0")
            _require(isinstance(dist.get("candidateBudget"), int) and dist["candidateBudget"] >= 1,
                     "netCertified needs a candidateBudget")
        if body is not None and body.get("kind") == "LpBall":
            p = body.get("p")
            if method == "exactSpectral":
                _require(p == 2, "exactSpectral requires body LpBall(2, n)")
            if method == "exactRowNorm":
                _require(p == "inf", "exactRowNorm requires body LpBall(inf, n)")

    constants = cfg.get("constants", {})
    _expect_keys(constants, {"kappa1", "rho", "q", "theta", "delta",
                             "c0", "c1", "c2", "c3", "restarts"}, "constants")

    process = cfg.get("process", {})
    _expect_keys(process, {"setSize", "setDim", "innerTrials", "supTrials"}, "process")

    outputs = cfg.get("outputs", {})
    _expect_keys(outputs, {"csv", "summary"}, "outputs")

    return ExperimentConfig(
        raw=cfg, experiment_kind=kind, schedule=tuple(schedule), trials=trials,
        master_seed=seed, record_timing=record_timing,
    )


def _build_body(cfg_body: dict, n: int):
    if cfg_body["kind"] == "LpBall":
        p = math.inf if cfg_body["p"] == "inf" else float(cfg_body["p"])
        return LpBall(p, n)
    body = polar_polytope(cfg_body["dualVertices"])
    if body.n != n:
        raise ConfigError(f"PolarPolytope dimension {body.n} does not match schedule n={n}")
    return body


@dataclass(frozen=True, eq=False)
class _ScheduleContext:
    n: int
    d: int
    m: int
    body: object
    ell_k: float
    d_star: float
    net: object = None
    theta: float | None = None
    delta: float | None = None


@dataclass(frozen=True)
class TrialRecord:
    experiment_id: str
    n: int
    d: int
    m: int
    seed: int
    trial_index: int
    sup_est: float | None = None
    inf_est: float | None = None
    ratio: float | None = None
    ell_k: float | None = None
    d_star: float | None = None
    event_a_holds: bool | None = None
    witness_ratio: float | None = None
    elapsed_ms: float = -1.0
    method_tags: str = ""
    error: str = ""


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _to_row(r: TrialRecord) -> list:
    return [r.experiment_id, r.n, r.d, r.m, r.seed, r.trial_index,
            _fmt(r.sup_est), _fmt(r.inf_est), _fmt(r.ratio), _fmt(r.ell_k),
            _fmt(r.d_star), _fmt(r.event_a_holds), _fmt(r.witness_ratio),
            _fmt(r.elapsed_ms), r.method_tags, r.error]


def _derive_d(cfg: dict, n_index: int, n: int, d_star: float) -> int:
    rule = cfg["dRule"]
    if rule["rule"] == "fixed":
        return rule["d"]
    if rule["rule"] == "fixedPerN":
        return rule["values"][n_index]
    if rule["rule"] == "fractionOfDStar":
        return max(1, int(round(rule["c"] * d_star)))
    return max(1, int(math.floor(rule["c"] * math.log(n))))


def _derive_m(cfg: dict, n: int) -> int:
    rule = cfg.get("mRule")
    if rule is None:
        return 0
    if rule["rule"] == "fixed":
        return rule["m"]
    return int(math.ceil(rule["c"] * n))


def _schedule_context(config: ExperimentConfig, n_index: int) -> _ScheduleContext:
    cfg = config.raw
    kind = config.experiment_kind
    n = config.schedule[n_index]
    if kind == "processSandbox":
        proc = cfg.get("process", {})
        return _ScheduleContext(n=n, d=proc.get("setDim", 16), m=proc.get("setSize", 32),
                                body=None, ell_k=float("nan"), d_star=float("nan"))
    body = _build_body(cfg["body"], n)
    ell_k, _ = mean_width_auto(body, seed=child_seed(config.master_seed, 900_000 + n_index))
    d_star = (ell_k / dual_norm_sup(body)) ** 2
    d = _derive_d(cfg, n_index, n, d_star)
    m = _derive_m(cfg, n)

    net = None
    dist = cfg.get("distortionMethod") or {}
    if dist.get("method") == "netCertified":
        net = build_sphere_net(d, dist["rho"], dist["candidateBudget"],
                               seed=child_seed(config.master_seed, 920_000 + n_index))

    theta = delta = None
    if kind == "eventAFrequency":
        consts = cfg.get("constants", {})
        if "theta" in consts and "delta" in consts:
            theta, delta = consts["theta"], consts["delta"]
        else:
            sol = solve_parameters(
                consts.get("rho", 0.25), consts.get("q", 6.0), d_star, n,
                SolverConstants(consts.get("c0", 1.0), consts.get("c1", 1.0),
                                consts.get("c2", 1.0), consts.get("c3", 1.0)))
            theta, delta = sol.theta, sol.delta
    return _ScheduleContext(n=n, d=d, m=m, body=body, ell_k=ell_k, d_star=d_star,
                            net=net, theta=theta, delta=delta)


def _run_trial(config: ExperimentConfig, ctx: _ScheduleContext,
               trial_index: int, seed: int) -> TrialRecord:
    cfg = config.raw
    kind = config.experiment_kind
    base = dict(experiment_id=config.experiment_id, n=ctx.n, d=ctx.d, m=ctx.m,
                seed=seed, trial_index=trial_index, ell_k=ctx.ell_k, d_star=ctx.d_star)
    dist = cfg.get("distortionMethod") or {}
    starts = dist.get("starts", 32)

    if kind == "gaussianDM":
        gamma = sample_matrix(EnsembleSpec("GaussianIID", ctx.n, ctx.d), child_seed(seed, 0))
        rep = measure_distortion(ctx.body, gamma, dist["method"], net=ctx.net,
                                 starts=starts, seed=child_seed(seed, 1), ell_k=ctx.ell_k)
        return TrialRecord(**base, sup_est=rep.sup_est, inf_est=rep.inf_est,
                           ratio=rep.ratio,
                           method_tags=f"sup={rep.sup_method};inf={rep.inf_method}")

    if kind == "cubeCounterexample":
        single = cfg.get("ensembles", {}).get("single", "UniformPM1")
        M = sample_matrix(EnsembleSpec(single, ctx.n, ctx.d), child_seed(seed, 0))
        wit = adversarial_linf_witness(M)
        if dist:
            # Full estimator pair, for use as a control against product runs.
            rep = measure_distortion(ctx.body, M, dist["method"], starts=starts,
                                     seed=child_seed(seed, 1), ell_k=ctx.ell_k)
            return TrialRecord(**base, sup_est=rep.sup_est, inf_est=rep.inf_est,
                               ratio=rep.ratio, witness_ratio=wit.ratio,
                               method_tags=f"sup={rep.sup_method};inf={rep.inf_method};"
                                           "witness=signAligned")
        sup_est = float(np.linalg.norm(M, axis=1).max())
        inf_est = wit.phi_e1
        return TrialRecord(**base, sup_est=sup_est, inf_est=inf_est,
                           ratio=sup_est / inf_est if inf_est > 0 else math.inf,
                           witness_ratio=wit.ratio,
                           method_tags="sup=exactRowNorm;inf=axisProbeE1;witness=signAligned")

    if kind in _PRODUCT_DEFAULTS:
        row_default, col_default = _PRODUCT_DEFAULTS[kind]
        ens = cfg.get("ensembles", {})
        pspec = product_spec(ens.get("row", row_default), ens.get("col", col_default),
                             n=ctx.n, d=ctx.d, m=ctx.m)
        gamma, _, _ = sample_product(pspec, child_seed(seed, 0))
        rep = measure_distortion(ctx.body, gamma, dist["method"], net=ctx.net,
                                 starts=starts, seed=child_seed(seed, 1), ell_k=ctx.ell_k)
        return TrialRecord(**base, sup_est=rep.sup_est, inf_est=rep.inf_est,
                           ratio=rep.ratio,
                           method_tags=f"sup={rep.sup_method};inf={rep.inf_method}")

    if kind == "eventAFrequency":
        consts = cfg.get("constants", {})
        col = cfg.get("ensembles", {}).get("col", "UniformIsotropic")
        spec = EnsembleSpec(col, rows=ctx.d, cols=ctx.m, vector_axis="cols")
        gamma2 = sample_matrix(spec, child_seed(seed, 0))
        rep = check_event_A(gamma2, consts.get("kappa1", 2.0), ctx.delta, ctx.theta,
                            method="greedy", restarts=consts.get("restarts", 20),
                            seed=child_seed(seed, 1))
        k_main = max(1, rep.k_event)
        return TrialRecord(**base, sup_est=rep.sparse_sup[k_main],
                           event_a_holds=rep.event_a_holds,
                           method_tags=f"sparse={rep.sparse_methods[k_main]};k={k_main};"
                                       f"kappa1Measured={rep.kappa1_measured:.6g}")

    if kind == "processSandbox":
        proc = cfg.get("process", {})
        rng = np.random.default_rng(child_seed(seed, 0))
        P = rng.standard_normal((ctx.m, ctx.d))
        T = index_set(P)
        sup = emp_sup("gaussian", T, trials=proc.get("supTrials", 2000),
                      seed=child_seed(seed, 1))
        sud = sudakov_lower(T)
        return TrialRecord(**base, sup_est=sup.value, inf_est=sud,
                           ratio=sup.value / sud if sud > 0 else math.inf,
                           method_tags="sup=empSupGaussianMC;inf=sudakovLower")

    raise ConfigError(f"unhandled experiment kind {kind}")


def _safe_trial(config, ctx, trial_index, seed) -> TrialRecord:
    t0 = time.perf_counter()
    try:
        rec = _run_trial(config, ctx, trial_index, seed)
    except Exception as exc:  # per-trial failures become rows, never aborts
        rec = TrialRecord(experiment_id=config.experiment_id, n=ctx.n, d=ctx.d,
                          m=ctx.m, seed=seed, trial_index=trial_index,
                          error=f"{type(exc).__name__}: {exc}")
    if config.record_timing:
        rec = TrialRecord(**{**rec.__dict__, "elapsed_ms": (time.perf_counter() - t0) * 1e3})
    return rec


def _quartiles(vals) -> tuple:
    arr = np.array([v for v in vals if v is not None], dtype=float)
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        return None, None, None
    return (float(np.median(arr)), float(np.quantile(arr, 0.25)),
            float(np.quantile(arr, 0.75)))


@dataclass(frozen=True, eq=False)
class RunResult:
    csv_path: Path
    summary_path: Path
    summary: dict
    records: list
    failures: int


def run_experiment(config: ExperimentConfig | dict, out_dir=".", threads: int = 1) -> RunResult:
    """Execute the sweep and write the CSV + JSON summary files."""
    if isinstance(config, dict):
        config = parse_config(config)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    contexts = [_schedule_context(config, i) for i in range(len(config.schedule))]
    tasks = []
    for i, ctx in enumerate(contexts):
        for j in range(config.trials):
            t = i * config.trials + j
            tasks.append((ctx, t, child_seed(config.master_seed, t)))

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(lambda a: _safe_trial(config, *a), tasks))
    else:
        records = [_safe_trial(config, *a) for a in tasks]

    outputs = config.raw.get("outputs", {})
    csv_path = out_dir / outputs.get("csv", "trials.csv")
    summary_path = out_dir / outputs.get("summary", "summary.json")

    with csv_path.open("w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)  # RFC-4180: CRLF rows, quotes only where needed
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow(_to_row(rec))

    series = []
    for i, ctx in enumerate(contexts):
        chunk = [r for r in records[i * config.trials:(i + 1) * config.trials] if not r.error]
        med, q25, q75 = _quartiles([r.ratio for r in chunk])
        entry = {"n": ctx.n, "d": ctx.d, "m": ctx.m, "medianRatio": med,
                 "q25": q25, "q75": q75, "eventAFrequency": None,
                 "trials": config.trials}
        flags = [r.event_a_holds for r in chunk if r.event_a_holds is not None]
        if flags:
            entry["eventAFrequency"] = sum(flags) / len(flags)
        wits = [r.witness_ratio for r in chunk if r.witness_ratio is not None]
        if wits:
            wmed, wq25, wq75 = _quartiles(wits)
            entry.update(medianWitnessRatio=wmed, witnessQ25=wq25, witnessQ75=wq75)
        series.append(entry)

    summary = {"configEcho": config.raw, "series": series,
               "calibration": calibration_block()}

    if config.experiment_kind == "processSandbox":
        summary["tail"] = _sandbox_tail(config, contexts[0])

    with summary_path.open("w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2)
        f.write("\n")

    failures = sum(1 for r in records if r.error)
    return RunResult(csv_path=csv_path, summary_path=summary_path,
                     summary=summary, records=records, failures=failures)


def _sandbox_tail(config: ExperimentConfig, ctx: _ScheduleContext) -> list:
    """Average Bernoulli-sup tail across the sweep's index sets (x in sigma* units)."""
    proc = config.raw.get("process", {})
    inner = proc.get("innerTrials", 10000)
    acc = None
    mults = None
    for t in range(config.trials):
        seed = child_seed(config.master_seed, t)
        rng = np.random.default_rng(child_seed(seed, 0))
        P = rng.standard_normal((ctx.m, ctx.d))
        table = concentration_check(index_set(P), trials=inner, seed=child_seed(seed, 2))
        emp = table.empirical
        if acc is None:
            acc = np.zeros_like(emp)
            mults = table.x / table.sigma_star
        acc += emp
    acc /= config.trials
    bound = 2.0 * np.exp(-CONCENTRATION_C * mults**2)
    return [{"x": float(x), "empirical": float(e), "bound": float(b)}
            for x, e, b in zip(mults, acc, bound)]


def load_trial_rows(csv_path) -> list:
    with Path(csv_path).open("r", newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        return list(reader)


def verify_summary(csv_path, summary: dict) -> bool:
    """Recompute per-n median ratios from the CSV and compare with the summary."""
    rows = load_trial_rows(csv_path)
    for entry in summary["series"]:
        vals = [float(r["ratio"]) for r in rows
                if int(r["n"]) == entry["n"] and not r["error"] and r["ratio"]]
        vals = [v for v in vals if math.isfinite(v)]
        med = float(np.median(vals)) if vals else None
        if med is None and entry["medianRatio"] is None:
            continue
        if med is None or entry["medianRatio"] is None:
            return False
        if not math.isclose(med, entry["medianRatio"], rel_tol=1e-12, abs_tol=1e-12):
            return False
    return True


_PLOT_KINDS = ("ratioVsN", "ratioVsD", "tailCurve")


def emit_plot_data(summary, plot_kind: str, out_path) -> Path:
    """Write a small delimited table (header + data rows) for external plotting."""
    if isinstance(summary, (str, Path)):
        with Path(summary).open("r", encoding="utf-8") as f:
            summary = json.load(f)
    if plot_kind not in _PLOT_KINDS:
        raise ConfigError(f"plot kind must be one of {_PLOT_KINDS}")
    out_path = Path(out_path)

    if plot_kind == "tailCurve":
        tail = summary.get("tail")
        if not tail:
            raise ConfigError("summary lacks the 'tail' series required by tailCurve")
        header = ["x", "empirical", "bound"]
        rows = [[row["x"], row["empirical"], row["bound"]] for row in tail]
    else:
        series = summary.get("series")
        if not series:
            raise ConfigError("summary lacks the 'series' list")
        x_key = "n" if plot_kind == "ratioVsN" else "d"
        use_witness = plot_kind == "ratioVsD" and any("medianWitnessRatio" in e for e in series)
        rows = []
        for e in series:
            if use_witness:
                med, lo, hi = e.get("medianWitnessRatio"), e.get("witnessQ25"), e.get("witnessQ75")
            else:
                med, lo, hi = e.get("medianRatio"), e.get("q25"), e.get("q75")
            if med is None:
                raise ConfigError(
                    f"summary lacks the 'medianRatio' series required by {plot_kind}")
            rows.append([e[x_key], med, lo, hi])
        header = [x_key, "median", "q25", "q75"]

    with out_path.open("w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])
    return out_path
