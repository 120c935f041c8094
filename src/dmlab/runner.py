"""Experiment orchestration: validated configs, seeded sweeps, reproducible files.

A config names one experiment kind, a body family, a dimension schedule and
rules deriving the subspace dimension d and the intermediate dimension m from
each ambient n.  The table `_KINDS` maps each kind to its trial function and
to what its config must carry; `_D_RULES` and `_M_RULES` pair each rule's
check with its derivation.  Every trial draws its own seed from the master
seed and the global trial index, so sweeps are embarrassingly parallel and
re-running a config reproduces the CSV and the JSON summary byte for byte at
any thread count (ordered reduction; per-trial wall time is recorded only
when `recordTiming` is set, since real timings break byte-identity).

Outputs: one RFC-4180 CSV row per trial (floats at 17 significant digits,
failures recorded in an error column instead of aborting the sweep) and a
JSON summary embedding the config echo, per-n quartile series, the frozen
calibration block and, for processSandbox, the trials' mean concentration tail.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from dmlab.bodies import LpBall, dual_norm_sup, mean_width_auto, polar_polytope
from dmlab.calibration import CONCENTRATION_C, calibration_block
from dmlab.distortion import EXACT_METHOD_P, adversarial_linf_witness, measure_distortion
from dmlab.ensembles import KINDS as ENSEMBLE_KINDS
from dmlab.ensembles import EnsembleSpec, product_spec, sample_matrix, sample_product
from dmlab.events import check_event_A
from dmlab.nets import build_sphere_net
from dmlab.params import SolverConstants, solve_parameters
from dmlab.processes import concentration_check, emp_sup, index_set, sudakov_lower
from dmlab.seeding import child_seed


class ConfigError(ValueError):
    """Invalid experiment configuration; raised before any computation."""


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

_PROCESS_DEFAULTS = {"setSize": 32, "setDim": 16, "innerTrials": 10_000, "supTrials": 2000}


def _expect_keys(d, allowed: set, ctx: str) -> None:
    _require(isinstance(d, dict), f"{ctx} must be a JSON object")
    unknown = set(d) - allowed
    _require(not unknown, f"unknown fields in {ctx}: {sorted(unknown)}")


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_int(v, low: int = 1) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= low


class _Rule(NamedTuple):
    field: str          # the rule's parameter field
    want: str           # what that field must hold, for the error message
    check: Callable     # (field value, schedule length) -> bool
    derive: Callable    # (rule, schedule index, n, dStar) -> d or m


_D_RULES = {
    "fixed": _Rule("d", "an integer >= 1", lambda v, k: _is_int(v),
                   lambda r, i, n, ds: r["d"]),
    "fixedPerN": _Rule("values", "a list of one integer >= 1 per schedule entry",
                       lambda v, k: isinstance(v, list) and len(v) == k and all(map(_is_int, v)),
                       lambda r, i, n, ds: r["values"][i]),
    "fractionOfDStar": _Rule("c", "positive", lambda v, k: _is_num(v) and v > 0,
                             lambda r, i, n, ds: max(1, int(round(r["c"] * ds)))),
    "logN": _Rule("c", "positive", lambda v, k: _is_num(v) and v > 0,
                  lambda r, i, n, ds: max(1, int(math.floor(r["c"] * math.log(n))))),
}

_M_RULES = {
    "fixed": _Rule("m", "an integer >= 1", lambda v, k: _is_int(v),
                   lambda r, i, n, ds: r["m"]),
    "multipleOfN": _Rule("c", "positive", lambda v, k: _is_num(v) and v > 0,
                         lambda r, i, n, ds: int(math.ceil(r["c"] * n))),
}


def _check_rule(cfg: dict, name: str, rules: dict, schedule_len: int) -> None:
    spec = cfg.get(name)
    _expect_keys(spec, {"rule", *(r.field for r in rules.values())}, name)
    rule = rules.get(spec.get("rule")) if isinstance(spec.get("rule"), str) else None
    _require(rule is not None, f"{name}.rule must be {' | '.join(rules)}")
    _require(rule.check(spec.get(rule.field), schedule_len),
             f"{name}.{rule.field} must be {rule.want} for rule {spec['rule']}")


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
    _expect_keys(cfg, _TOP_KEYS, "config")
    name = cfg.get("experimentKind")
    kind = _KINDS.get(name) if isinstance(name, str) else None
    _require(kind is not None, f"experimentKind must be one of {tuple(_KINDS)}")

    schedule = cfg.get("schedule")
    _require(isinstance(schedule, list) and len(schedule) >= 1, "schedule must be a nonempty list")
    _require(all(map(_is_int, schedule)), "schedule entries must be positive integers")

    trials = cfg.get("trials")
    _require(_is_int(trials), "trials must be an integer >= 1")
    seed = cfg.get("masterSeed", 0)
    _require(_is_int(seed, 0), "masterSeed must be a nonnegative integer")

    record_timing = cfg.get("recordTiming", False)
    _require(isinstance(record_timing, bool), "recordTiming must be a boolean")

    body = cfg.get("body")
    if kind.process:
        _require(body is None, f"{name} takes no body")
    else:
        _expect_keys(body, {"kind", "p", "dualVertices"}, "body")
        if body.get("kind") == "LpBall":
            p = body.get("p")
            _require(p == "inf" or (_is_num(p) and p >= 1), "body.p must be >= 1 or 'inf'")
        elif body.get("kind") == "PolarPolytope":
            _require(isinstance(body.get("dualVertices"), list) and body["dualVertices"],
                     "PolarPolytope needs a nonempty dualVertices list")
        else:
            raise ConfigError("body.kind must be 'LpBall' or 'PolarPolytope'")

    _check_rule(cfg, "dRule", _D_RULES, len(schedule))
    _require((cfg.get("mRule") is not None) == kind.m_rule,
             f"{name} {'requires an' if kind.m_rule else 'takes no'} mRule")
    if kind.m_rule:
        _check_rule(cfg, "mRule", _M_RULES, len(schedule))

    ens = cfg.get("ensembles", {})
    _expect_keys(ens, set(kind.laws), "ensembles")
    for slot, val in ens.items():
        _require(val in ENSEMBLE_KINDS, f"ensembles.{slot} must be one of {ENSEMBLE_KINDS}")

    dist = cfg.get("distortionMethod")
    method = None
    if dist is None:
        _require(not kind.method_required, f"{name} requires a distortionMethod")
    else:
        _require(bool(kind.methods), f"{name} takes no distortionMethod")
        net_keys = {"rho", "candidateBudget"} if "netCertified" in kind.methods else set()
        _expect_keys(dist, {"method", "starts", *net_keys}, "distortionMethod")
        method = dist.get("method")
        _require(method in kind.methods,
                 f"{name} supports the distortion methods {' | '.join(kind.methods)}")
        _require(_is_int(dist.get("starts", 1)), "distortionMethod.starts must be an integer >= 1")
        if method == "netCertified":
            _require(_is_num(dist.get("rho")) and 0 < dist["rho"] < 0.5,
                     "netCertified needs rho in (0, 1/2): the slack rho*M/(1-rho) "
                     "reaches the net maximum M at rho = 1/2, so every certified "
                     "infimum would be <= 0")
            _require(_is_int(dist.get("candidateBudget")), "netCertified needs a candidateBudget")
    need_p = EXACT_METHOD_P.get(method, kind.lp)
    if need_p is not None:
        _require(body.get("kind") == "LpBall" and _lp(body) == need_p,
                 f"{method if method in EXACT_METHOD_P else name} "
                 f"requires body LpBall({need_p:g}, n)")

    constants = cfg.get("constants", {})
    _expect_keys(constants, {"kappa1", "rho", "q", "theta", "delta",
                             "c0", "c1", "c2", "c3", "restarts"}, "constants")
    _require(kind.solves_event or "constants" not in cfg, f"{name} takes no constants")
    _require(all(map(_is_num, constants.values())), "constants must be numbers")

    process = cfg.get("process", {})
    _expect_keys(process, set(_PROCESS_DEFAULTS), "process")
    _require(kind.process or "process" not in cfg, f"{name} takes no process")
    for key, value in process.items():
        low = 10**4 if key == "innerTrials" else 1  # concentration_check needs 1e4 draws
        _require(_is_int(value, low), f"process.{key} must be an integer >= {low}")

    outputs = cfg.get("outputs", {})
    _expect_keys(outputs, {"csv", "summary"}, "outputs")
    _require(all(isinstance(v, str) for v in outputs.values()), "outputs must be file names")

    return ExperimentConfig(
        raw=cfg, experiment_kind=name, schedule=tuple(schedule), trials=trials,
        master_seed=seed, record_timing=record_timing,
    )


def _lp(cfg_body: dict) -> float:
    return math.inf if cfg_body["p"] == "inf" else float(cfg_body["p"])


def _build_body(cfg_body: dict, n: int):
    if cfg_body["kind"] == "LpBall":
        return LpBall(_lp(cfg_body), n)
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
    tail: object = None             # processSandbox: the trial's TailTable (not in the CSV)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _to_row(r: TrialRecord) -> list:
    # TrialRecord's leading fields are the CSV columns, in order.
    return [_fmt(v) for v in list(vars(r).values())[:len(CSV_COLUMNS)]]


def _schedule_context(config: ExperimentConfig, n_index: int) -> _ScheduleContext:
    cfg = config.raw
    kind = _KINDS[config.experiment_kind]
    n = config.schedule[n_index]
    if kind.process:
        proc = {**_PROCESS_DEFAULTS, **cfg.get("process", {})}
        return _ScheduleContext(n=n, d=proc["setDim"], m=proc["setSize"],
                                body=None, ell_k=float("nan"), d_star=float("nan"))
    body = _build_body(cfg["body"], n)
    ell_k, _ = mean_width_auto(body, seed=child_seed(config.master_seed, 900_000 + n_index))
    d_star = (ell_k / dual_norm_sup(body)) ** 2
    d_rule = cfg["dRule"]
    d = _D_RULES[d_rule["rule"]].derive(d_rule, n_index, n, d_star)
    m_rule = cfg.get("mRule")
    m = _M_RULES[m_rule["rule"]].derive(m_rule, n_index, n, d_star) if m_rule else 0

    net = None
    dist = cfg.get("distortionMethod") or {}
    if dist.get("method") == "netCertified":
        net = build_sphere_net(d, dist["rho"], dist["candidateBudget"],
                               seed=child_seed(config.master_seed, 920_000 + n_index))

    theta = delta = None
    if kind.solves_event:
        consts = cfg.get("constants", {})
        if "theta" in consts and "delta" in consts:
            theta, delta = consts["theta"], consts["delta"]
        else:
            sol = solve_parameters(
                consts.get("rho", 0.25), consts.get("q", 6.0), d_star, n,
                SolverConstants(**{c: consts[c] for c in ("c0", "c1", "c2", "c3") if c in consts}))
            theta, delta = sol.theta, sol.delta
    return _ScheduleContext(n=n, d=d, m=m, body=body, ell_k=ell_k, d_star=d_star,
                            net=net, theta=theta, delta=delta)


# Trial functions: (config, schedule context, trial seed, ensemble laws) -> the
# TrialRecord fields measured.  They look up measure_distortion, the samplers
# and the estimators in this module's globals at call time, so patches apply.

def _distortion_fields(cfg: dict, ctx: _ScheduleContext, gamma, seed: int) -> dict:
    dist = cfg["distortionMethod"]
    rep = measure_distortion(ctx.body, gamma, dist["method"], net=ctx.net,
                             starts=dist.get("starts", 32), seed=child_seed(seed, 1))
    return dict(sup_est=rep.sup_est, inf_est=rep.inf_est, ratio=rep.ratio,
                method_tags=f"sup={rep.sup_method};inf={rep.inf_method}")


def _gaussian_trial(cfg, ctx, seed, laws) -> dict:
    gamma = sample_matrix(EnsembleSpec("GaussianIID", ctx.n, ctx.d), child_seed(seed, 0))
    return _distortion_fields(cfg, ctx, gamma, seed)


def _cube_trial(cfg, ctx, seed, laws) -> dict:
    M = sample_matrix(EnsembleSpec(laws["single"], ctx.n, ctx.d), child_seed(seed, 0))
    wit = adversarial_linf_witness(M)
    if cfg.get("distortionMethod"):
        # Full estimator pair, for use as a control against product runs.
        fields = _distortion_fields(cfg, ctx, M, seed)
        return {**fields, "witness_ratio": wit.ratio,
                "method_tags": fields["method_tags"] + ";witness=signAligned"}
    sup_est = float(np.linalg.norm(M, axis=1).max())
    inf_est = wit.phi_e1
    return dict(sup_est=sup_est, inf_est=inf_est,
                ratio=sup_est / inf_est if inf_est > 0 else math.inf,
                witness_ratio=wit.ratio,
                method_tags="sup=exactRowNorm;inf=axisProbeE1;witness=signAligned")


def _product_trial(cfg, ctx, seed, laws) -> dict:
    pspec = product_spec(laws["row"], laws["col"], n=ctx.n, d=ctx.d, m=ctx.m)
    gamma, _, _ = sample_product(pspec, child_seed(seed, 0))
    return _distortion_fields(cfg, ctx, gamma, seed)


def _event_trial(cfg, ctx, seed, laws) -> dict:
    consts = cfg.get("constants", {})
    spec = EnsembleSpec(laws["col"], rows=ctx.d, cols=ctx.m, vector_axis="cols")
    gamma2 = sample_matrix(spec, child_seed(seed, 0))
    rep = check_event_A(gamma2, consts.get("kappa1", 2.0), ctx.delta, ctx.theta,
                        restarts=consts.get("restarts", 20), seed=child_seed(seed, 1))
    k_main = max(1, rep.k_event)
    return dict(sup_est=rep.sparse_sup[k_main], event_a_holds=rep.event_a_holds,
                method_tags=f"sparse={rep.sparse_methods[k_main]};k={k_main};"
                            f"kappa1Measured={rep.kappa1_measured:.6g}")


def _sandbox_trial(cfg, ctx, seed, laws) -> dict:
    proc = {**_PROCESS_DEFAULTS, **cfg.get("process", {})}
    rng = np.random.default_rng(child_seed(seed, 0))
    T = index_set(rng.standard_normal((ctx.m, ctx.d)))
    sup = emp_sup("gaussian", T, trials=proc["supTrials"], seed=child_seed(seed, 1))
    sud = sudakov_lower(T)
    tail = concentration_check(T, trials=proc["innerTrials"], seed=child_seed(seed, 2))
    return dict(sup_est=sup.value, inf_est=sud,
                ratio=sup.value / sud if sud > 0 else math.inf,
                method_tags="sup=empSupGaussianMC;inf=sudakovLower", tail=tail)


@dataclass(frozen=True)
class _Kind:
    """One experiment kind: its trial function and what its config must carry."""

    trial: Callable
    laws: dict                  # ensemble slot -> default law; the allowed `ensembles` slots
    lp: float | None = None     # the LpBall p the body must have, if any
    m_rule: bool = False        # an mRule is required; if False, none is allowed
    methods: tuple = ()         # allowed distortionMethod.method values
    method_required: bool = False
    solves_event: bool = False  # reads `constants`; theta and delta are derived per entry
    process: bool = False       # reads `process` for d and m; no body


# The kinds that measure the distortion of a map, by any of the four methods.
_MEASURED = dict(methods=("exactSpectral", "exactRowNorm", "netCertified", "multiStartOpt"),
                 method_required=True)

_KINDS = {
    "gaussianDM": _Kind(_gaussian_trial, {}, **_MEASURED),
    "cubeCounterexample": _Kind(_cube_trial, {"single": "UniformPM1"}, lp=math.inf,
                                methods=("exactRowNorm",)),
    "productUniform": _Kind(_product_trial, {"row": "UniformPM1", "col": "UniformPM1"},
                            m_rule=True, **_MEASURED),
    "productLogConcave": _Kind(_product_trial, {"row": "UniformIsotropic",
                                                "col": "LogConcaveSimplex"},
                               m_rule=True, **_MEASURED),
    "productHeavyTailed": _Kind(_product_trial, {"row": "UniformIsotropic",
                                                 "col": "HeavyTailedBounded"},
                                m_rule=True, **_MEASURED),
    "eventAFrequency": _Kind(_event_trial, {"col": "UniformIsotropic"}, m_rule=True,
                             solves_event=True),
    "processSandbox": _Kind(_sandbox_trial, {}, process=True),
}


def _safe_trial(config: ExperimentConfig, ctx: _ScheduleContext,
                trial_index: int, seed: int) -> TrialRecord:
    kind = _KINDS[config.experiment_kind]
    base = dict(experiment_id=config.experiment_id, n=ctx.n, d=ctx.d, m=ctx.m,
                seed=seed, trial_index=trial_index)
    t0 = time.perf_counter()
    try:
        laws = {**kind.laws, **config.raw.get("ensembles", {})}
        rec = TrialRecord(**base, ell_k=ctx.ell_k, d_star=ctx.d_star,
                          **kind.trial(config.raw, ctx, seed, laws))
    except Exception as exc:  # per-trial failures become rows, never aborts
        rec = TrialRecord(**base, error=f"{type(exc).__name__}: {exc}")
    if config.record_timing:
        rec = replace(rec, elapsed_ms=(time.perf_counter() - t0) * 1e3)
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
    per_trial = (ctx for ctx in contexts for _ in range(config.trials))
    tasks = [(ctx, t, child_seed(config.master_seed, t)) for t, ctx in enumerate(per_trial)]

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
    tables = [r.tail for r in records if r.tail is not None]
    if tables:
        summary["tail"] = _sandbox_tail(tables)

    with summary_path.open("w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2)
        f.write("\n")

    failures = sum(1 for r in records if r.error)
    return RunResult(csv_path=csv_path, summary_path=summary_path,
                     summary=summary, records=records, failures=failures)


def _sandbox_tail(tables: list) -> list:
    """Bernoulli-sup tail averaged in trial order over the trials' tables (x in sigma* units)."""
    acc = sum(table.empirical for table in tables) / len(tables)
    mults = tables[0].x / tables[0].sigma_star
    bound = 2.0 * np.exp(-CONCENTRATION_C * mults**2)
    return [{"x": float(x), "empirical": float(e), "bound": float(b)}
            for x, e, b in zip(mults, acc, bound)]


def verify_summary(csv_path, summary: dict) -> bool:
    """Recompute each schedule entry's median ratio from the CSV and compare with the summary.

    The CSV holds the rows of each schedule entry together, `trials` at a time.
    """
    with Path(csv_path).open("r", newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    for i, entry in enumerate(summary["series"]):
        chunk = rows[i * entry["trials"]:(i + 1) * entry["trials"]]
        med, _, _ = _quartiles([float(r["ratio"]) for r in chunk if r["ratio"]])
        ref = entry["medianRatio"]
        if (med is None) != (ref is None) or (
                med is not None and not math.isclose(med, ref, rel_tol=1e-12, abs_tol=1e-12)):
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
        keys = ("medianRatio", "q25", "q75")
        if plot_kind == "ratioVsD" and any("medianWitnessRatio" in e for e in series):
            keys = ("medianWitnessRatio", "witnessQ25", "witnessQ75")
        rows = [[e[x_key], *(e.get(k) for k in keys)] for e in series]
        if any(row[1] is None for row in rows):
            raise ConfigError(f"summary lacks the 'medianRatio' series required by {plot_kind}")
        header = [x_key, "median", "q25", "q75"]

    with out_path.open("w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])
    return out_path
