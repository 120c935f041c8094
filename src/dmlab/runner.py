"""Experiment orchestration: validated configs, seeded sweeps, reproducible files.

A config names one experiment kind, a body family, a dimension schedule and
rules deriving the subspace dimension d and the intermediate dimension m from
each ambient n.  The table `_KINDS` maps each kind to its sampler, its
measurement and the config sections it needs and may also take; any other is
rejected.  A trial draws, then measures: the sampler draws the kind's random
object (the n x d map Gamma, the column factor Gamma2 or the index set) from
child_seed(trial seed, 0), and the measurement turns it into the trial's row.
gaussianDM needs body, dRule and distortionMethod; cubeCounterexample needs
body and dRule and takes distortionMethod; the three product kinds need body,
dRule, mRule and distortionMethod; eventAFrequency needs body, dRule and mRule
and takes constants; processSandbox takes process, for d and m, and a dRule,
which it checks but does not read.  Every number in a config must be finite
(`json` also reads NaN and Infinity).  `_D_RULES` and `_M_RULES` pair each
rule's check with its derivation.  `parse_config` validates a config once and
resolves what the sweep reads: the bodies, the ensemble laws, the distortion
method, event A's constants, the process sizes and the experiment id.  Every
trial derives its seed from the master seed and the global trial index, so
sweeps are embarrassingly parallel: they run in forked worker processes (see
`run_experiment`), and the ordered reduction reproduces the CSV and the JSON
summary byte for byte at any worker count.  The distortion methods, the
fields each reads and the LpBall each needs come from `distortion.METHODS`.

Outputs: one RFC-4180 CSV row per trial (floats at 17 significant digits,
failures recorded in an error column instead of aborting the sweep) and a
JSON summary embedding the config echo, per-n quartile series (built from the
CSV rows, as `verify_summary` rebuilds them), the frozen calibration block and,
for processSandbox, the trials' mean concentration tail.
"""

from __future__ import annotations

import csv
import ctypes
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from dmlab.bodies import LpBall, dual_norm_sup, mean_width_auto, polar_polytope
from dmlab.calibration import CONCENTRATION_C, calibration_block
from dmlab.distortion import METHODS, adversarial_linf_witness, measure_distortion
from dmlab.ensembles import KINDS as ENSEMBLE_KINDS
from dmlab.ensembles import EnsembleSpec, product_spec, sample_matrix, sample_product
from dmlab.events import check_event_A, check_event_constants
from dmlab.nets import sphere_cover
from dmlab.params import SolverConstants, solve_parameters
from dmlab.processes import TAIL_MIN_TRIALS, concentration_check, emp_sup, index_set, sudakov_lower
from dmlab.seeding import child_seed


class ConfigError(ValueError):
    """Invalid experiment configuration; raised before any computation."""


CSV_COLUMNS = (
    "experimentId", "n", "d", "m", "seed", "trialIndex", "supEst", "infEst",
    "ratio", "ellK", "dStar", "eventAHolds", "witnessRatio", "methodTags", "error",
)

# The config sections that each kind needs or takes (`_Kind.needs`, `_Kind.takes`).
_SECTIONS = ("body", "dRule", "mRule", "distortionMethod", "constants", "process")
_TOP_KEYS = {"experimentKind", "ensembles", "schedule", "trials", "masterSeed", "outputs",
             *_SECTIONS}

_PROCESS_DEFAULTS = {"setSize": 32, "setDim": 16, "innerTrials": 10_000, "supTrials": 2000}
_EVENT_DEFAULTS = {"kappa1": 2.0, "restarts": 20, "rho": 0.25, "q": 6.0}
_SOLVER_KEYS = ("rho", "q", "c1", "c2")  # theta and delta depend on these alone


def _expect_keys(d, allowed: set, ctx: str) -> None:
    _require(isinstance(d, dict), f"{ctx} must be a JSON object")
    unknown = set(d) - allowed
    _require(not unknown, f"unknown fields in {ctx}: {sorted(unknown)}")


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


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
    "fractionOfDStar": _Rule("c", "positive and finite", lambda v, k: _is_num(v) and v > 0,
                             lambda r, i, n, ds: max(1, int(round(r["c"] * ds)))),
    "logN": _Rule("c", "positive and finite", lambda v, k: _is_num(v) and v > 0,
                  lambda r, i, n, ds: max(1, int(math.floor(r["c"] * math.log(n))))),
}

_M_RULES = {
    "fixed": _Rule("m", "an integer >= 1", lambda v, k: _is_int(v),
                   lambda r, i, n, ds: r["m"]),
    "multipleOfN": _Rule("c", "positive and finite", lambda v, k: _is_num(v) and v > 0,
                         lambda r, i, n, ds: int(math.ceil(r["c"] * n))),
}


def _check_rule(cfg: dict, name: str, rules: dict, schedule: list, read: bool) -> None:
    spec = cfg.get(name)
    _expect_keys(spec, {"rule", *(r.field for r in rules.values())}, name)
    rule = rules.get(spec.get("rule")) if isinstance(spec.get("rule"), str) else None
    _require(rule is not None, f"{name}.rule must be {' | '.join(rules)}")
    _require(rule.check(spec.get(rule.field), len(schedule)),
             f"{name}.{rule.field} must be {rule.want} for rule {spec['rule']}")
    given_d = read and name == "dRule" and spec["rule"] in ("fixed", "fixedPerN")
    # d* <= n, as ell(K) <= sqrt(n) b(K); 2n leaves room for a Monte-Carlo ell(K).
    for i, n in enumerate(schedule):
        try:
            value = rule.derive(spec, i, n, 2.0 * n)
        except OverflowError:
            raise ConfigError(f"{name}.{rule.field} gives no finite {name[0]} at n={n}") from None
        _require(not given_d or value <= n, f"{name}.{rule.field} gives d={value} > n={n}")


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    raw: dict                       # validated config as given (the echo)
    experiment_kind: str
    experiment_id: str
    schedule: tuple
    trials: int
    master_seed: int
    bodies: tuple                   # one body per schedule entry; () for processSandbox
    laws: dict                      # ensemble slot -> law, defaults filled in
    distortion: dict | None         # distortionMethod, `starts` defaulted to 32
    event: tuple | None             # event A's (kappa1, delta, theta, restarts)
    process: dict                   # process sizes, defaults filled in


def parse_config(cfg: dict) -> ExperimentConfig:
    """Validate a config dict (unknown fields rejected) and resolve what the sweep reads.

    That is one body per schedule entry, the ensemble laws, distortion method
    and process sizes with their defaults filled in, event A's theta and delta,
    solved once, and the experiment id.  No mean width or net is computed here.
    """
    _expect_keys(cfg, _TOP_KEYS, "config")
    name = cfg.get("experimentKind")
    kind = _KINDS.get(name) if isinstance(name, str) else None
    _require(kind is not None, f"experimentKind must be one of {tuple(_KINDS)}")
    for section in _SECTIONS:
        _require(section in cfg or section not in kind.needs, f"{name} requires {section}")
        _require(section not in cfg or section in kind.needs + kind.takes,
                 f"{name} takes no {section}")

    schedule = cfg.get("schedule")
    _require(isinstance(schedule, list) and len(schedule) >= 1, "schedule must be a nonempty list")
    _require(all(map(_is_int, schedule)), "schedule entries must be positive integers")

    trials = cfg.get("trials")
    _require(_is_int(trials), "trials must be an integer >= 1")
    seed = cfg.get("masterSeed", 0)
    _require(_is_int(seed, 0), "masterSeed must be a nonnegative integer")

    bodies = ()
    if "body" in cfg:
        body = cfg["body"]
        _require(isinstance(body, dict) and body.get("kind") in _BODY_KINDS,
                 f"body must be a JSON object with kind one of {tuple(_BODY_KINDS)}")
        field, build = _BODY_KINDS[body["kind"]]
        _expect_keys(body, {"kind", field}, f"body {body['kind']}")
        bodies = build(body.get(field), schedule)
    for section, rules in (("dRule", _D_RULES), ("mRule", _M_RULES)):
        if section in cfg:
            _check_rule(cfg, section, rules, schedule, section in kind.needs)

    ens = cfg.get("ensembles", {})
    _expect_keys(ens, set(kind.laws), "ensembles")
    for slot, val in ens.items():
        _require(val in ENSEMBLE_KINDS, f"ensembles.{slot} must be one of {ENSEMBLE_KINDS}")

    method = distortion = None
    if "distortionMethod" in cfg:
        dist = cfg["distortionMethod"]
        method = dist.get("method") if isinstance(dist, dict) else None
        _require(method in kind.methods,
                 f"{name} supports the distortion methods {' | '.join(kind.methods)}")
        _expect_keys(dist, {"method", *METHODS[method][1]}, f"distortionMethod {method}")
        _require(_is_int(dist.get("starts", 1)), "distortionMethod.starts must be an integer >= 1")
        if method == "netCertified":
            _require(_is_num(dist.get("rho")) and 0 < dist["rho"] < 0.5,
                     "netCertified needs rho in (0, 1/2): the slack rho*M/(1-rho) "
                     "reaches the net maximum M at rho = 1/2, so every certified "
                     "infimum would be <= 0")
            _require(_is_int(dist.get("candidateBudget", 1)),
                     "distortionMethod.candidateBudget must be an integer >= 1")
        distortion = {"starts": 32, **dist}
    need_p = METHODS[method][0] if method else kind.lp
    if need_p is not None:
        _require(isinstance(bodies[0], LpBall) and bodies[0].p == need_p,
                 f"{method or name} requires body LpBall({need_p:g}, n)")

    event = None
    if "constants" in kind.takes:  # the event kind solves its constants even when none are given
        constants = cfg.get("constants", {})
        _expect_keys(constants, {*_EVENT_DEFAULTS, *_SOLVER_KEYS, "theta", "delta"}, "constants")
        _require(all(map(_is_num, constants.values())), "constants must be numbers, all finite")
        given = {"theta", "delta"} & set(constants)
        _require(len(given) != 1, "constants.theta and constants.delta must come together")
        unread = sorted(set(constants) & set(_SOLVER_KEYS)) if given else []
        _require(not unread, f"constants {unread} are not read when theta and delta are given")
        consts = {**_EVENT_DEFAULTS, **constants}
        try:  # the bounds are those that the solver and the event check enforce
            if not given:  # dStar and n do not enter theta or delta
                sol = solve_parameters(consts["rho"], consts["q"], 1.0, 1, SolverConstants(
                    **{c: consts[c] for c in ("c1", "c2") if c in consts}))
                _require(sol.reason != "theta-constraint unsatisfiable", sol.reason)
                consts.update(theta=sol.theta, delta=sol.delta)
            event = (consts["kappa1"], consts["delta"], consts["theta"], consts["restarts"])
            check_event_constants(*event)
        except ValueError as exc:
            raise ConfigError(f"constants: {exc}") from None

    process = cfg.get("process", {})
    _expect_keys(process, set(_PROCESS_DEFAULTS), "process")
    for key, value in process.items():
        low = TAIL_MIN_TRIALS if key == "innerTrials" else 1
        _require(_is_int(value, low), f"process.{key} must be an integer >= {low}")

    outputs = cfg.get("outputs", {})
    _expect_keys(outputs, {"csv", "summary"}, "outputs")
    _require(all(isinstance(v, str) for v in outputs.values()), "outputs must be file names")

    digest = hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:12]
    return ExperimentConfig(
        raw=cfg, experiment_kind=name, experiment_id=f"{name}-{digest}",
        schedule=tuple(schedule), trials=trials, master_seed=seed, bodies=bodies,
        laws={**kind.laws, **ens}, distortion=distortion, event=event,
        process={**_PROCESS_DEFAULTS, **process},
    )


def _lp_balls(p, schedule: list) -> tuple:
    _require(p == "inf" or (_is_num(p) and p >= 1), "body.p must be a finite number >= 1 or 'inf'")
    return tuple(LpBall(math.inf if p == "inf" else float(p), n) for n in schedule)


def _polytopes(verts, schedule: list) -> tuple:
    """One PolarPolytope for every entry, from numbers, one vertex or a list of them."""
    rows = verts if isinstance(verts, list) and verts and isinstance(verts[0], list) else [verts]
    _require(all(isinstance(r, list) and r and all(map(_is_num, r)) for r in rows),
             "PolarPolytope needs a nonempty dualVertices list of numbers; "
             "dual vertices must be finite")
    try:
        body = polar_polytope(verts)
    except ValueError as exc:  # ragged rows
        raise ConfigError(f"body.dualVertices: {exc}") from None
    for n in schedule:
        _require(body.n == n, f"PolarPolytope dimension {body.n} does not match schedule n={n}")
    return (body,) * len(schedule)


# body.kind -> (the one field it reads, the builder of one body per schedule entry)
_BODY_KINDS = {"LpBall": ("p", _lp_balls), "PolarPolytope": ("dualVertices", _polytopes)}


@dataclass(frozen=True, eq=False)
class _ScheduleContext:
    n: int
    d: int
    m: int
    body: object = None             # None, and NaN constants, for processSandbox
    ell_k: float = math.nan
    d_star: float = math.nan
    net: object = None


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
    n = config.schedule[n_index]
    if not config.bodies:  # processSandbox
        return _ScheduleContext(n=n, d=config.process["setDim"], m=config.process["setSize"])
    body = config.bodies[n_index]
    ell_k, _ = mean_width_auto(body, seed=child_seed(config.master_seed, 900_000 + n_index))
    d_star = (ell_k / dual_norm_sup(body)) ** 2
    d_rule = config.raw["dRule"]
    d = _D_RULES[d_rule["rule"]].derive(d_rule, n_index, n, d_star)
    m_rule = config.raw.get("mRule")
    m = _M_RULES[m_rule["rule"]].derive(m_rule, n_index, n, d_star) if m_rule else 0

    dist = config.distortion
    net = sphere_cover(d, dist["rho"]) if dist and dist["method"] == "netCertified" else None
    return _ScheduleContext(n=n, d=d, m=m, body=body, ell_k=ell_k, d_star=d_star, net=net)


# Samplers: (ensemble laws, schedule context, draw seed) -> the trial's random
# object.  Measurements: (config, schedule context, that object, trial seed) ->
# the TrialRecord fields measured.  Both look up the samplers, measure_distortion
# and the estimators in this module's globals at call time, so patches apply.

def _product(laws, ctx, seed):
    spec = product_spec(laws["row"], laws["col"], n=ctx.n, d=ctx.d, m=ctx.m)
    return sample_product(spec, seed)[0]


def _distortion_fields(config, ctx: _ScheduleContext, gamma, seed: int) -> dict:
    dist = config.distortion
    rep = measure_distortion(ctx.body, gamma, dist["method"], net=ctx.net,
                             starts=dist["starts"], seed=child_seed(seed, 1))
    return dict(sup_est=rep.sup_est, inf_est=rep.inf_est, ratio=rep.ratio,
                method_tags=f"sup={rep.sup_method};inf={rep.inf_method}")


def _cube_fields(config, ctx, M, seed) -> dict:
    wit = adversarial_linf_witness(M)
    if config.distortion:
        # Full estimator pair, for use as a control against product runs.
        fields = _distortion_fields(config, ctx, M, seed)
        return {**fields, "witness_ratio": wit.ratio,
                "method_tags": fields["method_tags"] + ";witness=signAligned"}
    sup_est = float(np.linalg.norm(M, axis=1).max())
    inf_est = wit.phi_e1
    return dict(sup_est=sup_est, inf_est=inf_est,
                ratio=sup_est / inf_est if inf_est > 0 else math.inf,
                witness_ratio=wit.ratio,
                method_tags="sup=exactRowNorm;inf=axisProbeE1;witness=signAligned")


def _event_fields(config, ctx, gamma2, seed) -> dict:
    rep = check_event_A(gamma2, *config.event, seed=child_seed(seed, 1))
    k_main = max(1, rep.k_event)
    sparse = rep.sparse_methods[k_main] if rep.k_event else "vacuous"  # floor(theta m) = 0
    return dict(sup_est=rep.sparse_sup[k_main], event_a_holds=rep.event_a_holds,
                method_tags=f"sparse={sparse};k={k_main};"
                            f"kappa1Measured={rep.lambda_max:.6g}")


def _sandbox_fields(config, ctx, T, seed) -> dict:
    sup = emp_sup("gaussian", T, trials=config.process["supTrials"], seed=child_seed(seed, 1))
    sud = sudakov_lower(T)
    tail = concentration_check(T, trials=config.process["innerTrials"], seed=child_seed(seed, 2))
    return dict(sup_est=sup.value, inf_est=sud,
                ratio=sup.value / sud if sud > 0 else math.inf,
                method_tags="sup=empSupGaussianMC;inf=sudakovLower", tail=tail)


@dataclass(frozen=True)
class _Kind:
    """One experiment kind: how a trial draws, how it measures the draw, what config it reads."""

    sample: Callable            # (laws, ctx, draw seed) -> Gamma, column factor or index set
    measure: Callable           # (config, ctx, that draw, trial seed) -> TrialRecord fields
    laws: dict                  # ensemble slot -> default law; the allowed `ensembles` slots
    needs: tuple                # the sections a config must carry
    takes: tuple = ()           # the sections it may also carry; any other is rejected
    lp: float | None = None     # the LpBall p the body must have, if any
    methods: tuple = tuple(METHODS)  # allowed distortionMethod.method values


_PRODUCT_NEEDS = ("body", "dRule", "mRule", "distortionMethod")
_KINDS = {
    "gaussianDM": _Kind(
        lambda laws, ctx, s: sample_matrix(EnsembleSpec("GaussianIID", ctx.n, ctx.d), s),
        _distortion_fields, {}, ("body", "dRule", "distortionMethod")),
    "cubeCounterexample": _Kind(
        lambda laws, ctx, s: sample_matrix(EnsembleSpec(laws["single"], ctx.n, ctx.d), s),
        _cube_fields, {"single": "UniformPM1"}, ("body", "dRule"), ("distortionMethod",),
        lp=math.inf, methods=("exactRowNorm",)),
    "productUniform": _Kind(_product, _distortion_fields,
                            {"row": "UniformPM1", "col": "UniformPM1"}, _PRODUCT_NEEDS),
    "productLogConcave": _Kind(_product, _distortion_fields,
                               {"row": "UniformIsotropic", "col": "LogConcaveSimplex"},
                               _PRODUCT_NEEDS),
    "productHeavyTailed": _Kind(_product, _distortion_fields,
                                {"row": "UniformIsotropic", "col": "HeavyTailedBounded"},
                                _PRODUCT_NEEDS),
    "eventAFrequency": _Kind(
        lambda laws, ctx, s: sample_matrix(EnsembleSpec(laws["col"], ctx.d, ctx.m, "cols"), s),
        _event_fields, {"col": "UniformIsotropic"}, ("body", "dRule", "mRule"), ("constants",)),
    "processSandbox": _Kind(
        lambda laws, ctx, s: index_set(np.random.default_rng(s).standard_normal((ctx.m, ctx.d))),
        _sandbox_fields, {}, (), ("dRule", "process")),
}


def _safe_trial(config: ExperimentConfig, ctx: _ScheduleContext,
                trial_index: int, seed: int) -> TrialRecord:
    base = dict(experiment_id=config.experiment_id, n=ctx.n, d=ctx.d, m=ctx.m,
                seed=seed, trial_index=trial_index)
    kind = _KINDS[config.experiment_kind]
    try:  # draw, then measure; either failing gives an error row
        drawn = kind.sample(config.laws, ctx, child_seed(seed, 0))
        return TrialRecord(**base, ell_k=ctx.ell_k, d_star=ctx.d_star,
                           **kind.measure(config, ctx, drawn, seed))
    except Exception as exc:  # per-trial failures become rows, never aborts
        return TrialRecord(**base, error=f"{type(exc).__name__}: {exc}")


# Symbol prefix and suffix of the OpenBLAS builds in numpy's wheels (numpy >= 2, then 1.x).
_OPENBLAS_SYMBOLS = (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", ""))


def _one_blas_thread() -> None:
    """Pool initializer: one BLAS thread per forked worker.

    A forked worker inherits its parent's BLAS thread count, by default one
    per core, so two workers on two cores would each run a full BLAS pool.
    The environment variables act only when BLAS loads, so the thread count
    is set through OpenBLAS's own functions, looked up through numpy's LAPACK
    extension, which links numpy's BLAS.  Another BLAS keeps its count.
    """
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for prefix, suffix in _OPENBLAS_SYMBOLS:
        getter = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
        if getter is not None:
            getter.argtypes, getter.restype = (), ctypes.c_int
            if getter() > 1:  # setting it costs time per worker even when it is 1
                setter = getattr(lib, f"{prefix}set_num_threads{suffix}")
                setter.argtypes, setter.restype = (ctypes.c_int,), None
                setter(1)
            return


def _sweep(config: ExperimentConfig, ordered_map: Callable) -> list:
    """The trial records: the schedule contexts, then the trials, through `ordered_map`."""
    contexts = ordered_map(_schedule_context, repeat(config), range(len(config.schedule)))
    per_trial = (ctx for ctx in contexts for _ in range(config.trials))
    tasks = [(ctx, t, child_seed(config.master_seed, t)) for t, ctx in enumerate(per_trial)]
    return list(ordered_map(_safe_trial, repeat(config), *zip(*tasks)))


def _quartiles(cells: list) -> tuple:
    arr = np.array([float(c) for c in cells])
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
    """Execute the sweep and write the CSV + JSON summary files.

    `threads` is the number of worker processes, an integer >= 1, capped at
    the CPU count and the number of trials.  At 1 everything runs in this
    process.  Above 1 a pool of processes forked from this one, each with one
    BLAS thread, first builds the schedule contexts (mean width, sphere net),
    one task per schedule entry, then runs the trials; the records come back
    in trial order, so the files are byte-identical at every worker count.
    Being forked, the workers see patches of this module's globals.
    """
    if isinstance(config, dict):
        config = parse_config(config)
    _require(_is_int(threads), "threads must be an integer >= 1")
    workers = min(threads, os.cpu_count() or 1, len(config.schedule) * config.trials)
    if workers > 1:
        # Fork, not spawn: a spawned worker still pays 0.3 s for a fresh interpreter
        # and the dmlab import; a tiny 2-worker sweep takes 0.5 s spawned, 0.05 s forked.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_one_blas_thread) as pool:
            records = _sweep(config, pool.map)
    else:
        records = _sweep(config, map)

    out_dir = Path(out_dir)  # made only once the sweep has its records
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = config.raw.get("outputs", {})
    csv_path = out_dir / outputs.get("csv", "trials.csv")
    summary_path = out_dir / outputs.get("summary", "summary.json")

    rows = [_to_row(rec) for rec in records]
    with csv_path.open("w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)  # RFC-4180: CRLF rows, quotes only where needed
        writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)

    summary = {"configEcho": config.raw, "series": _series(rows, config.trials),
               "calibration": calibration_block()}
    tables = [r.tail for r in records if r.tail is not None]
    if tables:
        summary["tail"] = _sandbox_tail(tables)

    with summary_path.open("w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2)
        f.write("\n")

    return RunResult(csv_path=csv_path, summary_path=summary_path, summary=summary,
                     records=records, failures=sum(1 for r in records if r.error))


def _series(rows: list, trials: int) -> list:
    """The summary's per-entry series from the CSV rows as formatted, `trials` rows per entry."""
    series = []
    for start in range(0, len(rows), trials):
        block = [dict(zip(CSV_COLUMNS, row)) for row in rows[start:start + trials]]
        ok = [r for r in block if not r["error"]]
        ratios, flags, wits = ([r[k] for r in ok if r[k]]
                               for k in ("ratio", "eventAHolds", "witnessRatio"))
        med, q25, q75 = _quartiles(ratios)
        entry = {"n": int(block[0]["n"]), "d": int(block[0]["d"]), "m": int(block[0]["m"]),
                 "medianRatio": med, "q25": q25, "q75": q75,
                 "eventAFrequency": flags.count("true") / len(flags) if flags else None,
                 "trials": trials}
        if wits:
            wmed, wq25, wq75 = _quartiles(wits)
            entry.update(medianWitnessRatio=wmed, witnessQ25=wq25, witnessQ75=wq75)
        series.append(entry)
    return series


def _sandbox_tail(tables: list) -> list:
    """Bernoulli-sup tail averaged in trial order over the trials' tables (x in sigma* units)."""
    acc = sum(table.empirical for table in tables) / len(tables)
    mults = tables[0].x / tables[0].sigma_star
    bound = 2.0 * np.exp(-CONCENTRATION_C * mults**2)
    return [{"x": float(x), "empirical": float(e), "bound": float(b)}
            for x, e, b in zip(mults, acc, bound)]


def verify_summary(csv_path, summary: dict) -> bool:
    """Rebuild the summary's series from the CSV and check that every field matches.

    `run_experiment` builds the series from the same CSV text with the same
    function, and JSON keeps floats exactly, so the check is exact equality.
    """
    with Path(csv_path).open("r", newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))[1:]
    return _series(rows, summary["configEcho"]["trials"]) == summary["series"]


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
