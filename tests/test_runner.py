import csv
import ctypes
import importlib.util
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import dmlab.cli as cli_mod
import dmlab.runner as runner_mod
from dmlab.bodies import LpBall
from dmlab.cli import main as cli_main
from dmlab.distortion import measure_distortion
from dmlab.ensembles import EnsembleSpec, product_spec, sample_matrix, sample_product
from dmlab.params import SolverConstants, solve_parameters
from dmlab.processes import TAIL_MIN_TRIALS, concentration_check, index_set
from dmlab.runner import (
    CSV_COLUMNS,
    ConfigError,
    emit_plot_data,
    parse_config,
    run_experiment,
    verify_summary,
)
from dmlab.seeding import child_seed

BASE_CFG = {
    "experimentKind": "gaussianDM",
    "body": {"kind": "LpBall", "p": 2},
    "schedule": [64],
    "dRule": {"rule": "fixed", "d": 8},
    "trials": 5,
    "masterSeed": 42,
    "distortionMethod": {"method": "exactSpectral"},
}

ROOT = Path(__file__).resolve().parent.parent
DEMO_CONFIGS = ROOT / "demos" / "configs"

SANDBOX_CFG = {
    "experimentKind": "processSandbox",
    "schedule": [1],
    "dRule": {"rule": "fixed", "d": 8},
    "trials": 2,
    "masterSeed": 1,
    "process": {"setSize": 16, "setDim": 8, "innerTrials": 10000, "supTrials": 1000},
}

# One small config per experiment kind.
KIND_CFGS = {
    "gaussianDM": BASE_CFG,
    "cubeCounterexample": {
        "experimentKind": "cubeCounterexample", "body": {"kind": "LpBall", "p": "inf"},
        "schedule": [32, 64], "dRule": {"rule": "fixedPerN", "values": [4, 8]},
        "trials": 3, "masterSeed": 3,
        "distortionMethod": {"method": "exactRowNorm", "starts": 8},
    },
    "productUniform": {
        "experimentKind": "productUniform", "body": {"kind": "LpBall", "p": "inf"},
        "schedule": [32, 64], "dRule": {"rule": "logN", "c": 1.0},
        "mRule": {"rule": "multipleOfN", "c": 2.0}, "trials": 3, "masterSeed": 4,
        "distortionMethod": {"method": "exactRowNorm", "starts": 8},
    },
    "productLogConcave": {
        "experimentKind": "productLogConcave", "body": {"kind": "LpBall", "p": "inf"},
        "schedule": [32], "dRule": {"rule": "fixed", "d": 2},
        "mRule": {"rule": "fixed", "m": 48}, "trials": 3, "masterSeed": 5,
        "distortionMethod": {"method": "netCertified", "rho": 0.3, "candidateBudget": 5000},
    },
    "productHeavyTailed": {
        "experimentKind": "productHeavyTailed", "body": {"kind": "LpBall", "p": 3},
        "schedule": [32], "dRule": {"rule": "fractionOfDStar", "c": 0.2},
        "mRule": {"rule": "fixed", "m": 40}, "trials": 3, "masterSeed": 6,
        "distortionMethod": {"method": "multiStartOpt", "starts": 8},
    },
    "eventAFrequency": {
        "experimentKind": "eventAFrequency", "body": {"kind": "LpBall", "p": 2},
        "schedule": [64], "dRule": {"rule": "fixed", "d": 8},
        "mRule": {"rule": "fixed", "m": 64}, "trials": 3, "masterSeed": 7,
        "constants": {"theta": 3.5 / 64, "delta": 0.2, "kappa1": 2.0, "restarts": 3},
    },
    "processSandbox": {**SANDBOX_CFG, "schedule": [1, 2], "trials": 3},
}


def test_validation_rejects_unknown_and_bad_fields():
    with pytest.raises(ConfigError, match="unknown fields"):
        parse_config({**BASE_CFG, "extra": 1})
    with pytest.raises(ConfigError):
        parse_config({**BASE_CFG, "trials": 0})
    with pytest.raises(ConfigError):
        parse_config({**BASE_CFG, "schedule": []})
    with pytest.raises(ConfigError):
        parse_config({**BASE_CFG, "experimentKind": "mystery"})
    with pytest.raises(ConfigError):
        parse_config({**BASE_CFG, "masterSeed": -3})
    with pytest.raises(ConfigError, match="exactSpectral requires"):
        parse_config({**BASE_CFG, "body": {"kind": "LpBall", "p": "inf"}})
    with pytest.raises(ConfigError):
        parse_config({**BASE_CFG, "dRule": {"rule": "sqrtN"}})
    with pytest.raises(ConfigError):
        cfg = dict(BASE_CFG)
        del cfg["distortionMethod"]
        parse_config(cfg)
    with pytest.raises(ConfigError, match="mRule"):
        parse_config({**BASE_CFG, "experimentKind": "productUniform",
                      "body": {"kind": "LpBall", "p": "inf"},
                      "distortionMethod": {"method": "exactRowNorm"}})
    with pytest.raises(ConfigError, match="values"):
        parse_config({**BASE_CFG, "dRule": {"rule": "fixedPerN", "values": [1, 2]}})
    # The cube kind reports l_inf quantities, so any other body is mislabelled.
    with pytest.raises(ConfigError, match=r"requires body LpBall\(inf, n\)"):
        cube = {k: v for k, v in KIND_CFGS["cubeCounterexample"].items()
                if k != "distortionMethod"}
        parse_config({**cube, "body": {"kind": "LpBall", "p": 2}})


@pytest.mark.parametrize("change, match", [
    ({"process": {"innerTrials": 100}}, "innerTrials"),
    ({"process": {"setDim": "8"}}, "setDim"),
    ({"process": {"setSize": 0}}, "setSize"),
    ({"process": {"supTrials": 1.5}}, "supTrials"),
    ({"process": ["setDim"]}, "process must be a JSON object"),
    ({"constants": ["rho"]}, "processSandbox takes no constants"),
    ({"trials": True}, "trials"),
    ({"masterSeed": False}, "masterSeed"),
    ({"distortionMethod": {"method": "exactSpectral"}}, "takes no distortionMethod"),
    ({"body": {"kind": "LpBall", "p": 2}}, "takes no body"),
    ({"outputs": {"csv": 5}}, "outputs"),
])
def test_validation_rejects_sandbox_gaps(change, match):
    with pytest.raises(ConfigError, match=match):
        parse_config({**SANDBOX_CFG, **change})


def test_validation_rejects_event_gaps():
    cfg = KIND_CFGS["eventAFrequency"]
    with pytest.raises(ConfigError, match="takes no distortionMethod"):
        parse_config({**cfg, "distortionMethod": {"method": "exactSpectral"}})
    with pytest.raises(ConfigError, match="constants must be numbers"):
        parse_config({**cfg, "constants": {"theta": "0.05", "delta": 0.2}})
    with pytest.raises(ConfigError, match="constants must be a JSON object"):
        parse_config({**cfg, "constants": ["rho"]})
    with pytest.raises(ConfigError, match="dRule.d"):
        parse_config({**cfg, "dRule": {"rule": "fixed", "d": True}})


def test_sandbox_accepts_a_d_rule():
    assert parse_config(SANDBOX_CFG).experiment_kind == "processSandbox"


def test_sandbox_runs_without_a_d_rule(tmp_path):
    cfg = {k: v for k, v in SANDBOX_CFG.items() if k != "dRule"}
    res = run_experiment(cfg, out_dir=tmp_path)
    assert res.failures == 0
    assert [r.d for r in res.records] == [8, 8]


@pytest.mark.parametrize("cfg, dist", [
    (BASE_CFG, {"method": "exactSpectral", "starts": 8}),
    (KIND_CFGS["productLogConcave"],
     {"method": "netCertified", "rho": 0.3, "candidateBudget": 5000, "starts": 8}),
    (KIND_CFGS["productHeavyTailed"], {"method": "multiStartOpt", "starts": 8, "rho": 0.3}),
    (KIND_CFGS["productHeavyTailed"],
     {"method": "multiStartOpt", "starts": 8, "candidateBudget": 5000}),
], ids=["exactSpectral-starts", "netCertified-starts", "multiStartOpt-rho",
        "multiStartOpt-candidateBudget"])
def test_validation_rejects_method_fields_the_method_never_reads(cfg, dist):
    with pytest.raises(ConfigError, match=f"unknown fields in distortionMethod {dist['method']}"):
        parse_config({**cfg, "distortionMethod": dist})


_EVENT_GIVEN = KIND_CFGS["eventAFrequency"]
_EVENT_SOLVED = {**_EVENT_GIVEN, "constants": {"rho": 0.25, "q": 6.0, "kappa1": 2.0}}


@pytest.mark.parametrize("cfg, change, match", [
    (_EVENT_GIVEN, {"theta": 0.3}, "theta must be in"),
    (_EVENT_GIVEN, {"delta": 0.5}, "delta must be in"),
    (_EVENT_GIVEN, {"kappa1": 0.5}, "kappa1 must be >= 1"),
    (_EVENT_SOLVED, {"kappa1": 0.5}, "kappa1 must be >= 1"),
    (_EVENT_GIVEN, {"restarts": 0}, "restarts"),
    (_EVENT_GIVEN, {"restarts": -1}, "restarts"),
    (_EVENT_GIVEN, {"restarts": 2.5}, "restarts"),
    (_EVENT_SOLVED, {"rho": 0.5}, "rho must be in"),
    (_EVENT_SOLVED, {"q": 2}, "q must exceed 2"),
    (_EVENT_SOLVED, {"c1": 0}, "positive"),
    (_EVENT_SOLVED, {"theta": 0.05}, "must come together"),
    (_EVENT_SOLVED, {"delta": 0.2}, "must come together"),
    (_EVENT_GIVEN, {"rho": 0.25}, r"\['rho'\] are not read"),
    (_EVENT_GIVEN, {"q": 6.0, "c2": 2.0}, r"\['c2', 'q'\] are not read"),
], ids=["theta", "delta", "kappa1", "kappa1-solved", "restarts-0", "restarts-negative",
        "restarts-float", "rho", "q", "c1", "theta-alone", "delta-alone", "given-rho",
        "given-q-c2"])
def test_validation_rejects_bad_event_constants(cfg, change, match):
    with pytest.raises(ConfigError, match=match):
        parse_config({**cfg, "constants": {**cfg["constants"], **change}})


_PRODUCT_CFG = KIND_CFGS["productUniform"]


@pytest.mark.parametrize("cfg, section, change", [
    (_EVENT_SOLVED, "constants", {"kappa1": math.nan}),
    (_EVENT_SOLVED, "constants", {"c2": math.nan}),
    (_EVENT_SOLVED, "constants", {"q": math.inf}),
    (_EVENT_SOLVED, "constants", {"kappa1": math.inf}),
    (_EVENT_SOLVED, "constants", {"c1": math.inf}),
    (_EVENT_SOLVED, "constants", {"c2": math.inf}),
    (_EVENT_GIVEN, "constants", {"kappa1": math.inf}),
    (_PRODUCT_CFG, "dRule", {"c": math.inf}),
    (_PRODUCT_CFG, "mRule", {"c": math.inf}),
    (KIND_CFGS["productHeavyTailed"], "dRule", {"c": math.inf}),
], ids=["kappa1-nan", "c2-nan", "q-inf", "kappa1-inf", "c1-inf", "c2-inf", "given-kappa1-inf",
        "logN-inf", "multipleOfN-inf", "fractionOfDStar-inf"])
def test_non_finite_config_numbers_are_rejected(cfg, section, change):
    with pytest.raises(ConfigError, match="finite"):
        parse_config({**cfg, section: {**cfg[section], **change}})


@pytest.mark.parametrize("cfg, section", [
    (_PRODUCT_CFG, "dRule"), (_PRODUCT_CFG, "mRule"), (KIND_CFGS["productHeavyTailed"], "dRule"),
], ids=["logN", "multipleOfN", "fractionOfDStar"])
def test_rule_constants_that_overflow_d_or_m_are_rejected(cfg, section):
    # Finite, but c * log n, c * n and c * dStar overflow to infinity.
    with pytest.raises(ConfigError, match=rf"^{section}.c gives no finite {section[0]} at n=32$"):
        parse_config({**cfg, section: {**cfg[section], "c": 1e308}})
    parse_config({**cfg, section: {**cfg[section], "c": 1e300}})


def test_cli_rejects_an_overflowing_rule_constant_with_exit_2(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**_PRODUCT_CFG, "dRule": {"rule": "logN", "c": 1e308}}))
    assert cli_main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("d_rule, match", [
    ({"rule": "fixed", "d": 33}, "dRule.d gives d=33 > n=32"),
    ({"rule": "fixedPerN", "values": [32, 65]}, "dRule.values gives d=65 > n=64"),
], ids=["fixed", "fixedPerN"])
def test_a_given_d_above_n_is_rejected(d_rule, match):
    # Gamma is n x d; KIND_CFGS["cubeCounterexample"] has the schedule [32, 64].
    cfg = KIND_CFGS["cubeCounterexample"]
    with pytest.raises(ConfigError, match=f"^{match}$"):
        parse_config({**cfg, "dRule": d_rule})
    parse_config({**cfg, "dRule": {"rule": "fixedPerN", "values": [32, 64]}})
    parse_config({**SANDBOX_CFG, "dRule": {"rule": "fixed", "d": 65}})  # processSandbox never reads d


def test_cli_rejects_a_huge_fixed_d_with_exit_2_and_no_output_dir(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**KIND_CFGS["productLogConcave"],
                                "dRule": {"rule": "fixed", "d": 10**30}}))
    assert cli_main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_a_sweep_that_raises_leaves_no_output_dir(tmp_path, monkeypatch):
    def fail(config, n_index):
        raise ValueError("schedule context failed")

    monkeypatch.setattr(runner_mod, "_schedule_context", fail)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BASE_CFG))
    assert cli_main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_cli_rejects_an_infinite_rule_constant_with_exit_2(tmp_path):
    # json writes and reads Infinity; the derived d would overflow in the sweep.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**_PRODUCT_CFG, "dRule": {"rule": "logN", "c": math.inf}}))
    assert "Infinity" in path.read_text()
    assert cli_main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_unsatisfiable_theta_is_rejected():
    constants = {**_EVENT_SOLVED["constants"], "q": 2.1, "c2": 1e-4}
    sol = solve_parameters(0.25, 2.1, 1.0, 1, SolverConstants(c2=1e-4))
    assert sol.reason == "theta-constraint unsatisfiable"
    with pytest.raises(ConfigError, match="^constants: theta-constraint unsatisfiable$"):
        parse_config({**_EVENT_SOLVED, "constants": constants})
    # The dummy dStar = 1 makes every solution infeasible through d; that is not rejected.
    assert solve_parameters(0.25, 6.0, 1.0, 1).reason == "d<1"
    assert parse_config(_EVENT_SOLVED).event is not None


def test_cli_rejects_bad_event_constants_with_exit_2(tmp_path):
    path = tmp_path / "cfg.json"
    cfg = {**_EVENT_GIVEN, "constants": {**_EVENT_GIVEN["constants"], "restarts": 2.5}}
    path.write_text(json.dumps(cfg))
    assert cli_main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field", ["c0", "c3"])
def test_constants_c0_and_c3_are_rejected(field, tmp_path):
    # c0 sets only the solver's m and c3 only its d; the sweep takes both from its rules.
    cfg = {**_EVENT_SOLVED, "constants": {**_EVENT_SOLVED["constants"], field: 2.0}}
    with pytest.raises(ConfigError, match=rf"unknown fields in constants: \['{field}'\]"):
        parse_config(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_every_solver_key_moves_theta_or_delta():
    base = parse_config(_EVENT_SOLVED).event
    for key, value in {"rho": 0.01, "q": 3.0, "c1": 0.1, "c2": 0.5}.items():
        assert key in runner_mod._SOLVER_KEYS
        cfg = {**_EVENT_SOLVED, "constants": {**_EVENT_SOLVED["constants"], key: value}}
        assert parse_config(cfg).event[1:3] != base[1:3], key
    assert set(runner_mod._SOLVER_KEYS) == {"rho", "q", "c1", "c2"}


def test_inner_trials_floor_is_the_concentration_check_floor():
    low = TAIL_MIN_TRIALS
    sandbox = {**SANDBOX_CFG, "process": {**SANDBOX_CFG["process"], "innerTrials": low - 1}}
    with pytest.raises(ConfigError, match=f"process.innerTrials must be an integer >= {low}"):
        parse_config(sandbox)
    with pytest.raises(ValueError, match="concentration_check needs trials >= 1e4"):
        concentration_check(index_set([[1.0, 0.0]]), trials=low - 1)
    parse_config({**sandbox, "process": {**sandbox["process"], "innerTrials": low}})


def test_theta_is_solved_once_per_run(tmp_path, monkeypatch):
    calls = []
    orig = runner_mod.solve_parameters

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(runner_mod, "solve_parameters", counted)
    res = run_experiment(_EVENT_SOLVED, out_dir=tmp_path, threads=1)
    assert res.failures == 0 and len(res.records) == _EVENT_SOLVED["trials"] > 1
    assert len(calls) == 1


def test_event_tags_name_a_vacuous_sparse_condition(tmp_path):
    # m = 64: theta = 3.5/64 gives floor(theta m) = 3; theta = 0.01 gives 0.
    busy = run_experiment(_EVENT_GIVEN, out_dir=tmp_path / "busy")
    vacuous_cfg = {**_EVENT_GIVEN, "constants": {**_EVENT_GIVEN["constants"], "theta": 0.01}}
    vacuous = run_experiment(vacuous_cfg, out_dir=tmp_path / "vacuous")
    assert busy.failures == vacuous.failures == 0
    for rec in busy.records:
        assert rec.method_tags.startswith(("sparse=greedy;k=3;", "sparse=exact;k=3;"))
    for rec in vacuous.records:
        assert rec.method_tags.startswith("sparse=vacuous;k=1;")


@pytest.mark.parametrize("cfg, change, match", [
    (BASE_CFG, {"ensembles": {"row": "RademacherIID"}}, r"unknown fields in ensembles: \['row'\]"),
    (BASE_CFG, {"constants": {"kappa1": 9}}, "gaussianDM takes no constants"),
    (BASE_CFG, {"process": {"setDim": 4}}, "gaussianDM takes no process"),
    (BASE_CFG, {"mRule": {"rule": "fixed", "m": 8}}, "gaussianDM takes no mRule"),
    (SANDBOX_CFG, {"mRule": {"rule": "fixed", "m": 8}}, "processSandbox takes no mRule"),
], ids=["gaussian-ensembles.row", "gaussian-constants", "gaussian-process", "gaussian-mRule",
        "sandbox-mRule"])
def test_validation_rejects_sections_the_kind_never_reads(cfg, change, match):
    with pytest.raises(ConfigError, match=match):
        parse_config({**cfg, **change})


@pytest.mark.parametrize("starts", [-1, 0, True, "8"], ids=["-1", "0", "true", "string"])
def test_validation_rejects_bad_starts(starts):
    cfg = KIND_CFGS["productHeavyTailed"]
    with pytest.raises(ConfigError, match="starts"):
        parse_config({**cfg, "distortionMethod": {"method": "multiStartOpt", "starts": starts}})


@pytest.mark.parametrize("p", [1, 2, 3, "inf"])
@pytest.mark.parametrize("method", ["exactSpectral", "exactRowNorm"])
def test_config_and_estimator_agree_on_exact_method_bodies(method, p):
    cfg = {**BASE_CFG, "body": {"kind": "LpBall", "p": p}, "distortionMethod": {"method": method}}
    try:
        parse_config(cfg)
        parsed = True
    except ConfigError:
        parsed = False
    gamma = np.random.default_rng(0).standard_normal((16, 4))
    try:
        measure_distortion(LpBall(math.inf if p == "inf" else p, 16), gamma, method, starts=2)
        measured = True
    except ValueError:
        measured = False
    assert parsed == measured
    assert parsed == ((method, p) in {("exactSpectral", 2), ("exactRowNorm", "inf")})


def test_cli_rejects_bad_constants_with_exit_2(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**KIND_CFGS["eventAFrequency"], "constants": ["rho"]}))
    assert cli_main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", sorted(KIND_CFGS))
def test_byte_identical_across_threads_and_reruns(tmp_path, kind):
    cfg = KIND_CFGS[kind]
    r1 = run_experiment(cfg, out_dir=tmp_path / "a", threads=1)
    r2 = run_experiment(cfg, out_dir=tmp_path / "b", threads=4)
    r3 = run_experiment(cfg, out_dir=tmp_path / "c", threads=1)
    for name in ("trials.csv", "summary.json"):
        first = (tmp_path / "a" / name).read_bytes()
        assert first == (tmp_path / "b" / name).read_bytes()
        assert first == (tmp_path / "c" / name).read_bytes()
    assert r1.failures == r2.failures == r3.failures == 0
    assert verify_summary(r2.csv_path, json.loads(r2.summary_path.read_text()))


@pytest.mark.parametrize("kind, field", [
    ("gaussianDM", "q25"), ("gaussianDM", "q75"), ("eventAFrequency", "eventAFrequency"),
    ("cubeCounterexample", "medianWitnessRatio"), ("gaussianDM", "n"), ("gaussianDM", "d"),
])
def test_verify_summary_checks_every_series_field(tmp_path, kind, field):
    res = run_experiment(KIND_CFGS[kind], out_dir=tmp_path)
    assert verify_summary(res.csv_path, res.summary)
    tampered = json.loads(res.summary_path.read_text())
    entry = tampered["series"][0]
    value = entry[field]  # one more, or one ulp more: the check is exact
    entry[field] = value + 1 if isinstance(value, int) else math.nextafter(value, math.inf)
    assert not verify_summary(res.csv_path, tampered)


def test_csv_format(tmp_path):
    res = run_experiment(BASE_CFG, out_dir=tmp_path)
    raw = res.csv_path.read_bytes()
    assert b"\r\n" in raw  # RFC-4180 line endings
    with res.csv_path.open(newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 1 + BASE_CFG["trials"]
    sup = rows[1][CSV_COLUMNS.index("supEst")]
    assert len(sup.split(".")[-1]) >= 10  # 17 significant digits serialized
    assert rows[1][CSV_COLUMNS.index("methodTags")] == "sup=exactSpectral;inf=exactSpectral"


def test_summary_self_consistency(tmp_path):
    res = run_experiment(BASE_CFG, out_dir=tmp_path)
    assert verify_summary(res.csv_path, res.summary)
    assert res.summary["configEcho"] == BASE_CFG
    assert "cSud" in res.summary["calibration"]
    entry = res.summary["series"][0]
    assert entry["n"] == 64 and entry["d"] == 8 and entry["trials"] == 5


def test_cli_rejects_record_timing_with_exit_2(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**BASE_CFG, "recordTiming": True}))
    assert cli_main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_trial_failures_become_rows(tmp_path, monkeypatch):
    calls = {"count": 0}
    orig = runner_mod.measure_distortion

    def flaky(*args, **kwargs):
        calls["count"] += 1
        if calls["count"] == 2:
            raise RuntimeError("synthetic trial failure")
        return orig(*args, **kwargs)

    monkeypatch.setattr(runner_mod, "measure_distortion", flaky)
    res = run_experiment(BASE_CFG, out_dir=tmp_path)
    assert res.failures == 1
    bad = [r for r in res.records if r.error]
    assert len(bad) == 1
    assert "synthetic trial failure" in bad[0].error
    assert len(res.records) == BASE_CFG["trials"]


def test_trial_failures_become_rows_in_worker_processes(tmp_path, monkeypatch):
    # A call counter in the patch would stay in each worker, so fail one trial by its seed.
    failing_seed = child_seed(child_seed(BASE_CFG["masterSeed"], 2), 1)
    orig = runner_mod.measure_distortion

    def flaky(*args, seed, **kwargs):
        if seed == failing_seed:
            raise RuntimeError(f"synthetic trial failure in process {os.getpid()}")
        return orig(*args, seed=seed, **kwargs)

    monkeypatch.setattr(runner_mod, "measure_distortion", flaky)
    res = run_experiment(BASE_CFG, out_dir=tmp_path, threads=2)
    bad = [r for r in res.records if r.error]
    assert res.failures == 1 and [r.trial_index for r in bad] == [2]
    assert bad[0].error.startswith("RuntimeError: synthetic trial failure in process ")
    if (os.cpu_count() or 1) > 1:  # the trial ran in a worker, not in this process
        assert not bad[0].error.endswith(f" {os.getpid()}")
    assert len(res.records) == BASE_CFG["trials"]
    assert multiprocessing.active_children() == []


# Reference draws: each kind's random object written out with the ensembles API, so a
# sampler that stops drawing the same bits fails under the name of its kind.
_TRIAL_DRAWS = {
    "gaussianDM": lambda laws, ctx, s: sample_matrix(EnsembleSpec("GaussianIID", ctx.n, ctx.d), s),
    "cubeCounterexample":
        lambda laws, ctx, s: sample_matrix(EnsembleSpec(laws["single"], ctx.n, ctx.d), s),
    **{kind: lambda laws, ctx, s: sample_product(
        product_spec(laws["row"], laws["col"], n=ctx.n, d=ctx.d, m=ctx.m), s)[0]
       for kind in ("productUniform", "productLogConcave", "productHeavyTailed")},
    "eventAFrequency": lambda laws, ctx, s: sample_matrix(
        EnsembleSpec(laws["col"], rows=ctx.d, cols=ctx.m, vector_axis="cols"), s),
    "processSandbox":
        lambda laws, ctx, s: index_set(np.random.default_rng(s).standard_normal((ctx.m, ctx.d))),
}


@pytest.mark.parametrize("kind", sorted(KIND_CFGS))
def test_each_sampler_draws_the_reference_draw(kind):
    config = parse_config(KIND_CFGS[kind])
    ctx = runner_mod._schedule_context(config, len(config.schedule) - 1)
    s = child_seed(child_seed(config.master_seed, 1), 0)
    got = runner_mod._KINDS[kind].sample(config.laws, ctx, s)
    want = _TRIAL_DRAWS[kind](config.laws, ctx, s)
    if kind == "processSandbox":
        got, want = got.vectors, want.vectors
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def test_safe_trial_draws_with_child_seed_0_then_measures_with_the_trial_seed(monkeypatch):
    config = parse_config(KIND_CFGS["eventAFrequency"])
    ctx, calls = runner_mod._schedule_context(config, 0), []

    def sample(laws, c, s):
        calls.append(("sample", laws, c, s))
        return "drawn"

    def measure(cfg, c, drawn, s):
        calls.append(("measure", cfg, c, drawn, s))
        return {"sup_est": 1.5}

    kind = runner_mod._KINDS["eventAFrequency"]
    monkeypatch.setitem(runner_mod._KINDS, "eventAFrequency",
                        replace(kind, sample=sample, measure=measure))
    rec = runner_mod._safe_trial(config, ctx, 5, 1234)
    assert calls == [("sample", config.laws, ctx, child_seed(1234, 0)),
                     ("measure", config, ctx, "drawn", 1234)]
    assert (rec.error, rec.sup_est, rec.seed, rec.trial_index) == ("", 1.5, 1234, 5)


def test_a_failed_draw_becomes_an_error_row(tmp_path, monkeypatch):
    def failing(spec, seed):
        raise RuntimeError("synthetic draw failure")

    monkeypatch.setattr(runner_mod, "sample_product", failing)
    res = run_experiment({**KIND_CFGS["productUniform"], "schedule": [32]}, out_dir=tmp_path)
    assert res.failures == len(res.records) == 3
    assert {r.error for r in res.records} == {"RuntimeError: synthetic draw failure"}


def test_context_errors_are_the_same_in_worker_processes(tmp_path, monkeypatch):
    orig = runner_mod.mean_width_auto

    def failing(body, **kwargs):
        if body.n == 64:
            raise RuntimeError(f"synthetic context failure at n={body.n}")
        return orig(body, **kwargs)

    monkeypatch.setattr(runner_mod, "mean_width_auto", failing)
    cfg = {**BASE_CFG, "schedule": [32, 64]}
    for threads in (1, 2):
        with pytest.raises(RuntimeError, match=r"^synthetic context failure at n=64$"):
            run_experiment(cfg, out_dir=tmp_path / str(threads), threads=threads)
    assert multiprocessing.active_children() == []


_POLYTOPE_CFG = {**BASE_CFG, "schedule": [2, 2], "dRule": {"rule": "fixed", "d": 1},
                 "distortionMethod": {"method": "multiStartOpt", "starts": 2}}


@pytest.mark.parametrize("vertices, schedule, match", [
    ([[1.0, math.nan]], [2], "dual vertices must be finite"),
    ([[1.0, 0.0], [0.5]], [2], "inhomogeneous shape"),
    ([[1.0, "0.5"]], [2], "dualVertices list of numbers"),
    ([[1.0, 0.0], [0.5, 1.0]], [2, 64], "^PolarPolytope dimension 2 does not match schedule n=64$"),
], ids=["nan", "ragged", "string", "dimension"])
def test_polar_polytope_is_checked_at_parse_time(vertices, schedule, match):
    with pytest.raises(ConfigError, match=match):
        parse_config({**_POLYTOPE_CFG, "schedule": schedule,
                      "body": {"kind": "PolarPolytope", "dualVertices": vertices}})


def test_cli_rejects_a_bad_polytope_with_exit_2(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**_POLYTOPE_CFG, "body": {
        "kind": "PolarPolytope", "dualVertices": [[1.0, 0.0], [0.5]]}}))
    assert cli_main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("body, extra", [
    ({"kind": "LpBall", "p": 2}, {"dualVertices": "ignored"}),
    ({"kind": "PolarPolytope", "dualVertices": [[1, 0]]}, {"p": "anything"}),
], ids=["LpBall", "PolarPolytope"])
def test_body_accepts_only_the_field_its_kind_reads(body, extra, tmp_path):
    parse_config({**_POLYTOPE_CFG, "body": body})
    cfg = {**_POLYTOPE_CFG, "body": {**body, **extra}}
    with pytest.raises(ConfigError, match=rf"^unknown fields in body {body['kind']}: "):
        parse_config(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_parse_config_resolves_what_the_sweep_reads():
    config = parse_config({**_POLYTOPE_CFG, "body": {
        "kind": "PolarPolytope", "dualVertices": [[1.0, 0.0], [0.5, 1.0]]}})
    assert config.bodies[0] is config.bodies[1] and config.bodies[0].n == 2
    assert config.distortion == {"method": "multiStartOpt", "starts": 2}
    product = parse_config(KIND_CFGS["productUniform"])
    assert [b.n for b in product.bodies] == [32, 64]
    assert product.laws == {"row": "UniformPM1", "col": "UniformPM1"}
    assert product.experiment_id.startswith("productUniform-")


def test_threads_above_the_cpu_count_give_the_same_bytes(tmp_path):
    run_experiment(BASE_CFG, out_dir=tmp_path / "a", threads=1)
    run_experiment(BASE_CFG, out_dir=tmp_path / "b", threads=(os.cpu_count() or 1) + 3)
    for name in ("trials.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert multiprocessing.active_children() == []


def test_worker_processes_run_one_blas_thread(tmp_path, monkeypatch):
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    getters = [f"{pre}get_num_threads{suf}" for pre, suf in runner_mod._OPENBLAS_SYMBOLS]
    getter = next((getattr(lib, n) for n in getters if hasattr(lib, n)), None)
    if getter is None:
        pytest.skip("numpy's BLAS has no known thread-count getter")
    getter.argtypes, getter.restype = (), ctypes.c_int
    before = getter()

    def report(*args, **kwargs):
        raise RuntimeError(f"BLAS threads {getter()}")

    monkeypatch.setattr(runner_mod, "measure_distortion", report)
    res = run_experiment(BASE_CFG, out_dir=tmp_path, threads=2)
    expected = 1 if (os.cpu_count() or 1) > 1 else before  # one CPU: no pool
    assert {r.error for r in res.records} == {f"RuntimeError: BLAS threads {expected}"}
    assert getter() == before  # the caller's BLAS is left as it was


@pytest.mark.parametrize("threads", [0, -2, 1.5, True, "2"])
def test_threads_must_be_a_positive_integer(tmp_path, threads):
    with pytest.raises(ConfigError, match="threads must be an integer >= 1"):
        run_experiment(BASE_CFG, out_dir=tmp_path / "out", threads=threads)
    assert not (tmp_path / "out").exists()


def test_cli_rejects_zero_threads_with_exit_2(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BASE_CFG))
    assert cli_main(["run", str(path), "--threads", "0", "--out-dir", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_cube_kind_records_witness(tmp_path):
    cfg = {
        "experimentKind": "cubeCounterexample",
        "body": {"kind": "LpBall", "p": "inf"},
        "schedule": [256, 256],
        "dRule": {"rule": "fixedPerN", "values": [8, 32]},
        "trials": 6,
        "masterSeed": 3,
    }
    res = run_experiment(cfg, out_dir=tmp_path)
    assert res.failures == 0
    s_small, s_big = res.summary["series"]
    assert s_small["d"] == 8 and s_big["d"] == 32
    # both entries share n = 256, so the medians must be read per entry
    assert verify_summary(res.csv_path, res.summary)
    assert s_big["medianWitnessRatio"] > s_small["medianWitnessRatio"]
    out = emit_plot_data(res.summary, "ratioVsD", tmp_path / "p.csv")
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "d,median,q25,q75"
    assert len(lines) == 3


def test_event_frequency_kind(tmp_path):
    cfg = {
        "experimentKind": "eventAFrequency",
        "body": {"kind": "LpBall", "p": 2},
        "schedule": [64],
        "dRule": {"rule": "fixed", "d": 8},
        "mRule": {"rule": "fixed", "m": 64},
        "trials": 4,
        "masterSeed": 5,
        "constants": {"rho": 0.25, "q": 6.0, "kappa1": 2.0, "restarts": 5},
    }
    res = run_experiment(cfg, out_dir=tmp_path)
    assert res.failures == 0
    freq = res.summary["series"][0]["eventAFrequency"]
    assert 0.0 <= freq <= 1.0
    assert all(r.event_a_holds is not None for r in res.records)


_NO_SCIPY_SCRIPT = """
import json, sys
import dmlab
from dmlab.runner import run_experiment
for i, cfg in enumerate(json.loads(sys.argv[1])):
    assert run_experiment(cfg, out_dir=f"run{i}").failures == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_sweeps_run_without_importing_scipy(tmp_path):
    # The sweeps reach the l_inf quadrature, the rho/q parameter solve and the
    # l_2 closed form.
    cfgs = [{**KIND_CFGS["productUniform"], "schedule": [32], "trials": 1},
            {**_EVENT_SOLVED, "trials": 1},
            {**BASE_CFG, "trials": 1}]
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, json.dumps(cfgs)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_process_sandbox_and_tail_curve(tmp_path):
    res = run_experiment(SANDBOX_CFG, out_dir=tmp_path)
    assert res.failures == 0
    assert "tail" in res.summary
    out = emit_plot_data(res.summary, "tailCurve", tmp_path / "t.csv")
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,empirical,bound"
    assert len(lines) == 7
    emp = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(b <= a + 1e-12 for a, b in zip(emp, emp[1:]))


def test_sandbox_tail_averages_every_trial(tmp_path):
    res = run_experiment(KIND_CFGS["processSandbox"], out_dir=tmp_path)
    assert len(res.records) == 6
    tables = [r.tail for r in res.records]
    expected = np.mean([t.empirical for t in tables], axis=0)
    got = [row["empirical"] for row in res.summary["tail"]]
    np.testing.assert_allclose(got, expected, rtol=1e-12)
    assert [row["x"] for row in res.summary["tail"]] == pytest.approx(
        [0.5, 1.0, 1.5, 2.0, 2.5, 3.0])


def test_plot_data_kinds_and_errors(tmp_path):
    res = run_experiment(BASE_CFG, out_dir=tmp_path)
    summary = json.loads(res.summary_path.read_text(encoding="utf-8"))
    out = emit_plot_data(summary, "ratioVsN", tmp_path / "n.csv")
    first = out.read_text().strip().splitlines()
    assert first[0] == "n,median,q25,q75"
    with pytest.raises(ConfigError, match="tail"):
        emit_plot_data(res.summary, "tailCurve", tmp_path / "x.csv")
    with pytest.raises(ConfigError):
        emit_plot_data(res.summary, "histogram", tmp_path / "y.csv")


@pytest.mark.parametrize("outputs, match", [
    ({"csv": "x", "summary": "x"}, "both 'x'"),
    ({"csv": "summary.json"}, "both 'summary.json'"),
    ({"summary": "trials.csv"}, "both 'trials.csv'"),
    ({"csv": ""}, "bare file names"),
    ({"csv": "sub/x.csv"}, "bare file names"),
    ({"summary": "/tmp/s.json"}, "bare file names"),
    ({"csv": "."}, "bare file names"),
    ({"summary": ".."}, "bare file names"),
    ({"csv": "x.csv/"}, "bare file names"),
    ({"csv": "a\0b.csv"}, "bare file names"),
])
def test_output_names_are_checked_before_any_trial(tmp_path, monkeypatch, outputs, match):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(runner_mod, "_safe_trial", no_trial)
    with pytest.raises(ConfigError, match=match):
        parse_config({**BASE_CFG, "outputs": outputs})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**BASE_CFG, "outputs": outputs}))
    assert cli_main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_output_names_other_than_the_defaults_are_written(tmp_path):
    res = run_experiment({**BASE_CFG, "outputs": {"csv": "summary.csv", "summary": "trials.json"}},
                         out_dir=tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["summary.csv", "trials.json"]
    assert verify_summary(res.csv_path, res.summary)


def test_plot_data_rejects_a_summary_that_is_not_an_object(tmp_path):
    with pytest.raises(ConfigError, match="the summary must be a JSON object"):
        emit_plot_data([{"n": 4}], "ratioVsN", tmp_path / "p.csv")


@pytest.mark.parametrize("text, kind, match", [
    (None, "ratioVsN", "cannot read"),
    ("{not json", "ratioVsN", "cannot read"),
    ("[1, 2]", "ratioVsN", "must hold a JSON object"),
    ('"summary"', "tailCurve", "must hold a JSON object"),
    ('{"series": 5}', "ratioVsN", "'series' must be a list of objects"),
    ('{"series": [1, 2]}', "ratioVsD", "'series' must be a list of objects"),
    ('{"series": [{"d": 3, "medianRatio": 1.5}]}', "ratioVsN", "keys \\['n'\\]"),
    ('{"tail": "abc"}', "tailCurve", "'tail' must be a list of objects"),
    ('{"tail": [{"x": 1.0}]}', "tailCurve", "'tail' must be a list of objects"),
])
def test_cli_plot_rejects_a_bad_summary(tmp_path, capsys, text, kind, match):
    path = tmp_path / "summary.json"
    if text is not None:
        path.write_text(text)
    out = tmp_path / "p.csv"
    assert cli_main(["plot", str(path), "--kind", kind, "--out", str(out)]) == 2
    assert re.search(f"^error: .*{match}", capsys.readouterr().err)
    assert not out.exists()


def test_cli_roundtrip(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(BASE_CFG))
    assert cli_main(["run", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == 0
    assert cli_main(["plot", str(tmp_path / "out" / "summary.json"),
                     "--kind", "ratioVsN", "--out", str(tmp_path / "p.csv")]) == 0
    ens_path = tmp_path / "ens.json"
    ens_path.write_text(json.dumps({"kind": "UniformPM1", "rows": 4, "cols": 8}))
    capsys.readouterr()
    assert cli_main(["diag", str(ens_path), "--trials", "2000"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim"] == 8
    assert 0.6 <= payload["isotropy_error"] <= 0.75


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"experimentKind": "nope"}))
    assert cli_main(["run", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert cli_main(["run", str(missing)]) == 2
    # partial failure propagates exit code 3
    good = tmp_path / "good.json"
    good.write_text(json.dumps(BASE_CFG))


def test_cli_partial_failure_exit(tmp_path, monkeypatch):
    calls = {"n": 0}
    orig = runner_mod.measure_distortion

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("boom")
        return orig(*args, **kwargs)

    monkeypatch.setattr(runner_mod, "measure_distortion", flaky)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(BASE_CFG))
    assert cli_main(["run", str(cfg_path), "--out-dir", str(tmp_path)]) == 3


def test_seed_override_changes_output(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(BASE_CFG))
    assert cli_main(["run", str(cfg_path), "--out-dir", str(tmp_path / "a")]) == 0
    assert cli_main(["run", str(cfg_path), "--seed", "7",
                     "--out-dir", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "trials.csv").read_bytes() != \
        (tmp_path / "b" / "trials.csv").read_bytes()


def test_net_certified_rho_must_be_below_one_half():
    def cfg(rho):
        return {**BASE_CFG, "experimentKind": "productLogConcave",
                "body": {"kind": "LpBall", "p": "inf"},
                "dRule": {"rule": "fixed", "d": 2},
                "mRule": {"rule": "multipleOfN", "c": 2.0},
                "distortionMethod": {"method": "netCertified", "rho": rho,
                                     "candidateBudget": 1000}}
    for rho in (0.5, 1.0, 1.5):
        with pytest.raises(ConfigError, match=r"rho in \(0, 1/2\)"):
            parse_config(cfg(rho))
    parse_config(cfg(0.3))


_NET_AT_D_3 = {**KIND_CFGS["productLogConcave"], "dRule": {"rule": "fixed", "d": 3}, "trials": 2,
               "distortionMethod": {"method": "netCertified", "rho": 0.45,
                                    "candidateBudget": 10**5}}


def test_net_certified_at_d_3_fails_no_trial_at_any_master_seed(tmp_path):
    # A greedy net of 10^5 candidates failed every trial of master seed 2 here:
    # its covering radius, probed at 8192 points, read 0.4506 > rho.  The
    # runner's cover has the proven radius 0.354 at 96 points.
    for seed in range(10):
        res = run_experiment({**_NET_AT_D_3, "masterSeed": seed}, out_dir=tmp_path / str(seed))
        assert res.failures == 0 and len(res.records) == 2
        assert {r.method_tags for r in res.records} == {
            "sup=netCertified(rho=0.45,size=96);inf=netCertified(rho=0.45,size=96)"}


def test_candidate_budget_is_accepted_but_unread(tmp_path):
    cfg = KIND_CFGS["productLogConcave"]
    dist = {k: v for k, v in cfg["distortionMethod"].items() if k != "candidateBudget"}
    csvs = []
    for i, method in enumerate([cfg["distortionMethod"], {**dist, "candidateBudget": 10**6}, dist]):
        res = run_experiment({**cfg, "distortionMethod": method}, out_dir=tmp_path / str(i))
        # experimentId hashes the config: the one column that differs, masked
        csvs.append(res.csv_path.read_bytes().replace(res.records[0].experiment_id.encode(), b"id"))
    assert csvs[0] == csvs[1] == csvs[2]


@pytest.mark.parametrize("budget", [0, 2.5, True, "many", None])
def test_a_given_candidate_budget_must_be_a_positive_integer(budget):
    cfg = KIND_CFGS["productLogConcave"]
    dist = {**cfg["distortionMethod"], "candidateBudget": budget}
    with pytest.raises(ConfigError,
                       match=r"^distortionMethod\.candidateBudget must be an integer >= 1$"):
        parse_config({**cfg, "distortionMethod": dist})


def test_demo_configs_run_through_cli(tmp_path, capsys):
    cfg = json.loads((DEMO_CONFIGS / "gaussian_sanity.json").read_text())
    cfg_path = tmp_path / "gaussian_sanity.json"
    cfg_path.write_text(json.dumps({**cfg, "trials": 1}))
    assert cli_main(["run", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert cli_main(["diag", str(DEMO_CONFIGS / "uniform_ensemble.json"),
                     "--trials", "1000"]) == 0
    assert json.loads(capsys.readouterr().out)["trials"] == 1000


@pytest.mark.parametrize("spec", [
    {"kind": "UniformPM1", "rows": 4, "cols": 8, "seed": 1},
    {"kind": "UniformPM1", "rows": 4, "cols": 8, "vectorAxis": "diagonal"},
    {"kind": "UniformPM1", "rows": 4, "cols": 8, "rowScale": 0.5},
    {"kind": "UniformPM1", "rows": 4, "cols": 8, "q": "x"},
    {"kind": "UniformPM1", "rows": 4, "cols": 8, "q": math.nan},
    {"kind": "UniformPM1", "rows": 4, "cols": 8, "q": -1},
    ["kind"],
    3,
    {"kind": "UniformPM1", "rows": 4, "cols": 4.5},
    {"kind": "UniformPM1", "rows": 4, "cols": True},
    {"kind": "UniformPM1", "rows": 2.5, "cols": 8},
], ids=["unknown-field", "bad-vectorAxis", "rowScale", "q-string", "q-nan", "q-negative",
        "list", "number", "cols-float", "cols-bool", "rows-float"])
def test_cli_diag_rejects_bad_specs_with_exit_2(spec, tmp_path, capsys):
    path = tmp_path / "ens.json"
    path.write_text(json.dumps(spec))
    assert cli_main(["diag", str(path), "--trials", "1000"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_diag_writes_its_out_file(tmp_path, capsys):
    out = tmp_path / "diag.json"
    assert cli_main(["diag", str(DEMO_CONFIGS / "uniform_ensemble.json"),
                     "--trials", "1000", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    assert json.loads(out.read_text())["trials"] == 1000


def _no_work(*args):
    raise AssertionError("work ran before the output paths were checked")


@pytest.mark.parametrize("out_dir, made", [
    ("afile", []), ("afile/sub", []), ("out", ["out/trials.csv"]),
], ids=["a-file", "below-a-file", "csv-name-is-a-directory"])
def test_cli_run_checks_its_output_paths_before_any_trial(tmp_path, monkeypatch, capsys,
                                                          out_dir, made):
    (tmp_path / "afile").write_text("x")
    for d in made:
        (tmp_path / d).mkdir(parents=True)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BASE_CFG))
    before = sorted(tmp_path.rglob("*"))
    monkeypatch.setattr(runner_mod, "_safe_trial", _no_work)
    assert cli_main(["run", str(path), "--out-dir", str(tmp_path / out_dir)]) == 2
    assert re.search("^error: cannot write .*is (not )?a directory", capsys.readouterr().err)
    assert sorted(tmp_path.rglob("*")) == before


def test_cli_plot_and_diag_check_their_out_paths_first(tmp_path, monkeypatch, capsys):
    summary = tmp_path / "summary.json"
    summary.write_text(json.dumps({"series": [{"n": 4, "medianRatio": 1.5}]}))
    (tmp_path / "adir").mkdir()
    monkeypatch.setattr(cli_mod, "marginal_diagnostics", _no_work)
    for out in ("nodir/p.csv", "adir"):
        assert cli_main(["plot", str(summary), "--kind", "ratioVsN",
                         "--out", str(tmp_path / out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path / out}")
        assert cli_main(["diag", str(DEMO_CONFIGS / "uniform_ensemble.json"),
                         "--out", str(tmp_path / out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path / out}")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["adir", "summary.json"]


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"_committed_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Every experiment config committed to the repository, by origin and name.
_ACCEPTANCE = _load(ROOT / "tests" / "test_acceptance.py").CONFIGS
_WORKLOADS = _load(ROOT / "perfbench" / "workloads.py").WORKLOADS
COMMITTED_CFGS = {
    **{f"acceptance-{name}": cfg for name, cfg in _ACCEPTANCE.items()},
    **{f"perfbench-{name}": cfg for name, cfg in _WORKLOADS.items()},
    "demo-gaussian_sanity": json.loads((DEMO_CONFIGS / "gaussian_sanity.json").read_text()),
}


@pytest.mark.parametrize("name", sorted(COMMITTED_CFGS))
def test_committed_configs_parse_and_resolve_their_sections(name):
    cfg = COMMITTED_CFGS[name]
    config = parse_config(cfg)
    kind = runner_mod._KINDS[config.experiment_kind]
    sections = set(cfg) & set(runner_mod._SECTIONS)
    assert set(kind.needs) <= sections <= set(kind.needs + kind.takes)
    assert len(config.bodies) == (len(cfg["schedule"]) if "body" in kind.needs else 0)
    assert (config.distortion is not None) == ("distortionMethod" in cfg)
    assert (config.event is not None) == ("constants" in kind.takes)
    assert config.process.keys() == runner_mod._PROCESS_DEFAULTS.keys()
