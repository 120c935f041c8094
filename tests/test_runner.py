import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

import dmlab.runner as runner_mod
from dmlab.bodies import LpBall
from dmlab.cli import main as cli_main
from dmlab.distortion import measure_distortion
from dmlab.runner import (
    CSV_COLUMNS,
    ConfigError,
    emit_plot_data,
    parse_config,
    run_experiment,
    verify_summary,
)

BASE_CFG = {
    "experimentKind": "gaussianDM",
    "body": {"kind": "LpBall", "p": 2},
    "schedule": [64],
    "dRule": {"rule": "fixed", "d": 8},
    "trials": 5,
    "masterSeed": 42,
    "distortionMethod": {"method": "exactSpectral"},
}

DEMO_CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"

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
    ({"constants": ["rho"]}, "constants must be a JSON object"),
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
    with pytest.raises(ConfigError, match="dRule.d"):
        parse_config({**cfg, "dRule": {"rule": "fixed", "d": True}})


def test_sandbox_accepts_a_d_rule():
    assert parse_config(SANDBOX_CFG).experiment_kind == "processSandbox"


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
    assert rows[1][CSV_COLUMNS.index("elapsedMs")] == "-1"
    assert rows[1][CSV_COLUMNS.index("methodTags")] == "sup=exactSpectral;inf=exactSpectral"


def test_summary_self_consistency(tmp_path):
    res = run_experiment(BASE_CFG, out_dir=tmp_path)
    assert verify_summary(res.csv_path, res.summary)
    assert res.summary["configEcho"] == BASE_CFG
    assert "cSud" in res.summary["calibration"]
    entry = res.summary["series"][0]
    assert entry["n"] == 64 and entry["d"] == 8 and entry["trials"] == 5


def test_record_timing_opt_in(tmp_path):
    cfg = {**BASE_CFG, "recordTiming": True}
    res = run_experiment(cfg, out_dir=tmp_path)
    with res.csv_path.open(newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    assert all(float(r["elapsedMs"]) >= 0.0 for r in rows)


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
    out = emit_plot_data(res.summary_path, "ratioVsN", tmp_path / "n.csv")
    first = out.read_text().strip().splitlines()
    assert first[0] == "n,median,q25,q75"
    with pytest.raises(ConfigError, match="tail"):
        emit_plot_data(res.summary, "tailCurve", tmp_path / "x.csv")
    with pytest.raises(ConfigError):
        emit_plot_data(res.summary, "histogram", tmp_path / "y.csv")


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


def test_demo_configs_run_through_cli(tmp_path, capsys):
    cfg = json.loads((DEMO_CONFIGS / "gaussian_sanity.json").read_text())
    cfg_path = tmp_path / "gaussian_sanity.json"
    cfg_path.write_text(json.dumps({**cfg, "trials": 1}))
    assert cli_main(["run", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert cli_main(["diag", str(DEMO_CONFIGS / "uniform_ensemble.json"),
                     "--trials", "1000"]) == 0
    assert json.loads(capsys.readouterr().out)["trials"] == 1000
