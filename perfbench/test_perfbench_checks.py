"""The benchmark's own checks: each passes an honest sweep and rejects a tampered one.

Every workload is run at a small size so the whole file takes seconds.
"""

import csv
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import check_run  # noqa: E402
from tracer import METRICS, Tracer, layer_stats  # noqa: E402
from workloads import workload_config  # noqa: E402

import dmlab  # noqa: E402
from dmlab import bodies, runner  # noqa: E402

SMALL = {
    "product_linf": {"schedule": [16, 32], "trials": 2,
                     "distortionMethod": {"method": "exactRowNorm", "starts": 4}},
    "net_certified": {"schedule": [16], "trials": 2},
    "event_sparse": {"schedule": [64], "dRule": {"rule": "fixed", "d": 4},
                     "mRule": {"rule": "fixed", "m": 64}, "trials": 2,
                     "constants": {"theta": 2.5 / 64, "delta": 0.2, "kappa1": 2.0,
                                   "restarts": 2}},
    "process_sandbox": {"trials": 2, "process": {"setSize": 16, "setDim": 4,
                                                 "innerTrials": 10000, "supTrials": 2000}},
}


def small_config(name, seed=5):
    cfg = workload_config(name, seed)
    cfg.update(SMALL[name])
    if name == "net_certified":
        cfg["distortionMethod"] = {**cfg["distortionMethod"], "candidateBudget": 2000}
    return cfg


@pytest.fixture(scope="module")
def sweeps(tmp_path_factory):
    out = {}
    for name in SMALL:
        cfg = small_config(name)
        res = runner.run_experiment(cfg, out_dir=tmp_path_factory.mktemp(name))
        out[name] = (cfg, res.csv_path, res.summary_path)
    return out


def _edit_csv(path, row, column, fn):
    with path.open(newline="", encoding="utf-8") as f:
        table = list(csv.reader(f))
    col = table[0].index(column)
    table[row + 1][col] = fn(table[row + 1][col])
    with path.open("w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerows(table)


def _edit_summary(path, fn):
    summary = json.loads(path.read_text(encoding="utf-8"))
    fn(summary)
    path.write_text(json.dumps(summary), encoding="utf-8")


def _copy(tmp_path, csv_path, summary_path):
    c, s = tmp_path / "trials.csv", tmp_path / "summary.json"
    c.write_bytes(csv_path.read_bytes())
    s.write_bytes(summary_path.read_bytes())
    return c, s


@pytest.mark.parametrize("name", sorted(SMALL))
def test_honest_sweep_passes(sweeps, name):
    cfg, csv_path, summary_path = sweeps[name]
    assert check_run(cfg, csv_path, summary_path) == ([], 0)


def _scale(factor):
    return lambda text: repr(float(text) * factor)


TAMPERS = [
    # (workload, what, edit of the CSV copy or the summary copy)
    ("product_linf", "supEst off by 1e-9", ("csv", 0, "supEst", _scale(1 + 1e-9))),
    ("product_linf", "infEst above the axis probes", ("csv", 1, "infEst", _scale(2.0))),
    ("product_linf", "infEst below sigma_min/sqrt(n)", ("csv", 2, "infEst", _scale(1e-3))),
    ("product_linf", "ratio not sup/inf", ("csv", 3, "ratio", _scale(1.01))),
    ("product_linf", "wrong trial seed", ("csv", 0, "seed", lambda s: str(int(s) + 1))),
    ("product_linf", "summary median moved",
     ("summary", lambda s: s["series"][0].update(medianRatio=s["series"][0]["medianRatio"] * 1.01))),
    ("product_linf", "config echo changed",
     ("summary", lambda s: s["configEcho"].update(trials=3))),
    ("net_certified", "sup below the max row norm", ("csv", 0, "supEst", _scale(0.5))),
    ("net_certified", "inf above |Gamma x|_inf", ("csv", 1, "infEst", _scale(100.0))),
    ("event_sparse", "eventAHolds flipped",
     ("csv", 0, "eventAHolds", lambda s: "true" if s == "false" else "false")),
    ("event_sparse", "supEst above sigma_max", ("csv", 1, "supEst", _scale(10.0))),
    ("event_sparse", "supEst below a column norm", ("csv", 1, "supEst", _scale(0.1))),
    ("event_sparse", "event frequency moved",
     ("summary", lambda s: s["series"][0].update(eventAFrequency=0.5))),
    ("process_sandbox", "supEst above the gaussian-max bound", ("csv", 0, "supEst", _scale(10.0))),
    ("process_sandbox", "supEst below the pair bound", ("csv", 1, "supEst", _scale(0.01))),
    ("process_sandbox", "tail increasing",
     ("summary", lambda s: s["tail"][-1].update(empirical=1.0))),
    ("process_sandbox", "tail above 1",
     ("summary", lambda s: s["tail"][0].update(empirical=1.5))),
]


@pytest.mark.parametrize("name,what,edit", TAMPERS, ids=[t[1] for t in TAMPERS])
def test_tampered_sweep_is_rejected(sweeps, tmp_path, name, what, edit):
    cfg, csv_path, summary_path = sweeps[name]
    c, s = _copy(tmp_path, csv_path, summary_path)
    if edit[0] == "csv":
        _edit_csv(c, *edit[1:])
    else:
        _edit_summary(s, edit[1])
    problems, _ = check_run(cfg, c, s)
    assert problems, what


def test_missing_row_is_rejected(sweeps, tmp_path):
    cfg, csv_path, summary_path = sweeps["product_linf"]
    c, s = _copy(tmp_path, csv_path, summary_path)
    lines = c.read_bytes().split(b"\r\n")
    c.write_bytes(b"\r\n".join(lines[:-2] + lines[-1:]))
    problems, _ = check_run(cfg, c, s)
    assert problems


def test_failed_trial_is_counted(sweeps, tmp_path):
    cfg, csv_path, summary_path = sweeps["product_linf"]
    c, s = _copy(tmp_path, csv_path, summary_path)
    _edit_csv(c, 0, "error", lambda _: "ValueError: injected")
    problems, failed = check_run(cfg, c, s)
    assert failed == 1
    assert problems  # the summary median no longer matches the CSV


def test_tracer_accounts_for_the_sweep(tmp_path):
    original = bodies.norm_many
    tracer = Tracer()
    tracer.install()
    try:
        assert dmlab.norm_many is not original
        assert dmlab.distortion.norm_many is dmlab.bodies.norm_many
        runner.run_experiment(runner.parse_config(small_config("product_linf")),
                              out_dir=tmp_path)
    finally:
        tracer.uninstall()
    assert bodies.norm_many is original and dmlab.norm_many is original
    stats = layer_stats(tracer.spans)
    assert list(stats) == list(METRICS)
    assert stats["distortion.measure_distortion.calls"] == 4
    assert stats["ensembles.sample_product.calls"] == 4
    assert stats["ensembles.sample_matrix.calls"] == 8
    assert stats["bodies.norm_many.rows"] > stats["bodies.norm_many.calls"] > 0
    inside = sum(v for k, v in stats.items()
                 if k.endswith(".self_s") and k != "runner.parse_config.self_s")
    assert inside == pytest.approx(stats["runner.run_experiment.span_s"], rel=1e-9)
