"""The committed byte ledger (`tests/golden/ledger.json`) against a rerun of its sweeps.

On the ledger's platform the CSV and summary bytes must match; elsewhere every
numeric cell must match at `ledger.REL_TOL`.  The test prints which comparison
it ran.  `PYTHONPATH=src python tests/ledger.py check` gives the same report,
and `... write` regenerates the ledger after a change that moves bytes.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("_ledger", Path(__file__).with_name("ledger.py"))
ledger = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger)


def test_ledger_matches_a_rerun(tmp_path):
    recorded = json.loads(ledger.LEDGER.read_text(encoding="utf-8"))
    assert recorded["masterSeed"] == ledger.MASTER_SEED
    _, ok, lines = ledger.compare(recorded, ledger.run_all(tmp_path))
    print("\n".join(lines))
    assert ok, "\n".join(lines)


def test_ledger_reports_the_largest_move_per_column():
    want = [["x", "tag", "gone"], ["1.0", "k=4;v=2.5", "-1"], ["3.0", "", "-1"]]
    got = [["x", "tag"], ["1.0000001", "k=4;v=2.5"], ["3.0", ""]]
    moves = ledger._csv_moves(want, got)
    assert moves["gone"] == "removed"
    assert moves["x"] == pytest.approx(1e-7) and moves["tag"] == 0.0
    assert ledger._move("k=4;v=2.5", "k=4;v=2.6") == pytest.approx(0.1 / 2.6)
    assert ledger._move("sup=a", "sup=b") == float("inf")
    assert ledger._move("inf", "inf") == 0.0 and ledger._move("nan", "nan") == 0.0


def _record(cell, sha, column="x"):
    return {"csv_sha256": sha, "summary_sha256": "s", "failures": 0,
            "csv": [[column], [cell]], "summary": {"v": [1.0]}}


def test_ledger_compares_cells_at_a_tolerance_only_on_another_platform():
    recorded = {"platform": {"numpy": "0.0"},
                "runs": {"r": _record("1.0", "a"), "q": _record("2.0", "c", "y"),
                         "u": _record("3.0", "e")}}
    mode, ok, _ = ledger.compare(recorded, {"r": _record("1.0000000001", "b"),
                                            "q": _record("2.0", "c", "y"),
                                            "u": _record("3.0", "e")})
    assert mode.startswith("numeric cells at relative tolerance 1e-06") and ok
    _, ok, lines = ledger.compare(recorded, {"r": _record("1.001", "b"),
                                             "q": _record("2.004", "d", "y"),
                                             "u": _record("3.0", "e")})
    assert not ok and "  x: 0.000999" in lines and "  y: 0.002" in lines
    per_run = lines[lines.index("moves per differing run:") + 1:]
    assert per_run == ["  r: x 0.000999", "  q: y 0.002"]
    mode, ok, _ = ledger.compare({**recorded, "platform": ledger.platform_facts()},
                                 {"r": _record("1.0000000001", "b"),
                                  "q": _record("2.0", "c", "y"), "u": _record("3.0", "e")})
    assert mode.startswith("bytes") and not ok
