"""The report comparison of tools/verdict_diff.py, on two small reports."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "verdict_diff.py"
_spec = importlib.util.spec_from_file_location("verdict_diff", _PATH)
verdict_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(verdict_diff)


def _report(*scenarios):
    return json.dumps({"pass": True, "reports": [
        {"scenario": name, "pass": True, "checks": [
            {"name": c, "statistic": stat, "threshold": 4.0, "pass": ok}
            for c, stat, ok in checks]}
        for name, checks in scenarios]}, indent=2, sort_keys=True)


PARENT = _report(("atom-rich", [("comparison-distributional", 1.25, True),
                                ("laplace", 0.5, True)]),
                 ("dirac-cross", [("laplace", 2.0, True)]))


def test_identical_reports_list_nothing():
    assert verdict_diff.compare(PARENT, PARENT) == ([], True)


def test_moved_flipped_and_absent_checks_are_listed_in_order():
    change = _report(("atom-rich", [("comparison-distributional", 1.2500000000000002, True),
                                    ("laplace", 0.5, True)]),
                     ("dirac-cross", [("laplace", 5.0, False), ("moment", 0.1, True)]))
    lines, same = verdict_diff.compare(PARENT, change)
    assert not same
    assert lines == [
        "atom-rich comparison-distributional: 1.25 → 1.2500000000000002 (4.0, pass)",
        "dirac-cross laplace: 2.0 → 5.0 (4.0, pass → FAIL)",
        "dirac-cross moment: None → 0.1 (4.0, pass)",
    ]
    assert verdict_diff.compare(change, PARENT)[0][-1] == \
        "dirac-cross moment: 0.1 → None (4.0, pass)"


def test_bytes_that_move_no_check_still_differ():
    # a changed threshold or layout moves the bytes but no statistic or pass
    lines, same = verdict_diff.compare(PARENT, json.dumps(json.loads(PARENT)))
    assert (lines, same) == ([], False)


def test_a_nan_statistic_equals_itself():
    nan = _report(("feller-embed", [("moment", float("nan"), False)]))
    assert verdict_diff.compare(nan, nan) == ([], True)
