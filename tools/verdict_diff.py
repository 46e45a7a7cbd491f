"""Compare the ``bibranch verify --suite`` report of a git revision with the
working tree's.

Usage::

    python tools/verdict_diff.py REF

It exports ``src/`` of REF by ``git archive`` into a temporary directory and
runs ``python -m bibranch.cli verify --suite --threads 2 --out FILE`` on that
copy and on the working tree's ``src/``.  It prints every check whose
statistic or pass differs, one line each,

    scenario check: parent → change (threshold, pass)

where a check that only one report has reads None on the other side, and
the pass reads "pass → FAIL" where it flips.  It exits 0 only if the two
reports are byte-identical, 1 if they differ and 2 if a run wrote no report.
A report can differ in bytes with no listed check (say, a changed
threshold); the last line says so.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _checks(report: dict) -> dict:
    """{(scenario, check): (statistic, threshold, pass)} of one report."""
    return {(r["scenario"], c["name"]): (c["statistic"], c["threshold"], c["pass"])
            for r in report["reports"] for c in r["checks"]}


def diff_lines(parent: dict, change: dict) -> list[str]:
    """One line per check whose statistic or pass differs between two
    reports, or that only one of them has, in scenario and check order."""
    old, new = _checks(parent), _checks(change)
    lines = []
    for key in sorted(old.keys() | new.keys()):
        a, t_old, was = old.get(key, (None,) * 3)
        b, t_new, passed = new.get(key, (None,) * 3)
        # repr, so that a NaN statistic equals itself
        if repr((a, was)) == repr((b, passed)):
            continue
        verdict = " → ".join(dict.fromkeys("pass" if p else "FAIL"
                                           for p in (was, passed) if p is not None))
        threshold = t_old if t_new is None else t_new
        lines.append(f"{key[0]} {key[1]}: {a!r} → {b!r} ({threshold!r}, {verdict})")
    return lines


def compare(parent_text: str, change_text: str) -> tuple[list[str], bool]:
    """The diff lines of two report texts, and whether they are byte-identical."""
    return diff_lines(json.loads(parent_text), json.loads(change_text)), \
        parent_text == change_text


def _verify(src: Path, out: Path):
    """The report text of the suite run on src, or None if it wrote none."""
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-m", "bibranch.cli", "verify", "--suite",
                    "--threads", "2", "--out", str(out)], env=env, cwd=src.parent)
    return out.read_text(encoding="utf-8") if out.exists() else None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive, parent_dir = tmp / "src.tar", tmp / "parent"
        subprocess.run(["git", "archive", "--output", str(archive), argv[0], "src"],
                       cwd=ROOT, check=True)
        parent_dir.mkdir()
        subprocess.run(["tar", "-x", "-f", str(archive), "-C", str(parent_dir)], check=True)
        parent = _verify(parent_dir / "src", tmp / "parent.json")
        change = _verify(ROOT / "src", tmp / "change.json")
    if parent is None or change is None:
        print("a verify run wrote no report", file=sys.stderr)
        return 2
    lines, same = compare(parent, change)
    for line in lines:
        print(line)
    if not same:
        print(f"reports differ ({len(lines)} checks listed)")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
