"""Compare the outputs of one benchmark pass with the stored references.

The references in ``refs/`` were captured from the CLI at seed 0 by
``capture_refs.py``: ``reports.json`` with every ``millis`` key removed,
``summary.csv``, the ``analyze`` report without ``millis``, and the emitted
witness files.  Every command must also exit with code 0.

An item is one group of a corpus run (its report and its summary row), one
whole output file, one ``analyze`` report or one emitted witness.  A failed
item records which item and which file differed.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

REFS = Path(__file__).resolve().parent / "refs"


def strip_millis(value: Any) -> Any:
    if isinstance(value, dict):
        return {k: strip_millis(v) for k, v in value.items() if k != "millis"}
    if isinstance(value, list):
        return [strip_millis(v) for v in value]
    return value


def canonical_report(text: str) -> str:
    """A report's JSON text without timings, in the CLI's own layout."""
    return json.dumps(strip_millis(json.loads(text)), indent=2) + "\n"


@dataclass
class Tally:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def item(self, ok: bool, where: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(where)

    @property
    def failed(self) -> int:
        return len(self.failures)


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8")
    except OSError:
        return None


def _rows_by_name(text: str) -> dict[str, dict]:
    return {row["name"]: row for row in csv.DictReader(io.StringIO(text))}


def check_corpus(out: Path, code: int, tally: Tally, refs: Path = REFS) -> None:
    """One corpus run: every group, then each whole file."""
    ref_reports = (refs / "corpus" / "reports.json").read_text(encoding="utf-8")
    ref_csv = (refs / "corpus" / "summary.csv").read_text(encoding="utf-8")
    ref_by_name = {r["fingerprint"]["name"]: r
                   for r in json.loads(ref_reports)["reports"]}
    ref_rows = _rows_by_name(ref_csv)
    got_reports_text = _read(out / "reports.json")
    got_csv = _read(out / "summary.csv")
    got_by_name: dict[str, Any] = {}
    got_rows: dict[str, dict] = {}
    got_reports = None
    try:
        if got_reports_text is not None:
            got_reports = canonical_report(got_reports_text)
            got_by_name = {r["fingerprint"]["name"]: r
                           for r in json.loads(got_reports)["reports"]}
        if got_csv is not None:
            got_rows = _rows_by_name(got_csv)
    except (ValueError, KeyError, TypeError):
        pass  # an unreadable file fails every item below
    for name in sorted(ref_by_name):
        if code != 0:
            tally.item(False, f"{name}: exit code {code}")
            continue
        differs = [str(out / file) for file, same in (
            ("reports.json", got_by_name.get(name) == ref_by_name[name]),
            ("summary.csv", got_rows.get(name) == ref_rows.get(name))) if not same]
        tally.item(not differs, f"{name}: differs in {', '.join(differs)}")
    tally.item(code == 0 and got_reports == ref_reports,
               f"whole file {out / 'reports.json'}")
    tally.item(code == 0 and got_csv == ref_csv, f"whole file {out / 'summary.csv'}")


def check_analyze(report: Path, code: int, tally: Tally, refs: Path = REFS) -> None:
    ref = (refs / "analyze-3000" / "report.json").read_text(encoding="utf-8")
    text = _read(report)
    try:
        got = canonical_report(text) if text is not None else None
    except ValueError:
        got = None
    tally.item(code == 0 and got == ref, f"{report} (exit code {code})")


def check_witness(emitted: Path, code: int, tally: Tally, refs: Path = REFS) -> None:
    ref = (refs / "witness" / emitted.name).read_bytes()
    ok = code == 0 and emitted.is_file() and emitted.read_bytes() == ref
    tally.item(ok, f"{emitted} (exit code {code})")
