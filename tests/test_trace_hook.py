"""The benchmark's trace hook wraps agc functions by name; a rename must fail here."""

import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_trace_hook_records_the_construction_spans(tmp_path):
    out = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "bench_trace.py"), "cli", str(out),
         repr(time.perf_counter()), "--", "analyze", str(ROOT / "corpus" / "s4.json"),
         "--out", str(tmp_path / "report.json")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(out.read_text())
    assert trace["code"] == 0
    names = {span["name"] for span in trace["spans"]}
    assert {"perm.closure", "perm.table", "products.quotient"} <= names
