"""The benchmark's trace hook wraps agc functions by name; a rename must fail here."""

import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
S4 = str(ROOT / "corpus" / "s4.json")


def _trace(tmp_path, *args):
    """Runs one pass of the trace hook and returns its trace file."""
    out = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "bench_trace.py"), args[0], str(out),
         *args[1:]],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())


def _names(trace):
    return {span["name"] for span in trace["spans"]}


def test_trace_hook_records_the_construction_spans(tmp_path):
    trace = _trace(tmp_path, "cli", repr(time.perf_counter()), "--", "analyze", S4,
                   "--out", str(tmp_path / "report.json"))
    assert trace["code"] == 0
    assert {"perm.closure", "perm.table", "products.quotient"} <= _names(trace)


def test_trace_hook_times_each_check_on_a_warm_analysis(tmp_path):
    """The checks pass reads the analysis's invariants and the checks of
    ``agc.verify`` by name."""
    trace = _trace(tmp_path, "checks", S4)
    assert _names(trace) == {"verify.warm"} | {f"verify.check.{name}" for name in (
        "derived_center_intersection", "system_normalizer_complement",
        "fitting_decomposition", "stray_p_part_centralizers", "proof_diagnostics")}


def test_trace_hook_measures_the_closure_and_graph_peaks(tmp_path):
    """The memory pass calls ``closure`` and ``CommutingGraph(G)``."""
    trace = _trace(tmp_path, "memory", S4)
    assert _names(trace) == {"perm.peak", "graph.peak"}
    assert all(span["counts"][f"{span['name']}_mb"] > 0 for span in trace["spans"])
