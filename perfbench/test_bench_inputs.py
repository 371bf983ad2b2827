"""Tests of the benchmark's own code: inputs, reference checker, span metrics."""

from __future__ import annotations

import csv
import io
import json
import shutil

import pytest

from agc import cyclic, direct_product, group_fingerprint, group_report, load_group
from agc.cli import SUMMARY_COLUMNS
from agc.graph import CommutingGraph
from agc.verify import report_summary_row
from bench_check import REFS, Tally, check_corpus, check_witness, strip_millis
from bench_inputs import CORPUS, PRODUCT_NAME, WITNESS_FILE, write_corpus, write_product
from bench_trace import span_metrics


def test_seed_zero_reproduces_the_corpus_files(tmp_path):
    for path in write_corpus(0, tmp_path):
        assert path.read_bytes() == (CORPUS / path.name).read_bytes(), path.name


@pytest.mark.parametrize("seed", [1, 2])
def test_relabelled_groups_give_the_reference_reports(tmp_path, seed):
    # The benchmark compares all 37 groups at every seed; here the groups of
    # order at most 200 keep the test fast.
    refs = {r["fingerprint"]["name"]: r for r in
            json.loads((REFS / "corpus" / "reports.json").read_text())["reports"]}
    rows = {r["name"]: r for r in
            csv.DictReader(io.StringIO((REFS / "corpus" / "summary.csv").read_text()))}
    checked = relabelled = 0
    for path in write_corpus(seed, tmp_path):
        relabelled += path.read_bytes() != (CORPUS / path.name).read_bytes()
        G = load_group(path)
        if G.order > 200:
            continue
        assert strip_millis(group_report(G)) == refs[G.name], path.name
        row = {**report_summary_row(G), "name": G.name}
        assert {k: str(row[k]) for k in SUMMARY_COLUMNS} == rows[G.name], path.name
        checked += 1
    assert checked >= 20 and relabelled >= 30


def test_product_group_is_the_witness_times_c2(tmp_path):
    W = load_group(WITNESS_FILE)
    expected = direct_product(W, cyclic(2), name=PRODUCT_NAME)
    want = CommutingGraph(expected).diameter()
    for seed in (0, 3):
        G = load_group(write_product(seed, tmp_path / str(seed)))
        assert (G.order, G.degree) == (3000, 3000)
        assert group_fingerprint(G) == group_fingerprint(expected)
    assert CommutingGraph(G).diameter() == want


def _copy_refs(tmp_path):
    refs = tmp_path / "refs"
    shutil.copytree(REFS, refs)
    out = tmp_path / "out"
    shutil.copytree(REFS / "corpus", out)
    return refs, out


def test_checker_passes_matching_outputs(tmp_path):
    refs, out = _copy_refs(tmp_path)
    tally = Tally()
    check_corpus(out, 0, tally, refs)
    assert (tally.attempted, tally.failed) == (37 + 2, 0)


def test_checker_counts_a_corrupted_reference(tmp_path):
    refs, out = _copy_refs(tmp_path)
    path = refs / "corpus" / "reports.json"
    payload = json.loads(path.read_text())
    payload["reports"][5]["checks"][0]["status"] = "fail"
    name = payload["reports"][5]["fingerprint"]["name"]
    path.write_text(json.dumps(payload, indent=2) + "\n")
    tally = Tally()
    check_corpus(out, 0, tally, refs)
    assert tally.failed == 2
    assert tally.failures[0].startswith(f"{name}:")
    assert "reports.json" in tally.failures[1]

    (refs / "witness" / "diameter-4.json").write_text("{}")
    shutil.copy(REFS / "witness" / "diameter-4.json", out / "diameter-4.json")
    tally = Tally()
    check_witness(out / "diameter-4.json", 0, tally, refs)
    assert tally.failed == 1


def test_checker_fails_every_item_on_a_bad_exit_code(tmp_path):
    refs, out = _copy_refs(tmp_path)
    tally = Tally()
    check_corpus(out, 2, tally, refs)
    assert tally.failed == tally.attempted == 39


def _span(i, name, start, end, parent=None, **counts):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent,
            "item": None, "counts": counts}


def test_span_metrics_self_time_and_nesting():
    spans = [
        _span(0, "cli.run", 0.0, 10.0),
        _span(1, "cli.startup", 0.0, 1.0, 0),
        _span(2, "groupfile.load", 1.0, 4.0, 0),
        _span(3, "perm.closure", 1.5, 3.5, 2, **{"perm.elements": 24}),
        _span(4, "perm.table", 2.5, 3.0, 3, **{"perm.table_bytes": 2304}),
        _span(5, "structure.center", 4.0, 6.0, 0),
        _span(6, "structure.center", 4.5, 5.0, 5),
        _span(7, "graph.peak", 6.0, 6.5, 0, **{"graph.peak_mb": 3.0}),
        _span(8, "graph.peak", 6.5, 7.0, 0, **{"graph.peak_mb": 2.0}),
    ]
    m = span_metrics(spans)
    assert m["cli.run_s"] == 10.0
    assert m["cli.residual_s"] == 10.0 - 1.0 - 3.0 - 2.0 - 1.0
    assert m["groupfile.load_s"] == 3.0
    assert m["groupfile.self_s"] == 1.0
    assert m["perm.closure_s"] == 1.5  # the nested table build is excluded
    assert m["perm.table_s"] == 0.5
    assert m["structure.center_s"] == 2.0  # the nested call is not counted twice
    assert m["structure.self_s"] == 2.0
    assert (m["perm.elements"], m["perm.table_bytes"], m["graph.peak_mb"]) == (24, 2304, 3.0)
