"""Acceptance suite: one test per shipped criterion, each printing a
single PASS/FAIL line.  All comparisons are exact; the only tolerances are
the stated wall-clock budgets.
"""

import json
import time

import numpy as np
import pytest

from agc.cli import main
from agc.classify import classify
from agc.graph import CommutingGraph
from agc.perm import prime_divisors
from agc.structure import center, derived_series, fitting_subgroup
from agc.verify import run_all_checks
from agc.witness import (
    build_diameter4_witness,
    diameter6_extra_checks,
    witness_fingerprint,
)

from oracles import brute_derived_series, frobenius_by_malnormal_complement


def _verdict(n: int, label: str, ok: bool) -> None:
    print(f"ACCEPTANCE {n} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {n} failed: {label}"


@pytest.fixture(scope="module")
def corpus_analysis(corpus_groups):
    out = {}
    for name, G in corpus_groups.items():
        c = classify(G)
        d = CommutingGraph(G).diameter()
        out[name] = (G, c, d)
    return out


def test_criterion_1_order_1500_witness(witness1500):
    G = witness1500
    start = time.perf_counter()
    fp = witness_fingerprint(G)
    extras = diameter6_extra_checks(G)
    elapsed = time.perf_counter() - start
    ok = (
        fp["order"] == 1500
        and fp["center_order"] == 1
        and fp["derived_order"] == 375
        and center(derived_series(G).terms[1]).order > 1
        and fp["fitting_order"] == 125
        and extras["fitting_is_sylow_5"]
        and extras["no_2_element_commutes_with_fitting"]
        and extras["no_order_4_commutes_with_3_element"]
        and fp["connected"] and fp["diameter"] == 6
        and elapsed <= 30.0
    )
    _verdict(1, "order-1500 witness reproduction", ok)


def test_criterion_2_order_60_witness():
    start = time.perf_counter()
    G = build_diameter4_witness().group
    elapsed = time.perf_counter() - start
    c = classify(G)
    d = CommutingGraph(G).diameter()
    ok = (
        G.order == 60
        and c.solvable and c.a_group and c.derived_length == 2
        and d.connected and d.diameter == 4
        and elapsed <= 1.0
    )
    _verdict(2, "order-60 witness reproduction", ok)


def test_criterion_3_diameter_sweep(corpus_analysis):
    start = time.perf_counter()
    ok = len(corpus_analysis) >= 30
    hypothesis_count = 0
    for name, (G, c, d) in corpus_analysis.items():
        if not c.satisfies_hypothesis:
            continue
        hypothesis_count += 1
        if not (d.connected and d.diameter is not None and d.diameter <= 6):
            ok = False
        if (c.derived_length == 2 or c.corollary_class != "none") \
                and d.diameter > 4:
            ok = False
    witnesses = {corpus_analysis["diameter4-witness"][2].diameter,
                 corpus_analysis["diameter6-witness"][2].diameter}
    ok = ok and hypothesis_count >= 2 and witnesses == {4, 6}
    ok = ok and (time.perf_counter() - start) <= 300.0
    _verdict(3, "diameter bound sweep over the corpus", ok)


def test_criterion_4_structure_suites(corpus_analysis):
    structural = {"derived-center-intersection", "system-normalizer-complement",
                  "fitting-decomposition"}
    ok = True
    stray_non_vacuous = 0
    for name, (G, c, d) in corpus_analysis.items():
        records = {r.id: r for r in run_all_checks(G)}
        if c.solvable and c.a_group:
            if any(records[i].status != "pass" for i in structural):
                ok = False
        if records["frobenius-equivalences"].status == "fail":
            ok = False
        stray = records["stray-p-part-centralizers"]
        if stray.status == "fail":
            ok = False
        if stray.status == "pass" and stray.witness["qualifying_elements"] > 0:
            stray_non_vacuous += 1
    ok = ok and stray_non_vacuous >= 1
    _verdict(4, "structural check suites", ok)


def test_criterion_5_oracle_equivalence(corpus_groups):
    from agc.classify import is_frobenius

    ok = True
    for name, G in corpus_groups.items():
        graph = CommutingGraph(G)
        full = graph.diameter()
        reduced = graph.diameter_via_reduction()
        if (full.status, full.diameter) != (reduced.status, reduced.diameter):
            ok = False
        if G.order <= 500:
            got = [set(t.members.tolist()) for t in derived_series(G).terms]
            if got != brute_derived_series(G):
                ok = False
            if is_frobenius(G)[0] != frobenius_by_malnormal_complement(G):
                ok = False
    _verdict(5, "oracle equivalence (reduction, Frobenius, derived series)", ok)


def test_criterion_6_center_quotient_diameters(corpus_analysis):
    from agc.products import quotient

    checked = 0
    ok = True
    for name, (G, c, d) in corpus_analysis.items():
        if not (c.satisfies_hypothesis and c.center_order > 1):
            continue
        Z = center(G)
        Q, _ = quotient(G, Z)
        dq = CommutingGraph(Q).diameter()
        checked += 1
        if not (d.connected and dq.connected and d.diameter == dq.diameter):
            ok = False
    ok = ok and checked >= 5
    _verdict(6, "diameter transfer to the central quotient", ok)


def _without_millis(value):
    if isinstance(value, dict):
        return {k: _without_millis(v) for k, v in value.items() if k != "millis"}
    if isinstance(value, list):
        return [_without_millis(v) for v in value]
    return value


def test_criterion_7_corpus_determinism(corpus_dir, tmp_path):
    out1, out2 = tmp_path / "j1", tmp_path / "j2"
    assert main(["corpus", str(corpus_dir), "--jobs", "1",
                 "--out", str(out1)]) == 0
    assert main(["corpus", str(corpus_dir), "--jobs", "3",
                 "--out", str(out2)]) == 0

    def canon(path):
        data = json.loads((path / "reports.json").read_text())
        for report in data["reports"]:
            for check in report["checks"]:
                check["millis"] = 0.0
        return json.dumps(data, sort_keys=True)

    # the frozen references of the benchmark, captured from the CLI
    refs = corpus_dir.parent / "perfbench" / "refs" / "corpus"
    reports = json.loads((out1 / "reports.json").read_text())
    frozen = json.dumps(_without_millis(reports), indent=2) + "\n" == \
        (refs / "reports.json").read_text() and \
        (out1 / "summary.csv").read_bytes() == (refs / "summary.csv").read_bytes()

    ok = canon(out1) == canon(out2) and \
        (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
    _verdict(7, "byte-identical corpus reports across --jobs and against the "
             "frozen references", ok and frozen)


def test_criterion_8_order_3000_frozen_report(corpus_dir, tmp_path):
    """``agc analyze`` on W1500 × C2, built as the benchmark builds it at
    seed 0 (the witness file's generators on both copies of its points,
    and the swap of the copies), writes the benchmark's frozen report, less
    its ``millis``.  Its G/Z, of order 1500, is made by ``quotient``."""
    witness = json.loads((corpus_dir / "diameter6-witness.json").read_text())
    n = witness["degree"]
    gens = [g + [x + n for x in g] for g in witness["generators"]]
    gens.append(list(range(n, 2 * n)) + list(range(n)))
    group = tmp_path / "w1500xc2.json"
    group.write_text(json.dumps({"name": "w1500xc2", "degree": 2 * n, "generators": gens},
                                separators=(",", ":")))
    out = tmp_path / "report.json"
    assert main(["analyze", str(group), "--out", str(out)]) == 0
    ref = corpus_dir.parent / "perfbench" / "refs" / "analyze-3000" / "report.json"
    report = json.loads(out.read_text())
    ok = json.dumps(_without_millis(report), indent=2) + "\n" == ref.read_text()
    _verdict(8, "order-3000 report against the frozen reference", ok)
