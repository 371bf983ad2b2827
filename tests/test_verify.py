import importlib
import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from agc.errors import NotComplement
from agc.groupfile import load_group, save_group
from agc.perm import closure, full_subgroup, generated_subgroup, powers, trivial_subgroup
from agc.constructions import cyclic, dihedral, metacyclic, symmetric
from agc.products import direct_product
from agc.structure import derived_subgroup, sylow_subgroup
from agc.verify import (
    GroupAnalysis,
    check_derived_center_intersection,
    check_fitting_decomposition,
    check_frobenius_equivalences,
    check_stray_p_part_centralizers,
    check_system_normalizer_complement,
    _frobenius_equivalences_auto,
    frobenius_conditions,
    group_fingerprint,
    group_report,
    proof_diagnostics,
    run_all_checks,
)
from agc.witness import DIAMETER4_FINGERPRINT, witness_fingerprint

from oracles import (
    brute_centralizer,
    brute_frobenius_conditions,
    brute_stray_p_part_centralizers,
    system_complements,
)


def _status(records, cid):
    return next(r for r in records if r.id == cid)


def test_fingerprint_fields():
    fp = group_fingerprint(symmetric(3))
    assert fp == {"name": "S3", "order": 6, "derived_length": 2,
                  "center_order": 1, "primes": [2, 3]}


def test_structure_checks_pass_on_s3():
    a = GroupAnalysis(symmetric(3))
    assert check_derived_center_intersection(a).status == "pass"
    assert check_system_normalizer_complement(a).status == "pass"
    assert check_fitting_decomposition(a).status == "pass"


def test_structure_checks_skip_on_non_a_group():
    a = GroupAnalysis(symmetric(4))
    assert check_derived_center_intersection(a).status == "skipped-precondition"
    assert check_system_normalizer_complement(a).status == "skipped-precondition"
    assert check_fitting_decomposition(a).status == "skipped-precondition"


def test_canonical_system_decides_like_the_bounded_search(corpus_groups):
    """Testing one Sylow system per level gives the verdict of every system
    among the first 64 of that level, as Hall's conjugacy theorem says."""
    for name, G in corpus_groups.items():
        if G.order > 1000:
            continue
        rec = check_system_normalizer_complement(GroupAnalysis(G))
        if rec.status == "skipped-precondition":
            continue
        searched = system_complements(G, limit=64)
        levels = rec.witness["levels"]
        # the check stops at its first failing level
        assert len(levels) == len(searched) or not levels[-1]["complement"]
        for level, row in zip(levels, searched):
            assert set(row) == {level["complement"]}, (name, level["level"])


def test_frobenius_conditions_agree_true_on_s3():
    G = symmetric(3)
    N = derived_subgroup(G)
    A = sylow_subgroup(G, 2)
    conds = frobenius_conditions(G, N, A)
    assert conds == brute_frobenius_conditions(G, N, A)
    assert all(conds.values())
    assert check_frobenius_equivalences(G, N, A).status == "pass"


def test_frobenius_conditions_agree_false_on_c6():
    G = cyclic(6)
    N = generated_subgroup(G, [powers(G, G.generators[0], 2)])  # C3
    A = generated_subgroup(G, [powers(G, G.generators[0], 3)])  # C2
    conds = frobenius_conditions(G, N, A)
    assert conds == brute_frobenius_conditions(G, N, A)
    assert not any(conds.values())
    assert check_frobenius_equivalences(G, N, A).status == "pass"


def test_frobenius_conditions_agree_true_on_f20():
    G = metacyclic(5, 4, 2)
    N = derived_subgroup(G)
    A = sylow_subgroup(G, 2)
    conds = frobenius_conditions(G, N, A)
    assert conds == brute_frobenius_conditions(G, N, A)
    assert all(conds.values())


def test_frobenius_conditions_reject_non_complement():
    G = symmetric(3)
    N = derived_subgroup(G)
    with pytest.raises(NotComplement):
        frobenius_conditions(G, N, N)
    with pytest.raises(NotComplement):
        frobenius_conditions(G, sylow_subgroup(G, 2), derived_subgroup(G))


def test_frobenius_and_stray_checks_match_the_conjugate_walks(corpus_groups):
    """On the corpus groups of order at most 500 and on F21 × D18, the
    Frobenius conditions of the (G', system normalizer) pair and the stray
    p-part check equal the oracles that make and test every conjugate of
    the complement and of the system normalizer.  Besides g126, F21 × D18
    (order 378, trivial centre, G' not a Hall subgroup) is a group on which
    the stray check is not skipped."""
    groups = {name: G for name, G in corpus_groups.items() if G.order <= 500}
    groups["f21xd18"] = direct_product(metacyclic(7, 3, 2), dihedral(9))
    frobenius, stray = [], []
    for name, G in groups.items():
        a = GroupAnalysis(G)
        if _frobenius_equivalences_auto(a).status != "skipped-precondition":
            N, M = a.derived, a.system_normalizer
            conds = frobenius_conditions(G, N, M)
            assert conds == brute_frobenius_conditions(G, N, M), name
            frobenius.append(conds["malnormal_kernel"])
        rec = check_stray_p_part_centralizers(a)
        if rec.status != "skipped-precondition":
            assert (rec.status, rec.witness) == \
                brute_stray_p_part_centralizers(G, a.derived, a.system_normalizer), name
            stray.append((name, rec.status))
    assert set(frobenius) == {True, False}
    assert ("g126", "pass") in stray and ("f21xd18", "pass") in stray


def test_stray_p_part_check_passes_non_vacuously_on_g126(corpus_groups):
    rec = check_stray_p_part_centralizers(GroupAnalysis(corpus_groups["g126"]))
    assert rec.status == "pass"
    assert rec.witness["qualifying_elements"] > 0


def test_stray_p_part_check_fails_without_a_centralizing_normalizer(corpus_groups):
    """With the trivial subgroup in place of the system normalizer, no
    conjugate of it has a nontrivial member to centralize the first
    qualifying element, of order 3."""
    G = corpus_groups["g126"]
    a = GroupAnalysis(G)
    a.__dict__["system_normalizer"] = trivial_subgroup(G)
    rec = check_stray_p_part_centralizers(a)
    assert rec.status == "fail"
    assert rec.witness == {"element": 2, "defect": "no normalizer conjugate centralizes"}


def test_stray_p_part_check_fails_on_a_trivial_centralizer_in_the_derived(corpus_groups):
    """With the Sylow 3-subgroup of G' in place of G' (of order 3, so not a
    Hall subgroup of G, of order 126), the first qualifying element, of
    order 14, centralizes none of its nontrivial members."""
    G = corpus_groups["g126"]
    a = GroupAnalysis(G)
    a.__dict__["derived"] = sylow_subgroup(a.derived, 3)
    rec = check_stray_p_part_centralizers(a)
    assert rec.status == "fail"
    assert rec.witness == {"element": 7, "defect": "trivial centralizer in G'"}


def test_a_normalizer_that_misses_g_prime_fails_its_check_and_skips_frobenius(corpus_groups):
    """With the trivial subgroup in place of the system normalizer, the
    first level has no complement of G′ (of order 21 in G of order 126):
    its check fails there, and the Frobenius check has no pair to test."""
    G = corpus_groups["g126"]
    a = GroupAnalysis(G)
    a.__dict__["system_normalizer"] = trivial_subgroup(G)
    rec = check_system_normalizer_complement(a)
    assert rec.status == "fail"
    assert rec.witness == {"levels": [{
        "level": 1, "term_order": 126, "next_order": 21, "normalizer_order": None,
        "system_index": None, "complement": False}]}
    rec = _frobenius_equivalences_auto(a)
    assert rec.status == "skipped-precondition"
    assert rec.witness == {"reason": "system normalizer does not complement G'"}


def test_stray_p_part_check_is_vacuous_when_the_normalizer_covers_g(corpus_groups):
    """With G in place of the system normalizer every p-part is covered."""
    a = GroupAnalysis(corpus_groups["g126"])
    a.__dict__["system_normalizer"] = a.whole
    rec = check_stray_p_part_centralizers(a)
    assert (rec.status, rec.witness) == ("vacuous", {"qualifying_elements": 0})


def test_stray_p_part_check_skips_when_derived_is_hall():
    rec = check_stray_p_part_centralizers(GroupAnalysis(symmetric(3)))
    assert rec.status == "skipped-precondition"


def test_diameter_checks_on_witness(witness1500):
    records = run_all_checks(witness1500)
    assert _status(records, "connected-diameter-le-6").status == "pass"
    assert _status(records, "connected-diameter-le-6").witness["diameter"] == 6
    assert _status(records, "metabelian-diameter-le-4").status == \
        "skipped-precondition"  # derived length 3
    assert _status(records, "twin-reduction-consistency").status == "pass"


def test_bounds_hold_on_every_small_metacyclic_group():
    """Every C_n ⋊ C_m with the generator acting by x ↦ x^r, for each r
    with r^m ≡ 1 (mod n) and n·m ≤ 120, beyond the corpus: no check
    fails, and each group that satisfies the hypothesis has derived length
    2 and diameter at most 4.  C15 ⋊ C4 with r = 2 is the order-60
    witness."""
    cases = [(n, m, r) for n in range(1, 121) for m in range(1, 120 // n + 1)
             for r in range(n) if pow(r, m, n) == 1 % n]
    assert len(cases) == 1027
    hypothesis = []
    for n, m, r in cases:
        a = GroupAnalysis(metacyclic(n, m, r))
        failed = [rec.id for rec in run_all_checks(a) if rec.status == "fail"]
        assert not failed, ((n, m, r), failed)
        if a.classification.satisfies_hypothesis:
            hypothesis.append((n, m, r))
            assert a.series.derived_length == 2, (n, m, r)
            assert a.diameter.connected and a.diameter.diameter <= 4, (n, m, r)
        if (n, m, r) == (15, 4, 2):
            assert witness_fingerprint(a) == DIAMETER4_FINGERPRINT
    assert len(hypothesis) == 6


def test_center_quotient_transfer(corpus_groups):
    records = run_all_checks(corpus_groups["c2xw60"])
    rec = _status(records, "center-quotient-transfer")
    assert rec.status == "pass"
    assert rec.witness["group"]["diameter"] == 4
    assert rec.witness["central_quotient"]["diameter"] == 4


CHECK_IDS = [
    "center-quotient-transfer", "connected-diameter-le-6",
    "cube-free-odd-diameter-le-4", "derived-center-intersection",
    "fitting-centralizes-minimal-normal", "fitting-decomposition",
    "fixed-point-free-primes-in-upper-fitting", "frobenius-equivalences",
    "metabelian-diameter-le-4", "stray-p-part-centralizers",
    "system-normalizer-complement", "twin-reduction-consistency",
    "two-prime-diameter-le-4", "upper-fitting-index-coprime",
]


def test_every_check_gives_one_record_in_id_order(corpus_groups):
    """The 14 checks each give one record, sorted by id, and the diagnostics
    are the same records whether run alone or with the others."""
    for name in ("s3", "g126", "c2xw60"):
        a = GroupAnalysis(corpus_groups[name])
        assert [r.id for r in a.records] == CHECK_IDS
        alone = {r.id: (r.status, r.witness) for r in proof_diagnostics(a)}
        assert alone == {r.id: (r.status, r.witness) for r in a.records if r.id in {
            "fitting-centralizes-minimal-normal", "upper-fitting-index-coprime",
            "fixed-point-free-primes-in-upper-fitting"}}, name


def test_each_record_times_its_own_check(monkeypatch, corpus_groups, witness1500):
    """With a clock that advances 1 s per reading, every record reads
    1000 ms: each check is timed alone, none gets a share of a group's time."""
    clock = itertools.count()
    monkeypatch.setattr(importlib.import_module("agc.verify"), "time",
                        SimpleNamespace(perf_counter=lambda: float(next(clock))))
    for G in (witness1500, corpus_groups["c2xw60"]):
        assert [r.millis for r in run_all_checks(G)] == [1000.0] * len(CHECK_IDS)


def test_diagnostics_are_never_asserted(witness1500):
    records = proof_diagnostics(GroupAnalysis(witness1500))
    assert {r.status for r in records} == {"vacuous"}
    coprime = next(r for r in records if r.id == "upper-fitting-index-coprime")
    assert coprime.witness["gcd"] == 1
    assert not coprime.witness["hypothesis_met"]  # diameter 6 < 7


def test_diagnostics_centralize_each_minimal_normal_by_brute_force(corpus_groups,
                                                                  witness1500):
    """C_G(V), taken from V's generators, is the intersection of the
    centralizers of all of V's members."""
    noncyclic = 0
    for G in [G for G in corpus_groups.values() if G.order <= 500] + [witness1500]:
        a = GroupAnalysis(G)
        record = proof_diagnostics(a)[0]
        if record.status == "skipped-precondition":
            continue
        minimals = a.minimal_normals
        assert len(record.witness["minimal_normals"]) == len(minimals)
        for V, got in zip(minimals, record.witness["minimal_normals"]):
            cgv = set(range(G.order))
            for v in V.members.tolist():
                cgv &= set(brute_centralizer(G, v))
            assert got["centralizer_order"] == len(cgv), G.name
            assert got["equals_fitting"] == (cgv == set(a.fitting.members.tolist()))
            noncyclic += len(V.generators) > 1
    assert noncyclic


def test_diagnostics_skip_with_nontrivial_center():
    records = proof_diagnostics(GroupAnalysis(cyclic(6)))
    assert {r.status for r in records} == {"skipped-precondition"}


def test_report_shape_and_no_failures(corpus_groups):
    report = group_report(corpus_groups["s3"])
    assert set(report) == {"fingerprint", "checks"}
    ids = [c["id"] for c in report["checks"]]
    assert ids == sorted(ids)
    assert all(c["status"] != "fail" for c in report["checks"])
    assert all(set(c) == {"id", "status", "witness", "millis"}
               for c in report["checks"])


def _non_native(value, path):
    """Paths to the values under ``value`` that json encodes only through a
    ``default`` hook, with their types."""
    if isinstance(value, dict):
        return [q for k, v in value.items() for q in _non_native(v, f"{path}.{k}")]
    if isinstance(value, (list, tuple)):
        return [q for i, v in enumerate(value) for q in _non_native(v, f"{path}[{i}]")]
    native = (str, int, float, bool, type(None))
    return [] if type(value) in native else [f"{path}: {type(value).__name__}"]


def test_reports_hold_only_json_native_values(corpus_groups, witness1500):
    """Every value in the corpus reports and in the order-3000 report (the
    order-1500 witness times C2, on two copies of its points) is a JSON
    type: no numpy scalar reaches a report."""
    n = witness1500.degree
    gens = [np.concatenate([g, g + n]) for g in witness1500.generator_rows]
    gens.append(np.roll(np.arange(2 * n), n))  # swap the copies
    groups = {**corpus_groups, "w1500xc2": closure(2 * n, gens)}
    assert groups["w1500xc2"].order == 3000
    for name, G in groups.items():
        assert _non_native(group_report(G), name) == []


def test_report_of_the_order_3000_group_keeps_no_quotient_table(witness1500_x_c2, tmp_path):
    """After W1500 × C2 is loaded, its analysis and report trace a peak
    under 2.5 MB: G/Z multiplies through G's table and keeps none of its
    own, where a 1500² table of G/Z made the peak 5.5 MB."""
    save_group(witness1500_x_c2, tmp_path / "w1500xc2.json")
    G = load_group(tmp_path / "w1500xc2.json")
    tracemalloc.start()
    try:
        a = GroupAnalysis(G)
        group_report(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert a.center.order == 2 and "table" not in vars(a.central_quotient.group)
    assert peak < 2.5 * 2**20
