"""Structured verification checks on a group.

Each check produces a CheckRecord with a stable id, a status, and witness
data.  Statuses: "pass" / "fail" (asserted checks), "vacuous" (the check's
hypothesis has no instance in this group), "skipped-precondition" (the group
is outside the check's scope).  Diagnostic checks report measurements but
are never asserted; they stay "vacuous" with the data in the witness field.

Checks read their invariants from one ``GroupAnalysis``, which also keeps
the records of ``run_all_checks``: a report and its summary row share them.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable, NamedTuple

import numpy as np

from .classify import AnalysisLike, Classification, GroupAnalysis, as_analysis
from .errors import NotComplement
from .perm import (
    FiniteGroup,
    Subgroup,
    commutes_with,
    commuting,
    conjugations,
    p_part,
    prime_divisors,
    product_set,
)
from .structure import center, contains_centralizers, system_normalizer


class CheckRecord(NamedTuple):
    """One check's outcome; ``run_all_checks`` fills in ``millis`` once
    the check has run."""

    id: str
    status: str  # pass | fail | vacuous | skipped-precondition
    witness: dict[str, Any]
    millis: float = 0.0

    def to_json(self) -> dict[str, Any]:
        return {**self._asdict(), "millis": round(self.millis, 3)}


def group_fingerprint(G: AnalysisLike) -> dict[str, Any]:
    a = as_analysis(G)
    return {
        "name": a.group.name,
        "order": a.group.order,
        "derived_length": a.series.derived_length,
        "center_order": a.center.order,
        "primes": prime_divisors(a.group.order),
    }


def _is_complement(G: FiniteGroup, M: Subgroup, N: Subgroup) -> bool:
    # M ∩ N, read off N's mask
    return M.order * N.order == G.order and int(N.member_mask[M.members].sum()) == 1


# -- structural identity checks -----------------------------------------------


def check_derived_center_intersection(a: GroupAnalysis) -> CheckRecord:
    """The derived subgroup meets the center trivially in abelian-Sylow groups."""
    if not a.classification.a_group:
        return CheckRecord("derived-center-intersection", "skipped-precondition",
                           {"reason": "not an abelian-Sylow group"})
    inter = int(a.center.member_mask[a.derived.members].sum())
    witness = {
        "derived_order": a.derived.order,
        "center_order": a.center.order,
        "intersection_order": inter,
    }
    return CheckRecord("derived-center-intersection",
                       "pass" if inter == 1 else "fail", witness)


def check_system_normalizer_complement(a: GroupAnalysis) -> CheckRecord:
    """Relative system normalizers of derived-series terms complement the next term.

    For each i, the system normalizer in G of a Sylow system of G^(i-1) must
    satisfy M * G^(i) = G with trivial intersection.  Only one system is
    tested: the Sylow systems of the solvable term are conjugate (Hall),
    conjugating the system conjugates its normalizer, and G^(i) is normal,
    so either every system's normalizer complements G^(i) or none does.
    The system tested is G's canonical system cut down to G^(i-1): a Sylow
    system of G meets every normal subgroup K in a Sylow system of K
    (Hall's reduction theorem), so no term grows Sylow subgroups of its
    own.  The first level's normalizer is the absolute one.
    """
    cid = "system-normalizer-complement"
    if not a.classification.a_group:
        return CheckRecord(cid, "skipped-precondition",
                           {"reason": "requires a solvable abelian-Sylow group"})
    G = a.group
    terms = a.series.terms
    levels = []
    for i in range(1, len(terms)):
        K, N = terms[i - 1], terms[i]
        M = a.system_normalizer if i == 1 else \
            system_normalizer(a.whole, a.sylow_system.restrict(K))
        ok = _is_complement(G, M, N)
        levels.append({
            "level": i,
            "term_order": K.order,
            "next_order": N.order,
            "normalizer_order": M.order if ok else None,
            "system_index": 0 if ok else None,
            "complement": ok,
        })
        if not ok:
            return CheckRecord(cid, "fail", {"levels": levels})
    return CheckRecord(cid, "pass", {"levels": levels})


def check_fitting_decomposition(a: GroupAnalysis) -> CheckRecord:
    """F(G) is the internal direct product of the derived-series term centers."""
    cid = "fitting-decomposition"
    if not a.classification.a_group:
        return CheckRecord(cid, "skipped-precondition",
                           {"reason": "requires a solvable abelian-Sylow group"})
    G = a.group
    terms = a.series.terms
    factor_orders = []
    product = np.array([0], np.int32)
    order_product = 1
    for i, K in enumerate(terms[:-1]):  # every term except the trivial tail
        ZK = a.center if i == 0 else center(K)  # the first term is G itself
        factor_orders.append(ZK.order)
        order_product *= ZK.order
        product = product_set(G, product, ZK.members)
    F = a.fitting
    same_set = product.size == F.order and bool((product == F.members).all())
    direct = order_product == F.order
    witness = {
        "fitting_order": F.order,
        "factor_orders": factor_orders,
        "product_order": int(product.size),
        "internal_direct_product": direct,
    }
    return CheckRecord(cid, "pass" if same_set and direct else "fail", witness)


# -- Frobenius equivalence check ----------------------------------------------


def frobenius_conditions(G: FiniteGroup, N: Subgroup, A: Subgroup) -> dict[str, bool]:
    """The three equivalent Frobenius conditions for a complemented normal N.

    (1) A is malnormal and N is the identity plus the elements missed by the
    conjugates of A; (2) C_G(a) <= A for nontrivial a in A; (3) C_G(n) <= N
    for nontrivial n in N.

    Malnormality is read off the count of missed elements.  A complement A
    of N has at most [G : A] = |N| conjugates, so their union misses at
    least |N| - 1 elements of G, and exactly |N| - 1 when there are |N| of
    them meeting pairwise in 1, which for A > 1 is when A is malnormal.
    """
    if not N.is_normal():
        raise NotComplement("N must be normal")
    if not _is_complement(G, A, N):
        raise NotComplement("A is not a complement of N")
    everyone = np.arange(G.order)
    nontrivial = A.order > 1 and N.order > 1

    # row g holds gAg⁻¹, so the entries cover the union of A's conjugates
    cover = np.zeros(G.order, bool)
    cover[conjugations(G, everyone, A.members)] = True
    missed = (~cover).nonzero()[0]
    cond1 = (nontrivial and missed.size == N.order - 1
             and bool(N.member_mask[missed].all()))

    cond2 = nontrivial and contains_centralizers(A, everyone)
    cond3 = nontrivial and contains_centralizers(N, everyone)
    return {"malnormal_kernel": cond1, "complement_centralizers": cond2,
            "kernel_centralizers": cond3}


def check_frobenius_equivalences(G: FiniteGroup, N: Subgroup,
                                 A: Subgroup) -> CheckRecord:
    conds = frobenius_conditions(G, N, A)
    values = list(conds.values())
    agree = all(values) or not any(values)
    witness = {"kernel_order": N.order, "complement_order": A.order, **conds}
    return CheckRecord("frobenius-equivalences", "pass" if agree else "fail",
                       witness)


def _frobenius_equivalences_auto(a: GroupAnalysis) -> CheckRecord:
    """Run the equivalence check on the natural (G', system normalizer) pair."""
    cid = "frobenius-equivalences"
    if not a.classification.a_group or a.classification.abelian:
        return CheckRecord(cid, "skipped-precondition",
                           {"reason": "needs a nonabelian solvable abelian-Sylow group"})
    G = a.group
    N = a.derived
    M = a.system_normalizer
    if not _is_complement(G, M, N):
        return CheckRecord(cid, "skipped-precondition",
                           {"reason": "system normalizer does not complement G'"})
    return check_frobenius_equivalences(G, N, M)


# -- stray p-part centralizer check -------------------------------------------


def check_stray_p_part_centralizers(a: GroupAnalysis) -> CheckRecord:
    """Elements whose p-part avoids both G' and every absolute system
    normalizer still centralize something in G' and in some normalizer conjugate.

    Scope: solvable abelian-Sylow groups of derived length 2 with trivial
    center whose derived subgroup is not a Hall subgroup.  One ``p_part``
    of every element per prime dividing |G : G′| finds the qualifying
    elements (a p-element for any other prime maps to 1 in G/G′, so lies in
    G′), which the two centralizer tests then take in increasing order.
    Each test compares g only with the columns that decide it: the
    nontrivial members of G′, then those of the union of the normalizer's
    conjugates.
    """
    cid = "stray-p-part-centralizers"
    c = a.classification
    if not (c.a_group and c.derived_length == 2
            and c.center_order == 1):
        return CheckRecord(cid, "skipped-precondition",
                           {"reason": "needs derived length 2 and trivial center"})
    G = a.group
    D = a.derived
    if math.gcd(D.order, G.order // D.order) == 1:
        return CheckRecord(cid, "skipped-precondition",
                           {"reason": "derived subgroup is a Hall subgroup"})
    everyone = np.arange(G.order)
    # the union of the system normalizer's conjugates
    norm_cover = np.zeros(G.order, bool)
    norm_cover[conjugations(G, everyone, a.system_normalizer.members)] = True
    # a prime not dividing o(g) gives the identity, which lies in G'
    covered = D.member_mask | norm_cover
    qualifying = np.zeros(G.order, bool)
    for p in prime_divisors(G.order // D.order):
        qualifying |= ~covered[p_part(G, everyone, p)]
    stray = qualifying.nonzero()[0].tolist()
    # the identity, element 0, leads both sorted member lists
    derived, cover = D.members[1:], norm_cover.nonzero()[0][1:]
    for g in stray:
        if not commutes_with(G, g, derived).any():
            return CheckRecord(cid, "fail",
                               {"element": g, "defect": "trivial centralizer in G'"})
        # some conjugate of the normalizer has a nontrivial member commuting
        # with g exactly when g commutes with a nontrivial member of the union
        if not commutes_with(G, g, cover).any():
            return CheckRecord(cid, "fail",
                               {"element": g,
                                "defect": "no normalizer conjugate centralizes"})
    if not stray:
        return CheckRecord(cid, "vacuous", {"qualifying_elements": 0})
    return CheckRecord(cid, "pass", {"qualifying_elements": len(stray)})


# -- diameter bound checks ----------------------------------------------------


Check = Callable[[GroupAnalysis], CheckRecord]


def _diameter_bound(cid: str, bound: int, reason: str,
                    applies: Callable[[Classification], bool]) -> Check:
    """The check that the graph of a group whose classification ``applies``
    is connected with diameter at most ``bound``."""
    def check(a: GroupAnalysis) -> CheckRecord:
        if not applies(a.classification):
            return CheckRecord(cid, "skipped-precondition", {"reason": reason})
        d = a.diameter
        ok = d.connected and d.diameter <= bound
        return CheckRecord(cid, "pass" if ok else "fail",
                           {"status": d.status, "diameter": d.diameter, "bound": bound})
    return check


def _center_quotient_transfer(a: GroupAnalysis) -> CheckRecord:
    """Connectivity and diameter transfer between G and G/Z when G' meets Z trivially."""
    cid = "center-quotient-transfer"
    c = a.classification
    if c.abelian or c.center_order == 1:
        return CheckRecord(cid, "skipped-precondition",
                           {"reason": "needs a nonabelian group with nontrivial center"})
    if int(a.center.member_mask[a.derived.members].sum()) != 1:
        return CheckRecord(cid, "skipped-precondition",
                           {"reason": "derived subgroup meets the center"})
    dq = a.central_quotient.diameter
    dg = a.diameter
    same_connectivity = dg.connected == dq.connected
    same_diameter = (not dg.connected) or dg.diameter == dq.diameter
    witness = {"group": {"status": dg.status, "diameter": dg.diameter},
               "central_quotient": {"status": dq.status, "diameter": dq.diameter}}
    ok = same_connectivity and same_diameter
    return CheckRecord(cid, "pass" if ok else "fail", witness)


def _twin_reduction_consistency(a: GroupAnalysis) -> CheckRecord:
    cid = "twin-reduction-consistency"
    full = a.diameter
    reduced = a.graph.diameter_via_reduction()
    ok = (full.status == reduced.status and full.diameter == reduced.diameter
          and full.components == reduced.components)
    witness = {"full": {"status": full.status, "diameter": full.diameter,
                        "components": full.components},
               "reduced": {"status": reduced.status, "diameter": reduced.diameter,
                           "components": reduced.components}}
    return CheckRecord(cid, "pass" if ok else "fail", witness)


# -- diagnostics (reported, never asserted) ------------------------------------
#
# Structural measurements tied to the diameter>=7 contradiction argument.  The
# hypotheses of these statements require a commuting-graph diameter of at
# least 7, which no in-scope group attains, so they are recorded as vacuous
# with the raw measurements in the witness.


def _diagnostic(cid: str, measure: Callable[[GroupAnalysis], dict[str, Any]]) -> Check:
    """The vacuous record of ``measure`` on a solvable group with trivial
    center, its witness led by the diameter."""
    def check(a: GroupAnalysis) -> CheckRecord:
        c = a.classification
        if not (c.solvable and c.center_order == 1 and a.group.order > 1):
            return CheckRecord(cid, "skipped-precondition",
                               {"reason": "needs a solvable group with trivial center"})
        d = a.diameter
        return CheckRecord(cid, "vacuous", {
            "diameter_status": d.status, "diameter": d.diameter,
            "hypothesis_met": d.connected and d.diameter >= 7,
            **measure(a)})
    return check


def _minimal_normal_centralizers(a: GroupAnalysis) -> dict[str, Any]:
    G, F = a.group, a.fitting
    per_v = []
    everyone = np.arange(G.order)
    for V in a.minimal_normals:
        # C_G(V): the elements commuting with V's generators
        cgv = commuting(G, everyone, V.generators).all(axis=1).nonzero()[0]
        equals_f = cgv.size == F.order and F.member_mask[cgv].all()
        per_v.append({"minimal_order": V.order,
                      "centralizer_order": int(cgv.size),
                      "equals_fitting": bool(equals_f)})
    return {"fitting_order": F.order, "minimal_normals": per_v}


def _upper_fitting_index(a: GroupAnalysis) -> dict[str, Any]:
    F = a.fitting
    index = a.upper_fitting.order // F.order
    return {"upper_index": index, "fitting_order": F.order,
            "gcd": math.gcd(index, F.order)}


def _fixed_point_free_primes(a: GroupAnalysis) -> dict[str, Any]:
    # the prime-order elements that commute with no nontrivial member of
    # any minimal normal subgroup
    G = a.group
    prime = np.zeros(G.order + 1, bool)
    prime[prime_divisors(G.order)] = True
    fpf = prime[G.element_orders].nonzero()[0]
    for V in a.minimal_normals:
        fpf = fpf[~commuting(G, fpf, V.members[1:]).any(axis=1)]
    outside = int((~a.upper_fitting.member_mask[fpf]).sum())
    return {"fixed_point_free_prime_elements": int(fpf.size),
            "outside_upper_fitting": outside}


_DIAGNOSTICS: tuple[Check, ...] = (
    _diagnostic("fitting-centralizes-minimal-normal", _minimal_normal_centralizers),
    _diagnostic("upper-fitting-index-coprime", _upper_fitting_index),
    _diagnostic("fixed-point-free-primes-in-upper-fitting", _fixed_point_free_primes),
)


def proof_diagnostics(a: GroupAnalysis) -> list[CheckRecord]:
    """The records of the three diagnostics."""
    return [check(a) for check in _DIAGNOSTICS]


# -- report assembly -----------------------------------------------------------


CHECKS: tuple[Check, ...] = (
    check_derived_center_intersection,
    check_system_normalizer_complement,
    check_fitting_decomposition,
    _frobenius_equivalences_auto,
    check_stray_p_part_centralizers,
    _diameter_bound("connected-diameter-le-6", 6,
                    "group does not satisfy the connectivity hypothesis",
                    lambda c: c.satisfies_hypothesis),
    _diameter_bound("metabelian-diameter-le-4", 4,
                    "needs hypothesis and derived length 2",
                    lambda c: c.satisfies_hypothesis and c.derived_length == 2),
    _diameter_bound("two-prime-diameter-le-4", 4,
                    "order is not a two-prime order under the hypothesis",
                    lambda c: c.corollary_class == "two-prime-order"),
    _diameter_bound("cube-free-odd-diameter-le-4", 4,
                    "order is not odd and cube-free under the hypothesis",
                    lambda c: c.corollary_class == "cube-free-odd"),
    _center_quotient_transfer,
    _twin_reduction_consistency,
    *_DIAGNOSTICS,
)


def run_all_checks(G: AnalysisLike) -> list[CheckRecord]:
    """Every check of ``CHECKS``, each timed alone, sorted by id.
    ``GroupAnalysis.records`` keeps the result.  The classification and
    the diameter, which every report reads, are computed untimed first; any
    other shared invariant is timed in the first check that reads it."""
    a = as_analysis(G)
    for invariant in ("classification", "diameter"):
        getattr(a, invariant)
    records = []
    for check in CHECKS:
        start = time.perf_counter()
        record = check(a)
        records.append(record._replace(millis=(time.perf_counter() - start) * 1000.0))
    return sorted(records, key=lambda r: r.id)


def group_report(G: AnalysisLike) -> dict[str, Any]:
    a = as_analysis(G)
    records = a.records
    return {
        "fingerprint": group_fingerprint(a),
        "checks": [r.to_json() for r in records],
    }


def report_summary_row(G: AnalysisLike) -> dict[str, Any]:
    """One CSV row of headline facts plus the overall pass flag, read from
    the analysis's classification, diameter and check records."""
    a = as_analysis(G)
    c = a.classification
    d = a.diameter
    return {
        "order": c.order,
        "derived_length": c.derived_length,
        "center_order": c.center_order,
        "a_group": c.a_group,
        "frobenius": c.frobenius,
        "two_frobenius": c.two_frobenius,
        "hypothesis": c.satisfies_hypothesis,
        "connected": d.connected,
        "diameter": d.diameter if d.diameter is not None else "",
        "all_pass": all(r.status != "fail" for r in a.records),
    }
