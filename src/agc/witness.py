"""Extremal witness groups for the diameter bounds.

Each of the two groups is built by one construction:

* ``diameter-4``: C15 ⋊ C4 with the generator acting by x ↦ x², a solvable
  abelian-Sylow group of order 60 and derived length 2 whose commuting
  graph is connected with diameter exactly 4.
* ``diameter-6``: GF(5)^3 ⋊ Dic3, of order 1500, with the dicyclic group of
  order 12 acting through two fixed matrices over GF(5); its commuting
  graph is connected with diameter exactly 6.

Each builder returns the group's analysis, so its invariants (the diameter
among them) are not computed again.  The builders do not check what they
build: ``agc witness`` compares ``witness_fingerprint`` with the frozen
fingerprint (and, for the order-1500 group, ``diameter6_extra_checks``) and
exits with code 3 on a defect.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from .classify import AnalysisLike, GroupAnalysis, as_analysis
from .constructions import matrix_action_group, metacyclic
from .perm import commuting


def witness_fingerprint(G: AnalysisLike) -> dict[str, Any]:
    """Invariant fingerprint that `agc witness` checks a built witness against."""
    a = as_analysis(G)
    d = a.diameter
    return {
        "order": a.group.order,
        "center_order": a.center.order,
        "derived_order": a.derived.order,
        "fitting_order": a.fitting.order,
        "derived_length": a.series.derived_length,
        "connected": d.connected,
        "diameter": d.diameter,
        "hypothesis": a.classification.satisfies_hypothesis,
    }


DIAMETER4_FINGERPRINT = {
    "order": 60,
    "center_order": 1,
    "derived_order": 15,
    "fitting_order": 15,
    "derived_length": 2,
    "connected": True,
    "diameter": 4,
    "hypothesis": True,
}

DIAMETER6_FINGERPRINT = {
    "order": 1500,
    "center_order": 1,
    "derived_order": 375,
    "fitting_order": 125,
    "derived_length": 3,
    "connected": True,
    "diameter": 6,
    "hypothesis": True,
}


# -- the order-60 witness -------------------------------------------------------


def build_diameter4_witness() -> GroupAnalysis:
    """C15 ⋊ C4, the generator t acting by x ↦ x².

    Squaring inverts C3 and has order 4 on C5, so C4 acts faithfully,
    C_G(C15) = C15, and no nontrivial element of C15 is fixed: Z = 1.
    Every x in C15 is the commutator x⁻¹·x² of x with t, so G′ = C15 with
    G/G′ = C4 abelian, and the derived length is 2.  O_2(G) would
    centralize C15, so F(G) = C15.  All Sylow subgroups are cyclic.  G is
    not Frobenius, as t² centralizes C3 outside F(G), nor 2-Frobenius, as
    G/F(G) is abelian; so G satisfies the hypothesis.  The diameter, 4, is
    measured rather than argued, by ``agc witness``'s fingerprint check.
    """
    return GroupAnalysis(metacyclic(15, 4, 2, name="diameter4-witness"))


# -- the order-1500 witness ------------------------------------------------------


# the actions of Dic3's generators a (order 3) and b (order 4) on GF(5)^3
DIAMETER6_A = ((0, 4, 0), (1, 4, 0), (0, 0, 1))
DIAMETER6_B = ((3, 2, 0), (0, 2, 0), (0, 0, 2))


def build_diameter6_witness() -> GroupAnalysis:
    """V ⋊ Dic3 with V = GF(5)^3: Dic3 = C3 ⋊ C4 has its order-3 generator
    a act by A = ``DIAMETER6_A`` and its order-4 generator b by
    B = ``DIAMETER6_B``, over GF(5).

    A is the companion matrix of x² + x + 1 beside a 1, so A³ = I and A
    fixes exactly a line; B² = −I; and BA = A²B = A⁻¹B, the relation
    bab⁻¹ = a⁻¹ of Dic3.  These are what the construction needs.  Matrices
    that are singular or break Dic3's relations make ``semidirect_product``
    raise InvalidAction, and any other wrong pair fails ``agc witness``'s
    fingerprint check.

    Every nontrivial normal subgroup of Dic3 contains a or b², and B² = −I
    fixes no nonzero vector, so the action is faithful and
    Z = C_V(Dic3) = 1.  O_2(G) and O_3(G) would centralize V, so F(G) = V,
    the Sylow 5-subgroup.  G′ = V ⋊ ⟨a⟩ of order 375, as (B² − I)V = V
    and Dic3′ = ⟨a⟩; G″ = (A − I)V is the plane that A moves, abelian, so
    the derived length is 3.  A fixes a line of V, so neither G nor the
    preimage V ⋊ ⟨a, b²⟩ of F(G/F(G)) is Frobenius with kernel V: G is
    neither Frobenius nor 2-Frobenius and satisfies the hypothesis.  The
    base is elementary abelian because the other abelian groups of order
    125 have no automorphism of order 3.  The diameter, 6, is measured
    rather than argued, by ``agc witness``'s fingerprint check.
    """
    actor = metacyclic(3, 4, 2, name="Dic3")
    ga, gb = actor.generators
    return GroupAnalysis(matrix_action_group(
        5, 3, actor, {ga: DIAMETER6_A, gb: DIAMETER6_B}, name="diameter6-witness"))


def diameter6_extra_checks(G: AnalysisLike) -> dict[str, bool]:
    """Extra structural facts of the order-1500 witness, as named booleans.

    The Fitting subgroup must be the Sylow 5-subgroup, no 2-element may
    commute with a nontrivial Fitting element, and no order-4 element may
    commute with any nontrivial 3-element.  |G| = 2²·3·5³, so by Lagrange
    a subgroup of order 125 is a Sylow 5-subgroup, and F's order decides
    the first.  Members are sorted, so F's nontrivial ones follow the
    identity.
    """
    a = as_analysis(G)
    G, F = a.group, a.fitting
    orders = G.element_orders
    two_elements = np.nonzero((orders == 2) | (orders == 4))[0]
    no_two_commutes = not commuting(G, two_elements, F.members[1:]).any()

    four_elements = np.nonzero(orders == 4)[0]
    three_elements = np.nonzero((orders == 3) | (orders == 9))[0]
    no_four_commutes = not commuting(G, four_elements, three_elements).any()

    return {
        "fitting_is_sylow_5": F.order == 125,
        "no_2_element_commutes_with_fitting": no_two_commutes,
        "no_order_4_commutes_with_3_element": no_four_commutes,
    }


WITNESS_BUILDERS: dict[str, Callable[[], GroupAnalysis]] = {
    "diameter-4": build_diameter4_witness,
    "diameter-6": build_diameter6_witness,
}

WITNESS_FINGERPRINTS: dict[str, dict[str, Any]] = {
    "diameter-4": DIAMETER4_FINGERPRINT,
    "diameter-6": DIAMETER6_FINGERPRINT,
}


def build_witness(name: str) -> GroupAnalysis:
    if name not in WITNESS_BUILDERS:
        raise KeyError(f"unknown witness {name!r}; "
                       f"choices: {sorted(WITNESS_BUILDERS)}")
    return WITNESS_BUILDERS[name]()
