"""Group classification predicates, and the analysis they read from.

Identifies abelian-Sylow groups, Frobenius groups, 2-Frobenius groups, the
hypothesis class studied by the commuting-graph checks (solvable nonabelian
groups with abelian Sylow subgroups whose central quotient is neither
Frobenius nor 2-Frobenius), and the two special subclasses with the tighter
diameter bound.

``GroupAnalysis`` computes each invariant of a group once, on first use, by
the function that defines it; the predicates, the fingerprints, the checks
and the reports all read from it.  It alone builds the group's Sylow
subgroups, G/Z and G/F(G).  A quotient grows no Sylow subgroups of its own:
it takes the images of G's, since the image of a Sylow p-subgroup under
G -> G/N is a Sylow p-subgroup of G/N.  The structure functions take
subgroups, and the analysis passes them ``whole``, its one full subgroup
of G.  The predicates take the analysis; ``satisfies_hypothesis`` alone
takes a bare group, which it analyses afresh.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import NotSolvable
from .graph import CommutingGraph, DiameterResult
from .perm import FiniteGroup, Subgroup, commutes_with, full_subgroup, prime_divisors
from .products import quotient
from .structure import (
    DerivedSeries,
    SylowSystem,
    center,
    conjugacy_classes,
    contains_centralizers,
    derived_series,
    fitting_subgroup,
    minimal_normal_subgroups,
    sylow_subgroups,
    sylow_system,
    system_normalizer,
)

if TYPE_CHECKING:
    from .verify import CheckRecord


class GroupAnalysis:
    """The invariants of one group, each computed once on first use."""

    def __init__(self, group: FiniteGroup):
        self.group = group

    @cached_property
    def whole(self) -> Subgroup:
        """G as its own full subgroup, the only one the analysis makes,
        passed to every structure function that starts from G.  The
        analysis keeps it, not the group, which would then refer to a
        subgroup that refers back to it."""
        return full_subgroup(self.group)

    @cached_property
    def series(self) -> DerivedSeries:
        return derived_series(self.whole)

    @cached_property
    def solvable(self) -> bool:
        """Preset to True on the quotients of a solvable group, which are
        solvable, so that they derive no series of their own."""
        return self.series.solvable

    @cached_property
    def derived(self) -> Subgroup:
        terms = self.series.terms
        return terms[1] if len(terms) > 1 else terms[0]

    @cached_property
    def center(self) -> Subgroup:
        return center(self.whole)

    @cached_property
    def classes(self) -> list[np.ndarray]:
        return conjugacy_classes(self.group)

    @cached_property
    def sylows(self) -> dict[int, Subgroup]:
        """One Sylow subgroup per prime, the only ones built of this group.

        A quotient's are the images of its parent's, set by ``_quotient``
        once the parent has built them.  Their only reader, ``fitting``,
        takes p-cores, and O_p is the intersection of all Sylow
        p-subgroups, so it is the same whichever one is given."""
        return sylow_subgroups(self.whole)

    @cached_property
    def fitting(self) -> Subgroup:
        return fitting_subgroup(self.whole, self.sylows)

    def _quotient(self, N: Subgroup) -> tuple[GroupAnalysis, np.ndarray]:
        """The analysis of G/N, with the projection of G onto it.

        It is solvable when G is.  Its Sylow subgroups are the images of
        G's when G has built them, as a solvable G has before anything reads
        the quotient's Fitting subgroup; G's are not built for this alone."""
        Q, proj = quotient(self.group, N)
        q = GroupAnalysis(Q)
        # an instance entry shadows the cached property
        if self.solvable:
            q.__dict__["solvable"] = True
        if "sylows" in vars(self):
            q.__dict__["sylows"] = {p: Subgroup(Q, proj[P.members])
                                    for p, P in self.sylows.items() if Q.order % p == 0}
        return q, proj

    @cached_property
    def fitting_quotient(self) -> tuple[GroupAnalysis, np.ndarray]:
        """The analysis of G/F(G), with the projection of G onto it."""
        return self._quotient(self.fitting)

    @cached_property
    def upper_fitting(self) -> Subgroup:
        """The preimage of F(G/F(G))."""
        Q, proj = self.fitting_quotient
        return Subgroup._sorted(self.group, Q.fitting.member_mask[proj].nonzero()[0])

    @cached_property
    def sylow_system(self) -> SylowSystem:
        """The canonical Sylow system, grown from ``sylows``."""
        return sylow_system(self.whole, self.sylows)

    @cached_property
    def system_normalizer(self) -> Subgroup:
        """The absolute normalizer of the canonical Sylow system."""
        return system_normalizer(self.whole, self.sylow_system)

    @cached_property
    def minimal_normals(self) -> list[Subgroup]:
        """The minimal normal subgroups of a solvable group, from the
        classes inside Z(F(G)) alone.

        A minimal normal N of a solvable group is abelian, so nilpotent and
        inside F(G).  As a nontrivial normal subgroup of the nilpotent F(G),
        N meets Z(F(G)) nontrivially, and N ∩ Z(F(G)) is normal in G, Z(F(G))
        being characteristic in F(G); so N lies in Z(F(G)).  A class lies in
        Z(F(G)) when its least member lies in F(G) and commutes with all of
        it, which chooses no generators of F(G)."""
        if not self.solvable:
            raise NotSolvable("minimal normal subgroups are found for solvable groups only")
        G, F = self.group, self.fitting
        central = [c for c in self.classes
                   if F.member_mask[c[0]] and commutes_with(G, int(c[0]), F.members).all()]
        return minimal_normal_subgroups(G, central)

    @cached_property
    def central_quotient(self) -> GroupAnalysis:
        return self._quotient(self.center)[0]

    @cached_property
    def classification(self) -> Classification:
        return classify(self)

    @cached_property
    def graph(self) -> CommutingGraph:
        return CommutingGraph(self.group, self.classes)

    @cached_property
    def diameter(self) -> DiameterResult:
        return self.graph.diameter()

    @cached_property
    def records(self) -> list[CheckRecord]:
        from .verify import run_all_checks  # verify builds on this module

        return run_all_checks(self)


def is_a_group(a: GroupAnalysis) -> bool:
    """Whether every Sylow subgroup of G is abelian."""
    return all(P.is_abelian() for P in a.sylows.values())


def is_frobenius(a: GroupAnalysis) -> tuple[bool, Subgroup | None]:
    """Frobenius test for solvable groups, returning the kernel when one exists.

    For solvable G the Fitting subgroup is the only candidate kernel: a
    Frobenius kernel is nilpotent and self-centralizing, hence equals F(G).
    The test checks F(G) < G and C_G(x) <= F(G) for nontrivial x in F(G);
    that condition forces F(G) to be a normal Hall subgroup acted on
    fixed-point-freely, so a complement exists and G is Frobenius.  F(G) > 1
    needs no test: the last nontrivial derived term of a solvable G > 1 is
    abelian and normal, so lies in F(G), and F(1) = 1 is not proper.  A
    Frobenius kernel is a normal Hall subgroup, so an F(G) whose order
    shares a prime with its index is none, and no centralizer is taken.
    """
    if not a.solvable:
        raise NotSolvable("Frobenius detection implemented for solvable groups only")
    G, F = a.group, a.fitting
    if F.order == G.order or math.gcd(F.order, G.order // F.order) != 1:
        return False, None
    if contains_centralizers(F, np.arange(G.order)):
        return True, F
    return False, None


def is_2frobenius(a: GroupAnalysis) -> tuple[bool, tuple[Subgroup, Subgroup] | None]:
    """2-Frobenius test: normal K < H with H Frobenius with kernel K and
    G/K Frobenius with kernel H/K.  Returns (K, H) on success.

    For solvable G the pair is forced to be K = F(G) and H the preimage of
    F(G/F(G)).  K is a Frobenius kernel, hence nilpotent and inside F(G).
    F(G) ∩ H is nilpotent and normal in H, so it lies in F(H) = K; and
    F(G)/K is nilpotent and normal in G/K, so it lies in F(G/K) = H/K.
    Hence F(G) = K, and then H/K = F(G/F(G)).  So the upper level is the
    Frobenius test of G/F(G), whose only candidate kernel is F(G/F(G)); a
    quotient of a solvable group is solvable, so it derives no series.  A
    Frobenius group has a kernel and a complement of coprime orders, so when
    |G : F(G)| is a prime power G/F(G) is not built.
    """
    if not a.solvable:
        raise NotSolvable("2-Frobenius detection implemented for solvable groups only")
    G, K = a.group, a.fitting
    # upper level: G/K Frobenius with kernel H/K; lower: H with kernel K
    if (K.order < G.order and len(prime_divisors(G.order // K.order)) > 1
            and is_frobenius(a.fitting_quotient[0])[0]):
        H = a.upper_fitting
        if contains_centralizers(K, H.members):
            return True, (K, H)
    return False, None


class Classification(NamedTuple):
    order: int
    solvable: bool
    derived_length: int | None
    abelian: bool
    center_order: int
    a_group: bool
    frobenius: bool
    two_frobenius: bool
    central_quotient_frobenius: bool
    central_quotient_two_frobenius: bool
    satisfies_hypothesis: bool
    corollary_class: str


def corollary_class(G: FiniteGroup, hypothesis: bool) -> str:
    """Subclass with the tighter diameter bound.

    "two-prime-order": |G| = p^a q^b for two distinct primes.
    "cube-free-odd": |G| odd and cube-free.  "two-prime-order" takes
    precedence; "none" otherwise or when the hypothesis fails.
    """
    if not hypothesis:
        return "none"
    n = G.order
    primes = prime_divisors(n)
    if len(primes) == 2:
        return "two-prime-order"
    if n % 2 == 1 and all(n % p ** 3 for p in primes):
        return "cube-free-odd"
    return "none"


def classify(a: GroupAnalysis) -> Classification:
    G = a.group
    solvable = a.solvable
    Z = a.center
    abelian = Z.order == G.order
    a_group = is_a_group(a) if solvable else False

    frob = two_frob = q_frob = q_two_frob = False
    hypothesis = False
    if solvable and not abelian:
        # With a centre, G is neither Frobenius nor 2-Frobenius: a Frobenius
        # group has trivial centre, and for a 2-Frobenius pair K < H, ZK/K
        # lies in Z(G/K) = 1 and then Z = Z ∩ H lies in Z(H) = 1.  So only
        # G/Z is tested, and it is G itself when Z = 1; G/Z is solvable as
        # G is, and its derived series is never needed.
        Q = a if Z.order == 1 else a.central_quotient
        q_frob = is_frobenius(Q)[0]
        q_two_frob = not q_frob and is_2frobenius(Q)[0]
        if Z.order == 1:
            frob, two_frob = q_frob, q_two_frob
        hypothesis = a_group and not q_frob and not q_two_frob

    return Classification(
        order=G.order,
        solvable=solvable,
        derived_length=a.series.derived_length,
        abelian=abelian,
        center_order=Z.order,
        a_group=a_group,
        frobenius=frob,
        two_frobenius=two_frob,
        central_quotient_frobenius=q_frob,
        central_quotient_two_frobenius=q_two_frob,
        satisfies_hypothesis=hypothesis,
        corollary_class=corollary_class(G, hypothesis),
    )


def satisfies_hypothesis(G: FiniteGroup) -> bool:
    return classify(GroupAnalysis(G)).satisfies_hypothesis
