"""Subgroup-structure machinery.

Centralizers, the center, derived series, Sylow subgroups (via normalizer
growth, each step one product set P·⟨x⟩ by ``grow``), p-cores and the
Fitting subgroup, Sylow systems chosen greedily (Hall: in a solvable group
no choice has to be undone), (relative) system normalizers, conjugacy
classes as the orbits of the generators' conjugations (``orbit_labels``),
minimal normal subgroups as the subgroups generated by classes of
prime-order elements (``generated_subgroup``), and normal-subgroup
enumeration via join-closure of normal closures.

All operations are pure functions of groups and subgroups, which they do
not modify.  Those that work inside a subgroup H take H as a Subgroup; G
itself is ``GroupAnalysis(G).whole`` or ``full_subgroup(G)``.  Those that
work in all of G (centralizers, conjugacy classes, normal subgroups) take
the FiniteGroup.  The p-cores, the Fitting subgroup and the Sylow system
are given the Sylow subgroups they start from, so that a caller
(``GroupAnalysis``) builds each once for all three.  Subgroups found as
member sets (centralizers, centres, normalizers, cores, system normalizers,
normal closures) are returned without generators; each chooses its own
when they are first read.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

import numpy as np

from .errors import NotSolvable, PrimeNotDividing
from .perm import (
    FiniteGroup,
    Subgroup,
    commutes_with,
    commuting,
    conjugations,
    full_subgroup,
    generated_subgroup,
    irredundant,
    orbit_labels,
    p_part,
    prime_divisors,
    product_set,
    trivial_subgroup,
)

# -- centralizers and the center -------------------------------------------


def centralizer(G: FiniteGroup, x: int) -> Subgroup:
    """C_G(x): all elements of G commuting with element x."""
    return Subgroup._sorted(G, commutes_with(G, x, np.arange(G.order)).nonzero()[0])


def contains_centralizers(H: Subgroup, scope: np.ndarray) -> bool:
    """Whether H contains C(x) ∩ ``scope`` for every nontrivial x in H:
    whether no such x commutes with a member of ``scope`` outside H, read
    off H's member mask, the only columns that decide."""
    G = H.parent
    outside = scope[~H.member_mask[scope]]
    # one x at a time, to stop at the first centralizer that escapes (on the
    # order-3000 W1500 x C2 the whole matrix at once took 24 ms, this 0.2 ms);
    # members are sorted, so the identity is the first
    return not any(commutes_with(G, x, outside).any() for x in H.members[1:])


def center(H: Subgroup) -> Subgroup:
    """Elements of H commuting with H's generators, hence with every element
    of H (a Subgroup of the parent)."""
    commutes = commuting(H.parent, H.members, H.generators)
    return Subgroup._sorted(H.parent, H.members[commutes.all(axis=1)])


# -- derived series ----------------------------------------------------------


def derived_subgroup(H: Subgroup) -> Subgroup:
    """The commutator subgroup, generated by commutators of generators with
    members, each marked in a mask and then read in increasing order."""
    G = H.parent
    inv = G.inverse_array
    comms = np.zeros(G.order, bool)
    for g in H.generators:
        # [g, m] = g^-1 m^-1 g m over all members m
        comms[G.products(G.products(inv[g], inv[H.members]), G.products(g, H.members))] = True
    return generated_subgroup(G, comms.nonzero()[0])


class DerivedSeries(NamedTuple):
    terms: tuple[Subgroup, ...]
    derived_length: int | None  # None when the series stabilizes above 1

    @property
    def solvable(self) -> bool:
        return self.derived_length is not None

    def orders(self) -> list[int]:
        return [s.order for s in self.terms]


def derived_series(H: Subgroup) -> DerivedSeries:
    terms = [H]
    while True:
        nxt = derived_subgroup(terms[-1])
        if nxt.order == terms[-1].order:
            break
        terms.append(nxt)
        if nxt.order == 1:
            break
    if terms[-1].order == 1:
        return DerivedSeries(tuple(terms), len(terms) - 1)
    return DerivedSeries(tuple(terms), None)


def is_solvable(H: Subgroup) -> bool:
    return derived_series(H).solvable


# -- Sylow subgroups ---------------------------------------------------------


def normalizer_members(G: FiniteGroup, scope: np.ndarray, P: Subgroup) -> np.ndarray:
    """Elements of ``scope`` that normalize P: conjugation maps the finite
    group P into itself exactly when it maps P's generators into P."""
    images = conjugations(G, scope, P.generators)
    return scope[P.member_mask[images].all(axis=1)]


def normalizer(H: Subgroup, P: Subgroup) -> Subgroup:
    return Subgroup._sorted(H.parent, normalizer_members(H.parent, H.members, P))


def sylow_subgroup(H: Subgroup, p: int) -> Subgroup:
    """A Sylow p-subgroup of H, grown inside successive normalizers.

    Starts from the trivial group and repeatedly extends the current
    p-subgroup P by the first p-part x, over the members of N_H(P) in
    order, that lies outside P; the standard normalizer-growth property
    guarantees this reaches the full p-part.  One ``p_part`` call takes the
    p-parts of all of N_H(P); a member whose order p does not divide has
    p-part 1, which is in P, and is passed over.  x normalizes P, so
    ⟨P, x⟩ is one product set (``grow``).  Each x lies outside the subgroup
    of those before it, so the generators are all of them, in the order
    found, as ``generated_subgroup`` would keep them.
    """
    G = H.parent
    n = H.order
    if n % p != 0:
        raise PrimeNotDividing(f"{p} does not divide the order {n}")
    target = math.gcd(n, p ** n.bit_length())  # the p-part of n
    P = trivial_subgroup(G)
    while P.order < target:
        parts = p_part(G, normalizer_members(G, H.members, P), p)
        P = grow(G, P, int(parts[~P.member_mask[parts]][0]))
    return P


def grow(G: FiniteGroup, P: Subgroup, x: int) -> Subgroup:
    """⟨P, x⟩ for an x outside P that normalizes P: the product set
    P·{1, x, ..., x^(k-1)} for the least k with x^k in P, no closure, with
    P's generators, then x."""
    powers, y = [0], x
    while not P.member_mask[y]:
        powers.append(y)
        y = G.mult(y, x)
    return Subgroup._sorted(G, product_set(G, P.members, powers), (*P.generators, x))


def sylow_subgroups(H: Subgroup) -> dict[int, Subgroup]:
    """One Sylow subgroup of H per prime dividing |H|, by ascending prime."""
    return {p: sylow_subgroup(H, p) for p in prime_divisors(H.order)}


def conjugates(H: Subgroup, P: Subgroup) -> Iterator[Subgroup]:
    """The conjugates of P under H, each once, breadth-first over H's
    generators, made as they are asked for."""
    seen = {P.key()}
    orbit = [P]
    for cur in orbit:  # grows while it is read
        yield cur
        for g in H.generators:
            conj = cur.conjugate_by(g)
            if conj.key() not in seen:
                seen.add(conj.key())
                orbit.append(conj)


# -- Fitting subgroups -------------------------------------------------------


def p_core(H: Subgroup, P: Subgroup) -> Subgroup:
    """O_p(H): the intersection of all conjugates of P, a Sylow p-subgroup of H."""
    G = H.parent
    gens = H.generators
    members = P.members
    while True:
        # keep the members that every generator's conjugate of the set holds
        held = np.bincount(conjugations(G, gens, members).ravel(), minlength=G.order)
        kept = members[held[members] == len(gens)]
        if kept.size == members.size:
            return Subgroup._sorted(G, members)
        members = kept


def fitting_subgroup(H: Subgroup, sylows: dict[int, Subgroup]) -> Subgroup:
    """F(H): the product of the cores O_p(H) of H's Sylow subgroups ``sylows``.

    The cores are normal and of coprime orders, so the product set of any
    two is a subgroup, of order the product of theirs; F(H) is read off as
    that set, without closing the cores' generators again."""
    G = H.parent
    members = np.array([0], np.int32)
    for P in sylows.values():
        members = product_set(G, members, p_core(H, P).members)
    return Subgroup._sorted(G, members)


# -- Sylow systems and system normalizers ------------------------------------


class SylowSystem(NamedTuple):
    """One Sylow subgroup per prime divisor, pairwise permutable."""

    sylows: dict[int, Subgroup]

    def primes(self) -> list[int]:
        return sorted(self.sylows)

    def restrict(self, K: Subgroup) -> "SylowSystem":
        """The subgroups P ∩ K, for the primes dividing |K|: a Sylow system
        of K when K is normal in the system's group (Hall's reduction
        theorem).  P ∩ K is a Sylow p-subgroup of K, so P lies in K when |P|
        divides |K|, and then P is kept with its generators."""
        return SylowSystem({
            p: P if K.order % P.order == 0 else
            Subgroup._sorted(K.parent, P.members[K.member_mask[P.members]])
            for p, P in self.sylows.items() if K.order % p == 0})


def product_sets_equal(G: FiniteGroup, A: np.ndarray, B: np.ndarray) -> bool:
    """Whether the product sets A·B and B·A coincide (permutability test)."""
    ab = product_set(G, A, B)
    ba = product_set(G, B, A)
    return ab.size == ba.size and bool((ab == ba).all())


def sylow_system(H: Subgroup, sylows: dict[int, Subgroup]) -> SylowSystem:
    """The canonical Sylow system of a solvable group H, grown from H's
    Sylow subgroups ``sylows``, one per prime.

    Primes are taken by descending p-part |sylows[p]|; for each, the
    system takes the first conjugate of ``sylows[p]`` (in ``conjugates``
    order) that permutes with every Sylow subgroup already chosen.  No
    choice ever has to be undone (P. Hall, "On the Sylow systems of a
    soluble group", 1937).  If P_1, ..., P_k are pairwise permutable, their
    product K is a Hall subgroup.  In any Sylow system of H the subgroups for the same
    primes also multiply to a Hall subgroup, which is conjugate to K, so a
    conjugate of the system has K as that product and restricts to a Sylow
    system of K.  The Sylow systems of K are conjugate in K, so one more
    conjugation gives a Sylow system of H that contains P_1, ..., P_k.
    Hence this is also the first system a depth-first search over the same
    candidates finds.  A Sylow system exists only in a solvable group, so a
    prime with no permuting candidate means H is not solvable.
    """
    G = H.parent
    primes = sorted(sylows, key=lambda p: (-sylows[p].order, p))
    chosen: list[Subgroup] = []
    for p in primes:
        P = next((Q for Q in conjugates(H, sylows[p])
                  if all(product_sets_equal(G, Q.members, R.members) for R in chosen)),
                 None)
        if P is None:
            raise NotSolvable("Sylow systems require a solvable group")
        chosen.append(P)
    return SylowSystem(dict(zip(primes, chosen)))


def system_normalizer(L: Subgroup, system: SylowSystem) -> Subgroup:
    """Elements of L whose conjugation fixes every Sylow subgroup of the system.

    With L equal to the system's own group this is an absolute system
    normalizer; with a larger ambient L it is a relative one.
    """
    G = L.parent
    members = L.members
    for p in system.primes():
        members = normalizer_members(G, members, system.sylows[p])
    return Subgroup._sorted(G, members)


# -- conjugacy classes and normal subgroups -----------------------------------


def conjugacy_classes(G: FiniteGroup) -> list[np.ndarray]:
    """All conjugacy classes, each sorted, ordered by least member.

    The classes are the orbits of the conjugations x ↦ g·x·g⁻¹ by G's
    generators, which ``orbit_labels`` labels by their least members; a
    stable sort of the labels lists the classes."""
    gens = np.array(G.generators, np.intp)[:, None]
    conj = G.products(G.products(gens, np.arange(G.order)), G.inverse_array[gens])
    label = orbit_labels(conj)
    order = label.argsort(kind="stable").astype(np.int32)
    ordered = label[order]
    starts = [0, *((ordered[1:] != ordered[:-1]).nonzero()[0] + 1).tolist(), order.size]
    return [order[s:e] for s, e in zip(starts, starts[1:])]


class NormalSubgroupInfo(NamedTuple):
    subgroup: Subgroup
    minimal: bool


def normal_subgroups(G: FiniteGroup) -> list[NormalSubgroupInfo]:
    """All normal subgroups with minimal-normal flags.

    Computed as the join-closure of the normal closures of cyclic subgroups,
    which is complete because every normal subgroup is the join of the normal
    closures of its elements.  The normal closure of x is the subgroup its
    conjugacy class generates.  The join of two normal subgroups N and M is
    their product set N·M, so it needs no closure.
    """
    found: dict[bytes, Subgroup] = {}

    def add(S: Subgroup) -> bool:
        key = S.key()
        if key in found:
            return False
        found[key] = S
        return True

    add(trivial_subgroup(G))
    add(full_subgroup(G))
    for cls in conjugacy_classes(G):
        if cls[0] == 0 and cls.size == 1:
            continue
        add(Subgroup._sorted(G, irredundant(G, cls.tolist())[1]))
    # join-closure
    worklist = list(found.values())
    while worklist:
        cur = worklist.pop()
        for other in list(found.values()):
            if cur.order == G.order or other.order == G.order:
                continue
            join = Subgroup._sorted(G, product_set(G, cur.members, other.members))
            if add(join):
                worklist.append(join)
    subs = sorted(found.values(), key=lambda s: (s.order, s.members.tolist()))
    infos = []
    for S in subs:
        minimal = S.order > 1 and not any(
            1 < T.order < S.order and S.member_mask[T.members].all()
            for T in subs
        )
        infos.append(NormalSubgroupInfo(S, minimal))
    return infos


def minimal_normal_subgroups(G: FiniteGroup, classes: list[np.ndarray]) -> list[Subgroup]:
    """The minimal normal subgroups, ordered by order, then by members.

    A minimal normal subgroup holds an element of prime order (Cauchy) and
    is the normal closure of each of its nontrivial elements, which its
    class generates; a normal closure that contains no smaller one is
    minimal normal.  So these are the inclusion-minimal subgroups generated
    by one conjugacy class of prime-order elements.  ``classes`` must be
    G's classes inside an abelian normal subgroup that holds every minimal
    normal subgroup, identity first, as ``GroupAnalysis.minimal_normals``
    passes those inside Z(F(G)).  Each class's closure is
    ``generated_subgroup`` of its members, whose generators are the members
    that each lie outside the subgroup of those kept before them.
    """
    primes = prime_divisors(G.order)
    orders = G.element_orders
    closures: dict[bytes, Subgroup] = {}
    for cls in classes[1:]:
        if orders[cls[0]] in primes:
            S = generated_subgroup(G, cls.tolist())
            closures.setdefault(S.key(), S)
    subs = sorted(closures.values(), key=lambda s: (s.order, s.members.tolist()))
    return [S for S in subs
            if not any(T.order < S.order and S.member_mask[T.members].all()
                       for T in subs)]
