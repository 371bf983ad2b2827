"""Extremal witness groups for the diameter bounds.

Two groups are reconstructed by deterministic constrained searches:

* ``diameter-4``: a solvable abelian-Sylow group of order 60 and derived
  length 2 whose commuting graph is connected with diameter exactly 4,
  found by scanning semidirect products of abelian groups.
* ``diameter-6``: a group of order 1500 (an elementary abelian group of
  order 125 acted on by the dicyclic group of order 12) whose commuting
  graph is connected with diameter exactly 6, found by solving for the
  action matrices over GF(5).

Each builder returns the analysis of the first group matching a frozen
invariant fingerprint, so its invariants (the diameter among them) are not
computed again; the searches are deterministic, so reruns give the same
group.
"""

from __future__ import annotations

from itertools import product as iproduct
from typing import Any, Callable, Iterator

import numpy as np

from .classify import AnalysisLike, GroupAnalysis, as_analysis
from .errors import InvalidAction
from .perm import FiniteGroup, commuting
from .products import semidirect_product
from .constructions import abelian, abelian_vectors, metacyclic
from .structure import center


def witness_fingerprint(G: AnalysisLike) -> dict[str, Any]:
    """Invariant fingerprint used to identify witness groups."""
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
    }


DIAMETER4_FINGERPRINT = {
    "order": 60,
    "center_order": 1,
    "derived_order": 15,
    "fitting_order": 15,
    "derived_length": 2,
    "connected": True,
    "diameter": 4,
}

DIAMETER6_FINGERPRINT = {
    "order": 1500,
    "center_order": 1,
    "derived_order": 375,
    "fitting_order": 125,
    "derived_length": 3,
    "connected": True,
    "diameter": 6,
}


# -- abelian automorphisms and action extension --------------------------------


def _abelian_vectors_index(base: FiniteGroup,
                           invariants: tuple[int, ...]) -> tuple[np.ndarray, dict]:
    vecs = abelian_vectors(base, invariants)
    index = {tuple(int(c) for c in v): i for i, v in enumerate(vecs)}
    return vecs, index


def abelian_automorphisms(base: FiniteGroup,
                          invariants: tuple[int, ...]) -> list[np.ndarray]:
    """All automorphisms of an abelian group, as base-index permutations.

    An endomorphism is determined by generator images whose orders divide the
    corresponding invariants; the bijective ones are the automorphisms.
    Enumeration order is the lexicographic order of the image tuples.
    """
    vecs = abelian_vectors(base, invariants)
    orders = base.element_orders
    gens = base.generators
    candidates = [
        [x for x in range(base.order) if invariants[i] % int(orders[x]) == 0]
        for i in range(len(gens))
    ]
    autos = []
    for images in iproduct(*candidates):
        phi = np.zeros(base.order, np.int32)
        for i, a in enumerate(images):
            col = np.array([base.power(a, int(e)) for e in range(invariants[i])],
                           np.int32)
            phi = base.table[phi, col[vecs[:, i]]]
        if np.unique(phi).size == base.order:
            autos.append(phi)
    return autos


def extend_action(actor: FiniteGroup,
                  gen_phis: dict[int, np.ndarray],
                  degree: int) -> np.ndarray:
    """Extend generator automorphisms to all actor elements.

    Follows phi_(x*g) = phi_x applied after phi_g, matching the homomorphism
    convention of the semidirect product.  Raises InvalidAction when the
    generator assignment is inconsistent (not a homomorphism).
    """
    ta = actor.table
    phis = np.full((actor.order, degree), -1, np.int32)
    phis[0] = np.arange(degree)
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for g, phig in gen_phis.items():
                y = int(ta[x, g])
                img = phis[x][phig]
                if phis[y][0] == -1:
                    phis[y] = img
                    nxt.append(y)
                elif not np.array_equal(phis[y], img):
                    raise InvalidAction("generator images do not define an action")
        frontier = nxt
    return phis


# -- the order-60 witness -------------------------------------------------------


def _invariant_decompositions(n: int) -> list[tuple[int, ...]]:
    """All invariant-factor decompositions (d1 | d2 | ... , product n)."""
    if n == 1:
        return [()]
    out = []

    def rec(rem: int, last: int, acc: list[int]) -> None:
        if rem == 1:
            out.append(tuple(reversed(acc)))
            return
        # the next (smaller) invariant must divide the previous one
        for d in range(last, 1, -1):
            if rem % d == 0 and last % d == 0:
                rec(rem // d, d, acc + [d])

    rec(n, n, [])
    return sorted(out)


def _candidate_products(order: int) -> Iterator[FiniteGroup]:
    """Semidirect products of abelian groups with orders multiplying to ``order``."""
    for m in range(2, order):
        if order % m != 0:
            continue
        k = order // m
        if k < 2:
            continue
        for base_inv in _invariant_decompositions(m):
            base = abelian(list(base_inv))
            autos = abelian_automorphisms(base, base_inv)
            for actor_inv in _invariant_decompositions(k):
                actor = abelian(list(actor_inv))
                gen_candidates = []
                for i, g in enumerate(actor.generators):
                    n_i = actor_inv[i]
                    ok = [phi for phi in autos if _perm_order_divides(phi, n_i)]
                    gen_candidates.append(ok)
                for assignment in iproduct(*gen_candidates):
                    gen_phis = {int(g): phi for g, phi in
                                zip(actor.generators, assignment)}
                    try:
                        phis = extend_action(actor, gen_phis, base.order)
                        yield semidirect_product(base, actor,
                                                 lambda a: phis[a])
                    except InvalidAction:
                        continue


def _perm_order_divides(phi: np.ndarray, n: int) -> bool:
    ident = np.arange(phi.size)
    cur = ident
    order = 1
    while True:
        cur = phi[cur]
        if np.array_equal(cur, ident):
            break
        order += 1
    return n % order == 0


def build_diameter4_witness() -> GroupAnalysis:
    """First order-60 semidirect product of abelian groups matching the
    frozen fingerprint and the connectivity hypothesis."""
    for G in _candidate_products(60):
        a = GroupAnalysis(G)
        if a.series.derived_length != 2:
            continue
        if witness_fingerprint(a) != DIAMETER4_FINGERPRINT:
            continue
        if a.classification.satisfies_hypothesis:
            G.name = "diameter4-witness"
            return a
    raise AssertionError("order-60 witness search found no match")


# -- the order-1500 witness ------------------------------------------------------


def _gf_nullspace(mat: np.ndarray, p: int) -> np.ndarray:
    """Row basis of the nullspace of ``mat`` over GF(p)."""
    rows, cols = mat.shape
    a = mat.copy() % p
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i, c] % p), None)
        if piv is None:
            continue
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        for i in range(rows):
            if i != r and a[i, c]:
                a[i] = (a[i] - int(a[i, c]) * a[r]) % p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), np.int64)
    for k, c in enumerate(free):
        basis[k, c] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = (-int(a[i, c])) % p
    return basis


def _matrix_action_candidates(p: int = 5) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(A, B) pairs over GF(p)^3 with A of order 3 fixing a line, B A = A^-1 B,
    and B an invertible matrix with B^2 = -I (hence order 4).

    The B^2 = -I constraint encodes that the square of the order-4 actor
    element must act without nonzero fixed vectors.
    """
    # order-3 map with one-dimensional fixed space: companion(x^2+x+1) + [1]
    A = np.array([[0, p - 1, 0], [1, p - 1, 0], [0, 0, 1]], np.int64)
    Ainv = A @ A % p  # A^-1 = A^2, as A^3 = I
    # linear system B A - A^-1 B = 0 in the 9 entries of B
    eye = np.eye(3, dtype=np.int64)
    M = (np.kron(eye, A.T) - np.kron(Ainv, eye)) % p  # rows index (i,j) of BA - A^-1 B
    basis = _gf_nullspace(M, p)
    minus_eye = (-eye) % p
    for coeffs in iproduct(range(p), repeat=basis.shape[0]):
        B = (np.array(coeffs, np.int64) @ basis % p).reshape(3, 3)
        # B^2 = -I makes B invertible, as B (-B) = I
        if np.array_equal(B @ B % p, minus_eye):
            yield A, B


def _matrix_to_perm(mat: np.ndarray, vecs: np.ndarray, index: dict,
                    p: int = 5) -> np.ndarray:
    out = np.empty(vecs.shape[0], np.int32)
    images = vecs @ mat.T % p
    for i, v in enumerate(images):
        out[i] = index[tuple(int(c) for c in v)]
    return out


def build_diameter6_witness() -> GroupAnalysis:
    """First order-1500 group matching the frozen fingerprint.

    The base must be elementary abelian: the other abelian groups of order
    125 admit no automorphism of order 3, so the order-12 actor cannot act
    with the required derived subgroup.  The actor is the dicyclic group of
    order 12 (presented as a cyclic group of order 3 inverted by one of
    order 4), acting through matrices over GF(5).
    """
    p = 5
    invariants = (5, 5, 5)
    base = abelian(list(invariants))
    vecs, index = _abelian_vectors_index(base, invariants)
    actor = metacyclic(3, 4, 2, name="Dic3")
    ga, gb = actor.generators
    for A, B in _matrix_action_candidates(p):
        phi_a = _matrix_to_perm(A, vecs, index, p)
        phi_b = _matrix_to_perm(B, vecs, index, p)
        try:
            phis = extend_action(actor, {int(ga): phi_a, int(gb): phi_b},
                                 base.order)
            G = semidirect_product(base, actor, lambda a: phis[a])
        except InvalidAction:
            continue
        a = GroupAnalysis(G)
        if center(a.series.terms[1]).order == 1:
            continue
        if witness_fingerprint(a) == DIAMETER6_FINGERPRINT:
            G.name = "diameter6-witness"
            return a
    raise AssertionError("order-1500 witness search found no match")


def diameter6_extra_checks(G: AnalysisLike) -> dict[str, bool]:
    """Extra structural facts of the order-1500 witness, as named booleans.

    The Fitting subgroup must be the Sylow 5-subgroup, no 2-element may
    commute with a nontrivial Fitting element, and no order-4 element may
    commute with any nontrivial 3-element.
    """
    a = as_analysis(G)
    G, F = a.group, a.fitting
    orders = G.element_orders
    fitting_is_sylow5 = F.order == 125 and \
        bool(np.all(np.isin(orders[F.members[1:]] , (5, 25, 125))))

    two_elements = np.nonzero((orders == 2) | (orders == 4))[0]
    fit_nontrivial = F.members[F.members != 0]
    no_two_commutes = not commuting(G, two_elements, fit_nontrivial).any()

    four_elements = np.nonzero(orders == 4)[0]
    three_elements = np.nonzero((orders == 3) | (orders == 9))[0]
    no_four_commutes = not commuting(G, four_elements, three_elements).any()

    return {
        "fitting_is_sylow_5": fitting_is_sylow5,
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
