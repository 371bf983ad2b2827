"""Quotients and (semi)direct products, realized as permutation groups.

Quotients act by right multiplication on cosets; products act on
|base|·|actor| points via the regular representation, so every construction
yields the same uniform FiniteGroup representation.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import InvalidAction, NotNormal
from .perm import FiniteGroup, Subgroup, closure, distinct


def quotient(
    G: FiniteGroup, N: Subgroup, *, name: str | None = None
) -> tuple[FiniteGroup, np.ndarray]:
    """The quotient G/N with its projection array.

    Returns ``(Q, proj)`` where Q acts by right multiplication on the cosets
    of N (degree |G|/|N|) and ``proj[x]`` is the index in Q of the coset Nx.
    The cosets are listed breadth-first from N over right multiplication by
    G's generators, the order a closure over the coset permutations would
    give, and Q's generator rows and right columns are read off G's table.
    Raises NotNormal when N is not normal in G.
    """
    if N.parent is not G:
        raise ValueError("subgroup does not belong to the given group")
    if not N.is_normal():
        raise NotNormal("quotient by a non-normal subgroup")
    t = G.table
    gens = np.array(G.generators, np.int64)
    # canonical representative of the coset Nx: the least element of {n·x}
    coset_rep = t[N.members].min(axis=0).astype(np.int32)
    reps = distinct(coset_rep, G.order)
    cid = np.searchsorted(reps, coset_rep).astype(np.int32)
    # the cosets in breadth-first order, N (coset 0) first, a level at a
    # time: each level lists the cosets r·g of the level before that are
    # new, in the reading order r-major, then by generator, each at its
    # first occurrence
    pos = np.full(reps.size, -1, np.int32)
    pos[0] = 0
    levels = [np.zeros(1, np.int32)]
    found = 1
    while levels[-1].size:
        reached = cid[t[np.ix_(reps[levels[-1]], gens)]].ravel()
        reached = reached[pos[reached] < 0]
        first = np.zeros(reached.size, bool)
        first[np.unique(reached, return_index=True)[1]] = True
        level = reached[first]
        pos[level] = np.arange(found, found + level.size)
        found += level.size
        levels.append(level)
    r = reps[np.concatenate(levels)]
    proj = pos[cid]
    # generator h acts on the cosets as c ↦ cid[reps[c]·g_h]
    rows = cid[t[np.ix_(reps, gens)].T]
    right = proj[t[np.ix_(r, gens)]].T
    Q = FiniteGroup(rows, proj[gens], right, name=name)
    return Q, proj


ActionFn = Callable[[int], Sequence[int] | np.ndarray]


def semidirect_product(
    base: FiniteGroup,
    actor: FiniteGroup,
    action: ActionFn,
    *,
    name: str | None = None,
) -> FiniteGroup:
    """The semidirect product base ⋊ actor for a verified action.

    ``action(a)`` must give, for each actor element index a, the automorphism
    of the base as a permutation of base element indices; the assignment must
    be a homomorphism.  Multiplication follows
    (b1, a1)(b2, a2) = (b1·action(a1)(b2), a1·a2), realized on
    |base|·|actor| points via the regular representation: the pair (b, a) is
    the point b·|actor| + a, and each element is the permutation of the
    points by which it multiplies them on the right.
    """
    nb, m = base.order, actor.order
    tb, ta = base.table, actor.table
    phis = np.empty((m, nb), np.int32)
    for a in range(m):
        phi = np.asarray(action(a), np.int32)
        if phi.shape != (nb,) or not np.array_equal(np.sort(phi), np.arange(nb)):
            raise InvalidAction(f"action of actor element {a} is not a bijection")
        if not np.array_equal(phi[tb], tb[np.ix_(phi, phi)]):
            raise InvalidAction(
                f"action of actor element {a} is not an automorphism"
            )
        phis[a] = phi
    for a1 in range(m):
        composed = phis[a1][phis]  # row a2 = phi_{a1} ∘ phi_{a2}
        if not np.array_equal(phis[ta[a1]], composed):
            raise InvalidAction("action is not a homomorphism into Aut(base)")

    pts = np.arange(nb * m, dtype=np.int32)
    b_of, a_of = pts // m, pts % m
    gen_rows = []
    for gb in base.generators:
        # right multiplication by (gb, identity); widened first, since table
        # entries may be int16 where the point labels b·m + a are not
        b_img = tb[b_of, phis[a_of, gb]].astype(np.int64)
        gen_rows.append(b_img * m + a_of)
    for ga in actor.generators:
        # right multiplication by (identity, ga)
        gen_rows.append(b_of * m + ta[a_of, ga])
    G = closure(nb * m, gen_rows, max_order=nb * m, name=name)
    if G.order != nb * m:
        raise InvalidAction("regular representation did not reach full order")
    return G


def extend_action(actor: FiniteGroup,
                  gen_phis: dict[int, np.ndarray],
                  degree: int) -> np.ndarray:
    """Extend generator automorphisms to all actor elements.

    Follows phi_(x*g) = phi_x applied after phi_g, matching the homomorphism
    convention of ``semidirect_product``.  Raises InvalidAction when the
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


def direct_product(
    A: FiniteGroup, B: FiniteGroup, *, name: str | None = None
) -> FiniteGroup:
    """Direct product A × B (semidirect product with the trivial action)."""
    ident = np.arange(A.order, dtype=np.int32)
    return semidirect_product(A, B, lambda a: ident, name=name)
