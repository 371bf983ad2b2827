"""Quotients and (semi)direct products, realized as permutation groups.

Quotients act by right multiplication on cosets; products act on
|base|·|actor| points via the regular representation.  Both actions are
regular, so one walk over points lists both as the same uniform FiniteGroup.
A product's action is given on exactly the actor's generators and extended
along the actor's breadth-first tree, a level at a time.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidAction, NotNormal
from .perm import FiniteGroup, Subgroup, distinct, row_blocks


def _regular_group(rows: np.ndarray, *, name: str | None = None
                   ) -> tuple[FiniteGroup, np.ndarray]:
    """The group generated by ``rows``, which must act regularly on their
    points, and ``pos``: ``pos[p]`` indexes the element taking point 0 to p.

    In a regular group an element x is known by x(0), and x·g takes 0 to
    g(x(0)).  So the points listed breadth-first from 0 give ``closure``'s
    element order: each level lists the new points g(p) of the level
    before, p-major, then by generator, each at its first occurrence.
    """
    pos = np.full(rows.shape[1], -1, np.int32)
    pos[0] = 0
    levels = [np.zeros(1, np.intp)]
    found = 1
    while levels[-1].size:
        reached = rows[:, levels[-1]].T.ravel()
        reached = reached[pos[reached] < 0]
        level = np.fromiter(dict.fromkeys(reached.tolist()), np.intp)
        pos[level] = np.arange(found, found + level.size)
        found += level.size
        levels.append(level)
    right = pos[rows[:, np.concatenate(levels)]]
    return FiniteGroup(rows, right, name=name), pos


def quotient(
    G: FiniteGroup, N: Subgroup, *, name: str | None = None
) -> tuple[FiniteGroup, np.ndarray]:
    """The quotient G/N with its projection array.

    Returns ``(Q, proj)`` where Q acts by right multiplication on the cosets
    of N (degree |G|/|N|) and ``proj[x]`` is the index in Q of the coset Nx.
    The coset permutations are read off G's table and listed by the walk
    over cosets.  Raises NotNormal when N is not normal in G.
    """
    if N.parent is not G:
        raise ValueError("subgroup does not belong to the given group")
    if not N.is_normal():
        raise NotNormal("quotient by a non-normal subgroup")
    t = G.table
    # canonical representative of the coset Nx: the least element of {n·x},
    # so N itself is coset 0, from a block of N's rows at a time
    coset_rep = t[0].astype(np.int32)
    for rows in row_blocks(N.order, G.order):
        np.minimum(coset_rep, t[N.members[rows]].min(axis=0), out=coset_rep)
    reps = distinct(coset_rep, G.order)
    cid = np.searchsorted(reps, coset_rep).astype(np.int32)
    # generator h acts on the cosets as c ↦ cid[reps[c]·g_h]
    rows = cid[t[np.ix_(reps, G.generators)].T]
    Q, pos = _regular_group(rows, name=name)
    return Q, pos[cid]


def semidirect_product(
    base: FiniteGroup,
    actor: FiniteGroup,
    images: dict[int, np.ndarray],
    *,
    name: str | None = None,
) -> FiniteGroup:
    """The semidirect product base ⋊ actor for an action given on generators.

    ``images`` maps the actor's generators, exactly, to automorphisms of
    the base, as arrays of base element indices, and ``extend_action``
    extends them to a ↦ phi_a.  Multiplication follows
    (b1, a1)(b2, a2) = (b1·phi_a1(b2), a1·a2), realized on |base|·|actor|
    points via the regular representation: the pair (b, a) is the point
    b·|actor| + a, and each element is the permutation of the points by
    which it multiplies them on the right.  Raises InvalidAction when an
    image is not an automorphism of the base, or the images are not keyed
    by the actor's generators or do not define an action.
    """
    nb, m = base.order, actor.order
    tb, ta = base.table, actor.table
    for g, phi in images.items():
        phi = np.asarray(phi)
        if phi.shape != (nb,) or not np.array_equal(np.sort(phi), np.arange(nb)):
            raise InvalidAction(f"image of actor element {g} is not a bijection")
        if not np.array_equal(phi[tb], tb[np.ix_(phi, phi)]):
            raise InvalidAction(f"image of actor element {g} is not an automorphism")
    # each phi_a is a composition of the automorphisms just checked, and
    # extend_action's check of every phi_x·g makes a ↦ phi_a a homomorphism
    phis = extend_action(actor, images, nb)

    pts = np.arange(nb * m, dtype=np.int32)
    b_of, a_of = pts // m, pts % m
    # right multiplication by (gb, identity), widened first, since table
    # entries may be int16 where the point labels b·m + a are not; then by
    # (identity, ga).  The action is valid, so the rows act regularly.
    rows = [tb[b_of, phis[a_of, gb]].astype(np.int64) * m + a_of
            for gb in base.generators]
    rows += [b_of * m + ta[a_of, ga] for ga in actor.generators]
    return _regular_group(np.array(rows, np.int64).reshape(-1, nb * m), name=name)[0]


def extend_action(actor: FiniteGroup,
                  gen_phis: dict[int, np.ndarray],
                  degree: int) -> np.ndarray:
    """Extend generator automorphisms to all actor elements.

    Follows phi_(x*g) = phi_x applied after phi_g, matching the homomorphism
    convention of ``semidirect_product``: one gather per level of the actor's
    breadth-first tree, then one per generator g to check it at every x·g.
    Raises InvalidAction unless the keys of ``gen_phis`` are exactly the
    actor's generators and the assignment is a homomorphism.
    """
    gens = actor.generators
    if set(gen_phis) != set(gens):
        raise InvalidAction("images must be given on exactly the actor's generators")
    gphis = np.array([gen_phis[g] for g in gens], np.int32)
    phis = np.empty((actor.order, degree), np.int32)
    phis[0] = np.arange(degree)
    for s, e in actor._levels:
        phis[s:e] = phis[actor._parent[s:e, None], gphis[actor._gen[s:e]]]
    for g, phig in zip(gens, gphis):
        if not np.array_equal(phis[actor.table[:, g]], phis[:, phig]):
            raise InvalidAction("generator images do not define an action")
    return phis


def direct_product(
    A: FiniteGroup, B: FiniteGroup, *, name: str | None = None
) -> FiniteGroup:
    """Direct product A × B (semidirect product with the trivial action)."""
    ident = np.arange(A.order, dtype=np.int32)
    return semidirect_product(A, B, {g: ident for g in B.generators}, name=name)
