"""Quotients and (semi)direct products, realized as permutation groups.

Quotients act by right multiplication on cosets; products act on
|base|·|actor| points via the regular representation.  Both actions are
regular, so one walk over points lists both.  A product keeps a table; a
quotient keeps none and multiplies through the group it is a quotient of.
A product's action is given on exactly the actor's generators and extended
along the actor's breadth-first tree, a level at a time.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidAction, NotNormal
from .perm import FiniteGroup, QuotientGroup, Subgroup, distinct, index_dtype, orbit_labels


def _regular_walk(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The right-multiplication columns of the group generated by ``rows``,
    which must act regularly on their points, and ``pos``: ``pos[p]``
    indexes the element taking point 0 to p.

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
    return pos[rows[:, np.concatenate(levels)]], pos


def _regular_group(rows: np.ndarray, *, name: str | None = None
                   ) -> tuple[FiniteGroup, np.ndarray]:
    """The group generated by ``rows``, acting regularly, with its table,
    and ``pos`` (see ``_regular_walk``)."""
    right, pos = _regular_walk(rows)
    return FiniteGroup(rows, right, name=name), pos


def quotient(
    G: FiniteGroup, N: Subgroup, *, name: str | None = None
) -> tuple[FiniteGroup, np.ndarray]:
    """The quotient G/N with its projection array.

    Returns ``(Q, proj)`` where Q acts by right multiplication on the cosets
    of N (degree |G|/|N|) and ``proj[x]`` is the index in Q of the coset Nx.
    The coset permutations come from G's products and are listed by the
    walk over cosets.  Q is a ``QuotientGroup``: it keeps each coset's least
    member and ``proj``, not a table, and multiplies through G.  Raises
    NotNormal when N is not normal in G.
    """
    if N.parent is not G:
        raise ValueError("subgroup does not belong to the given group")
    if not N.is_normal():
        raise NotNormal("quotient by a non-normal subgroup")
    # canonical representative of the coset Nx: the least element of {n·x},
    # so N itself is coset 0.  The cosets are the orbits of left
    # multiplication by N's generators, which orbit_labels labels by their
    # least members.
    gens = np.array(N.generators, np.intp)[:, None]
    coset_rep = orbit_labels(G.products(gens, np.arange(G.order)))
    reps = distinct(coset_rep, G.order)
    cid = np.searchsorted(reps, coset_rep).astype(np.int32)
    # generator h acts on the cosets as c ↦ cid[reps[c]·g_h]
    rows = cid[G.products(reps[:, None], G.generators).T]
    right, pos = _regular_walk(rows)
    rep = np.empty_like(reps)
    rep[pos] = reps
    proj = pos[cid].astype(index_dtype(reps.size))
    return QuotientGroup(rows, right, G, rep, proj, name=name), proj


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
    everyone = np.arange(nb)
    for g, phi in images.items():
        phi = np.asarray(phi)
        if phi.shape != (nb,) or not np.array_equal(np.sort(phi), everyone):
            raise InvalidAction(f"image of actor element {g} is not a bijection")
        # phi(x·g) = phi(x)·phi(g) for every x and generator g makes phi a
        # homomorphism, as every element is a product of generators
        gens = base.generators
        if not np.array_equal(phi[base.products(everyone[:, None], gens)],
                              base.products(phi[:, None], phi[gens])):
            raise InvalidAction(f"image of actor element {g} is not an automorphism")
    # each phi_a is a composition of the automorphisms just checked, and
    # extend_action's check of every phi_x·g makes a ↦ phi_a a homomorphism
    phis = extend_action(actor, images, nb)

    pts = np.arange(nb * m, dtype=np.int32)
    b_of, a_of = pts // m, pts % m
    # right multiplication by (gb, identity), widened first, since products
    # may be int16 where the point labels b·m + a are not; then by
    # (identity, ga).  The action is valid, so the rows act regularly.
    rows = [base.products(b_of, phis[a_of, gb]).astype(np.int64) * m + a_of
            for gb in base.generators]
    rows += [b_of * m + actor.products(a_of, ga) for ga in actor.generators]
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
    everyone = np.arange(actor.order)
    for g, phig in zip(gens, gphis):
        if not np.array_equal(phis[actor.products(everyone, g)], phis[:, phig]):
            raise InvalidAction("generator images do not define an action")
    return phis


def direct_product(
    A: FiniteGroup, B: FiniteGroup, *, name: str | None = None
) -> FiniteGroup:
    """Direct product A × B (semidirect product with the trivial action)."""
    ident = np.arange(A.order, dtype=np.int32)
    return semidirect_product(A, B, {g: ident for g in B.generators}, name=name)
