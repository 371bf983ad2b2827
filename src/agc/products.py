"""Quotients and (semi)direct products.

A product is a permutation group on |base|·|actor| points, those of its
regular representation.  That action is regular, so any point is a base
that needs no certifying: ``perm._enumerate`` lists a product from the
point 0, through a dense array over the points, and the product keeps a
table.  A quotient is not listed: its elements are numbered by their
cosets' least members in increasing order, and it keeps no table but
multiplies through the group it is a quotient of.  A product's action is
given on exactly the actor's generators and extended to the whole actor
by ``FiniteGroup.compose_rows``, the walk along the actor's breadth-first
tree that also fills a table, so no code here reads a group's tree.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidAction, NotNormal
from .perm import (FiniteGroup, QuotientGroup, Subgroup, _enumerate, distinct, index_dtype,
                   orbit_labels)


def quotient(G: FiniteGroup, N: Subgroup) -> tuple[FiniteGroup, np.ndarray]:
    """The quotient G/N with its projection array.

    Returns ``(Q, proj)`` where ``proj[x]`` is the index in Q of the coset
    Nx.  The cosets are numbered by their least members in increasing
    order, so N itself is coset 0.  Q is a ``QuotientGroup``, with no
    name: it keeps those least members and ``proj``, not a table nor any
    listing, and multiplies through G.  Raises NotNormal when N is not
    normal in G.
    """
    if N.parent is not G:
        raise ValueError("subgroup does not belong to the given group")
    if not N.is_normal():
        raise NotNormal("quotient by a non-normal subgroup")
    # the cosets Nx are the orbits of left multiplication by N's
    # generators, which orbit_labels labels by their least members
    gens = np.array(N.generators, np.intp)[:, None]
    coset_rep = orbit_labels(G.products(gens, np.arange(G.order)))
    rep = distinct(coset_rep, G.order)
    proj = np.searchsorted(rep, coset_rep).astype(index_dtype(rep.size))
    return QuotientGroup(G, rep, proj), proj


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
        if phi.shape != (nb,) or (np.sort(phi) != everyone).any():
            raise InvalidAction(f"image of actor element {g} is not a bijection")
        # phi(x·g) = phi(x)·phi(g) for every x and generator g makes phi a
        # homomorphism, as every element is a product of generators
        gens = base.generators
        if (phi[base.products(everyone[:, None], gens)]
                != base.products(phi[:, None], phi[gens])).any():
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
    rows = np.array(rows, np.int32).reshape(-1, nb * m)
    right, tree = _enumerate(rows, [0], nb * m)
    return FiniteGroup(rows, right, tree, name=name)


def extend_action(actor: FiniteGroup,
                  gen_phis: dict[int, np.ndarray],
                  degree: int) -> np.ndarray:
    """Extend generator automorphisms to all actor elements.

    Follows phi_(x*g) = phi_x applied after phi_g, matching the homomorphism
    convention of ``semidirect_product``: row x·g of the result is row x read
    at phi_g, the composition of the generators' images along the actor's
    tree (``FiniteGroup.compose_rows``), then one gather per generator g checks
    it at every x·g.  The images must be index arrays of length ``degree``
    with values below it.  Raises InvalidAction unless the keys of
    ``gen_phis`` are exactly the actor's generators and the assignment is a
    homomorphism.
    """
    gens = actor.generators
    if set(gen_phis) != set(gens):
        raise InvalidAction("images must be given on exactly the actor's generators")
    # an actor without generators (C1) keeps the shape (0, degree)
    gphis = np.array([gen_phis[g] for g in gens], np.intp).reshape(len(gens), degree)
    phis = actor.compose_rows(gphis)
    everyone = np.arange(actor.order)
    for g, phig in zip(gens, gphis):
        if (phis[actor.products(everyone, g)] != phis[:, phig]).any():
            raise InvalidAction("generator images do not define an action")
    return phis


def direct_product(
    A: FiniteGroup, B: FiniteGroup, *, name: str | None = None
) -> FiniteGroup:
    """Direct product A × B (semidirect product with the trivial action)."""
    ident = np.arange(A.order, dtype=np.int32)
    return semidirect_product(A, B, {g: ident for g in B.generators}, name=name)
