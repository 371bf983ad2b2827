"""Stock groups used by tests, the corpus builder, and the witnesses."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import InvalidAction
from .perm import FiniteGroup, closure
from .products import semidirect_product


def cyclic(n: int) -> FiniteGroup:
    """Cyclic group of order n on n points; element index k is rotation by k."""
    if n == 1:
        return closure(1, [], name="C1")
    return closure(n, [np.roll(np.arange(n), -1)], name=f"C{n}")


def abelian(invariants: Sequence[int]) -> FiniteGroup:
    """Direct product of cyclic groups, acting on disjoint cycles.

    Element indices follow breadth-first enumeration; the rotation vector of
    element i is read off its images of each cycle's first point (see
    ``abelian_vectors``).
    """
    invariants = [int(d) for d in invariants]
    degree = sum(invariants)
    gens = []
    offset = 0
    for d in invariants:
        images = np.arange(degree)
        images[offset : offset + d] = offset + (np.arange(d) + 1) % d
        gens.append(images)
        offset += d
    return closure(degree, gens, name="x".join(f"C{d}" for d in invariants))


def abelian_vectors(G: FiniteGroup, invariants: Sequence[int]) -> np.ndarray:
    """Per-element rotation vectors for a group built by ``abelian``."""
    offsets = np.cumsum([0] + [int(d) for d in invariants[:-1]])
    vecs = G.images(offsets) - offsets
    return vecs.astype(np.int64)


def symmetric(n: int) -> FiniteGroup:
    if n < 2:
        return closure(1, [], name="S1")
    transposition = np.arange(n)
    transposition[[0, 1]] = [1, 0]
    cycle = np.roll(np.arange(n), -1)
    return closure(n, [transposition, cycle], name=f"S{n}")


def alternating(n: int) -> FiniteGroup:
    if n < 3:
        return closure(max(n, 1), [], name=f"A{n}")
    three_cycle = np.arange(n)
    three_cycle[[0, 1, 2]] = [1, 2, 0]
    if n % 2:
        rest = np.roll(np.arange(n), -1)  # the n-cycle is even for odd n
    else:
        rest = np.arange(n)
        rest[1:] = np.roll(np.arange(1, n), -1)  # odd-length cycle on 1..n-1
    return closure(n, [three_cycle, rest], name=f"A{n}")


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n acting on n points."""
    rotation = np.roll(np.arange(n), -1)
    reflection = (n - np.arange(n)) % n
    return closure(n, [rotation, reflection], name=f"D{2 * n}")


def quaternion() -> FiniteGroup:
    """The quaternion group of order 8 (the smallest dicyclic group)."""
    G = dicyclic(2)
    G.name = "Q8"
    return G


def metacyclic(n: int, m: int, r: int, *, name: str | None = None) -> FiniteGroup:
    """C_n ⋊ C_m where the actor generator maps base elements to r-th powers.

    Raises InvalidAction unless r^m ≡ 1 (mod n), which makes x ↦ x^r an
    automorphism whose m-th power is the identity.
    """
    if pow(r, m, n) != 1 % n:  # C1 has no generator, so nothing else checks m = 1
        raise InvalidAction(f"{r}^{m} is not 1 mod {n}")
    actor = cyclic(m)
    images = {g: np.arange(n) * r % n for g in actor.generators}
    return semidirect_product(cyclic(n), actor, images,
                              name=name or f"C{n}:C{m}(r={r})")


def matrix_action_group(p: int, dim: int, actor: FiniteGroup,
                        gen_matrices: dict[int, Sequence[Sequence[int]] | np.ndarray],
                        *, name: str | None = None) -> FiniteGroup:
    """GF(p)^dim ⋊ actor, each actor generator acting by its matrix.

    ``gen_matrices`` maps actor generator indices to dim × dim matrices over
    GF(p), which act on the column vectors of the base ``abelian([p] * dim)``.
    Raises InvalidAction when the matrices do not define an action.
    """
    invariants = [p] * dim
    base = abelian(invariants)
    vecs = abelian_vectors(base, invariants)
    # element index by the base-p code of its vector
    weights = p ** np.arange(dim, dtype=np.int64)
    index = np.empty(base.order, np.int32)
    index[vecs @ weights] = np.arange(base.order, dtype=np.int32)
    gen_phis = {g: index[vecs @ np.asarray(m, np.int64).T % p @ weights]
                for g, m in gen_matrices.items()}
    return semidirect_product(base, actor, gen_phis, name=name)


def dicyclic(n: int) -> FiniteGroup:
    """Dicyclic group of order 4n as ⟨a, b | a^{2n}=1, b^2=a^n, bab^-1=a^-1⟩."""
    deg = 4 * n
    k = np.arange(2 * n)
    # points 0..2n-1 are a^k, points 2n..4n-1 are b*a^k; act by right mult
    a = np.concatenate(((k + 1) % (2 * n), 2 * n + (k + 1) % (2 * n)))
    b = np.concatenate((2 * n + (-k) % (2 * n), (n - k) % (2 * n)))
    return closure(deg, [a, b], name=f"Dic{n}")
