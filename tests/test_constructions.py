import numpy as np
import pytest

from agc.constructions import (
    abelian,
    abelian_vectors,
    alternating,
    cyclic,
    dicyclic,
    dihedral,
    metacyclic,
    quaternion,
    symmetric,
)
from agc.errors import InvalidAction
from agc.perm import powers
from agc.structure import center, derived_series, is_abelian


def test_cyclic_orders():
    for n in (1, 2, 5, 12):
        G = cyclic(n)
        assert G.order == n
        assert is_abelian(G)
        assert int(G.element_orders.max()) == n


def test_abelian_invariants_give_order_and_exponent():
    G = abelian([2, 2, 3])
    assert G.order == 12
    assert is_abelian(G)
    assert int(G.element_orders.max()) == 6
    vecs = abelian_vectors(G, [2, 2, 3])
    assert vecs.shape == (12, 3)
    # the vector map is a bijection onto the full coordinate box
    assert len({tuple(v) for v in vecs.tolist()}) == 12


def test_symmetric_and_alternating():
    assert symmetric(3).order == 6
    assert symmetric(4).order == 24
    assert alternating(4).order == 12
    assert alternating(5).order == 60
    # A_n consists of even permutations only
    G = alternating(5)
    for row in G.images(range(G.degree)):
        assert _parity(row) == 0


def _parity(images) -> int:
    seen = [False] * len(images)
    parity = 0
    for i in range(len(images)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = images[j]
            length += 1
        parity ^= (length - 1) & 1
    return parity


def test_dihedral_structure():
    G = dihedral(6)
    assert G.order == 12
    assert center(G).order == 2
    orders = sorted(G.element_orders.tolist())
    assert orders.count(2) == 7  # six reflections plus the half-turn


def test_quaternion_structure():
    G = quaternion()
    assert G.order == 8
    assert center(G).order == 2
    orders = sorted(G.element_orders.tolist())
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]  # unique involution
    assert derived_series(G).orders() == [8, 2, 1]


def test_dicyclic_structure():
    G = dicyclic(3)
    assert G.order == 12
    assert center(G).order == 2
    # one element of order 2 (the central involution)
    assert sorted(G.element_orders.tolist()).count(2) == 1


def test_metacyclic_relation():
    G = metacyclic(7, 3, 2)
    assert G.order == 21
    a, b = G.generators
    # b a b^-1 = a^2
    lhs = G.mult(G.mult(b, a), int(G.inverse_array[b]))
    assert lhs == powers(G, a, 2)


def test_metacyclic_rejects_invalid_exponent():
    with pytest.raises(InvalidAction):
        metacyclic(7, 3, 3)  # 3^3 = 27 is not 1 mod 7
    with pytest.raises(InvalidAction):
        metacyclic(7, 1, 2)  # C1 has no generator, but 2^1 is not 1 mod 7
