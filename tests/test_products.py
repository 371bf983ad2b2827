import importlib
import tracemalloc

import numpy as np
import pytest

from agc.errors import InvalidAction, NotNormal
from agc.perm import closure, distinct, generated_subgroup, index_dtype, powers
from agc.products import direct_product, extend_action, quotient, semidirect_product
from agc.constructions import abelian, cyclic, metacyclic, symmetric
from agc.structure import (
    center,
    derived_series,
    derived_subgroup,
    fitting_subgroup,
    is_abelian,
    normal_subgroups,
    sylow_subgroups,
)

from oracles import closure_quotient, indices_of_rows


def all_products(G):
    """Every product x·y, at (x, y), from ``G.products``."""
    everyone = np.arange(G.order)
    return G.products(everyone[:, None], everyone)


def _klein_four(s4):
    orders, rows = s4.element_orders, s4.images(range(4))
    double_transpositions = [
        x for x in range(s4.order)
        if orders[x] == 2 and not np.any(rows[x] == np.arange(4))
    ]
    return generated_subgroup(s4, double_transpositions)


def test_quotient_s4_by_v4():
    G = symmetric(4)
    V = _klein_four(G)
    Q, proj = quotient(G, V)
    assert Q.order == 6
    assert not is_abelian(Q)  # S4/V4 is the nonabelian group of order 6
    # the projection is a homomorphism
    t = G.table
    for i in range(0, 24, 3):
        for j in range(0, 24, 5):
            assert proj[t[i, j]] == Q.mult(proj[i], proj[j])
    # kernel is exactly V
    assert sorted(np.nonzero(proj == 0)[0].tolist()) == V.members.tolist()


def _assert_matches_closure_quotient(G, N, name):
    """``quotient(G, N)`` equals G/N enumerated afresh by ``closure_quotient``
    up to the relabelling ``oracle_proj[Q.rep]``, which takes each coset,
    numbered by its least member, to its place in the fresh listing: the
    same order, generators, projection, products and inverses, with no
    table kept.  Returns the quotient."""
    Q, proj = quotient(G, N)
    R, oracle_proj = closure_quotient(G, N)
    fresh = oracle_proj[Q.rep]
    assert Q.order == R.order == np.unique(fresh).size, name
    assert "table" not in vars(Q), name
    assert np.array_equal(fresh[proj], oracle_proj), name
    assert fresh[Q.generators].tolist() == R.generators, name
    products = all_products(Q)
    assert products.dtype == Q.inverse_array.dtype == index_dtype(Q.order), name
    assert np.array_equal(fresh[products], R.table[fresh[:, None], fresh]), name
    assert np.array_equal(fresh[Q.inverse_array], R.inverse_array[fresh]), name
    return Q


def test_quotient_matches_closure_oracle(corpus_groups, witness1500_x_c2):
    """Read off the parent's products, the quotient equals a fresh closure
    over the coset permutations, and multiplies through its parent, keeping
    no table: on G/Z, G/F(G), G/G' and (G/Z)/F(G/Z) of every corpus group,
    and on the G/Z of W1500 × C2.  The closure over G/Z reads G/Z's
    products off a closure of its own (``oracles.table_of``)."""
    for name, G in corpus_groups.items():
        for N in (fitting_subgroup(G, sylow_subgroups(G)), derived_subgroup(G)):
            _assert_matches_closure_quotient(G, N, name)
        Q = _assert_matches_closure_quotient(G, center(G), name)
        _assert_matches_closure_quotient(Q, fitting_subgroup(Q, sylow_subgroups(Q)), name)
    G = witness1500_x_c2
    _assert_matches_closure_quotient(G, center(G), "W1500 x C2")


def test_quotient_numbers_cosets_by_least_members_at_order_3000(witness1500_x_c2):
    """On W1500 × C2, the cosets of the centre (1500 of them) and of the
    derived subgroup are numbered by their least members in increasing
    order: ``rep[q]`` is the least member of coset q, ``proj`` is constant
    on each coset and takes ``rep`` to 0, 1, 2, ..., and the generators are
    the cosets of G's."""
    G = witness1500_x_c2
    everyone = np.arange(G.order)
    for N in (center(G), derived_subgroup(G)):
        Q, proj = quotient(G, N)
        cosets = G.products(N.members[:, None], everyone)  # column x: the coset Nx
        assert Q.order == G.order // N.order, N.order
        assert np.array_equal(Q.rep[proj], cosets.min(axis=0)), N.order
        assert (Q.rep[1:] > Q.rep[:-1]).all(), N.order
        assert np.array_equal(proj[Q.rep], np.arange(Q.order)), N.order
        assert (proj[cosets] == proj).all(), N.order
        assert Q.generators == proj[G.generators].tolist(), N.order


def test_quotient_by_a_large_subgroup_makes_no_product_block(witness1500_x_c2):
    """The least member of each coset is its label among the orbits of left
    multiplication by N's generators: on W1500 × C2, the quotient by the
    order-750 subgroup that the squares generate traces under 1 MB, where
    taking all 750 rows of N at once traced 4.5 MB."""
    G = witness1500_x_c2
    everyone = np.arange(G.order)
    N = generated_subgroup(G, distinct(G.table[everyone, everyone], G.order).tolist())
    assert N.order == 750
    tracemalloc.start()
    try:
        Q, proj = quotient(G, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    least = G.products(N.members[:, None], everyone).min(axis=0)
    assert Q.order == 4 and np.array_equal(Q.rep[proj], least)
    assert peak < 1 << 20


def test_quotient_rejects_non_normal():
    G = symmetric(3)
    H = generated_subgroup(G, [G.generators[0]])  # a transposition
    with pytest.raises(NotNormal):
        quotient(G, H)


def test_direct_product_of_abelians_is_abelian():
    G = direct_product(cyclic(4), cyclic(6))
    assert G.order == 24
    assert is_abelian(G)
    assert int(G.element_orders.max()) == 12


def test_direct_product_center_splits():
    G = direct_product(cyclic(2), symmetric(3))
    assert G.order == 12
    assert center(G).order == 2
    assert derived_series(G).orders() == [12, 3, 1]


def test_semidirect_pairing_is_bijective():
    base, actor = cyclic(5), cyclic(4)
    idx = np.arange(5)

    def action(a):
        return (idx * pow(2, a, 5)) % 5

    G = semidirect_product(base, actor, {actor.generators[0]: action(1)})
    assert G.order == 20
    # (b, a) is the permutation (b2, a2) ↦ (b2·phi_a2(b), a2·a) of the
    # points b2·4 + a2; pairing[b, a] is its element index
    tb, ta, t = base.table, actor.table, G.table
    phis = np.array([action(a) for a in range(4)])
    pts = np.arange(20)
    b_of, a_of = pts // 4, pts % 4
    pairing = indices_of_rows(G, [[tb[b_of, phis[a_of, b]] * 4 + ta[a_of, a]
                                   for a in range(4)] for b in range(5)])
    assert sorted(pairing.ravel().tolist()) == list(range(20))
    # pairing respects the product law (b1,a1)(b2,a2) = (b1*phi_a1(b2), a1a2)
    for b1 in range(5):
        for a1 in range(4):
            for b2 in range(5):
                for a2 in range(4):
                    left = t[pairing[b1, a1], pairing[b2, a2]]
                    phi = action(a1)
                    right = pairing[tb[b1, phi[b2]], ta[a1, a2]]
                    assert left == right


def test_semidirect_point_labels_outgrow_the_factor_tables(monkeypatch):
    """C_200 x C_200 acts on 40 000 points, more than an int16 holds,
    though each factor's table is int16.  Its 40 000² table is not made:
    the listing is stopped once it is handed the generators, which must be
    those of the regular representation, b·200 + a ↦ (b·g)·200 + a for
    the base generator g and b·200 + a ↦ b·200 + a·g for the actor's."""
    products = importlib.import_module("agc.products")
    handed = []

    class Stop(Exception):
        pass

    def stop(rows, base, max_order):
        handed.append((rows.shape[1], list(rows), list(base)))
        raise Stop

    monkeypatch.setattr(products, "_enumerate", stop)
    C = cyclic(200)
    with pytest.raises(Stop):
        direct_product(C, C)
    ((degree, gens, base),) = handed
    assert degree == 40_000 and C.table.dtype == np.int16 and base == [0]
    (g,) = C.generators
    pairs = [(b, a) for b in range(200) for a in range(200)]
    assert [p.tolist() for p in gens] == [
        [C.mult(b, g) * 200 + a for b, a in pairs],
        [b * 200 + C.mult(a, g) for b, a in pairs],
    ]


def test_semidirect_rejects_non_automorphism():
    base, actor = cyclic(5), cyclic(2)
    bad = np.array([0, 2, 1, 3, 4])  # a bijection that is not an automorphism
    with pytest.raises(InvalidAction):
        semidirect_product(base, actor, {actor.generators[0]: bad})


def test_semidirect_rejects_non_homomorphism():
    base, actor = cyclic(7), cyclic(4)
    # order-3 automorphism assigned to an order-4 actor: not a homomorphism
    phi = (np.arange(7) * 2) % 7
    with pytest.raises(InvalidAction):
        semidirect_product(base, actor, {actor.generators[0]: phi})


def test_frobenius_20_structure():
    base, actor = cyclic(5), cyclic(4)
    idx = np.arange(5)
    G = semidirect_product(base, actor, {actor.generators[0]: (idx * 2) % 5})
    assert center(G).order == 1
    assert derived_series(G).orders() == [20, 5, 1]
    infos = normal_subgroups(G)
    assert [i.subgroup.order for i in infos] == [1, 5, 10, 20]


def test_extend_action_rejects_inconsistent_generators():
    actor = cyclic(4)
    # order-3 permutation on 3 points assigned to an order-4 generator
    phi = np.array([1, 2, 0], np.int32)
    with pytest.raises(InvalidAction):
        extend_action(actor, {actor.generators[0]: phi}, 3)


def test_extend_action_rejects_keys_that_do_not_generate_the_actor():
    """Images given on a proper subgroup of the actor, or on none of it,
    are not keyed by the actor's generators: an error, not an action that
    leaves elements out."""
    base, actor = cyclic(5), cyclic(4)
    square = int(powers(actor, actor.generators[0], 2))  # generates the C2 inside C4
    ident = np.arange(5, dtype=np.int32)
    with pytest.raises(InvalidAction):
        extend_action(actor, {square: ident}, 5)
    for images in ({square: ident}, {}):
        with pytest.raises(InvalidAction):
            semidirect_product(base, actor, images)


def test_extend_action_rejects_a_key_beside_the_generators():
    """An image keyed by a non-generator is refused even beside images of
    all the generators, and even when it agrees with them."""
    base, actor = cyclic(5), cyclic(4)
    g = actor.generators[0]
    ident = np.arange(5, dtype=np.int32)
    images = {g: ident, int(powers(actor, g, 2)): ident}
    with pytest.raises(InvalidAction, match="exactly"):
        extend_action(actor, images, 5)
    with pytest.raises(InvalidAction, match="exactly"):
        semidirect_product(base, actor, images)
    assert extend_action(actor, {g: ident}, 5).tolist() == [list(range(5))] * 4


def test_products_match_a_closure_of_their_generators(witness1500):
    """Each product, listed by the walk over points, equals ``closure`` over
    its generator rows: the same generators and the same table, so the same
    elements in the same order.  Covers every metacyclic C_n ⋊ C_m of order
    at most 60, S3 × C4, the order-1500 witness, and C3 ⋊ C2⁵ with every
    generator inverting: an action extended over levels of one to ten
    elements (C2⁵'s levels hold 5, 10, 10, 5 and 1), each one gather."""
    groups = [metacyclic(n, m, r) for n in range(1, 61) for m in range(1, 60 // n + 1)
              for r in range(n) if pow(r, m, n) == 1 % n]
    c3, c2_5 = cyclic(3), abelian([2] * 5)
    groups += [direct_product(symmetric(3), cyclic(4)), witness1500,
               semidirect_product(c3, c2_5, {g: c3.inverse_array for g in c2_5.generators})]
    for G in groups:
        R = closure(G.degree, G.generator_rows, max_order=G.degree)
        assert R.order == G.order == G.degree, G.name
        assert G.generators == R.generators, G.name
        assert np.array_equal(G.table, R.table), G.name
