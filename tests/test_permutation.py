import ast
import math
import re
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agc.errors import GroupTooLarge, MalformedPermutation
from agc import perm
from agc.perm import (
    FiniteGroup,
    QuotientGroup,
    closure,
    commutes_with,
    commuting,
    conjugations,
    distinct,
    generated_subgroup,
    index_dtype,
    orbit_labels,
    p_part,
    powers,
    trivial_subgroup,
)
from agc.errors import PrimeNotDividing
from agc.constructions import (
    abelian,
    alternating,
    cyclic,
    dicyclic,
    dihedral,
    metacyclic,
    quaternion,
    symmetric,
)
from agc.products import direct_product, quotient
from agc.structure import center, sylow_subgroups

from oracles import (
    brute_closure,
    brute_element_orders,
    brute_orbit_labels,
    brute_p_part,
    brute_tree,
    images_by_element,
    indices_of_rows,
    row_closure,
    table_of,
)


def test_permutation_rejects_non_bijections():
    """A permutation is its image array, and ``closure`` checks each one it
    is given: a repeated image, an image out of range and an array of the
    wrong length are each refused, also after a valid generator."""
    for bad in ([0, 0, 1], [0, 1, 3], [0, -1, 2], [1, 0], [1, 2, 3, 0]):
        with pytest.raises(MalformedPermutation):
            closure(3, [[1, 2, 0], bad])


def test_closure_matches_brute_force():
    gens = [[1, 0, 2, 3], [1, 2, 3, 0]]
    G = closure(4, gens)
    expected = brute_closure(4, [(1, 0, 2, 3), (1, 2, 3, 0)])
    assert G.order == len(expected) == 24
    got = {tuple(row) for row in G.images(range(4)).tolist()}
    assert got == expected


def test_closure_is_deterministic():
    gens = [[1, 0, 2, 3], [1, 2, 3, 0]]
    G1 = closure(4, gens)
    G2 = closure(4, gens)
    assert np.array_equal(G1.images(range(4)), G2.images(range(4)))
    assert np.array_equal(G1.table, G2.table)


def test_closure_respects_max_order():
    """A cap is an upper bound on the order, and a cap below 1 admits only
    the trivial group; it never means no cap."""
    gens = [[1, 2, 3, 4, 0]]
    assert closure(5, gens, max_order=5).order == 5
    for cap in (4, 1, 0, -3):
        with pytest.raises(GroupTooLarge):
            closure(5, gens, max_order=cap)
    assert closure(5, [], max_order=0).order == 1


def _assert_enumerates_as_row_closure(rows, base, label):
    """``_enumerate`` keyed by ``base``, a base of the group ``rows``
    generate, gives the right columns of the search over whole rows and
    the tree that those columns describe, its parents and generators as
    the intp arrays that the walks read."""
    rows = np.asarray(rows, np.int32)
    elements, generators, table = row_closure(rows.shape[1], list(rows))
    right, (parent, gen, levels) = perm._enumerate(rows, base, elements.shape[0])
    assert np.array_equal(right, table[:, generators].T), label
    assert parent.dtype == gen.dtype == np.intp, label
    want_parent, want_gen, want_levels = brute_tree(right)
    assert np.array_equal(parent[1:], want_parent[1:]), label
    assert np.array_equal(gen[1:], want_gen[1:]), label
    assert levels == want_levels, label


def test_enumerate_lists_one_point_bases_as_the_row_search(witness60):
    """A regular action, as of a cyclic group on its points or a product
    or W60 on theirs, has every point as a base: its one-point keys, looked
    up in a dense array, list it as the whole rows do, from any point."""
    groups = [cyclic(1), cyclic(2), cyclic(12), direct_product(cyclic(4), cyclic(6)),
              direct_product(symmetric(3), cyclic(2)), witness60]
    for G in groups:
        for point in {0, G.degree - 1}:
            _assert_enumerates_as_row_closure(G.generator_rows, [point], G.name)


def test_enumerate_lists_multi_point_bases_as_the_row_search():
    """Keys of several points, looked up by their bytes, list S3, D8, A4,
    S4 and C2³ as the whole rows do."""
    swap = lambda n, a, b: [b if i == a else a if i == b else i for i in range(n)]
    cases = {
        "S3": ([swap(3, 0, 1), [1, 2, 0]], [0, 1]),
        "D8": ([[1, 2, 3, 0], [3, 2, 1, 0]], [0, 1]),
        "A4": ([[1, 2, 0, 3], [0, 2, 3, 1]], [0, 1]),
        "S4": ([swap(4, 0, 1), [1, 2, 3, 0]], [0, 1, 2]),
        "C2^3": ([swap(6, 0, 1), swap(6, 2, 3), swap(6, 4, 5)], [0, 2, 4]),
    }
    for label, (rows, base) in cases.items():
        _assert_enumerates_as_row_closure(rows, base, label)


def test_closure_restarts_a_one_point_listing_that_is_no_base(monkeypatch):
    """S3, S4 and D8 move one orbit, so ``closure`` lists them first by one
    point, whose stabilizer is not trivial; it adds a moved point, lists
    again by the longer keys, and only that listing, the row search's,
    gets a table."""
    bases = []
    enumerate_ = perm._enumerate

    def recorded(rows, base, max_order):
        bases.append(len(base))
        return enumerate_(rows, base, max_order)

    monkeypatch.setattr(perm, "_enumerate", recorded)
    for G in (symmetric(3), symmetric(4), dihedral(4)):
        bases.clear()
        _assert_matches_row_closure(G.degree, list(G.generator_rows), G.name)
        assert bases[0] == 1 < bases[-1] and len(bases) > 1, G.name


def test_enumerate_stops_at_the_key_past_the_cap():
    """Both lookups raise GroupTooLarge exactly when key cap + 1 is found:
    C10 by one point and S4 by three list whole at cap 10 and 24."""
    cycle = np.array([[1, 2, 3, 4, 5, 6, 7, 8, 9, 0]], np.int32)
    s4 = np.array([[1, 0, 2, 3], [1, 2, 3, 0]], np.int32)
    for rows, base, order in ((cycle, [0], 10), (s4, [0, 1, 2], 24)):
        assert perm._enumerate(rows, base, order)[0].shape == (rows.shape[0], order)
        with pytest.raises(GroupTooLarge):
            perm._enumerate(rows, base, order - 1)


def test_enumerate_of_no_rows_makes_nothing_of_the_degree():
    """With no generators the listing is the identity alone, and nothing
    of the degree's size is made, whatever the degree."""
    right, (parent, gen, levels) = perm._enumerate(np.zeros((0, 10**12), np.int32), [0], 1)
    assert right.shape == (0, 1) and parent.tolist() == gen.tolist() == [0] and levels == []


def _generator_sets():
    """Generator lists where one point is not a base, the group is not
    transitive, a generator fixes the base point, or there is nothing to
    enumerate."""
    swap = lambda n, a, b: [b if i == a else a if i == b else i for i in range(n)]
    return {
        "S4": (4, [swap(4, 0, 1), [1, 2, 3, 0]]),
        "A5": (5, [[1, 2, 0, 3, 4], [0, 1, 3, 4, 2]]),
        "S6": (6, [swap(6, 0, 1), [1, 2, 3, 4, 5, 0]]),
        "D10": (5, [[1, 2, 3, 4, 0], [0, 4, 3, 2, 1]]),
        "C2xC2xC2": (6, [swap(6, 0, 1), swap(6, 2, 3), swap(6, 4, 5)]),
        "C1": (1, [[0]]),
        "no generators": (3, []),
        "fixed points": (7, [[3, 1, 2, 0, 4, 5, 6], [1, 0, 3, 2, 4, 5, 6],
                             [0, 1, 3, 2, 4, 5, 6]]),
        "identity generator": (4, [[0, 1, 2, 3], [0, 2, 1, 3]]),
    }


def _assert_matches_row_closure(degree, gens, label):
    G = closure(degree, gens)
    elements, generators, table = row_closure(degree, gens)
    assert np.array_equal(G.images(range(degree)), elements), label
    assert G.generators == generators, label
    assert table.dtype == np.int32
    assert np.array_equal(G.table, table), label
    dtype = perm.index_dtype(G.order)
    assert G.table.dtype == G.inverse_array.dtype == dtype, label


def test_index_dtype_is_int16_up_to_32767():
    assert perm.index_dtype(1) == perm.index_dtype(32_767) == np.int16
    assert perm.index_dtype(32_768) == perm.index_dtype(10**6) == np.int32
    assert perm.index_dtype(perm.DEFAULT_MAX_ORDER) == np.int16


def test_conjugations_keep_the_table_dtype(corpus_groups):
    G = corpus_groups["diameter6-witness"]
    everyone = np.arange(G.order)
    assert conjugations(G, [1, 2], everyone).dtype == G.table.dtype == np.int16


def test_closure_matches_row_closure(corpus_groups):
    """The search over base images lists the elements, names the generators
    and fills the table exactly as the search over whole rows does."""
    for name, W in corpus_groups.items():
        _assert_matches_row_closure(W.degree, W.generator_rows, name)
    for name, (degree, gens) in _generator_sets().items():
        _assert_matches_row_closure(degree, gens, name)


@st.composite
def generator_sets(draw):
    """Up to three permutations of at most 7 points, each moving a drawn
    set of points, so that fixed points and intransitive groups are common."""
    n = draw(st.integers(1, 7))
    gens = []
    for _ in range(draw(st.integers(0, 3))):
        moved = draw(st.lists(st.integers(0, n - 1), unique=True))
        images = list(range(n))
        for a, b in zip(moved, draw(st.permutations(moved))):
            images[a] = b
        gens.append(images)
    return n, gens


@settings(max_examples=100)
@given(generator_sets())
def test_closure_matches_row_closure_on_random_generators(case):
    degree, gens = case
    _assert_matches_row_closure(degree, gens, gens)


def _assert_primitives_match_image_rows(G: FiniteGroup, xs: list[int], ys: list[int]):
    """``commuting(G, xs, ys)`` and ``conjugations(G, xs, ys)`` equal the
    products of the image rows, x·y being y read at x."""
    listing = G.images(range(G.degree))

    def rows(idx):
        return listing[np.array(idx, np.int64)].reshape(len(idx), G.degree)

    def product(p, q):
        return np.take_along_axis(q, p, axis=-1)

    X, Y = rows(xs)[:, None], rows(ys)[None]
    commutes = (product(X, Y) == product(Y, X)).all(axis=-1)
    assert np.array_equal(commuting(G, xs, ys), commutes)
    for x, row in zip(xs, commutes):
        assert np.array_equal(commutes_with(G, x, np.array(ys, np.intp)), row)
    X_inverse = np.argsort(X, axis=-1)
    conj = product(product(X, Y), X_inverse)
    assert np.array_equal(conjugations(G, xs, ys), indices_of_rows(G, conj))


@pytest.mark.parametrize("dtype", [np.int16, np.int32, np.intp])
def test_distinct_matches_np_unique(dtype):
    """``distinct`` returns what ``np.unique`` does, values and dtype, on
    index arrays with repeats, of one and two dimensions, on the empty array
    and on an array holding every index below n."""
    rng = np.random.default_rng(5)
    n = 300
    cases = [rng.integers(0, n, size=shape).astype(dtype)
             for shape in [(1,), (50,), (1000,), (7, 9), (40, 40)]]
    cases += [np.array([], dtype), rng.permutation(n).astype(dtype)]
    for idx in cases:
        got, want = distinct(idx, n), np.unique(idx)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@settings(max_examples=100)
@given(generator_sets(), st.data())
def test_commuting_and_conjugations_match_image_rows(case, data):
    degree, gens = case
    G = closure(degree, gens)
    indices = st.lists(st.integers(0, G.order - 1), max_size=12)
    _assert_primitives_match_image_rows(G, data.draw(indices), data.draw(indices))


def test_commuting_and_conjugations_fill_every_row_block(witness1500_x_c2):
    """All of S6 against all of S6 spans several blocks of rows; with no
    rows or no columns the results are empty.  So do all of G/Z against all
    of G/Z for the quotient of W1500 × C2 by its centre, of order 1500,
    checked against the table of a fresh closure, the conjugations in the
    quotient's index dtype."""
    G = symmetric(6)
    everyone = list(range(G.order))
    assert G.order * G.order > 4 * perm.ROW_BLOCK_ENTRIES
    _assert_primitives_match_image_rows(G, everyone, everyone)
    _assert_primitives_match_image_rows(G, [], everyone)
    _assert_primitives_match_image_rows(G, everyone, [])
    Q, _ = quotient(witness1500_x_c2, center(witness1500_x_c2))
    t = table_of(Q)
    everyone = np.arange(Q.order)
    assert Q.order == 1500 and Q.order ** 2 > 4 * perm.ROW_BLOCK_ENTRIES
    assert np.array_equal(commuting(Q, everyone, everyone), t == t.T)
    inverse = (t == 0).argmax(axis=1)
    conj = conjugations(Q, everyone, everyone)
    assert conj.dtype == index_dtype(Q.order) == np.int16
    assert np.array_equal(conj, t[t, inverse[:, None]])


def test_closure_holds_each_element_once(corpus_groups):
    """Enumerating the order-1500 witness makes no element rows: the traced
    peak, table included, stays under 1.25 tables.  An order x degree
    array of element rows beside the table made more than two."""
    W = corpus_groups["diameter6-witness"]
    tracemalloc.start()
    try:
        G = closure(W.degree, W.generator_rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(G.table, W.table)
    assert peak < 1.25 * G.table.nbytes


def test_closure_of_a_high_degree_group_makes_no_element_rows(address_space_cap):
    """C_1000 rotating 100 blocks of 1000 points at once has degree
    100 000; its element rows would take 400 MB, and the closure stays
    within 16 MB."""
    rotation = (np.arange(100_000) + 1) % 1000 + np.arange(100_000) // 1000 * 1000
    tracemalloc.start()
    try:
        G = closure(rotation.size, [rotation])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.order == 1000
    assert peak < 16 << 20
    first, last = G.images([0, 99_999]).T  # element k rotates each block by k
    assert np.array_equal(first, np.arange(1000))
    assert np.array_equal(last, 99_000 + (first + 999) % 1000)


def test_images_of_some_points_are_columns_of_all_images(corpus_groups):
    rng = np.random.default_rng(3)
    for name, G in corpus_groups.items():
        points = rng.integers(0, G.degree, size=5)  # repeats are allowed
        assert np.array_equal(G.images(points), G.images(range(G.degree))[:, points]), name


def test_closure_of_a_long_cycle_stops_at_the_order_cap(address_space_cap):
    """The order of one cycle on 100 000 points passes the cap after 20 000
    keys of one point each; no element row is made before the order is
    known, so the search stays within a few megabytes."""
    cycle = np.roll(np.arange(100_000), -1)
    tracemalloc.start()
    try:
        with pytest.raises(GroupTooLarge):
            closure(cycle.size, [cycle])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20


def test_orbit_labels_match_a_set_search():
    """On seeded random permutation sets, the labels are those of a
    breadth-first search over sets, with the rows' dtype.  Each row
    permutes a random subset of the points and fixes the rest, so sets
    hold identity rows and fixed points; there are sets of degree 1 and
    sets with no rows."""
    rng = np.random.default_rng(11)
    cases = []
    for k in range(300):
        degree = 1 if k % 25 == 0 else int(rng.integers(2, 80))
        rows = np.tile(np.arange(degree), (int(rng.integers(0, 4)), 1))
        for row in rows:
            moved = rng.choice(degree, size=int(rng.integers(0, degree + 1)), replace=False)
            row[moved] = rng.permutation(moved)
        cases.append(rows.astype(np.int16 if k % 2 else np.int32))
    assert any(not len(c) for c in cases) and any(c.shape[1] == 1 for c in cases)
    assert any((c == np.arange(c.shape[1])).all(axis=1).any() for c in cases)
    for perms in cases:
        got = orbit_labels(perms)
        assert got.dtype == perms.dtype
        assert np.array_equal(got, brute_orbit_labels(perms)), perms


def test_orbit_labels_of_a_randomly_numbered_long_cycle():
    """One cycle through 200 000 points in random order is one orbit, in a
    few hooking rounds: lowering only each point's own label moved the
    least label one step along the cycle a round, and took minutes."""
    rng = np.random.default_rng(2)
    n = 200_000
    order = rng.permutation(n)
    cycle = np.empty(n, np.int32)
    cycle[order] = np.roll(order, -1)
    start = time.perf_counter()
    labels = orbit_labels(cycle[None])
    assert time.perf_counter() - start < 5
    assert not labels.any()


def test_closure_of_many_disjoint_transpositions(address_space_cap):
    """500 000 disjoint transpositions on 10^6 points, one generator of
    order 2: the base starts at one point of each of its 500 000 orbits,
    found by ``orbit_labels``, and the closure traces under 72 MB, where a
    search over Python lists of the rows traced 110 MB."""
    swap = np.arange(1_000_000).reshape(-1, 2)[:, ::-1].ravel()
    tracemalloc.start()
    try:
        G = closure(swap.size, [swap])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.order == 2 and G.images([0, 999_999]).tolist() == [[0, 999_999], [1, 999_998]]
    assert peak < 72 << 20


def all_products(G):
    """Every product x·y, at (x, y), from ``G.products``."""
    everyone = np.arange(G.order)
    return G.products(everyone[:, None], everyone)


def _table_groups():
    s4 = symmetric(4)
    rows = s4.images(range(4))
    klein = [x for x in range(s4.order)
             if s4.element_orders[x] == 2 and not (rows[x] == np.arange(4)).any()]
    return {
        "C1": cyclic(1),
        "C12": cyclic(12),
        "S4": s4,
        "A5": alternating(5),
        "D10": dihedral(5),
        "Q8": quaternion(),
        "Dic3": dicyclic(3),
        "C2xC2xC4": abelian([2, 2, 4]),
        "C7:C3": metacyclic(7, 3, 2),
        "S3xC2": direct_product(symmetric(3), cyclic(2)),
        "S4/V4": quotient(s4, generated_subgroup(s4, klein))[0],
    }


def test_table_against_direct_products():
    """t[i, j] is the element whose image row is j's row read at i's.  A
    quotient has no image rows: its products equal those of a fresh closure
    over its coset permutations, relabelled (``oracles.table_of``)."""
    for name, G in _table_groups().items():
        if isinstance(G, QuotientGroup):
            assert np.array_equal(all_products(G), table_of(G)), name
            continue
        rows = G.images(range(G.degree))
        products = rows[:, rows]  # products[j, i] = rows[j][rows[i]]
        assert np.array_equal(all_products(G), indices_of_rows(G, products).T), name


def test_table_at_order_3000_matches_row_closure(witness1500_x_c2):
    """The table of W1500 × C2 (order 3000, six generators), filled a row at
    a time, equals the one the search over whole rows fills a column at a
    time."""
    G = witness1500_x_c2
    _, generators, table = row_closure(G.degree, list(G.generator_rows))
    assert G.generators == generators
    assert np.array_equal(G.table, table)


def test_conjugate_by_matches_conjugations(corpus_groups):
    """``Subgroup.conjugate_by(g)`` has the members and generators of g's
    ``conjugations`` row, for every generator g of each corpus group of order
    at most 500, on its Sylow subgroups and its trivial subgroup."""
    for name, G in corpus_groups.items():
        if G.order > 500:
            continue
        for H in [trivial_subgroup(G), *sylow_subgroups(G).values()]:
            for g in G.generators:
                conj = H.conjugate_by(g)
                members = conjugations(G, [g], H.members)[0]
                assert np.array_equal(conj.members, np.sort(members)), name
                gens = conjugations(G, [g], H.generators)[0]
                assert conj.generators == tuple(gens.tolist()), name


def test_generated_subgroup_keeps_the_irredundant_generators_in_order():
    G = cyclic(6)
    g, g2 = G.generators[0], int(powers(G, G.generators[0], 2))
    H = generated_subgroup(G, [g, g2, g])
    assert (H.generators, H.order) == ((g,), 6)
    assert generated_subgroup(G, [g2, g, g2]).generators == (g2, g)


def test_identity_and_inverse_laws():
    for name, G in _table_groups().items():
        t = all_products(G)
        n = G.order
        if not isinstance(G, QuotientGroup):  # a quotient has no image rows
            assert np.array_equal(G.images(range(G.degree))[0], np.arange(G.degree)), name
        assert np.array_equal(t[0], np.arange(n)), name
        assert np.array_equal(t[:, 0], np.arange(n)), name
        inv = G.inverse_array
        assert np.all(t[np.arange(n), inv] == 0), name
        assert np.all(t[inv, np.arange(n)] == 0), name


def test_images_match_the_walk_one_element_at_a_time():
    """``images`` of every point, a breadth-first level at a time, equals
    the per-element walk on a deep group (C200: 200 one-element levels), a
    thin one, one of several generators, and for a few points."""
    for G in (cyclic(200), dihedral(50), direct_product(symmetric(3), cyclic(12))):
        for pts in (np.arange(G.degree), [G.degree - 1, 0], []):
            assert np.array_equal(G.images(pts), images_by_element(G, pts)), G.name


def test_element_orders():
    G = symmetric(4)
    orders = G.element_orders
    assert sorted(np.unique(orders)) == [1, 2, 3, 4]
    for i in range(G.order):
        o = int(orders[i])
        assert powers(G, i, o) == 0
        for d in range(1, o):
            assert powers(G, i, d) != 0


def test_element_orders_match_brute_powers(corpus_groups):
    """Advancing only the powers of elements whose order is still unknown
    gives each element's order, also on C500 × S3, whose elements of small
    order leave long before the 1500th power."""
    for G in [*corpus_groups.values(), direct_product(cyclic(500), symmetric(3))]:
        orders = G.element_orders
        assert orders.dtype == np.int64, G.name
        assert np.array_equal(orders, brute_element_orders(G)), G.name
    assert cyclic(1).element_orders.tolist() == [1]


def _power_groups(corpus_groups):
    """C12, S4, and a quotient that keeps no table: G/Z of c6xw60."""
    G = corpus_groups["c6xw60"]
    return [cyclic(12), symmetric(4), quotient(G, center(G))[0]]


def test_power_binary_exponentiation(corpus_groups):
    """``powers`` equals repeated multiplication, for each element alone
    and for the index array of all of them, for every e in 0..2·exp(G)+1."""
    for G in _power_groups(corpus_groups):
        everyone = np.arange(G.order)
        t = table_of(G)
        expected = np.zeros(G.order, np.intp)  # x^e for every x
        for e in range(2 * math.lcm(*brute_element_orders(G).tolist()) + 2):
            got = powers(G, everyone, e)
            assert got.dtype == index_dtype(G.order), G.name
            assert got.tolist() == expected.tolist(), (G.name, e)
            assert [int(powers(G, x, e)) for x in range(G.order)] == expected.tolist()
            expected = t[expected, everyone]


def test_p_part_decomposition(corpus_groups):
    """The p-part of each element, alone or in an index array of all of
    them, is the power that the per-element oracle finds one multiplication
    at a time, also for a prime not dividing the order."""
    for G in _power_groups(corpus_groups):
        orders = brute_element_orders(G).tolist()
        for p in (2, 3, 5, 7):
            expected = [brute_p_part(G, x, orders[x], p) for x in range(G.order)]
            assert p_part(G, np.arange(G.order), p).tolist() == expected, (G.name, p)
    G = cyclic(12)
    orders = G.element_orders
    for x in range(G.order):
        for p in (2, 3):
            xp = p_part(G, x, p)
            o = int(orders[xp])
            # the p-part is a p-element and the complement part is coprime to p
            assert o == 1 or set(_factor(o)) == {p}
            rest = G.mult(int(G.inverse_array[xp]), x)
            assert int(orders[rest]) % p != 0
            assert G.mult(xp, rest) == x


def test_p_part_rejects_composite_modulus():
    G = cyclic(12)
    with pytest.raises(PrimeNotDividing):
        p_part(G, 1, 6)


def _factor(n):
    fac = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            fac.append(d)
            n //= d
        d += 1
    if n > 1:
        fac.append(n)
    return fac


def test_no_module_but_perm_reads_a_table():
    """Outside ``agc.perm`` every product goes through ``FiniteGroup.products``
    and every inverse through ``inverse_array``: no other module of agc
    reads ``.table``, so none can bypass a group that keeps no table.  Nor
    does one read a group's tree (``._tree``), so only ``perm``'s own walks
    follow it."""
    readers = [path.name for path in sorted(Path(perm.__file__).parent.glob("*.py"))
               if re.search(r"\.(table|_tree)\b",
                            path.read_text(encoding="utf-8"))]
    assert readers == ["perm.py"]


def test_no_oracle_takes_powers_through_the_routines_it_checks():
    """``tests/oracles.py`` names none of ``powers``, ``p_part`` and
    ``graph._least_generators``, in a call, an attribute or an import: its
    p-parts, twin classes and automorphisms take each power one
    multiplication at a time, so no oracle can drift back onto the routine
    it checks.  Docstrings may mention them."""
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    assert not names & {"powers", "p_part", "_least_generators"}


# degree and generators of groups whose least moved point's orbit misses a
# moved point, with the least point of each orbit that moves
ORBIT_RESTARTS = {
    "C2^3": (6, [[1, 0, 2, 3, 4, 5], [0, 1, 3, 2, 4, 5], [0, 1, 2, 3, 5, 4]], [0, 2, 4]),
    "C3 x C5": (9, [[0, 2, 3, 1, 4, 5, 6, 7, 8], [0, 1, 2, 3, 5, 6, 7, 8, 4]], [1, 4]),
}


def test_closure_labels_orbits_only_when_the_first_orbit_misses_a_moved_point(monkeypatch):
    """``closure`` lists first from the least moved point.  C2³ on 6 points
    and disjoint 3- and 5-cycles move points outside that point's orbit,
    so the listing starts again from the least point of every orbit that
    moves (``orbit_labels``) and still gives the row search's listing; a
    transitive group, and a group moving one orbit beside fixed points, is
    listed from its least moved point with no orbit labelling."""
    bases, labelled = [], []
    enumerate_, orbit_labels_ = perm._enumerate, perm.orbit_labels

    def recorded(rows, base, max_order):
        bases.append(list(base))
        return enumerate_(rows, base, max_order)

    def counted(perms):
        labelled.append(perms.shape)
        return orbit_labels_(perms)

    monkeypatch.setattr(perm, "_enumerate", recorded)
    monkeypatch.setattr(perm, "orbit_labels", counted)
    for label, (degree, gens, reps) in ORBIT_RESTARTS.items():
        bases.clear()
        labelled.clear()
        _assert_matches_row_closure(degree, gens, label)
        assert bases[0] == reps[:1] and bases[1] == reps and len(labelled) == 1, label
    for label, (degree, gens) in {"C5 beside fixed points": (8, [[0, 1, 2, 4, 5, 6, 7, 3]]),
                                   "D10": (5, [[1, 2, 3, 4, 0], [0, 4, 3, 2, 1]])}.items():
        bases.clear()
        labelled.clear()
        _assert_matches_row_closure(degree, gens, label)
        assert bases[0] == [int(np.flatnonzero(np.array(gens[0]) != np.arange(degree))[0])]
        assert not labelled, label


def test_closure_makes_one_group_from_the_certified_listing(monkeypatch):
    """``closure`` certifies its base before it makes a group, so each call
    runs ``FiniteGroup.__init__`` and ``_build_table`` once: S3, S4 and D8
    restart through Schreier's lemma, C2³ and C3 × C5 through the orbit
    test, and C5 beside fixed points is listed once."""
    cases = {G.name: (G.degree, list(G.generator_rows), True)
             for G in (symmetric(3), symmetric(4), dihedral(4))}
    cases |= {label: (degree, gens, True) for label, (degree, gens, _) in ORBIT_RESTARTS.items()}
    cases["C5 beside fixed points"] = (8, [[0, 1, 2, 4, 5, 6, 7, 3]], False)
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("__init__", "_build_table"):
        monkeypatch.setattr(perm.FiniteGroup, name, counted(name, getattr(perm.FiniteGroup, name)))
    monkeypatch.setattr(perm, "_enumerate", counted("_enumerate", perm._enumerate))
    for label, (degree, gens, restarts) in cases.items():
        calls.clear()
        G = closure(degree, gens)
        assert calls[-2:] == ["__init__", "_build_table"], label
        assert calls.count("__init__") == calls.count("_build_table") == 1, label
        assert (calls.count("_enumerate") > 1) == restarts, label
        assert G.order == len(row_closure(degree, gens)[0]), label


@settings(max_examples=200)
@given(generator_sets())
def test_orbit_labels_stop_with_every_orbit_labelled(case):
    """The rounds stop once both ends of every pair share a label; on drawn
    generator sets, transitive or not, the labels are still the set
    search's."""
    degree, gens = case
    perms = np.array(gens, np.int32).reshape(len(gens), degree)
    assert np.array_equal(orbit_labels(perms), brute_orbit_labels(perms)), gens


def test_generators_are_checked_together_with_the_first_error_of_one_at_a_time():
    """``_validate_rows`` checks all image arrays at once and, on a bad
    one, raises what checking them one after another raises first."""
    good = [1, 2, 0]
    bad = {"repeat": [0, 0, 1], "range": [0, 1, 3], "negative": [0, -1, 2],
           "short": [1, 0], "long": [1, 2, 3, 0], "huge": [0, 1, 2**70]}
    for first in bad.values():
        for second in bad.values():
            rows = [good, first, good, second]
            with pytest.raises(MalformedPermutation) as want:
                for row in rows:
                    perm._validate_images(row, 3)
            with pytest.raises(MalformedPermutation) as got:
                perm._validate_rows(rows, 3)
            assert str(got.value) == str(want.value), rows
    assert perm._validate_rows([good, [0, 1, 2]], 3).tolist() == [good, [0, 1, 2]]
    assert perm._validate_rows([], 3).shape == (0, 3)
