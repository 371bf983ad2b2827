import itertools
import tracemalloc

import numpy as np
import pytest

from agc.errors import NotSolvable, PrimeNotDividing
from agc.classify import GroupAnalysis
from agc.perm import (
    Subgroup,
    closure,
    full_subgroup,
    generated_subgroup,
    irredundant,
    prime_divisors,
    trivial_subgroup,
)
from agc.constructions import alternating, cyclic, dihedral, symmetric
from agc.products import quotient
from agc.structure import (
    center,
    centralizer,
    conjugacy_classes,
    conjugates,
    derived_series,
    derived_subgroup,
    fitting_subgroup,
    is_solvable,
    minimal_normal_subgroups,
    normal_subgroups,
    normalizer,
    normalizer_members,
    p_core,
    product_sets_equal,
    sylow_subgroup,
    sylow_subgroups,
    sylow_system,
    system_normalizer,
)

from oracles import (
    brute_center,
    brute_centralizer,
    brute_conjugacy_classes,
    brute_derived_series,
    brute_normal_subgroups,
    brute_normalizer,
    first_p_part_sylow,
    fitting_by_closure,
    greedy_generators,
    is_p_subgroup,
    sylow_systems,
)

SMALL = [symmetric(3), symmetric(4), alternating(4), dihedral(4), dihedral(6),
         cyclic(12)]


@pytest.mark.parametrize("G", SMALL, ids=lambda g: g.name)
def test_center_matches_brute_force(G):
    assert center(full_subgroup(G)).members.tolist() == brute_center(G)


def test_center_and_abelian_of_subgroups_match_all_pairs(corpus_groups):
    """center and is_abelian compare members with generators only; on the
    derived terms, the Sylow subgroups and a conjugate of each, they agree
    with comparing every pair of members."""
    for name, G in corpus_groups.items():
        if G.order > 200:
            continue
        t = G.table
        full = full_subgroup(G)
        subgroups = list(derived_series(full).terms)
        subgroups += [sylow_subgroup(full, p) for p in prime_divisors(G.order)]
        subgroups += [H.conjugate_by(G.order - 1) for H in subgroups]
        for H in subgroups:
            m = H.members
            sub = t[np.ix_(m, m)]
            commute = sub == sub.T
            assert center(H).members.tolist() == m[commute.all(axis=1)].tolist(), name
            assert H.is_abelian() == bool(commute.all()), name


def test_center_makes_no_table_sized_temporary(corpus_groups):
    G = corpus_groups["diameter6-witness"]
    tracemalloc.start()
    try:
        Z = center(full_subgroup(G))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert Z.order == 1
    assert peak < G.order ** 2  # half of the order x order int16 table


@pytest.mark.parametrize("G", SMALL, ids=lambda g: g.name)
def test_centralizer_matches_brute_force(G):
    for x in range(0, G.order, 3):
        assert centralizer(G, x).members.tolist() == brute_centralizer(G, x)


@pytest.mark.parametrize("G", SMALL, ids=lambda g: g.name)
def test_derived_series_matches_brute_force(G):
    got = [set(t.members.tolist()) for t in derived_series(full_subgroup(G)).terms]
    assert got == brute_derived_series(G)


def test_derived_terms_carry_irredundant_generators(corpus_groups, witness1500_x_c2):
    """Each generator of a derived term lies outside the closure of those
    before it, and together they generate the term: G' of the order-3000
    group carries 4 generators, not all 374 of its nontrivial commutators."""
    for G in [*corpus_groups.values(), witness1500_x_c2]:
        terms = derived_series(full_subgroup(G)).terms
        for T in terms[1:]:
            gens = T.generators
            for k, x in enumerate(gens):
                assert x not in irredundant(G, gens[:k])[1], (G.name, T)
            assert irredundant(G, gens)[1].tolist() == T.members.tolist(), (G.name, T)
    assert [len(T.generators) for T in terms] == [6, 4, 2, 0]


def test_solvability():
    assert is_solvable(full_subgroup(symmetric(4)))
    A5 = full_subgroup(alternating(5))
    assert not is_solvable(A5)
    assert derived_series(A5).derived_length is None


@pytest.mark.parametrize("G", SMALL, ids=lambda g: g.name)
def test_sylow_subgroups_have_full_p_part(G):
    n = G.order
    for p in prime_divisors(n):
        target = 1
        m = n
        while m % p == 0:
            target *= p
            m //= p
        P = sylow_subgroup(full_subgroup(G), p)
        assert P.order == target
        assert is_p_subgroup(G, P.members, p)


def test_sylow_subgroups_take_the_first_p_part_outside(corpus_groups, extremal_groups):
    """``sylow_subgroups`` grows each Sylow subgroup as the one-element rule
    does: by the first p-part outside P over N(P) in order, its members and
    its generators."""
    for name, G in [*corpus_groups.items(), *extremal_groups.items()]:
        for p, P in sylow_subgroups(full_subgroup(G)).items():
            Q = first_p_part_sylow(G, p)
            assert np.array_equal(P.members, Q.members), (name, p)
            assert P.generators == Q.generators, (name, p)


def test_sylow_rejects_non_divisor():
    with pytest.raises(PrimeNotDividing):
        sylow_subgroup(full_subgroup(symmetric(3)), 5)


def test_fitting_of_s4_is_klein_four():
    G = symmetric(4)
    full = full_subgroup(G)
    F = fitting_subgroup(full, sylow_subgroups(full))
    assert F.order == 4
    assert F.is_normal()
    assert F.is_abelian()
    assert GroupAnalysis(G).upper_fitting.order == 12


def test_fitting_subgroup_is_the_product_set_of_the_p_cores(corpus_groups):
    """The product set of the p-cores is the subgroup their generators
    generate, on every corpus group and on its central quotient."""
    for name, G in corpus_groups.items():
        Q, _ = quotient(G, center(full_subgroup(G)))
        for label, H in ((name, full_subgroup(G)), (f"{name}/Z", full_subgroup(Q))):
            F = fitting_subgroup(H, sylow_subgroups(H))
            assert np.array_equal(F.members, fitting_by_closure(H).members), label


def test_quotients_take_the_images_of_the_sylow_subgroups(corpus_groups):
    """G/Z and G/F(G) take the images of G's Sylow subgroups: each is a
    p-subgroup with the full p-part of the quotient's order, and the
    Fitting subgroup read from them is the one that grown Sylow subgroups
    and closing the p-cores' generators give."""
    for name, G in corpus_groups.items():
        a = GroupAnalysis(G)
        assert a.classification.solvable  # which builds G's Sylow subgroups
        quotients = []
        if a.center.order > 1:
            quotients.append(("Z", a.central_quotient))
        if 1 < a.fitting.order < G.order:
            quotients.append(("F", a.fitting_quotient[0]))
        for label, q in quotients:
            Q = q.group
            assert "sylows" in vars(q), (name, label)
            assert sorted(q.sylows) == prime_divisors(Q.order), (name, label)
            for p, P in q.sylows.items():
                # a p-group whose index is prime to p
                assert Q.order % P.order == 0 and Q.order // P.order % p, (name, label, p)
                assert is_p_subgroup(Q, P.members, p), (name, label, p)
                assert irredundant(Q, P.generators)[1].tolist() == P.members.tolist()
            grown = fitting_subgroup(q.whole, sylow_subgroups(q.whole))
            assert np.array_equal(q.fitting.members, grown.members), (name, label)
            assert np.array_equal(q.fitting.members, fitting_by_closure(Q).members)


def test_p_core_of_s4():
    full = full_subgroup(symmetric(4))
    assert p_core(full, sylow_subgroup(full, 2)).order == 4
    assert p_core(full, sylow_subgroup(full, 3)).order == 1


def test_sylow_system_of_s3():
    G = symmetric(3)
    full = full_subgroup(G)
    system = sylow_system(full, sylow_subgroups(full))
    assert {p: S.order for p, S in system.sylows.items()} == {2: 2, 3: 3}
    # the product of the system is the whole group
    product = G.table[np.ix_(system.sylows[2].members, system.sylows[3].members)]
    assert np.unique(product).size == 6


def test_sylow_systems_require_solvable():
    for G in (alternating(5), symmetric(5)):
        full = full_subgroup(G)
        with pytest.raises(NotSolvable):
            sylow_system(full, sylow_subgroups(full))


def _solvable_terms(corpus_groups):
    for name, G in corpus_groups.items():
        series = derived_series(full_subgroup(G))
        assert series.solvable, name
        for K in series.terms:
            yield name, K


def _agl17():
    """AGL(1,7), generated by x -> -x, x -> 2x + 1 and x -> x + 1 in that
    order: its canonical Sylow 2- and 3-subgroups do not permute."""
    maps = [lambda x: -x, lambda x: 2 * x + 1, lambda x: x + 1]
    return closure(7, [[f(x) % 7 for x in range(7)] for f in maps],
                   name="AGL(1,7)")


def test_all_sylow_systems_are_permutable(corpus_groups):
    """The Sylow system of every derived term of every corpus group, and of
    AGL(1,7), has one Sylow subgroup per prime, and each two of them permute."""
    terms = list(_solvable_terms(corpus_groups)) + [("AGL(1,7)", full_subgroup(_agl17()))]
    for name, K in terms:
        system = sylow_system(K, sylow_subgroups(K))
        assert system.primes() == prime_divisors(K.order), name
        t = K.parent.table
        for p, q in itertools.combinations(system.primes(), 2):
            A = system.sylows[p].members
            B = system.sylows[q].members
            assert np.array_equal(np.unique(t[np.ix_(A, B)]), np.unique(t[np.ix_(B, A)])), name


def test_sylow_system_is_first_of_exhaustive_search(corpus_groups):
    """The greedy system is the first one the depth-first search finds, on
    every derived term of the corpus and on AGL(1,7), where the greedy choice
    must pass over two conjugates of the canonical Sylow 2-subgroup."""
    G = _agl17()
    full = full_subgroup(G)
    P2, P3 = sylow_subgroup(full, 2), sylow_subgroup(full, 3)
    assert not product_sets_equal(G, P2.members, P3.members)
    candidates = list(conjugates(full, P2))
    assert np.array_equal(sylow_system(full, sylow_subgroups(full)).sylows[2].members,
                          candidates[2].members)
    terms = list(_solvable_terms(corpus_groups)) + [("AGL(1,7)", full)]
    for name, K in terms:
        got = sylow_system(K, sylow_subgroups(K))
        (first,) = sylow_systems(K, limit=1)
        assert got.primes() == first.primes(), name
        for p in got.primes():
            assert np.array_equal(got.sylows[p].members, first.sylows[p].members), (name, p)


def test_normalizer_members_match_conjugating_every_member(corpus_groups):
    """Testing P's generators finds the same normalizer as conjugating all of
    P, in scopes G and G', for Sylow subgroups, derived terms, the upper
    Fitting preimage, a conjugate of each and the trivial subgroup."""
    for name, G in corpus_groups.items():
        if G.order > 500:
            continue
        a = GroupAnalysis(G)
        subgroups = [sylow_subgroup(a.whole, p) for p in prime_divisors(G.order)]
        subgroups += list(a.series.terms) + [a.upper_fitting]
        subgroups += [H.conjugate_by(G.order - 1) for H in subgroups]
        subgroups.append(trivial_subgroup(G))
        for scope in (np.arange(G.order), a.derived.members):
            for H in subgroups:
                got = normalizer_members(G, scope, H).tolist()
                assert got == brute_normalizer(G, scope, H.members), (name, H)


def test_found_subgroups_choose_the_greedy_generators_when_read(corpus_groups,
                                                               witness1500):
    """Subgroups found as member sets choose no generators until they are
    read; then they choose the greedy tuple, which generates the members."""
    groups = [G for G in corpus_groups.values() if G.order <= 500] + [witness1500]
    for G in groups:
        full = full_subgroup(G)
        primes = prime_divisors(G.order)
        classes = conjugacy_classes(G)[1:]
        reps = [int(c[0]) for c in classes]
        found = [center(full)]
        found += [p_core(full, P) for P in sylow_subgroups(full).values()]
        found += [Subgroup(G, irredundant(G, c.tolist())[1]) for c in classes]
        found += [centralizer(G, x) for x in reps]
        found += [normalizer(full, sylow_subgroup(full, p)) for p in primes]
        if is_solvable(full):
            found.append(system_normalizer(full, sylow_system(full, sylow_subgroups(full))))
        for H in found:
            assert "generators" not in vars(H), (G.name, H)
            assert H.generators == greedy_generators(G, H.members), (G.name, H)
            kept, members = irredundant(G, H.members)
            assert kept == H.generators and members.tolist() == H.members.tolist()
            assert irredundant(G, H.generators)[1].tolist() == H.members.tolist()


def test_system_normalizer_complements_derived_subgroup(witness60):
    G = witness60
    full = full_subgroup(G)
    M = system_normalizer(full, sylow_system(full, sylow_subgroups(full)))
    D = derived_subgroup(full)
    assert M.order * D.order == G.order
    assert np.intersect1d(M.members, D.members).size == 1


def test_normalizer_and_conjugacy():
    G = symmetric(4)
    full = full_subgroup(G)
    P = sylow_subgroup(full, 2)
    N = normalizer(full, P)
    assert N.order == 8  # Sylow 2 of S4 is self-normalizing
    classes = conjugacy_classes(G)
    assert sorted(len(c) for c in classes) == [1, 3, 6, 6, 8]


def test_conjugacy_classes_match_brute_oracle(corpus_groups, witness1500_x_c2):
    """The orbit labels give the classes of conjugating one element at a
    time, each sorted, as int32, ordered by least member: on every corpus
    group, its G/Z and G/F(G), the order-3000 W1500 × C2, and D_{2·501},
    whose 501 reflections make one class."""
    groups = [witness1500_x_c2, dihedral(501)]
    for G in corpus_groups.values():
        a = GroupAnalysis(G)
        groups += [G, a.central_quotient.group, a.fitting_quotient[0].group]
    for G in groups:
        got, want = conjugacy_classes(G), brute_conjugacy_classes(G)
        assert len(got) == len(want), G.name
        for c, w in zip(got, want):
            assert c.dtype == np.int32 and np.array_equal(c, w), G.name


def test_normal_subgroups_of_s4():
    G = symmetric(4)
    infos = normal_subgroups(G)
    assert [i.subgroup.order for i in infos] == [1, 4, 12, 24]
    assert [i.subgroup.order for i in infos if i.minimal] == [4]
    assert [S.order for S in GroupAnalysis(G).minimal_normals] == [4]


def test_normal_subgroups_of_cyclic_12():
    infos = normal_subgroups(cyclic(12))
    assert [i.subgroup.order for i in infos] == [1, 2, 3, 4, 6, 12]
    assert [i.subgroup.order for i in infos if i.minimal] == [2, 3]


def test_minimal_normal_subgroups_match_oracle(corpus_groups):
    """Grown from the classes inside Z(F(G)), an abelian normal subgroup
    that holds every minimal normal subgroup of a solvable group, the
    minimal normal closures of elements are exactly the minimal members of
    the full normal-subgroup lattice, in (order, members) order.  The
    classes are picked with the oracle's F(G) and a full commuting scan."""
    groups = [G for G in corpus_groups.values() if G.order <= 500]
    groups += [cyclic(1), symmetric(4), cyclic(12)]
    for G in groups:
        assert is_solvable(full_subgroup(G)), G.name
        F = fitting_by_closure(G).members
        products = G.table[np.ix_(F, F)]
        zf = set(F[(products == products.T).all(axis=1)].tolist())
        classes = [c for c in conjugacy_classes(G) if int(c[0]) in zf]
        normals = brute_normal_subgroups(G)
        minimal = sorted((sorted(S) for S in normals
                          if len(S) > 1 and not any(1 < len(T) < len(S) and T < S
                                                    for T in normals)),
                         key=lambda m: (len(m), m))
        got = [S.members.tolist() for S in minimal_normal_subgroups(G, classes)]
        assert got == minimal, G.name


def test_analysis_minimal_normals_lie_in_the_fittings_centre(corpus_groups):
    """From the classes inside Z(F(G)) alone, the analysis finds the minimal
    members of the full normal-subgroup lattice of every solvable corpus
    group with trivial centre, in (order, members) order.  In F21 = C7:C3
    and S4 classes of prime order lie outside Z(F(G)) and are skipped."""
    skipped = {}
    for name, G in corpus_groups.items():
        a = GroupAnalysis(G)
        if not a.solvable or a.center.order > 1:
            continue
        normals = brute_normal_subgroups(G)
        minimal = sorted((sorted(S) for S in normals
                          if len(S) > 1 and not any(1 < len(T) < len(S) and T < S
                                                    for T in normals)),
                         key=lambda m: (len(m), m))
        assert [S.members.tolist() for S in a.minimal_normals] == minimal, name
        fitting = a.fitting.members.tolist()
        zf = {x for x in fitting if all(G.mult(x, y) == G.mult(y, x) for y in fitting)}
        skipped[name] = sum(int(c[0]) not in zf and int(G.element_orders[c[0]]) in
                            prime_divisors(G.order) for c in a.classes)
    assert len(skipped) == 18
    assert skipped["c7-c3"] > 0 and skipped["s4"] > 0
    with pytest.raises(NotSolvable):
        GroupAnalysis(alternating(5)).minimal_normals
