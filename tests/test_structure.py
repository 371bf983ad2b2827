import itertools
import tracemalloc

import numpy as np
import pytest

from agc.errors import NotSolvable, PrimeNotDividing
from agc.classify import GroupAnalysis
from agc.perm import (
    Permutation,
    close_indices,
    closure,
    full_subgroup,
    generated_subgroup,
    prime_divisors,
    trivial_subgroup,
)
from agc.constructions import alternating, cyclic, dihedral, symmetric
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
    normal_closure,
    normal_subgroups,
    normalizer,
    normalizer_members,
    p_core,
    product_sets_equal,
    second_fitting_preimage,
    sylow_subgroup,
    sylow_system,
    system_normalizer,
)

from oracles import (
    brute_center,
    brute_centralizer,
    brute_derived_series,
    brute_normal_subgroups,
    brute_normalizer,
    greedy_generators,
    is_p_subgroup,
    sylow_systems,
)

SMALL = [symmetric(3), symmetric(4), alternating(4), dihedral(4), dihedral(6),
         cyclic(12)]


@pytest.mark.parametrize("G", SMALL, ids=lambda g: g.name)
def test_center_matches_brute_force(G):
    assert center(G).members.tolist() == brute_center(G)


def test_center_and_abelian_of_subgroups_match_all_pairs(corpus_groups):
    """center and is_abelian compare members with generators only; on the
    derived terms, the Sylow subgroups and a conjugate of each, they agree
    with comparing every pair of members."""
    for name, G in corpus_groups.items():
        if G.order > 200:
            continue
        t = G.table
        subgroups = list(derived_series(G).terms)
        subgroups += [sylow_subgroup(G, p) for p in prime_divisors(G.order)]
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
        Z = center(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert Z.order == 1
    assert peak < G.order ** 2  # a quarter of one order x order int32 array


@pytest.mark.parametrize("G", SMALL, ids=lambda g: g.name)
def test_centralizer_matches_brute_force(G):
    for x in range(0, G.order, 3):
        assert centralizer(G, x).members.tolist() == brute_centralizer(G, x)


@pytest.mark.parametrize("G", SMALL, ids=lambda g: g.name)
def test_derived_series_matches_brute_force(G):
    got = [set(t.members.tolist()) for t in derived_series(G).terms]
    assert got == brute_derived_series(G)


def test_solvability():
    assert is_solvable(symmetric(4))
    assert not is_solvable(alternating(5))
    assert derived_series(alternating(5)).derived_length is None


@pytest.mark.parametrize("G", SMALL, ids=lambda g: g.name)
def test_sylow_subgroups_have_full_p_part(G):
    n = G.order
    for p in prime_divisors(n):
        target = 1
        m = n
        while m % p == 0:
            target *= p
            m //= p
        P = sylow_subgroup(G, p)
        assert P.order == target
        assert is_p_subgroup(G, P.members, p)


def test_sylow_rejects_non_divisor():
    with pytest.raises(PrimeNotDividing):
        sylow_subgroup(symmetric(3), 5)


def test_fitting_of_s4_is_klein_four():
    G = symmetric(4)
    F = fitting_subgroup(G)
    assert F.order == 4
    assert F.is_normal()
    assert F.is_abelian()
    assert second_fitting_preimage(G, F).order == 12


def test_p_core_of_s4():
    G = symmetric(4)
    assert p_core(G, 2).order == 4
    assert p_core(G, 3).order == 1


def test_sylow_system_of_s3():
    G = symmetric(3)
    system = sylow_system(G)
    assert {p: S.order for p, S in system.sylows.items()} == {2: 2, 3: 3}
    # the product of the system is the whole group
    product = G.table[np.ix_(system.sylows[2].members, system.sylows[3].members)]
    assert np.unique(product).size == 6


def test_sylow_systems_require_solvable():
    for G in (alternating(5), symmetric(5)):
        with pytest.raises(NotSolvable):
            sylow_system(G)


def _solvable_terms(corpus_groups):
    for name, G in corpus_groups.items():
        series = derived_series(G)
        assert series.solvable, name
        for K in series.terms:
            yield name, K


def _agl17():
    """AGL(1,7), generated by x -> -x, x -> 2x + 1 and x -> x + 1 in that
    order: its canonical Sylow 2- and 3-subgroups do not permute."""
    maps = [lambda x: -x, lambda x: 2 * x + 1, lambda x: x + 1]
    return closure(7, [Permutation([f(x) % 7 for x in range(7)]) for f in maps],
                   name="AGL(1,7)")


def test_all_sylow_systems_are_permutable(corpus_groups):
    """The Sylow system of every derived term of every corpus group, and of
    AGL(1,7), has one Sylow subgroup per prime, and each two of them permute."""
    terms = list(_solvable_terms(corpus_groups)) + [("AGL(1,7)", full_subgroup(_agl17()))]
    for name, K in terms:
        system = sylow_system(K)
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
    P2, P3 = sylow_subgroup(G, 2), sylow_subgroup(G, 3)
    assert not product_sets_equal(G, P2.members, P3.members)
    candidates = list(conjugates(G, P2))
    assert sylow_system(G).sylows[2].same_members(candidates[2])
    terms = list(_solvable_terms(corpus_groups)) + [("AGL(1,7)", full_subgroup(G))]
    for name, K in terms:
        got = sylow_system(K)
        (first,) = sylow_systems(K, limit=1)
        assert got.primes() == first.primes(), name
        for p in got.primes():
            assert got.sylows[p].same_members(first.sylows[p]), (name, p)


def test_normalizer_members_match_conjugating_every_member(corpus_groups):
    """Testing P's generators finds the same normalizer as conjugating all of
    P, in scopes G and G', for Sylow subgroups, derived terms, the upper
    Fitting preimage, a conjugate of each and the trivial subgroup."""
    for name, G in corpus_groups.items():
        if G.order > 500:
            continue
        a = GroupAnalysis(G)
        subgroups = [sylow_subgroup(G, p) for p in prime_divisors(G.order)]
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
        reps = [int(c[0]) for c in conjugacy_classes(G)[1:]]
        found = [center(G)]
        found += [p_core(G, p) for p in primes]
        found += [normal_closure(G, x) for x in reps]
        found += [centralizer(G, x) for x in reps]
        found += [normalizer(full, sylow_subgroup(G, p)) for p in primes]
        if is_solvable(G):
            found.append(system_normalizer(full, sylow_system(full)))
        for H in found:
            assert "generators" not in vars(H), (G.name, H)
            assert H.generators == greedy_generators(G, H.members), (G.name, H)
            assert close_indices(G, H.generators).tolist() == H.members.tolist()


def test_system_normalizer_complements_derived_subgroup(witness60):
    G = witness60
    M = system_normalizer(full_subgroup(G), sylow_system(full_subgroup(G)))
    D = derived_subgroup(G)
    assert M.order * D.order == G.order
    assert np.intersect1d(M.members, D.members).size == 1


def test_normalizer_and_conjugacy():
    G = symmetric(4)
    P = sylow_subgroup(G, 2)
    N = normalizer(full_subgroup(G), P)
    assert N.order == 8  # Sylow 2 of S4 is self-normalizing
    classes = conjugacy_classes(G)
    assert sorted(len(c) for c in classes) == [1, 3, 6, 6, 8]


def test_normal_subgroups_of_s4():
    G = symmetric(4)
    infos = normal_subgroups(G)
    assert [i.subgroup.order for i in infos] == [1, 4, 12, 24]
    assert [i.subgroup.order for i in infos if i.minimal] == [4]
    assert [S.order for S in minimal_normal_subgroups(G, conjugacy_classes(G))] == [4]


def test_normal_subgroups_of_cyclic_12():
    infos = normal_subgroups(cyclic(12))
    assert [i.subgroup.order for i in infos] == [1, 2, 3, 4, 6, 12]
    assert [i.subgroup.order for i in infos if i.minimal] == [2, 3]


def test_minimal_normal_subgroups_match_oracle(corpus_groups):
    """The minimal normal closures of elements are exactly the minimal
    members of the full normal-subgroup lattice, in (order, members) order."""
    groups = [G for G in corpus_groups.values() if G.order <= 500]
    groups += [cyclic(1), symmetric(4), alternating(5), cyclic(12)]
    for G in groups:
        normals = brute_normal_subgroups(G)
        minimal = sorted((sorted(S) for S in normals
                          if len(S) > 1 and not any(1 < len(T) < len(S) and T < S
                                                    for T in normals)),
                         key=lambda m: (len(m), m))
        got = [S.members.tolist() for S in minimal_normal_subgroups(G, conjugacy_classes(G))]
        assert got == minimal, G.name
