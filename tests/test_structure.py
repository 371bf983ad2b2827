import tracemalloc

import numpy as np
import pytest

from agc.errors import NotSolvable, PrimeNotDividing
from agc.perm import full_subgroup, generated_subgroup, prime_divisors
from agc.constructions import alternating, cyclic, dihedral, symmetric
from agc.structure import (
    center,
    centralizer,
    conjugacy_classes,
    derived_series,
    derived_subgroup,
    fitting_subgroup,
    is_nilpotent,
    is_solvable,
    minimal_normal_subgroups,
    normal_subgroups,
    normalizer,
    p_core,
    second_fitting_preimage,
    sylow_subgroup,
    sylow_system,
    sylow_systems,
    system_normalizer,
)

from oracles import (
    brute_center,
    brute_centralizer,
    brute_derived_series,
    brute_normal_subgroups,
    is_p_subgroup,
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
    assert is_nilpotent(F)
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
    hall = system.hall([2, 3])
    assert hall.order == 6
    assert system.hall([3]).order == 3


def test_sylow_systems_require_solvable():
    with pytest.raises(NotSolvable):
        sylow_system(alternating(5))


def test_all_sylow_systems_are_permutable(witness60):
    count = 0
    for system in sylow_systems(witness60, limit=8):
        count += 1
        primes = system.primes()
        t = witness60.table
        for i, p in enumerate(primes):
            for q in primes[i + 1:]:
                A = system.sylows[p].members
                B = system.sylows[q].members
                ab = np.unique(t[np.ix_(A, B)])
                ba = np.unique(t[np.ix_(B, A)])
                assert np.array_equal(ab, ba)
    assert count >= 1


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
