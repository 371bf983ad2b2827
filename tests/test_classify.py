import sys
from types import SimpleNamespace

import numpy as np
import pytest

from agc.errors import NotSolvable
from agc.perm import closure
from agc.classify import (
    GroupAnalysis,
    classify,
    corollary_class,
    is_2frobenius,
    is_a_group,
    is_frobenius,
    satisfies_hypothesis,
)
from agc.constructions import (
    alternating,
    cyclic,
    dihedral,
    metacyclic,
    quaternion,
    symmetric,
)
from agc.products import direct_product, quotient
from agc.structure import center, derived_subgroup
from agc.verify import group_report, report_summary_row

from oracles import brute_2frobenius


def _pair(K, H):
    return frozenset(K.members.tolist()), frozenset(H.members.tolist())


def test_a_group_detection():
    assert is_a_group(symmetric(3))
    assert is_a_group(cyclic(12))
    assert is_a_group(metacyclic(5, 4, 2))
    assert not is_a_group(symmetric(4))  # Sylow 2 is dihedral
    assert not is_a_group(quaternion())
    assert not is_a_group(dihedral(4))


def test_frobenius_s3():
    ok, kernel = is_frobenius(symmetric(3))
    assert ok
    assert kernel.order == 3
    assert np.array_equal(derived_subgroup(symmetric(3)).members, kernel.members)


def test_frobenius_f20_and_negatives():
    assert is_frobenius(metacyclic(5, 4, 2))[0]
    assert not is_frobenius(cyclic(6))[0]
    assert not is_frobenius(dihedral(6))[0]  # D12 has a nontrivial center
    assert not is_frobenius(symmetric(4))[0]


def test_frobenius_requires_solvable():
    with pytest.raises(NotSolvable):
        is_frobenius(alternating(5))


def test_only_the_quotients_of_a_solvable_group_are_taken_as_solvable():
    """G/Z of a solvable group is solvable without a derived series of its
    own; G/Z of a nonsolvable group is still tested, and still refused."""
    a = GroupAnalysis(direct_product(symmetric(3), cyclic(2)))
    Q = a.central_quotient
    assert Q.solvable and "series" not in vars(Q)
    with pytest.raises(NotSolvable):
        is_frobenius(GroupAnalysis(direct_product(alternating(5), cyclic(2))).central_quotient)


def test_2frobenius_s4():
    G = symmetric(4)
    ok, pair = is_2frobenius(G)
    assert ok
    K, H = pair
    assert (K.order, H.order) == (4, 12)
    assert brute_2frobenius(G) == [_pair(K, H)]


def _affine(a, b, c, d, e=0):
    """x + 3y -> (a x + b y + e) + 3 (c x + d y) on the points of F_3^2."""
    return [(a * x + b * y + e) % 3 + 3 * ((c * x + d * y) % 3)
            for y in range(3) for x in range(3)]


def test_2frobenius_negatives():
    assert not is_2frobenius(symmetric(3))[0]
    assert not is_2frobenius(cyclic(12))[0]
    assert not is_2frobenius(metacyclic(5, 4, 2))[0]
    # S4 x C2: G/F(G) = S3 is Frobenius, but the central C2 lies in F(G),
    # so only the lower level of the canonical pair fails.  ASL(2,3):
    # C3^2 x| Q8 is Frobenius with kernel F(G) = C3^2, but G/F(G) = SL(2,3)
    # has a centre, so only the upper level fails.
    asl23 = closure(9, [_affine(1, 0, 0, 1, 1), _affine(1, 1, 0, 1),
                        _affine(0, 2, 1, 0)])
    for G in (direct_product(symmetric(4), cyclic(2)), asl23):
        assert not is_2frobenius(G)[0]
        assert brute_2frobenius(G) == []


def test_2frobenius_corpus_instance(corpus_groups):
    ok, pair = is_2frobenius(corpus_groups["c7sq-s3"])
    assert ok
    K, H = pair
    assert (K.order, H.order) == (49, 147)
    assert brute_2frobenius(corpus_groups["c7sq-s3"]) == [_pair(K, H)]


def test_2frobenius_matches_pair_scan_oracle(corpus_groups):
    """The canonical pair (F(G), preimage of F(G/F(G))) finds every
    2-Frobenius group that a scan over all pairs of normal subgroups finds,
    and ``classify``, which tests only G/Z when G has a centre, reports the
    same flags for G and G/Z."""
    for name, G in corpus_groups.items():
        if G.order > 500:
            continue
        c = classify(G)
        expected = bool(brute_2frobenius(G))
        assert is_2frobenius(G)[0] == c.two_frobenius == expected, name
        Z = center(G)
        if Z.order == 1:
            assert c.central_quotient_two_frobenius == expected, name
        elif Z.order < G.order:
            Q = quotient(G, Z)[0]
            expected = bool(brute_2frobenius(Q))
            assert is_2frobenius(Q)[0] == c.central_quotient_two_frobenius == expected, name


def test_hypothesis_examples(corpus_groups):
    assert satisfies_hypothesis(corpus_groups["s3xs3"])
    assert satisfies_hypothesis(corpus_groups["diameter4-witness"])
    assert satisfies_hypothesis(corpus_groups["g126"])
    assert not satisfies_hypothesis(symmetric(3))       # Frobenius
    assert not satisfies_hypothesis(symmetric(4))       # not an A-group
    assert not satisfies_hypothesis(cyclic(6))          # abelian
    assert not satisfies_hypothesis(corpus_groups["dic3xc5"])  # G/Z Frobenius


def test_central_quotient_classification(corpus_groups):
    c = classify(corpus_groups["dic3xc5"])
    assert c.center_order == 10
    assert not c.frobenius
    assert c.central_quotient_frobenius


def test_corollary_classes(corpus_groups):
    c = classify(corpus_groups["s3xs3"])
    assert c.corollary_class == "two-prime-order"  # 36 = 2^2 * 3^2
    c60 = classify(corpus_groups["diameter4-witness"])
    assert c60.corollary_class == "none"  # order 60 has three primes
    assert classify(corpus_groups["g126"]).corollary_class == "none"  # even
    # odd cube-free order: 819 = 3^2 * 7 * 13
    c_odd = classify(corpus_groups["f21xf39"])
    assert c_odd.satisfies_hypothesis
    assert c_odd.corollary_class == "cube-free-odd"
    assert corollary_class(symmetric(3), False) == "none"
    # odd, but 945 = 3^3 * 5 * 7 is not cube-free
    assert corollary_class(SimpleNamespace(order=945), True) == "none"


def _relabeled(G, rng):
    """G generated afresh on points relabelled by a random permutation
    sigma, from its generators shuffled and one redundant element."""
    sigma = rng.permutation(G.degree)
    rows = list(G.generator_rows[rng.permutation(len(G.generators))])
    rows.append(G.images(range(G.degree))[int(rng.integers(1, G.order))])
    gens = []
    for g in rows:
        h = np.empty(G.degree, np.int64)
        h[sigma] = sigma[g]  # h = sigma g sigma^-1
        gens.append(h)
    return closure(G.degree, gens, name=G.name)


def _report_and_row(G):
    """``group_report`` without its timings, and ``report_summary_row``,
    read from one analysis."""
    a = GroupAnalysis(G)
    report = group_report(a)
    for check in report["checks"]:
        del check["millis"]
    return report, report_summary_row(a)


def test_classification_invariant_under_generator_relabeling(corpus_groups):
    """Relabelling the points, shuffling the generators and adding a
    redundant one change neither the report, timings aside, nor the
    summary row, on every corpus group of order at most 120."""
    for name, G in corpus_groups.items():
        if G.order > 120:
            continue
        want = _report_and_row(G)
        for seed in range(3):
            H = _relabeled(G, np.random.default_rng([seed, G.order]))
            assert H.order == G.order
            assert _report_and_row(H) == want, (name, seed)


def test_the_package_leaves_the_classify_module_reachable():
    """No name the package exports hides its ``classify`` submodule, so an
    import binds the module, where a patch takes effect."""
    import agc.classify as m

    assert m is sys.modules["agc.classify"]
