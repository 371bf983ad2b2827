import importlib
import itertools

import numpy as np
import pytest

from agc.classify import GroupAnalysis
from agc.constructions import abelian, cyclic
from agc.groupfile import group_to_file, serialize_group_file
from agc.witness import (
    DIAMETER4_FINGERPRINT,
    DIAMETER6_A,
    DIAMETER6_B,
    DIAMETER6_FINGERPRINT,
    build_witness,
    diameter6_extra_checks,
    witness_fingerprint,
)
from oracles import abelian_automorphisms, all_sources_diameter


def test_abelian_automorphism_counts():
    assert len(abelian_automorphisms(cyclic(15), (15,))) == 8
    assert len(abelian_automorphisms(abelian([2, 2]), (2, 2))) == 6
    assert len(abelian_automorphisms(cyclic(5), (5,))) == 4


def test_automorphisms_are_automorphisms():
    G = abelian([2, 4])
    t = G.table
    for phi in abelian_automorphisms(G, (2, 4)):
        assert np.array_equal(phi[t], t[np.ix_(phi, phi)])


def has_order3_automorphism(base, invariants):
    ident = np.arange(base.order)
    return any(not np.array_equal(phi, ident) and np.array_equal(phi[phi[phi]], ident)
               for phi in abelian_automorphisms(base, invariants))


def test_order3_automorphism_detection():
    """Why the order-1500 witness needs the elementary abelian base: the
    other abelian groups of order 125 have no automorphism of order 3."""
    assert not has_order3_automorphism(cyclic(125), (125,))
    assert not has_order3_automorphism(abelian([25, 5]), (25, 5))
    assert has_order3_automorphism(abelian([5, 5]), (5, 5))


def test_diameter6_matrices_satisfy_the_relations():
    """The order-1500 witness's actions over GF(5)^3: A^3 = I, A fixes
    exactly a line, B^2 = -I and B A = A^2 B = A^-1 B."""
    A, B = np.array(DIAMETER6_A), np.array(DIAMETER6_B)
    eye = np.eye(3, dtype=np.int64)
    assert np.array_equal(A @ A @ A % 5, eye)
    # rank(A - I) = 2 over GF(5): its image, all (A - I)v, has 5^2 vectors
    vectors = np.array(list(itertools.product(range(5), repeat=3)))
    assert len({tuple(v) for v in vectors @ (A - eye).T % 5}) == 5 ** 2
    assert np.array_equal(B @ B % 5, -eye % 5)
    assert np.array_equal(B @ A % 5, A @ A @ B % 5)


def test_diameter4_witness_matches_frozen_fingerprint(witness60):
    assert witness_fingerprint(GroupAnalysis(witness60)) == DIAMETER4_FINGERPRINT


def test_diameter6_witness_matches_frozen_fingerprint(witness1500):
    assert witness_fingerprint(GroupAnalysis(witness1500)) == DIAMETER6_FINGERPRINT


def test_diameter6_extra_structure(witness1500):
    extras = diameter6_extra_checks(GroupAnalysis(witness1500))
    assert extras == {
        "fitting_is_sylow_5": True,
        "no_2_element_commutes_with_fitting": True,
        "no_order_4_commutes_with_3_element": True,
    }


def test_witness_builders_are_deterministic(witness60):
    again = build_witness("diameter-4").group
    a = serialize_group_file(group_to_file(witness60))
    b = serialize_group_file(group_to_file(again))
    assert a == b


def test_each_witness_is_built_by_one_product(monkeypatch):
    """Each builder makes one semidirect product of its witness's order,
    where scanning the order-60 products of abelian groups made 43."""
    make, orders = importlib.import_module("agc.products").semidirect_product, []

    def counted(base, actor, *args, **kwargs):
        orders.append(base.order * actor.order)
        return make(base, actor, *args, **kwargs)

    for name in ("constructions", "products", "witness"):
        module = importlib.import_module(f"agc.{name}")
        for attr, value in list(vars(module).items()):
            if value is make:
                monkeypatch.setattr(module, attr, counted)
    build_witness("diameter-4")
    assert orders == [60]
    orders.clear()
    build_witness("diameter-6")
    assert orders == [12, 1500]  # Dic3, then the witness


def test_unknown_witness_name():
    with pytest.raises(KeyError):
        build_witness("nosuch")


def test_emitted_witness_matches_corpus_copy(corpus_groups, witness60, witness1500):
    for key, built in (("diameter4-witness", witness60),
                       ("diameter6-witness", witness1500)):
        stored = corpus_groups[key]
        assert stored.order == built.order
        points = range(built.degree)
        assert np.array_equal(stored.images(points), built.images(points))


# name: derived length, |G′|, |F|, corollary class, diameter
EXTREMAL = {
    "two-prime-4": (2, 25, 25, "two-prime-order", 4),
    "cube-free-odd-4": (2, 133, 133, "cube-free-odd", 4),
    "derived-length-3-4": (3, 75, 25, "none", 4),
    "diameter-5": (3, 147, 49, "none", 5),
}


@pytest.mark.parametrize("name", EXTREMAL)
def test_extremal_groups_attain_their_bounds(extremal_groups, name):
    """Each corollary class reaches its bound of 4, and derived length 3
    reaches 4 at order 300 and 5 at order 588: Z = 1, the hypothesis holds,
    no check fails, and the diameter equals a search from every vertex over
    the table's commuting relation."""
    a = GroupAnalysis(extremal_groups[name])
    c = a.classification
    assert a.center.order == 1 and c.satisfies_hypothesis
    assert (a.series.derived_length, a.derived.order, a.fitting.order,
            c.corollary_class, a.diameter.diameter) == EXTREMAL[name]
    assert all(r.status != "fail" for r in a.records)
    assert a.diameter == all_sources_diameter(a.graph)
