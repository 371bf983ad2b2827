"""Build the bundled corpus of group files under corpus/.

Run from the repository root:  python3 scripts/build_corpus.py

The corpus mixes abelian groups, dihedral/dicyclic/symmetric groups,
Frobenius and 2-Frobenius instances (some of them elementary abelian groups
acted on by matrices, from ``agc.constructions.matrix_action_group``),
hypothesis-satisfying groups, the two extremal witnesses as
``agc.witness`` constructs them, and direct products of the order-60
witness with abelian factors.  Files are written deterministically, so
reruns are byte-identical; ``tests/test_build_corpus.py`` checks that
``build_all`` reproduces every file in corpus/.
"""

from __future__ import annotations

import sys
from pathlib import Path

from agc.constructions import (
    abelian,
    alternating,
    cyclic,
    dicyclic,
    dihedral,
    matrix_action_group,
    metacyclic,
    quaternion,
    symmetric,
)
from agc.groupfile import save_group
from agc.perm import FiniteGroup
from agc.products import direct_product
from agc.witness import build_witness

OUT = Path(__file__).resolve().parent.parent / "corpus"


def generator_by_order(G: FiniteGroup, order: int) -> int:
    orders = G.element_orders
    for g in G.generators:
        if orders[g] == order:
            return int(g)
    raise ValueError(f"no generator of order {order}")


def build_all() -> dict[str, FiniteGroup]:
    groups: dict[str, FiniteGroup] = {}

    def add(key: str, G: FiniteGroup, name: str | None = None) -> FiniteGroup:
        G.name = name if name is not None else key
        groups[key] = G
        return G

    # abelian groups
    add("c6", cyclic(6))
    add("c12", cyclic(12))
    add("c15", cyclic(15))
    add("c2xc2", abelian([2, 2]))
    add("c2xc2xc2", abelian([2, 2, 2]))

    # dihedral, dicyclic, symmetric, alternating
    add("s3", symmetric(3))
    add("s4", symmetric(4))
    add("a4", alternating(4))
    add("d8", dihedral(4), name="D8")
    add("q8", quaternion(), name="Q8")
    add("d10", dihedral(5), name="D10")
    add("d12", dihedral(6), name="D12")
    add("dic3", dicyclic(3), name="Dic3")

    # metacyclic Frobenius groups
    add("c7-c3", metacyclic(7, 3, 2))
    add("f20", metacyclic(5, 4, 2))
    add("f42", metacyclic(7, 6, 3))
    add("c13-c4", metacyclic(13, 4, 5))
    add("c11-c5", metacyclic(11, 5, 3))

    # matrix-action Frobenius groups on elementary abelian bases
    c3 = cyclic(3)
    add("c5sq-c3", matrix_action_group(
        5, 2, c3, {generator_by_order(c3, 3): [[0, 4], [1, 4]]}))
    c4 = cyclic(4)
    add("c5sq-c4", matrix_action_group(
        5, 2, c4, {generator_by_order(c4, 4): [[0, 4], [1, 0]]}))
    c2 = cyclic(2)
    add("c3sq-c2", matrix_action_group(
        3, 2, c2, {generator_by_order(c2, 2): [[2, 0], [0, 2]]}))

    # a second 2-Frobenius instance: C7^2 acted on by S3
    s3a = symmetric(3)
    add("c7sq-s3", matrix_action_group(
        7, 2, s3a,
        {generator_by_order(s3a, 3): [[2, 0], [0, 4]],
         generator_by_order(s3a, 2): [[0, 1], [1, 0]]}))

    # hypothesis-satisfying groups and related constructions
    add("s3xs3", direct_product(symmetric(3), symmetric(3)))
    add("a4xc2", direct_product(alternating(4), cyclic(2)))
    add("dic3xc5", direct_product(dicyclic(3), cyclic(5)))
    add("c3xf20", direct_product(cyclic(3), metacyclic(5, 4, 2)))
    add("f21xf39", direct_product(metacyclic(7, 3, 2), metacyclic(13, 3, 3)))
    g126 = add("g126", direct_product(metacyclic(7, 3, 2), symmetric(3)))
    add("c2xg126", direct_product(cyclic(2), g126))

    # the extremal witnesses and their products with abelian factors
    w60 = add("diameter4-witness", build_witness("diameter-4").group)
    for key, A in [
        ("c2xw60", cyclic(2)),
        ("c3xw60", cyclic(3)),
        ("c4xw60", cyclic(4)),
        ("c2sqxw60", abelian([2, 2])),
        ("c5xw60", cyclic(5)),
        ("c6xw60", cyclic(6)),
    ]:
        add(key, direct_product(A, w60))

    add("diameter6-witness", build_witness("diameter-6").group)
    return groups


def main() -> int:
    OUT.mkdir(exist_ok=True)
    groups = build_all()
    for key in sorted(groups):
        path = OUT / f"{key}.json"
        save_group(groups[key], path)
        print(f"wrote {path} (order {groups[key].order})")
    print(f"{len(groups)} groups")
    return 0


if __name__ == "__main__":
    sys.exit(main())
