"""Independent brute-force oracles used to cross-check the library.

Everything here favors obviousness over speed: plain tuple arithmetic,
full-pair scans, and exhaustive searches.  No code is shared with the
algorithms under test beyond the element indexing of FiniteGroup, except
in the superseded constructions kept as references: ``row_closure``
enumerates a group over whole image rows, where ``closure`` searches the
images of a certified base, ``closure_quotient``
enumerates G/N with ``closure``, where ``quotient`` lists nothing and
numbers the cosets by their least members, and looks elements up by their
image rows with ``indices_of_rows``, which a group no longer does; a
quotient's table is read off that fresh closure (``table_of``),
``first_p_part_sylow`` grows a Sylow subgroup by taking one element's
p-part at a time, where ``sylow_subgroup`` takes those of a whole
normalizer at once,
``sylow_systems`` is the depth-first search over all conjugates of the
Sylow subgroups whose first result the greedy ``sylow_system`` must match,
``system_complements`` searches many Sylow systems where the check tests one,
``all_sources_diameter`` searches from every vertex of a commuting graph,
over the all-pairs ``brute_adjacency``, where the graph searches from one
per conjugacy class over the packed rows it builds tile by tile, and
``brute_component_labels`` searches each component from its least vertex,
where the graph hooks and jumps labels over all its rows at once,
``fitting_by_closure`` closes the p-cores' generators where
``fitting_subgroup`` multiplies their member sets (both start from the
Sylow subgroups of ``sylow_subgroups``, which ``GroupAnalysis.sylows``
builds once per group for the A-group test, the Fitting subgroup and the
Sylow system), ``brute_2frobenius`` scans every pair of normal subgroups
where ``is_2frobenius`` tests K = F(G) with the Frobenius test of the
cached analysis of G/F(G),
``brute_twin_classes`` lists each cyclic subgroup's generators by
multiplying its generator into each power in turn, where twin reduction
labels the orbits of the power maps that ``powers`` squares and
multiplies, ``greedy_generators`` chooses a subgroup's
generators from its members eagerly, closing each prefix one product at a
time, where a ``Subgroup`` chooses them when they are first read by
``irredundant``, which grows each closure from the last a level at a time, and
``brute_frobenius_conditions`` and ``brute_stray_p_part_centralizers``
make every conjugate of a subgroup and test each one, where the checks
read the union of the conjugates off one table gather.
``abelian_automorphisms`` lists every automorphism of an abelian group by
its generator images; the witnesses are built from one chosen action each.
``brute_tree`` reads a listing's breadth-first tree off its right
columns one product at a time, where ``_enumerate`` records the tree it
walks.
``images_by_element`` maps each element's points one element at a time,
over a tree it reads off the table, where ``FiniteGroup.images`` walks the
group's own tree a breadth-first level at a time.
``brute_conjugacy_classes`` conjugates one element by every element at a
time, where ``conjugacy_classes`` labels the orbits of the generators'
conjugations, ``brute_orbit_labels`` searches each orbit over a set, where
``orbit_labels`` hooks and jumps labels over all points at once, and ``brute_element_orders`` multiplies each element into
its own power, where ``FiniteGroup.element_orders`` advances the powers of
all elements of unknown order together.  The p-part, stray-element,
twin-class and automorphism oracles read their orders from
``brute_element_orders`` and take each power one multiplication at a time
(``_brute_powers``), never through ``powers`` or ``p_part``.
"""

from __future__ import annotations

import math
import weakref
from itertools import product as iproduct

import numpy as np

from agc.constructions import abelian_vectors
from agc.graph import CommutingGraph, DiameterResult
from agc.perm import (
    FiniteGroup,
    Subgroup,
    _prime_factors,
    closure,
    full_subgroup,
    generated_subgroup,
)
from agc.structure import (
    SylowSystem,
    conjugates,
    derived_series,
    is_solvable,
    p_core,
    product_sets_equal,
    sylow_subgroup,
    sylow_subgroups,
    system_normalizer,
)


def brute_closure(degree: int, gens: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """Set of permutation tuples generated by ``gens`` (as image tuples)."""
    ident = tuple(range(degree))
    elements = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                prod = tuple(g[p[i]] for i in range(degree))
                if prod not in elements:
                    elements.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return elements


def row_closure(degree: int, gens: list) -> tuple[np.ndarray, list[int], np.ndarray]:
    """``(elements, generators, table)`` of the group generated by ``gens``,
    enumerated over whole image rows.

    The search is breadth-first over right multiplication by the generators,
    from the identity, and files every product under its whole image row,
    so it needs no base.  The table is filled a column at a time: if element
    j is first reached as i·g, column j is column i mapped through the
    right-multiplication column of g.
    """
    gen_arrays = [np.asarray(g, np.int32) for g in gens]
    rows = [np.arange(degree, dtype=np.int32)]
    index = {rows[0].tobytes(): 0}
    right: list[list[int]] = [[] for _ in gen_arrays]
    first: dict[int, tuple[int, int]] = {}  # j -> (i, k) with j first met as i·g_k
    for i, cur in enumerate(rows):  # grows while it is read
        for k, (garr, col) in enumerate(zip(gen_arrays, right)):
            prod = garr[cur]
            j = index.setdefault(prod.tobytes(), len(rows))
            if j == len(rows):
                rows.append(prod)
                first[j] = (i, k)
            col.append(j)
    n = len(rows)
    table = np.empty((n, n), np.int32)
    table[:, 0] = np.arange(n)
    columns = [np.array(col, np.int32) for col in right]
    for j in range(1, n):
        i, k = first[j]
        table[:, j] = columns[k][table[:, i]]
    return np.array(rows, np.int32), [col[0] for col in right], table


def brute_tree(right: np.ndarray) -> tuple[list[int], list[int], list[tuple[int, int]]]:
    """The breadth-first tree of the right-multiplication columns ``right``:
    each element j but the identity is first met as i·g_h for the first
    (i, h), i-major, with right[h, i] = j; its depth is its parent's plus
    one, and each level is a run of consecutive elements of one depth."""
    ngens, n = right.shape
    parent, gen, depth = [0] * n, [0] * n, [0] * n
    met = [False] * n
    met[0] = True
    for i in range(n):
        for h in range(ngens):
            j = int(right[h, i])
            if not met[j]:
                met[j] = True
                parent[j], gen[j], depth[j] = i, h, depth[i] + 1
    levels: list[tuple[int, int]] = []
    for j in range(1, n):
        if levels and depth[j] == depth[j - 1]:
            levels[-1] = (levels[-1][0], j + 1)
        else:
            levels.append((j, j + 1))
    return parent, gen, levels


def table_of(G: FiniteGroup) -> np.ndarray:
    """G's multiplication table: the one it keeps, or, for a quotient, which
    keeps none, that of G/N enumerated afresh by ``closure_quotient`` and
    relabelled, so that it owes nothing to ``QuotientGroup.products``.  N
    is the kernel of the projection, and element q of G/N, the coset of
    ``rep[q]``, is element ``oracle_proj[rep[q]]`` of the fresh closure.
    A quotient's table is made once while the quotient lives."""
    if hasattr(G, "table"):
        return G.table
    if G not in _quotient_tables:
        P = G.parent_group
        R, oracle_proj = closure_quotient(P, Subgroup(P, np.flatnonzero(G.proj == 0)))
        fresh = oracle_proj[G.rep]  # each element's index in R
        back = np.empty_like(fresh)
        back[fresh] = np.arange(G.order)
        _quotient_tables[G] = back[R.table[fresh[:, None], fresh]]
    return _quotient_tables[G]


_quotient_tables: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def images_by_element(G: FiniteGroup, points) -> np.ndarray:
    """Row i holds the images of ``points`` under element i.  The elements
    are visited in index order and each product x·g in reading order, so
    each element's row is its first finder's row mapped through the
    finding generator's row, one element at a time."""
    pts = np.asarray(points, np.int32)
    img = np.empty((G.order, pts.size), np.int32)
    img[0] = pts
    found = np.zeros(G.order, bool)
    found[0] = True
    for x in range(G.order):
        for h, g in enumerate(G.generators):
            y = G.mult(x, g)
            if not found[y]:
                found[y] = True
                G.generator_rows[h].take(img[x], out=img[y])
    return img


def closure_quotient(G: FiniteGroup, N: Subgroup) -> tuple[FiniteGroup, np.ndarray]:
    """G/N enumerated afresh: a closure over the coset permutations of G's
    generators, then each element of G looked up among Q's elements.

    The cosets, Q's points, are numbered by their least elements in
    increasing order, as ``quotient`` numbers its elements, but Q lists its
    elements in the closure's order, so ``quotient(G, N)`` agrees with it
    up to the relabelling ``proj[Q.rep]`` of this ``proj``.
    """
    t = table_of(G)
    coset_rep = t[N.members].min(axis=0)
    reps = np.unique(coset_rep)
    cid = np.searchsorted(reps, coset_rep)
    k = int(reps.size)
    Q = closure(k, [cid[t[reps, g]] for g in G.generators], max_order=k)
    proj = indices_of_rows(Q, cid[t[reps].T]).astype(np.int32)
    return Q, proj


def indices_of_rows(G: FiniteGroup, rows: np.ndarray) -> np.ndarray:
    """Element indices of image rows (the last axis of ``rows``), looked up
    by their bytes among all of G's image rows rather than through the
    table."""
    index = {row.tobytes(): i for i, row in enumerate(G.images(range(G.degree)))}
    rows = np.asarray(rows, np.int32)
    found = [index[row.tobytes()] for row in rows.reshape(-1, G.degree)]
    return np.array(found, np.int64).reshape(rows.shape[:-1])


def fitting_by_closure(H: FiniteGroup | Subgroup) -> Subgroup:
    """F(H) as the subgroup generated by the generators of all the p-cores."""
    H = H if isinstance(H, Subgroup) else full_subgroup(H)
    gens = [x for P in sylow_subgroups(H).values() for x in p_core(H, P).generators]
    return generated_subgroup(H.parent, gens)


def greedy_generators(G: FiniteGroup, members: np.ndarray) -> tuple[int, ...]:
    """A small generating set for a known subgroup, chosen greedily: each
    member outside the closure of those chosen before it, the closure made
    one product at a time."""
    t = table_of(G)
    gens: list[int] = []
    covered = {0}
    for x in members.tolist():
        if x not in covered:
            gens.append(x)
            covered, reached = {0}, [0]
            for a in reached:  # grows while it is read
                for b in t[a, gens].tolist():
                    if b not in covered:
                        covered.add(b)
                        reached.append(b)
    return tuple(gens)


def brute_element_orders(G: FiniteGroup) -> np.ndarray:
    """o(x) for every x: the least k with x^k the identity, the power of
    each element multiplied by it one step at a time."""
    t = table_of(G)
    orders = [1]
    for x in range(1, G.order):
        col = t[:, x].tolist()  # y -> y·x
        y, k = x, 1
        while y != 0:
            y, k = col[y], k + 1
        orders.append(k)
    return np.array(orders, np.int64)


def brute_conjugacy_classes(G: FiniteGroup) -> list[np.ndarray]:
    """The conjugacy classes, one x at a time: the set {g·x·g⁻¹ : g in G}
    of every x that no class found before holds, sorted, as int32."""
    inv = G.inverse_array.tolist()
    seen: set[int] = set()
    classes = []
    for x in range(G.order):
        if x not in seen:
            cls = {G.mult(G.mult(g, x), inv[g]) for g in range(G.order)}
            seen |= cls
            classes.append(np.array(sorted(cls), np.int32))
    return classes


def brute_orbit_labels(perms: np.ndarray) -> np.ndarray:
    """The least point of each point's orbit under the rows of ``perms``:
    a breadth-first search over a set from every point that no orbit found
    before holds, the orbits found in increasing order of their least
    points."""
    rows = perms.tolist()
    label = [-1] * perms.shape[1]
    for p in range(perms.shape[1]):
        if label[p] < 0:
            orbit, frontier = {p}, [p]
            while frontier:
                frontier = [g[q] for q in frontier for g in rows if g[q] not in orbit]
                orbit.update(frontier)
            for q in orbit:
                label[q] = p
    return np.array(label)


def brute_centralizer(G: FiniteGroup, x: int) -> list[int]:
    return [y for y in range(G.order) if G.mult(y, x) == G.mult(x, y)]


def brute_center(G: FiniteGroup) -> list[int]:
    return [y for y in range(G.order)
            if all(G.mult(y, x) == G.mult(x, y) for x in range(G.order))]


def brute_derived_series(G: FiniteGroup) -> list[set[int]]:
    """Derived series via commutators over all member pairs."""
    t, inv = table_of(G), G.inverse_array
    current = set(range(G.order))
    series = [current]
    while True:
        a = np.array(sorted(current))[:, None]
        b = a.T
        nxt = set(_generated(G, t[t[inv[a], inv[b]], t[a, b]].ravel()))  # a⁻¹·b⁻¹·a·b
        if nxt == current:
            break
        series.append(nxt)
        current = nxt
        if current == {0}:
            break
    return series


def brute_normalizer(G: FiniteGroup, scope: np.ndarray, members: np.ndarray) -> list[int]:
    """The elements g of ``scope`` with g·members·g⁻¹ = members, found by
    conjugating every member."""
    t, inv = table_of(G), G.inverse_array
    return [int(g) for g in scope
            if np.array_equal(np.unique(t[t[g, members], inv[g]]), members)]


def is_p_subgroup(G: FiniteGroup, members: np.ndarray, p: int) -> bool:
    orders = G.element_orders
    for x in members:
        o = int(orders[x])
        while o % p == 0:
            o //= p
        if o != 1:
            return False
    return True


def _is_malnormal(G: FiniteGroup, H: Subgroup) -> bool:
    """H ∩ gHg⁻¹ = 1 for every g outside H: every conjugate of H at once,
    one row per g."""
    t, inv = table_of(G), G.inverse_array
    mask = H.member_mask
    outside = np.flatnonzero(~mask)
    conj = t[t[outside[:, None], H.members], inv[outside][:, None]]
    return bool((mask[conj].sum(axis=1) <= 1).all())


def _conjugate_sets(G: FiniteGroup, H: Subgroup) -> set[frozenset[int]]:
    """Every conjugate gHg⁻¹ of H, one element g at a time."""
    return {frozenset(G.mult(G.mult(g, h), int(G.inverse_array[g])) for h in H.members.tolist())
            for g in range(G.order)}


def _contains_centralizers(G: FiniteGroup, H: Subgroup) -> bool:
    members = set(H.members.tolist())
    return all(set(brute_centralizer(G, x)) <= members for x in members - {0})


def brute_frobenius_conditions(G: FiniteGroup, N: Subgroup,
                               A: Subgroup) -> dict[str, bool]:
    """The three conditions of ``verify.frobenius_conditions`` from their
    statements: A is malnormal and N is the identity with the elements no
    conjugate of A holds; C_G(a) <= A for nontrivial a in A; and
    C_G(n) <= N for nontrivial n in N."""
    nontrivial = A.order > 1 and N.order > 1
    cover = set().union(*_conjugate_sets(G, A))
    kernel = (set(range(G.order)) - cover) | {0}
    return {"malnormal_kernel": nontrivial and _is_malnormal(G, A)
            and kernel == set(N.members.tolist()),
            "complement_centralizers": nontrivial and _contains_centralizers(G, A),
            "kernel_centralizers": nontrivial and _contains_centralizers(G, N)}


def _brute_powers(G: FiniteGroup, g: int, n: int) -> list[int]:
    """g^0, ..., g^(n-1): each power the one before times g, one table
    lookup each."""
    t = table_of(G)
    xs = [0]
    while len(xs) < n:
        xs.append(int(t[xs[-1], g]))
    return xs[:n]


def brute_p_part(G: FiniteGroup, g: int, o: int, p: int) -> int:
    """g^e, for g of order ``o``, for the least e that is 1 modulo the
    p-part of o and 0 modulo the rest, by repeated multiplication."""
    pa = 1
    while o % (pa * p) == 0:
        pa *= p
    e = next(e for e in range(o) if e % (o // pa) == 0 and e % pa == 1 % pa)
    return _brute_powers(G, g, e + 1)[e]


def first_p_part_sylow(G: FiniteGroup, p: int) -> Subgroup:
    """A Sylow p-subgroup of G grown one element at a time: from P = 1,
    over the members y of N_G(P) in order (``brute_normalizer``), the first
    y whose order p divides and whose p-part (``brute_p_part``) lies
    outside P joins P, which is closed again (``_generated``), until |P| is
    the p-part of |G|.  The generators are the parts taken, in order.  This
    is the rule ``sylow_subgroup`` follows with one ``p_part`` call over all
    of N_G(P)."""
    orders = brute_element_orders(G)
    target = math.gcd(G.order, p ** G.order.bit_length())
    gens: list[int] = []
    members = np.zeros(1, np.int64)
    while members.size < target:
        parts = (brute_p_part(G, y, int(orders[y]), p)
                 for y in brute_normalizer(G, np.arange(G.order), members)
                 if orders[y] % p == 0)
        gens.append(next(x for x in parts if x not in members))
        members = np.array(sorted(_generated(G, np.array(gens))))
    return Subgroup(G, members, gens)


def brute_stray_p_part_centralizers(G: FiniteGroup, D: Subgroup,
                                    M: Subgroup) -> tuple[str, dict]:
    """Status and witness of ``verify.check_stray_p_part_centralizers`` for
    the derived subgroup D and a system normalizer M, with the centralizer
    of each qualifying element tested against every conjugate of M."""
    conjugates_of_m = _conjugate_sets(G, M)
    cover = set().union(*conjugates_of_m)
    derived = set(D.members.tolist())
    orders = brute_element_orders(G).tolist()
    instances = 0
    for g in range(1, G.order):
        parts = [brute_p_part(G, g, orders[g], p) for p in _prime_factors(orders[g])]
        if all(x in derived or x in cover for x in parts):
            continue
        instances += 1
        cg = set(brute_centralizer(G, g))
        if len(cg & derived) <= 1:
            return "fail", {"element": g, "defect": "trivial centralizer in G'"}
        if not any(len(cg & conj) > 1 for conj in conjugates_of_m):
            return "fail", {"element": g, "defect": "no normalizer conjugate centralizes"}
    if instances == 0:
        return "vacuous", {"qualifying_elements": 0}
    return "pass", {"qualifying_elements": instances}


def frobenius_by_malnormal_complement(G: FiniteGroup) -> bool:
    """Frobenius test straight from the definition.

    G is Frobenius iff it has a proper nontrivial malnormal subgroup H (the
    point stabilizer of the Frobenius action on cosets of H).  Candidate
    subgroups are taken 2-generated, with the first generator ranging over
    conjugacy-class representatives; Frobenius complements of solvable
    groups are always 2-generated, so the search is complete here.  For c
    in C_G(x) and a, b in ⟨x⟩, ⟨x, a·y·b⟩^c = ⟨x, (a·y·b)^c⟩ is ⟨x, y⟩^c,
    and a conjugate of a malnormal subgroup is malnormal, so y ranges over
    one representative of each set a·y^c·b.  Each ⟨x, y⟩ is closed by
    ``_generated``.
    """
    t, inv = table_of(G), G.inverse_array
    reps = [int(c[0]) for c in brute_conjugacy_classes(G) if c[0] != 0]
    seen: set[frozenset[int]] = set()
    for x in reps:
        cx = np.array(brute_centralizer(G, x))
        cyclic_x = np.array(sorted(_generated(G, np.array([x]))))
        reached = np.zeros(G.order, bool)
        for y in range(G.order):
            if reached[y]:
                continue
            conj = t[t[cx, y], inv[cx]]
            reached[t[t[cyclic_x[:, None], conj].ravel()[:, None], cyclic_x]] = True
            H = _generated(G, np.array([x, y]))
            if not 1 < len(H) < G.order or H in seen:
                continue
            seen.add(H)
            if _is_malnormal(G, Subgroup(G, sorted(H))):
                return True
    return False


def _generated(G: FiniteGroup, seed: np.ndarray) -> frozenset[int]:
    """The subgroup generated by ``seed``: products added until none is new."""
    t = table_of(G)
    inside = np.zeros(G.order, bool)
    inside[0] = inside[seed] = True
    members = np.flatnonzero(inside)
    while True:
        inside[t[members][:, members]] = True
        grown = np.flatnonzero(inside)
        if grown.size == members.size:
            return frozenset(members.tolist())
        members = grown


def brute_normal_subgroups(G: FiniteGroup) -> set[frozenset[int]]:
    """Every normal subgroup, as the joins of the normal closures of elements.

    The normal closure of x is generated by its conjugacy class; every
    normal subgroup is the join of the normal closures of its elements, and
    the join of two normal subgroups A and B is the product set AB.
    """
    t, inv = table_of(G), G.inverse_array
    everyone = np.arange(G.order)
    seen = np.zeros(G.order, bool)
    found = set()
    for x in range(G.order):
        if not seen[x]:
            cls = t[t[everyone, x], inv[everyone]]
            seen[cls] = True
            found.add(_generated(G, cls))
    frontier = list(found)
    while frontier:
        new = []
        for A in frontier:
            for B in list(found):
                if A <= B or B <= A:
                    continue
                join = frozenset(np.unique(t[np.ix_(sorted(A), sorted(B))]).tolist())
                if join not in found:
                    found.add(join)
                    new.append(join)
        frontier = new
    return found


def brute_2frobenius(G: FiniteGroup) -> list[tuple[frozenset[int], frozenset[int]]]:
    """Every pair (K, H) of normal subgroups that makes G 2-Frobenius.

    Scans all pairs with 1 < K < H < G.  H must be Frobenius with kernel K:
    no nontrivial element of K commutes with an element of H outside K.
    G/K must be Frobenius with kernel H/K: no element of H outside K
    commutes modulo K with an element of G outside H, that is, no such
    commutator [x, g] = x^-1 g^-1 x g lies in K.  G is 2-Frobenius exactly
    when the list is nonempty.
    """
    t, inv = table_of(G), G.inverse_array
    normals = sorted(brute_normal_subgroups(G), key=lambda s: (len(s), sorted(s)))
    pairs = []
    for K in normals:
        for H in normals:
            if not (1 < len(K) < len(H) < G.order and K < H):
                continue
            k = np.array(sorted(K - {0}))
            h_out = np.array(sorted(H - K))
            g_out = np.array(sorted(set(range(G.order)) - H))
            if (t[np.ix_(k, h_out)] == t[np.ix_(h_out, k)].T).any():
                continue
            comm = t[t[np.ix_(inv[h_out], inv[g_out])], t[np.ix_(h_out, g_out)]]
            in_k = np.zeros(G.order, bool)
            in_k[list(K)] = True
            if in_k[comm].any():
                continue
            pairs.append((K, H))
    return pairs


def sylow_systems(H: Subgroup, limit: int) -> list[SylowSystem]:
    """The first ``limit`` Sylow systems of a solvable group, depth first.

    Primes are ordered by descending p-part; the candidates for each prime
    are all conjugates of the canonical Sylow subgroup, and a candidate is
    kept when it permutes with every one chosen before it.  A branch that
    cannot be completed is abandoned for the next candidate.
    """
    assert is_solvable(H)
    G = H.parent
    factors = _prime_factors(H.order)
    primes = sorted(factors, key=lambda p: (-(p ** factors[p]), p))
    candidate_lists = [list(conjugates(H, sylow_subgroup(H, p))) for p in primes]
    found: list[SylowSystem] = []

    def search(chosen: list[Subgroup]) -> None:
        if len(chosen) == len(primes):
            found.append(SylowSystem(dict(zip(primes, chosen))))
            return
        for P in candidate_lists[len(chosen)]:
            if len(found) == limit:
                return
            if all(product_sets_equal(G, P.members, Q.members) for Q in chosen):
                search(chosen + [P])

    search([])
    return found


def system_complements(G: FiniteGroup, limit: int = 64) -> list[list[bool]]:
    """Per derived-series level i, whether the normalizer in G of each of the
    first ``limit`` Sylow systems of G^(i-1) complements G^(i)."""
    full = full_subgroup(G)
    terms = derived_series(full).terms
    levels = []
    for K, N in zip(terms, terms[1:]):
        row = []
        for system in sylow_systems(K, limit=limit):
            M = system_normalizer(full, system)
            meet = np.intersect1d(M.members, N.members)
            row.append(M.order * N.order == G.order and meet.size == 1)
        levels.append(row)
    return levels


def brute_adjacency(G: FiniteGroup, vertices: np.ndarray) -> np.ndarray:
    """Boolean commuting matrix on ``vertices``: every pair compared at once
    in one gather of the table, the diagonal cleared."""
    sub = table_of(G)[np.ix_(vertices, vertices)]
    adj = sub == sub.T
    np.fill_diagonal(adj, False)
    return adj


def all_sources_diameter(graph: CommutingGraph) -> DiameterResult:
    """Status, diameter and component count of a graph from a breadth-first
    search out of every vertex, one at a time, over the bit-packed rows of
    the boolean adjacency of its vertices, computed here from the group's
    table rather than read from the graph."""
    adj = brute_adjacency(graph.group, graph.vertices)
    n = adj.shape[0]
    if n == 0:
        return DiameterResult("empty-vertex-set", None, 0)
    rows = np.packbits(adj, axis=1, bitorder="little")
    eccentricity = np.zeros(n, np.int64)
    least_reached = np.zeros(n, np.int64)
    for s in range(n):
        reached = np.zeros(rows.shape[1], np.uint8)
        reached[s >> 3] = 1 << (s & 7)
        frontier = np.array([s])
        while True:
            new = np.bitwise_or.reduce(rows[frontier], axis=0) & ~reached
            frontier = np.flatnonzero(np.unpackbits(new, count=n, bitorder="little"))
            if not frontier.size:
                break
            reached |= new
            eccentricity[s] += 1
        least_reached[s] = np.argmax(np.unpackbits(reached, count=n, bitorder="little"))
    components = np.unique(least_reached).size
    if components > 1:
        return DiameterResult("disconnected", None, components)
    return DiameterResult("connected", int(eccentricity.max()), 1)


def brute_component_labels(graph: CommutingGraph) -> np.ndarray:
    """Each vertex's label, the least vertex of its component: a
    breadth-first search over the all-pairs ``brute_adjacency`` from each
    vertex that no earlier search reached, in vertex order."""
    adj = brute_adjacency(graph.group, graph.vertices)
    label = np.full(adj.shape[0], -1, np.int64)
    for v in range(adj.shape[0]):
        frontier = np.array([v] if label[v] < 0 else [], np.intp)
        while frontier.size:
            label[frontier] = v
            frontier = np.flatnonzero(adj[frontier].any(axis=0) & (label < 0))
    return label


def brute_twin_classes(graph: CommutingGraph) -> tuple[list[int], list[int]]:
    """The vertex positions twin reduction keeps and the size of each class.

    Vertices are grouped by the sorted list of the generators v^k (k prime
    to the order of v) of the cyclic subgroup they generate; each class is
    kept as its first vertex.
    """
    G = graph.group
    orders = brute_element_orders(G).tolist()
    first: dict[tuple[int, ...], int] = {}
    sizes: dict[int, int] = {}
    for i, v in enumerate(graph.vertices.tolist()):
        o = orders[v]
        cyc = _brute_powers(G, v, o + 1)
        key = tuple(sorted(cyc[k] for k in range(1, o + 1) if math.gcd(k, o) == 1))
        j = first.setdefault(key, i)
        sizes[j] = sizes.get(j, 0) + 1
    keep = sorted(first.values())
    return keep, [sizes[i] for i in keep]


def abelian_automorphisms(base: FiniteGroup,
                          invariants: tuple[int, ...]) -> list[np.ndarray]:
    """All automorphisms of an abelian group, as base-index permutations.

    An endomorphism is determined by generator images whose orders divide the
    corresponding invariants; the bijective ones are the automorphisms.
    Enumeration order is the lexicographic order of the image tuples.
    """
    vecs = abelian_vectors(base, invariants)
    orders = brute_element_orders(base)
    gens = base.generators
    candidates = [
        [x for x in range(base.order) if invariants[i] % int(orders[x]) == 0]
        for i in range(len(gens))
    ]
    t = table_of(base)
    autos = []
    for images in iproduct(*candidates):
        phi = np.zeros(base.order, np.int32)
        for i, a in enumerate(images):
            col = np.array(_brute_powers(base, a, invariants[i]), np.int32)
            phi = t[phi, col[vecs[:, i]]]
        if np.unique(phi).size == base.order:
            autos.append(phi)
    return autos
