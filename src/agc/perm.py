"""Permutation groups enumerated from their generators' image arrays.

A permutation of {0..degree-1} is its image array.  Products are
left-to-right throughout: p·q is ``q[p]``, i.e. the left factor acts
first.  Groups enumerate their elements breadth-first over
generator products starting at the identity, with the generator list order
fixed, so element indices are fully reproducible.  Each group is enumerated
once.  Elements are multiplied through one primitive,
``FiniteGroup.products``, and inverted through ``inverse_array``; no other
module reads a table.  A group from ``closure`` or from a regular action
answers products from its multiplication table, built from the products x·g
that the enumeration computed.  A ``QuotientGroup`` keeps no table and
answers them through the group it is a quotient of.

One routine, ``_enumerate``, lists every group, so no other module knows
the listing order.  It tells elements apart by their images of a base, a
point tuple S with trivial pointwise stabilizer: any point of a regular
action (a product's or a quotient's), or for ``closure`` one started from
the orbits of ``orbit_labels``, the one orbit routine, and certified by
Schreier's lemma.  A group keeps no image row of its elements: only its
generators' rows, the search tree, and the table or, in a quotient, one
coset representative per element and the projection.  Elements are listed
in first-reached order, so each tree level is a contiguous index range.

The table is most of what a group holds, so its entries, element indices,
take the narrowest dtype that holds them: ``index_dtype`` chooses it, int16
for every order up to 32 767, which covers the default order cap, and
int32 above.  Products have that dtype in every group.  Arithmetic on them
must widen them first, since int16 values times a Python int stay int16
and wrap.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, NoReturn, Sequence

import numpy as np

from .errors import GroupTooLarge, MalformedPermutation, PrimeNotDividing

DEFAULT_MAX_ORDER = 20_000
ROW_BLOCK_ENTRIES = 1 << 16  # entries gathered at once when filling a large array
INT16_MAX = int(np.iinfo(np.int16).max)


def index_dtype(order: int) -> type[np.signedinteger]:
    """The dtype of a group's table and inverse array: the narrowest that
    holds every element index of a group of ``order`` elements."""
    return np.int16 if order <= INT16_MAX else np.int32


def _validate_images(images, degree: int) -> np.ndarray:
    """``images`` as an int32 array, checked to be a bijection of
    {0..degree-1} for a degree of at least 1."""
    try:
        arr = np.asarray(images, dtype=np.int64)
    except OverflowError:
        raise MalformedPermutation("image values out of range") from None
    if arr.ndim != 1 or arr.size != degree:
        raise MalformedPermutation(f"expected {degree} images, got shape {arr.shape}")
    if int(arr.min()) < 0 or int(arr.max()) >= degree:
        raise MalformedPermutation("image values out of range")
    seen = np.zeros(degree, dtype=bool)
    seen[arr] = True
    if not bool(seen.all()):
        raise MalformedPermutation("image array is not a bijection")
    return arr.astype(np.int32)


def _reject_listing(flat: np.ndarray, n: int, ngens: int) -> NoReturn:
    """Say why the right-multiplication columns ``flat``, read parent by
    parent, list no n elements in first-reached order."""
    # j is generated when some element before it reaches it: an entry j at
    # position i, in the row of parent i // ngens < j
    generated = np.zeros(n, bool)
    generated[flat[flat.astype(np.intp) * ngens > np.arange(flat.size)]] = True
    if not generated[1:].all():
        raise ValueError("element list is not generated by the given generators")
    raise ValueError("element list is not in first-reached order")


class FiniteGroup:
    """A fully enumerated permutation group with index-based arithmetic.

    Elements are listed breadth-first: element 0 is the identity and every
    other element j is first reached as parent(j)·gen(j), for an earlier
    element parent(j) and a generator gen(j).  Row h of ``generator_rows``
    holds the images of generator h, and ``right[h, i]`` is the index of
    element i times generator h, so ``generators[h]`` is ``right[h, 0]``.
    The tree, and here the dense multiplication table and the inverse
    array, are built from these columns when the group is made; no
    element's image row is kept, and ``images`` reads any of them off the
    tree.  ``products`` is one gather of the table.  The table and the
    inverse array have dtype ``index_dtype(order)``: int16 up to order
    32 767, so the order x order table, the largest array a group holds,
    takes two bytes an entry.  ``QuotientGroup`` keeps the tree but no
    table.
    """

    def __init__(self, generator_rows: np.ndarray, right: np.ndarray, *,
                 name: str | None = None):
        self._build_tree(generator_rows, right, name)
        self._build_table(right)

    def _build_tree(self, generator_rows: np.ndarray, right: np.ndarray,
                    name: str | None) -> None:
        """Keep the generators' rows and the breadth-first tree that the
        right-multiplication columns ``right`` describe.

        Element j is first reached as parent(j)·gen(j).  Elements are listed
        in first-reached order, so parents never decrease and each
        breadth-first level is a contiguous index range."""
        rows = np.array(generator_rows, dtype=np.int32)
        right = np.asarray(right, np.int32)
        if rows.ndim != 2 or rows.shape[0] != right.shape[0]:
            raise ValueError("need one image row per right column")
        if right.size and (int(right.min()) < 0 or int(right.max()) >= right.shape[1]):
            raise ValueError("right columns index outside the element list")
        rows.setflags(write=False)
        self.generator_rows = rows
        self.degree = rows.shape[1]
        self.order = n = right.shape[1]
        self.generators = right[:, 0].tolist()
        self.name = name
        ngens = right.shape[0]
        # read parent by parent, a first-reached listing reaches 1, 2, ...,
        # n - 1 in turn, each where the running maximum rises to it
        flat = right.T.ravel()
        rises = np.flatnonzero(np.diff(np.maximum.accumulate(flat), prepend=0))
        if rises.size != n - 1 or (rises >= np.arange(1, n) * ngens).any():
            _reject_listing(flat, n, ngens)
        parent = np.zeros(n, np.intp)  # parent[0] and gen[0] are never read
        gen = np.zeros(n, np.intp)
        parent[1:], gen[1:] = np.divmod(rises, ngens)
        # the level after one ending at e ends before the first parent >= e;
        # the identity has no parent, so parent[0] is left out
        stop = (1 + np.searchsorted(parent[1:], np.arange(n))).tolist()
        levels, e = [], 1
        while e < n:
            s, e = e, stop[e]
            levels.append((s, e))
        self._parent, self._gen, self._levels = parent, gen, levels

    # -- basic accessors ----------------------------------------------------

    def images(self, points: Sequence[int]) -> np.ndarray:
        """Row i holds the images of ``points`` under element i: its parent's
        row mapped through its generator's row, a level at a time."""
        return self._walk(self.generator_rows, np.asarray(points, np.int32))

    def _walk(self, perms: np.ndarray, start: np.ndarray) -> np.ndarray:
        """Rows indexed like the elements: row 0 is ``start``, and row j is
        ``perms[gen(j)]`` applied to row parent(j).  Parents lie in the level
        before their children, so each level is one gather through the flat
        indices gen·width + value, or one gather per row on a level of one
        or two elements (a cyclic group's tree is a chain of them)."""
        out = np.empty((self.order, start.size), perms.dtype)
        out[0] = start
        flat, offset = perms.ravel(), self._gen[:, None] * perms.shape[1]
        for s, e in self._levels:
            if e - s > 2:
                out[s:e] = flat.take(offset[s:e] + out.take(self._parent[s:e], 0))
            else:
                for j in range(s, e):
                    out[j] = perms[self._gen[j]].take(out[self._parent[j]])
        return out

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<FiniteGroup{label} order={self.order} degree={self.degree}>"

    # -- multiplication -----------------------------------------------------

    def products(self, xs, ys) -> np.ndarray:
        """The products x·y of the index arrays ``xs`` and ``ys``, broadcast
        against each other, in ``index_dtype(order)``: one gather of the
        table.  With ``inverse_array`` this is how every element is
        multiplied."""
        return self.table[xs, ys]

    def mult(self, i: int, j: int) -> int:
        return int(self.products(i, j))

    def power(self, i: int, e: int) -> int:
        e %= int(self.element_orders[i])
        result, base = 0, int(i)
        while e:
            if e & 1:
                result = self.mult(result, base)
            base = self.mult(base, base)
            e >>= 1
        return result

    def _build_table(self, right: np.ndarray) -> None:
        """Fill ``table`` and ``inverse_array`` from the right-multiplication
        columns and the tree, a row at a time.

        With left_g[j] the index of g·e_j (left_g[0] is g itself)

            left_g[j] = right_gen(j)[left_g[parent(j)]],
            as g·e_j = (g·e_parent(j))·gen(j), and
            table[i] = table[parent(i)][left_gen(i)],
            as e_i·e_j = e_parent(i)·(gen(i)·e_j),

        so ``left`` is the walk of ``right`` from its column 0.
        Parents come before their children, so filling in index order reads
        only what is filled: each row of the table is one contiguous gather
        of an earlier row.  ``_build_tree`` checked that ``right``, and so
        ``left``, holds element indices only, so the gathers ``take`` in
        "clip" mode, straight into the row, not through a checking buffer.
        As e_i⁻¹ = gen(i)⁻¹·e_parent(i)⁻¹, the inverse array is the walk from
        the identity of the table rows of the generators' inverses."""
        n = self.order
        left = list(np.ascontiguousarray(self._walk(right, right[:, 0]).T, np.intp))
        dtype = index_dtype(n)
        table = np.empty((n, n), dtype)
        table[0] = np.arange(n, dtype=dtype)
        for i, p, g in zip(range(1, n), self._parent[1:].tolist(), self._gen[1:].tolist()):
            table[p].take(left[g], out=table[i], mode="clip")
        self.table = table
        # a generator's inverse is the column of the identity in its row
        inverses = table[self.generators].argmin(axis=1)
        self.inverse_array = self._walk(table[inverses], np.zeros(1, dtype))[:, 0]

    def _moved_point(self, base: np.ndarray, right: np.ndarray) -> int | None:
        """The first point, by generator, then element, of some g(S) that a
        Schreier generator s = e_i·h·e_j⁻¹ of the listing keyed by S,
        ``base``, moves, or None when S is a base (see ``closure``).  s moves
        y exactly when h(e_i(y)) differs from e_j(y): one gather over the
        images of S ∪ g(S), read off the tree, g(S) ∖ S off a mask."""
        rows = self.generator_rows
        rest = np.bincount(rows[:, base].ravel(), minlength=base.max() + 1) > 0
        rest[base] = False
        points = np.concatenate([base, rest.nonzero()[0]])
        images = self.images(points)
        moved = np.nonzero(rows[:, images] != images[right])[2]
        return int(points[moved[0]]) if moved.size else None

    # -- element data ---------------------------------------------------------

    @cached_property
    def element_orders(self) -> np.ndarray:
        """o(x) for every x: the k-th powers of the elements whose order is
        not yet known advance together, and each leaves at its first power
        that is the identity."""
        orders = np.ones(self.order, np.int64)
        live = np.arange(1, self.order)
        cur = live
        k = 1
        while live.size:
            k += 1
            cur = self.products(cur, live)
            done = cur == 0
            orders[live[done]] = k
            live, cur = live[~done], cur[~done]
        return orders

    def element_order(self, i: int) -> int:
        return int(self.element_orders[i])


class QuotientGroup(FiniteGroup):
    """G/N for a normal subgroup N of ``parent_group`` G, listed over the
    coset permutations like any group but keeping no table.

    Element q is the coset of G's element ``rep[q]``, and ``proj[x]`` is the
    element that is x's coset, so x·y is ``proj`` of the product of the
    representatives in G, and x⁻¹ is ``proj`` of a representative's
    inverse.  A quotient of a quotient asks its parent, which asks its own.
    ``proj`` and the products have dtype ``index_dtype(order)``.
    """

    def __init__(self, generator_rows: np.ndarray, right: np.ndarray,
                 parent_group: FiniteGroup, rep: np.ndarray, proj: np.ndarray, *,
                 name: str | None = None):
        self._build_tree(generator_rows, right, name)
        self.parent_group, self.rep, self.proj = parent_group, rep, proj
        self.inverse_array = proj[parent_group.inverse_array[rep]]

    def products(self, xs, ys) -> np.ndarray:
        return self.proj[self.parent_group.products(self.rep[xs], self.rep[ys])]


def closure(
    degree: int,
    gens: Iterable[Sequence[int] | np.ndarray],
    *,
    max_order: int = DEFAULT_MAX_ORDER,
    name: str | None = None,
) -> FiniteGroup:
    """Enumerate the group generated by ``gens`` on {0..degree-1}.

    ``_enumerate`` lists the elements by their images of a short point
    tuple S, a base, not by whole image rows, and no element's image row is
    ever made: the group keeps the generators' rows and the right columns
    of the certified listing.

    S starts as the least point of each orbit of ⟨gens⟩ that has more than
    one point (``orbit_labels``), or as the point 0 if none has.  Let e_i be
    the tree element of key i and j the key of e_i·g.  By Schreier's lemma
    the stabilizer G_(S) is generated by the elements s = e_i·g·e_j⁻¹.  If
    every such s fixes every point of g(S), for every generator g, then
    G_(S) lies in the stabilizer of g(S), a conjugate of G_(S) of the same
    order, so every generator normalizes G_(S).  A normal subgroup that
    fixes a point fixes its orbit, and S meets every orbit that moves, so
    G_(S) is trivial: S is a base, keys and elements correspond one to one,
    and the listing, the generator indices and the right columns are those
    of a search over whole rows.  If some s moves a point of some g(S), that
    point joins S and the search starts again; G_(S) at least halves each
    time, so there are at most log2 |G| restarts.  Only a certified listing
    gets its table.

    Raises GroupTooLarge once more than ``max_order`` keys are found, so a
    cap below 1 admits only the trivial group.  The degree must lie between
    1 and the largest ``np.intp``, and each generator is checked to be a
    bijection of {0..degree-1}; with no generators nothing of size
    ``degree`` is made.
    """
    if not 1 <= degree <= np.iinfo(np.intp).max:
        raise MalformedPermutation("degree must be positive and fit an array index")
    gen_arrays = [_validate_images(g, degree) for g in gens]
    garr = np.array(gen_arrays, np.int32).reshape(len(gen_arrays), degree)
    base = _orbit_representatives(garr)
    while True:
        right = _enumerate(garr, base, max_order)[0]
        group = FiniteGroup.__new__(FiniteGroup)
        group._build_tree(garr, right, name)
        if (moved := group._moved_point(base, right)) is None:
            group._build_table(right)
            return group
        base = np.append(base, moved)


def _enumerate(rows: np.ndarray, base: Sequence[int], max_order: int
               ) -> tuple[np.ndarray, np.ndarray | None]:
    """The one listing of group elements: breadth-first from the identity
    over right multiplication by the permutations ``rows``, each element
    known by its key, its images of the points ``base`` (the key of x·g is
    g applied to x's), and listed where its key is first reached, x-major,
    then by generator.  Returns the right columns, ``right[h, i]`` the
    index of element i times generator h, and ``pos``: for one base point,
    the dense array over the points that numbers the keys (-1 while
    unseen), so ``pos[p]`` indexes the element taking the base point to p;
    for longer keys, which a dict of their bytes numbers, None.  Keys name
    elements one to one when the base is a base, as any point is of a
    regular action; ``closure`` certifies the rest.  Raises GroupTooLarge
    once more than ``max_order`` keys are found."""
    base = np.asarray(base, np.int32)
    ngens = rows.shape[0]
    if base.size == 1:
        # memoryviews read Python ints and copy nothing of the degree, and
        # with no rows nothing of the degree's size is made
        images, listed = [memoryview(row) for row in rows], base.tolist()
        pos = np.full(rows.shape[1] if ngens else listed[0] + 1, -1, np.int32)
        at = memoryview(pos)
        at[listed[0]] = 0
        for p in listed:  # grows while it is read
            for row in images:
                q = row[p]
                if at[q] < 0:
                    if len(listed) >= max_order:
                        raise GroupTooLarge(f"closure exceeded the order cap of {max_order}")
                    at[q] = len(listed)
                    listed.append(q)
        return pos[rows[:, listed]], pos
    key = np.dtype((np.void, rows.dtype.itemsize * base.size))  # a key's bytes
    cur = base.astype(rows.dtype)[None]
    index = {cur.view(key).item(): 0}
    right, n = [], 1  # n: the keys found
    while len(cur):
        prods = np.ascontiguousarray(rows[:, cur].transpose(1, 0, 2).reshape(-1, base.size))
        new = []
        for q, k in enumerate(prods.view(key).ravel().tolist()):
            j = index.setdefault(k, n)
            if j == n:
                if n >= max_order:
                    raise GroupTooLarge(f"closure exceeded the order cap of {max_order}")
                new.append(q)
                n += 1
            right.append(j)
        cur = prods[new]
    return np.array(right, np.int32).reshape(-1, ngens).T.copy(), None


def orbit_labels(perms: np.ndarray) -> np.ndarray:
    """Each point's label: the least point of its orbit under the group that
    the rows of ``perms`` generate, in their dtype.  Each round hooks, then
    jumps (Shiloach and Vishkin, "An O(log n) parallel connectivity
    algorithm", 1982): for each row g, the labels of the labels at the ends
    of each pair p ↦ g(p) fall to the lesser of those two, then each label
    jumps to its label's label until none moves.  Hooking labels, not only
    points, carries a low label along a whole run of points in one round.
    Labels only fall and stay in their orbit; once a round changes nothing,
    both ends of each pair share one label, its own, the orbit's least."""
    label = np.arange(perms.shape[1], dtype=perms.dtype)
    while True:
        before = label.copy()
        for g in perms:
            low = np.minimum(label, label[g])
            np.minimum.at(label, label, low)
            np.minimum.at(label, label[g], low)
        while not np.array_equal(jumped := label[label], label):
            label = jumped
        if np.array_equal(label, before):
            return label


def _orbit_representatives(garr: np.ndarray) -> np.ndarray:
    """The least point of each orbit of ⟨garr⟩ that has more than one point,
    in increasing order, or the point 0, a base of the trivial group, when
    no point moves; with no rows nothing of the degree's size is made."""
    if not garr.shape[0]:
        return np.zeros(1, np.intp)
    points = np.arange(garr.shape[1])
    reps = ((garr != points).any(axis=0) & (orbit_labels(garr) == points)).nonzero()[0]
    return reps if reps.size else np.zeros(1, np.intp)


class Subgroup:
    """An element-index set inside a parent group, with a generator witness.

    ``members`` are kept sorted and read-only.  Generators that are given
    are kept as given.  Otherwise the subgroup chooses them when they are
    first read, by the one rule of ``irredundant``: it walks the members in
    increasing order and keeps each one not in the subgroup generated by
    those already kept.  The choice depends on the member set alone, so it
    yields the same tuple whenever it is made, and a subgroup whose
    generators are never read never makes it.
    """

    def __init__(self, parent: FiniteGroup, members: np.ndarray | Sequence[int],
                 generators: Iterable[int] | None = None):
        mem = distinct(np.asarray(members, np.int32), parent.order)
        mem.setflags(write=False)
        self.parent = parent
        self.members = mem
        if generators is not None:  # an instance entry shadows the cached property
            self.__dict__["generators"] = tuple(generators)

    @cached_property
    def generators(self) -> tuple[int, ...]:
        return irredundant(self.parent, self.members)[0]

    @property
    def order(self) -> int:
        return int(self.members.size)

    @cached_property
    def member_mask(self) -> np.ndarray:
        mask = np.zeros(self.parent.order, bool)
        mask[self.members] = True
        mask.setflags(write=False)
        return mask

    def is_abelian(self) -> bool:
        # the subgroup is abelian when its generators commute pairwise
        return bool(commuting(self.parent, self.generators, self.generators).all())

    def is_normal(self) -> bool:
        conj = conjugations(self.parent, self.parent.generators, self.members)
        return bool(self.member_mask[conj].all())

    def conjugate_by(self, g: int) -> "Subgroup":
        """g·H·g⁻¹, its members and generators each from two 1-d products:
        a row of ``conjugations(G, [g], xs)`` without its index matrices."""
        G = self.parent
        h = G.inverse_array[g]
        mem = G.products(G.products(g, self.members), h)
        gens = G.products(G.products(g, list(self.generators)), h)
        return Subgroup(G, mem, gens.tolist())

    def key(self) -> bytes:
        return self.members.tobytes()

    def __repr__(self) -> str:
        return f"<Subgroup order={self.order} of {self.parent!r}>"


def row_blocks(rows: int, row_len: int) -> Iterator[slice]:
    """Slices covering ``rows`` rows, each of about ROW_BLOCK_ENTRIES entries."""
    step = max(1, ROW_BLOCK_ENTRIES // max(row_len, 1))
    return (slice(s, s + step) for s in range(0, rows, step))


def distinct(idx: np.ndarray, n: int) -> np.ndarray:
    """The sorted distinct values of ``idx``, an index array of any shape
    whose values all lie in {0..n-1}, with ``idx``'s dtype: ``np.unique``'s
    result, read off a mask of n flags instead of a sort (and without the
    ``numpy.ma`` import that ``np.unique`` makes on its first call)."""
    seen = np.zeros(n, bool)
    seen[idx] = True
    # the method, not np.flatnonzero, whose Python wrapper costs more than
    # the search on the small masks this is mostly given
    return seen.nonzero()[0].astype(idx.dtype, copy=False)


def commutes_with(G: FiniteGroup, x: int, ys: np.ndarray) -> np.ndarray:
    """Boolean vector whose entry j says whether x and ys[j] commute: one
    row of ``commuting(G, [x], ys)`` from two 1-d products."""
    return G.products(x, ys) == G.products(ys, x)


def commuting(G: FiniteGroup, xs: Sequence[int] | np.ndarray,
              ys: Sequence[int] | np.ndarray) -> np.ndarray:
    """Boolean matrix whose entry (i, j) says whether xs[i] and ys[j]
    commute, that is whether x·y == y·x; filled a block of rows at a
    time."""
    xs, ys = np.asarray(xs, np.intp), np.asarray(ys, np.intp)
    out = np.empty((xs.size, ys.size), bool)
    for rows in row_blocks(xs.size, ys.size):
        x = xs[rows, None]
        np.equal(G.products(x, ys), G.products(ys, x), out=out[rows])
    return out


def conjugations(G: FiniteGroup, gs: Sequence[int] | np.ndarray,
                 xs: Sequence[int] | np.ndarray) -> np.ndarray:
    """Index matrix whose entry (i, j) is gs[i]·xs[j]·gs[i]⁻¹; filled a
    block of rows at a time."""
    inv = G.inverse_array
    gs, xs = np.asarray(gs, np.intp), np.asarray(xs, np.intp)
    out = np.empty((gs.size, xs.size), index_dtype(G.order))
    for rows in row_blocks(gs.size, xs.size):
        g = gs[rows, None]
        out[rows] = G.products(G.products(g, xs), inv[g])
    return out


def product_set(G: FiniteGroup, xs: Sequence[int] | np.ndarray,
                ys: Sequence[int] | np.ndarray) -> np.ndarray:
    """The product set xs·ys: the distinct products x·y, sorted."""
    return distinct(G.products(np.asarray(xs, np.intp)[:, None], ys), G.order)


def irredundant(G: FiniteGroup, xs: Iterable[int]) -> tuple[tuple[int, ...], np.ndarray]:
    """The one rule that picks every generating set: walk ``xs`` in order
    and keep each element not in the subgroup generated by those already
    kept.  Returns the kept elements and the sorted members of the subgroup
    they generate.

    Each kept x grows the subgroup H of those kept before it.  Right
    multiplication by those maps H into itself, so the new elements are
    reached from the coset H·x, a level at a time, by right multiplication
    by all the kept elements."""
    kept: list[int] = []
    covered = np.arange(G.order) == 0
    for x in xs:
        if not covered[x]:
            kept.append(int(x))
            frontier = product_set(G, covered.nonzero()[0], [x])
            while frontier.size:
                covered[frontier] = True
                prods = product_set(G, frontier, kept)
                frontier = prods[~covered[prods]]
    return tuple(kept), covered.nonzero()[0].astype(np.int32)


def generated_subgroup(G: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    """The subgroup generated by ``gens``.  By the one rule of ``irredundant``
    its generators are those of ``gens``, in the order given, that are not
    in the subgroup generated by the ones kept before them."""
    kept, members = irredundant(G, gens)
    return Subgroup(G, members, kept)


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, np.array([0], np.int32), ())


def full_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, np.arange(G.order, dtype=np.int32), tuple(G.generators))


def _prime_factors(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_divisors(n: int) -> list[int]:
    return sorted(_prime_factors(n))


def p_part(G: FiniteGroup, x: int, p: int) -> int:
    """The unique p-element power of x from the cyclic decomposition of ⟨x⟩.

    With o(x) = p^a·m and gcd(p, m) = 1, returns x^e for the exponent e with
    e ≡ 0 (mod m) and e ≡ 1 (mod p^a).  If p does not divide o(x) this is
    the identity.
    """
    if p < 2 or _prime_factors(p) != {p: 1}:
        raise PrimeNotDividing(f"{p} is not prime")
    o = G.element_order(x)
    a = 0
    while o % p == 0:
        o //= p
        a += 1
    if a == 0:
        return 0
    m = o
    pa = p**a
    e = m * pow(m, -1, pa) if m > 1 else 1
    return G.power(x, e)
