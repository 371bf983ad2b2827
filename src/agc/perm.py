"""Permutation groups enumerated from their generators' image arrays.

A permutation of {0..degree-1} is its image array.  Products are
left-to-right throughout: p·q is ``q[p]``, i.e. the left factor acts
first.  Closures and products are listed: they enumerate their elements
breadth-first over generator products starting at the identity, with the
generator list order fixed, so element indices are fully reproducible.
Each is enumerated once.  Elements are multiplied through one primitive,
``FiniteGroup.products``, and inverted through ``inverse_array``; no other
module reads a table.  ``commuting`` and ``conjugations`` give each its
entry formula to one block loop, ``_blocked``, which makes the matrix at
once or, once it outgrows one block, a block of rows at a time.  Elements
are raised to a power through one routine, ``powers``, square-and-multiply
over index arrays, which ``p_part`` and the twin reduction's power maps
call.  A listed group answers products from its multiplication table,
built from the products x·g that the enumeration computed.  A quotient, a
``QuotientGroup``, is not listed: its elements are numbered by their
cosets' least members in increasing order, and it keeps no table, listing
or tree but answers products through the group it is a quotient of.

One routine, ``_enumerate``, lists every closure and product, so no other
module knows the listing order.  It tells elements apart by their images
of a base, a point tuple S with trivial pointwise stabilizer: any point of
a regular action (a product's), or for ``closure`` one started from the
least moved point, or from every orbit's least point (``orbit_labels``)
when that point's orbit misses a moved point, and certified by Schreier's
lemma.  ``_enumerate`` returns the right columns and the breadth-first
tree it walked, and ``closure`` checks the base on the two before it
makes a group, so a group is made once, from a certified listing, and the
tree is derived once.  A listed group keeps no image row of its elements:
only its generators' rows, the search tree and the table; a quotient
keeps one coset representative per element and the projection.  Elements
are listed in first-reached order, so each tree level is a contiguous
index range.

The tree is walked two ways, both in this module and both a level at a
time, so no other module reads it.  ``_walk``, a function of the tree,
maps row parent(j) through the permutation of gen(j): ``_moved_point`` and
``images`` walk the generators' rows, and the left multiples g·x walk the
right-multiplication columns.  ``compose_rows`` reads row parent(i) at the
permutation of gen(i): it fills the table from the left multiples, and
``products.extend_action`` extends an action from the actor's generators
with it.

One labelling routine, ``_least_labels``, labels each item with the least
item of its component, hooking and jumping labels over pairs of index
arrays: ``orbit_labels`` pairs each point with its generator images, for
the closure's base, the conjugacy classes and a quotient's cosets, and the
commuting graph pairs the ends of its edges to count its components.

A ``Subgroup`` keeps sorted, distinct members.  ``Subgroup(G, members)``
makes them so with ``distinct``; agc's own callers, whose members are
sorted and distinct by construction, keep them through
``Subgroup._sorted`` without that mask and scan.

The table is most of what a group holds, so its entries, element indices,
take the narrowest dtype that holds them: ``index_dtype`` chooses it, int16
for every order up to 32 767, which covers the default order cap, and
int32 above.  Products have that dtype in every group.  Arithmetic on them
must widen them first, since int16 values times a Python int stay int16
and wrap.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

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


# a listing's breadth-first tree: the intp arrays of each element's parent
# and generator (those of the identity are 0 and never read) and the index
# ranges of the levels after the identity's
Tree = tuple[np.ndarray, np.ndarray, list[tuple[int, int]]]


class FiniteGroup:
    """A listed permutation group, a closure or a product, with index-based
    arithmetic.

    Elements are listed breadth-first: element 0 is the identity and every
    other element j is first reached as parent(j)·gen(j), for an earlier
    element parent(j) and a generator gen(j).  Row h of ``generator_rows``
    holds the images of generator h, and ``right[h, i]`` is the index of
    element i times generator h, so ``generators[h]`` is ``right[h, 0]``.
    The tree is the one ``_enumerate`` walked to list these columns; the
    constructor, the only way a listed group is made, keeps it and builds
    the dense multiplication table and the inverse array from the columns
    and the tree.  No element's image row is kept, and ``images`` reads any
    of them off the tree.  ``products`` is one gather of the table.  The
    table and the inverse array have dtype ``index_dtype(order)``: int16 up
    to order 32 767, so the order x order table, the largest array a group
    holds, takes two bytes an entry.  A ``QuotientGroup`` is not listed and
    keeps neither a tree nor a table, so ``images`` and ``compose_rows`` are
    for listed groups only.
    """

    def __init__(self, generator_rows: np.ndarray, right: np.ndarray, tree: Tree, *,
                 name: str | None = None):
        rows = np.asarray(generator_rows, np.int32)
        rows.setflags(write=False)
        self.generator_rows = rows
        self.degree = rows.shape[1]
        self.order = right.shape[1]
        self.generators = right[:, 0].tolist()
        self.name = name
        self._tree = tree
        self._build_table(right)

    # -- basic accessors ----------------------------------------------------

    def images(self, points: Sequence[int]) -> np.ndarray:
        """Row i holds the images of ``points`` under element i: its parent's
        row mapped through its generator's row, a level at a time."""
        return _walk(self._tree, self.generator_rows, np.asarray(points, np.int32))

    def compose_rows(self, perms: np.ndarray) -> np.ndarray:
        """Rows indexed like the elements, each as wide as a row of
        ``perms``: row 0 is the identity 0..w-1, and row i is row parent(i)
        read at ``perms[gen(i)]``.  That extends the maps ``perms`` of the
        generators along the tree to every element, the map of x·g being
        that of x read at that of g: the table's rows from the left
        multiples, an action from the images of the actor's generators.

        Parents lie in the level before their children, so filling a level
        at a time reads only what is filled.  A level whose rows fit one
        block of ROW_BLOCK_ENTRIES entries is one gather from the flat rows
        before it, at perms[gen(i)] + parent(i)·w, the offsets added in
        place; a wider one, whose flat indices would outgrow the block, is
        one contiguous gather of an earlier row per row.  ``perms`` holds
        indices below w, and so do the rows, in ``index_dtype(w)``, and the
        tree holds element indices only, so the gathers ``take`` in "clip"
        mode, straight into the rows, not through a checking buffer."""
        perms = np.ascontiguousarray(perms, np.intp)
        w = perms.shape[1]
        dtype = index_dtype(w)
        out = np.empty((self.order, w), dtype)
        out[0] = np.arange(w, dtype=dtype)
        flat, narrow = out.reshape(-1), ROW_BLOCK_ENTRIES // w
        parent, gen, levels = self._tree
        parents, gens, perm_rows = parent.tolist(), gen.tolist(), list(perms)
        for s, e in levels:
            if e - s <= narrow:
                index = perms[gen[s:e]]
                index += parent[s:e, None] * w
                # the flat rows before s, which out[s:e] does not overlap
                flat[:s * w].take(index, out=out[s:e], mode="clip")
            else:
                for i in range(s, e):
                    out[parents[i]].take(perm_rows[gens[i]], out=out[i], mode="clip")
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

    def _build_table(self, right: np.ndarray) -> None:
        """Fill ``table`` and ``inverse_array`` from the right-multiplication
        columns and the tree.

        With left_g[j] the index of g·e_j (left_g[0] is g itself)

            left_g[j] = right_gen(j)[left_g[parent(j)]],
            as g·e_j = (g·e_parent(j))·gen(j), and
            table[i] = table[parent(i)][left_gen(i)],
            as e_i·e_j = e_parent(i)·(gen(i)·e_j),

        so ``left`` is the walk of ``right`` from its column 0, and the
        table is the composition of the rows of ``left`` (``compose_rows``).
        As e_i⁻¹ = gen(i)⁻¹·e_parent(i)⁻¹, the inverse array is the walk from
        the identity of the table rows of the generators' inverses."""
        tree = self._tree
        self.table = table = self.compose_rows(_walk(tree, right, right[:, 0]).T)
        # a generator's inverse is the column of the identity in its row
        inverses = table[self.generators].argmin(axis=1)
        self.inverse_array = _walk(tree, table[inverses], np.zeros(1, table.dtype))[:, 0]

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

    @cached_property
    def exponent(self) -> int:
        """The least common multiple of the element orders."""
        return math.lcm(*set(self.element_orders.tolist()))


class QuotientGroup(FiniteGroup):
    """G/N for a normal subgroup N of ``parent_group`` G, numbered by its
    cosets and keeping no table, listing or tree.

    Element q is the coset of G's element ``rep[q]``, its least member, and
    the least members increase with q; ``proj[x]`` is the element that is
    x's coset.  So x·y is ``proj`` of the product of the representatives in
    G, x⁻¹ is ``proj`` of a representative's inverse, and the generators
    are the cosets of G's.  A quotient of a quotient asks its parent, which
    asks its own.  ``proj`` and the products have dtype
    ``index_dtype(order)``.  The degree is the number of cosets, and a
    quotient has no name.
    """

    def __init__(self, parent_group: FiniteGroup, rep: np.ndarray, proj: np.ndarray):
        self.parent_group, self.rep, self.proj = parent_group, rep, proj
        self.order = self.degree = rep.size
        self.generators = proj[parent_group.generators].tolist()
        self.name = None
        self.inverse_array = proj[parent_group.inverse_array[rep]]

    def products(self, xs, ys) -> np.ndarray:
        return self.proj[self.parent_group.products(self.rep[xs], self.rep[ys])]


def _walk(tree: Tree, perms: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Rows indexed like the elements of the listing whose tree is ``tree``:
    row 0 is ``start``, and row j is ``perms[gen(j)]`` applied to row
    parent(j).  Parents lie in the level before their children, so each
    level is one gather through the flat indices gen·width + value.  The
    values index ``perms``' rows, so the gathers ``take`` in "clip" mode,
    straight into the rows."""
    parent, gen, levels = tree
    out = np.empty((parent.size, start.size), perms.dtype)
    out[0] = start
    flat, offset = perms.ravel(), gen[:, None] * perms.shape[1]
    for s, e in levels:
        index = offset[s:e] + out.take(parent[s:e], 0)
        flat.take(index, out=out[s:e], mode="clip")
    return out


def _moved_point(rows: np.ndarray, base: list[int], right: np.ndarray,
                 tree: Tree) -> int | None:
    """The first point, by generator, then element, of some g(S) that a
    Schreier generator s = e_i·h·e_j⁻¹ of the listing keyed by S, ``base``,
    with right columns ``right`` and tree ``tree``, moves, or None when S is
    a base (see ``closure``).  s moves y exactly when h(e_i(y)) differs from
    e_j(y): one gather over the images of S ∪ g(S) under the generators
    ``rows``, walked along the tree, g(S) ∖ S off a mask."""
    rest = np.bincount(rows[:, base].ravel(), minlength=max(base) + 1) > 0
    rest[base] = False
    points = np.concatenate([base, rest.nonzero()[0]])
    images = _walk(tree, rows, points)
    moved = np.nonzero(rows[:, images] != images[right])[2]
    return int(points[moved[0]]) if moved.size else None


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

    S starts as the least moved point, or as the point 0 if no point moves.
    That listing has one element per point of the point's orbit, and a
    moved point's orbit holds only moved points, since a point that every
    generator fixes is an orbit of its own; so the orbit misses a moved
    point exactly when the listing is shorter than the moved set.  Only
    then does S restart as the least point of each orbit of ⟨gens⟩ that
    has more than one point (``orbit_labels``).  Let e_i be
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
    time, so there are at most log2 |G| restarts.  ``_moved_point`` finds
    that point before any group is made, so the one ``FiniteGroup`` made,
    with its table, is that of the certified listing.

    Raises GroupTooLarge once more than ``max_order`` keys are found, so a
    cap below 1 admits only the trivial group.  The degree must lie between
    1 and the largest ``np.intp``.  Each generator in turn is checked by
    ``_validate_images`` to be a bijection of {0..degree-1}, so the first
    bad one raises; with no generators nothing of size ``degree`` is made.
    """
    if not 1 <= degree <= np.iinfo(np.intp).max:
        raise MalformedPermutation("degree must be positive and fit an array index")
    rows = [_validate_images(g, degree) for g in gens]
    garr = np.array(rows, np.int32).reshape(-1, degree)
    # with no rows nothing of the degree's size is made
    moved = (garr != np.arange(degree)).any(axis=0) if len(garr) else np.zeros(1, bool)
    base = [int(moved.argmax())]  # the least moved point, or 0 when none moves
    right, tree = _enumerate(garr, base, max_order)
    if moved.sum() > right.shape[1]:  # its orbit misses a moved point
        base = (moved & (orbit_labels(garr) == np.arange(degree))).nonzero()[0].tolist()
        right, tree = _enumerate(garr, base, max_order)
    while (point := _moved_point(garr, base, right, tree)) is not None:
        base.append(point)
        right, tree = _enumerate(garr, base, max_order)
    return FiniteGroup(garr, right, tree, name=name)


def _enumerate(rows: np.ndarray, base: Sequence[int], max_order: int
               ) -> tuple[np.ndarray, Tree]:
    """The one listing of group elements: breadth-first from the identity
    over right multiplication by the permutations ``rows``, each element
    known by its key, its images of the points ``base`` (the key of x·g is
    g applied to x's), and listed where its key is first reached, x-major,
    then by generator.  One base point's keys are numbered by a dense array
    over the points, longer keys by a dict of their bytes, and either way
    each element's parent and generator are recorded as it is listed.
    Returns the right columns, ``right[h, i]`` the index of element i times
    generator h, and the tree the search walked.  Keys name elements one to
    one when the base is a base, as any point is of a regular action;
    ``closure`` certifies the rest.  Raises GroupTooLarge once more than
    ``max_order`` keys are found."""
    base = np.asarray(base, np.int32)
    ngens = rows.shape[0]
    parent, gen, levels = [0], [0], []
    if base.size == 1:
        # memoryviews read Python ints and copy nothing of the degree, and
        # with no rows nothing of the degree's size is made; each is paired
        # with its generator's index once, not once per element
        images, listed = list(enumerate(memoryview(row) for row in rows)), base.tolist()
        pos = np.full(rows.shape[1] if ngens else listed[0] + 1, -1, np.int32)
        at = memoryview(pos)
        at[listed[0]] = 0
        end = 1  # the end of the level being read
        for i, p in enumerate(listed):  # grows while it is read
            if i == end:  # the level before is read, so the one after is listed
                levels.append((end, len(listed)))
                end = len(listed)
            for h, row in images:
                q = row[p]
                if at[q] < 0:
                    if len(listed) >= max_order:
                        raise GroupTooLarge(f"closure exceeded the order cap of {max_order}")
                    at[q] = len(listed)
                    listed.append(q)
                    parent.append(i)
                    gen.append(h)
        right = pos[rows[:, listed]]
    else:
        key = np.dtype((np.void, rows.dtype.itemsize * base.size))  # a key's bytes
        cur = base.astype(rows.dtype)[None]
        index = {cur.view(key).item(): 0}
        right, n = [], 1  # n: the keys found
        while len(cur):
            prods = np.ascontiguousarray(rows[:, cur].transpose(1, 0, 2).reshape(-1, base.size))
            new, first = [], n - len(cur)  # first: the index of cur's first element
            for q, k in enumerate(prods.view(key).ravel().tolist()):
                j = index.setdefault(k, n)
                if j == n:
                    if n >= max_order:
                        raise GroupTooLarge(f"closure exceeded the order cap of {max_order}")
                    new.append(q)
                    parent.append(first + q // ngens)
                    gen.append(q % ngens)
                    n += 1
                right.append(j)
            if new:
                levels.append((n - len(new), n))
            cur = prods[new]
        right = np.array(right, np.int32).reshape(-1, ngens).T.copy()
    return right, (np.array(parent, np.intp), np.array(gen, np.intp), levels)


def orbit_labels(perms: np.ndarray) -> np.ndarray:
    """Each point's label: the least point of its orbit under the group that
    the rows of ``perms`` generate, in their dtype.  The orbits are the
    components of the pairs p, g(p) for each row g (``_least_labels``)."""
    label = np.arange(perms.shape[1], dtype=perms.dtype)
    # the slice indexes every point p, paired with g(p)
    return _least_labels(label, lambda: ((slice(None), g) for g in perms))


def _least_labels(label: np.ndarray,
                 pairs: Callable[[], Iterable[tuple[np.ndarray, np.ndarray]]]) -> np.ndarray:
    """Each item's label: the least item of its component, where ``pairs()``
    yields indices a, b of the items, arrays or a slice, that join each
    a[k] to b[k], and ``label`` starts as every item's own index and is
    overwritten.  Each round hooks, then jumps (Shiloach and Vishkin, "An
    O(log n) parallel connectivity algorithm", 1982): for each a, b in
    turn, the labels of the labels at both ends of each pair fall to the
    lesser of those two, then each label jumps to its label's label until
    none moves.  Hooking labels, not only items, carries a low label along
    a whole run of items in one round.  ``pairs`` is called once for the
    hooks and once for the check of a round, so its arrays can be made a
    block at a time.

    The rounds stop once, after the jumps, both ends of every pair share a
    label: one gather and one comparison per pair of arrays, not a further
    round that moves nothing.  That is sound: labels only fall and stay in
    their component, so the least item m of a component keeps the label m,
    and a label shared along every pair is constant on the component, so it
    is m throughout."""
    while True:
        for a, b in pairs():
            low = np.minimum(label[a], label[b])
            np.minimum.at(label, label[a], low)
            np.minimum.at(label, label[b], low)
        while ((jumped := label[label]) != label).any():
            label = jumped
        if all((label[a] == label[b]).all() for a, b in pairs()):
            return label


class Subgroup:
    """An element-index set inside a parent group, with a generator witness.

    ``members`` are kept sorted, distinct, int32 and read-only: the
    constructor makes them so with ``distinct``, and ``_sorted`` keeps
    members that agc's own code made so already.  Generators that are given
    are kept as given.  Otherwise the subgroup chooses them when they are
    first read, by the one rule of ``irredundant``: it walks the members in
    increasing order and keeps each one not in the subgroup generated by
    those already kept.  The choice depends on the member set alone, so it
    yields the same tuple whenever it is made, and a subgroup whose
    generators are never read never makes it.
    """

    def __init__(self, parent: FiniteGroup, members: np.ndarray | Sequence[int],
                 generators: Iterable[int] | None = None):
        self._keep(parent, distinct(np.asarray(members, np.int32), parent.order), generators)

    @classmethod
    def _sorted(cls, parent: FiniteGroup, members: np.ndarray,
                generators: Iterable[int] | None = None) -> Subgroup:
        """The subgroup whose members are the index array ``members``,
        which the caller, agc's own code, has made sorted and distinct:
        kept as it is, or as an int32 copy, without ``distinct``'s mask
        and scan.  The array becomes read-only."""
        S = cls.__new__(cls)
        S._keep(parent, members if members.dtype == np.int32 else members.astype(np.int32),
                generators)
        return S

    def _keep(self, parent: FiniteGroup, members: np.ndarray,
              generators: Iterable[int] | None) -> None:
        members.setflags(write=False)
        self.parent = parent
        self.members = members
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
        a row of ``conjugations(G, [g], xs)`` without its index matrices.
        Conjugation is a bijection, so the members only need sorting."""
        G = self.parent
        h = G.inverse_array[g]
        mem = G.products(G.products(g, self.members), h)
        mem.sort()
        gens = G.products(G.products(g, list(self.generators)), h)
        return Subgroup._sorted(G, mem, gens.tolist())

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
    commute, that is whether x·y == y·x (``_blocked``)."""
    return _blocked(xs, ys, lambda x, y: G.products(x, y) == G.products(y, x), bool)


def conjugations(G: FiniteGroup, gs: Sequence[int] | np.ndarray,
                 xs: Sequence[int] | np.ndarray) -> np.ndarray:
    """Index matrix whose entry (i, j) is gs[i]·xs[j]·gs[i]⁻¹ (``_blocked``)."""
    inv = G.inverse_array
    return _blocked(gs, xs, lambda g, x: G.products(G.products(g, x), inv[g]),
                    index_dtype(G.order))


def _blocked(xs: Sequence[int] | np.ndarray, ys: Sequence[int] | np.ndarray,
             entries: Callable[[np.ndarray, np.ndarray], np.ndarray],
             dtype: type) -> np.ndarray:
    """The matrix of ``entries(x, ys)`` for the column x of rows of the
    index array ``xs`` against the index array ``ys``: made at once when it
    fits one block of ROW_BLOCK_ENTRIES entries, else filled, in ``dtype``,
    a block of rows at a time."""
    xs, ys = np.asarray(xs, np.intp), np.asarray(ys, np.intp)
    if xs.size * ys.size <= ROW_BLOCK_ENTRIES:
        return entries(xs[:, None], ys)
    out = np.empty((xs.size, ys.size), dtype)
    for rows in row_blocks(xs.size, ys.size):
        out[rows] = entries(xs[rows, None], ys)
    return out


def product_set(G: FiniteGroup, xs: Sequence[int] | np.ndarray,
                ys: Sequence[int] | np.ndarray) -> np.ndarray:
    """The product set xs·ys of an index array ``xs`` and index values
    ``ys``: the distinct products x·y, sorted."""
    return distinct(G.products(xs[:, None], ys), G.order)


def irredundant(G: FiniteGroup, xs: Iterable[int]) -> tuple[tuple[int, ...], np.ndarray]:
    """The one rule that picks every generating set: walk ``xs`` in order
    and keep each element not in the subgroup generated by those already
    kept.  Returns the kept elements and the sorted members of the subgroup
    they generate.

    Each kept x grows the subgroup H of those kept before it to ⟨H, x⟩, a
    union of right cosets H·r (Dimino, "An algorithm for the enumeration
    of the elements of a group", 1971): starting from H itself, each coset
    representative r times each kept element that lies outside the union
    found so far adds its whole coset, one gather of H's members.  The
    union is then closed under right multiplication by every kept
    element, so it is ⟨H, x⟩."""
    kept: list[int] = []
    covered = np.zeros(G.order, bool)
    covered[0] = True
    for x in xs:
        if not covered[x]:
            kept.append(int(x))
            H, reps = covered.nonzero()[0], [0]
            for r in reps:  # grows while it is read
                for y in G.products(r, kept).tolist():
                    if not covered[y]:
                        covered[G.products(H, y)] = True
                        reps.append(y)
    return tuple(kept), covered.nonzero()[0].astype(np.int32)


def generated_subgroup(G: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    """The subgroup generated by ``gens``.  By the one rule of ``irredundant``
    its generators are those of ``gens``, in the order given, that are not
    in the subgroup generated by the ones kept before them."""
    kept, members = irredundant(G, gens)
    return Subgroup._sorted(G, members, kept)


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup._sorted(G, np.zeros(1, np.int32), ())


def full_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup._sorted(G, np.arange(G.order, dtype=np.int32), G.generators)


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


def powers(G: FiniteGroup, xs, e: int) -> np.ndarray:
    """x^e for the element or index array ``xs`` and an int e >= 0, in the
    products' dtype, the one way agc raises elements to a power: x^0 is the
    identity, and otherwise square-and-multiply through ``G.products``
    alone, from x·1 over the bits of e after the highest."""
    if not e:
        return np.zeros(np.shape(xs), index_dtype(G.order))
    result = G.products(xs, 0)
    for bit in bin(e)[3:]:
        result = G.products(result, result)
        if bit == "1":
            result = G.products(result, xs)
    return result


def p_part(G: FiniteGroup, xs, p: int) -> np.ndarray:
    """The p-part of each x of the element or index array ``xs``: the unique
    p-element power of x from the cyclic decomposition of ⟨x⟩.

    With the exponent of G written p^a·m, gcd(p, m) = 1, it is x^e for the
    e ≡ 0 (mod m), ≡ 1 (mod p^a).  o(x) divides the exponent, so that holds
    modulo o(x)'s parts too, and one ``powers`` call raises every x.  If p
    does not divide o(x) this is the identity."""
    if p < 2 or _prime_factors(p) != {p: 1}:
        raise PrimeNotDividing(f"{p} is not prime")
    exponent = G.exponent
    pa = math.gcd(exponent, p ** exponent.bit_length())  # the p-part of the exponent
    m = exponent // pa
    return powers(G, xs, m * pow(m, -1, pa))
