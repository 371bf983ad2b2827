"""Permutations and fully enumerated permutation groups.

Composition is left-to-right throughout: ``(p * q)(i) == q(p(i))``, i.e. the
left factor acts first.  Groups enumerate their elements breadth-first over
generator products starting at the identity, with the generator list order
fixed, so element indices are fully reproducible.  Each group is enumerated
once, and its multiplication table is built from the products x·g that the
enumeration computed.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    DegreeMismatch,
    GroupTooLarge,
    MalformedPermutation,
    PrimeNotDividing,
)

DEFAULT_MAX_ORDER = 20_000
ROW_BLOCK_ENTRIES = 1 << 16  # entries gathered at once when filling an n x n array


def _validate_images(images, degree: int | None = None) -> np.ndarray:
    arr = np.asarray(images, dtype=np.int64)
    if arr.ndim != 1 or arr.size == 0:
        raise MalformedPermutation("image array must be a nonempty 1-d sequence")
    n = int(arr.size)
    if degree is not None and n != degree:
        raise MalformedPermutation(f"expected degree {degree}, got {n}")
    if int(arr.min()) < 0 or int(arr.max()) >= n:
        raise MalformedPermutation("image values out of range")
    seen = np.zeros(n, dtype=bool)
    seen[arr] = True
    if not bool(seen.all()):
        raise MalformedPermutation("image array is not a bijection")
    return arr.astype(np.int32)


class Permutation:
    """A bijection on {0..degree-1}, stored as an image array."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int] | np.ndarray):
        arr = _validate_images(images)
        arr.setflags(write=False)
        self.images = arr

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(np.arange(degree))

    @property
    def degree(self) -> int:
        return int(self.images.size)

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def inverse(self) -> "Permutation":
        inv = np.empty_like(self.images)
        inv[self.images] = np.arange(self.degree, dtype=np.int32)
        return Permutation(inv)

    def is_identity(self) -> bool:
        return bool((self.images == np.arange(self.degree)).all())

    def __call__(self, point: int) -> int:
        return int(self.images[point])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.degree == other.degree and bool(
            (self.images == other.images).all()
        )

    def __hash__(self) -> int:
        return hash(self.images.tobytes())

    def __repr__(self) -> str:
        return f"Permutation({self.images.tolist()})"


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Product p·q under the left-to-right convention: i ↦ q(p(i))."""
    if p.degree != q.degree:
        raise DegreeMismatch(f"degree {p.degree} != {q.degree}")
    return Permutation(q.images[p.images])


class FiniteGroup:
    """A fully enumerated permutation group with index-based arithmetic.

    ``elements`` is an (order, degree) array whose rows are image arrays,
    listed breadth-first: row 0 is the identity and every other row is first
    reached as x·g for an earlier row x and a generator g.  ``generators``
    are element indices, and ``right[k, i]`` is the index of element i times
    generator k.  The dense multiplication table and the inverse array are
    built from these columns when the group is made.
    """

    def __init__(
        self,
        elements: np.ndarray,
        generators: Sequence[int],
        right: np.ndarray,
        *,
        name: str | None = None,
    ):
        elems = np.ascontiguousarray(elements, dtype=np.int32)
        if elems.ndim != 2:
            raise ValueError("elements must be a 2-d array of image rows")
        elems.setflags(write=False)
        self.elements = elems
        self.order, self.degree = elems.shape
        self.generators = [int(g) for g in generators]
        self.name = name
        self._orders: np.ndarray | None = None
        self._build_table(np.asarray(right, np.int32))

    # -- basic accessors ----------------------------------------------------

    def perm(self, i: int) -> Permutation:
        return Permutation(self.elements[i])

    @cached_property
    def _index(self) -> dict[bytes, int]:
        return {row.tobytes(): i for i, row in enumerate(self.elements)}

    def index_of(self, p: Permutation | np.ndarray) -> int:
        arr = p.images if isinstance(p, Permutation) else np.asarray(p, np.int32)
        key = np.ascontiguousarray(arr, dtype=np.int32).tobytes()
        try:
            return self._index[key]
        except KeyError:
            raise ValueError("permutation is not an element of this group") from None

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<FiniteGroup{label} order={self.order} degree={self.degree}>"

    # -- multiplication -----------------------------------------------------

    def mult(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def inverse_of(self, i: int) -> int:
        return int(self.inverse_array[i])

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
        columns: if element j is first reached as i·g_k, then column j of the
        table is ``right[k]`` applied to column i."""
        n = self.order
        ngens = right.shape[0]
        # first occurrence of each index in the enumeration's reading order
        reached, first = np.unique(right.T.ravel(), return_index=True)
        parent = np.full(n, n, np.int64)  # n: never reached
        parent[reached] = first // ngens
        gen = np.zeros(n, np.int64)
        gen[reached] = first % ngens
        if (parent[1:] >= np.arange(1, n)).any():
            raise ValueError("element list is not generated by the given generators")
        table = np.empty((n, n), np.int32)
        table[:, 0] = np.arange(n, dtype=np.int32)
        for j in range(1, n):
            table[:, j] = right[gen[j]][table[:, parent[j]]]
        self.table = table
        # each row is a permutation of the indices, so its least entry is
        # the identity, in the inverse's column
        self.inverse_array = table.argmin(axis=1).astype(np.int32)

    # -- element data ---------------------------------------------------------

    @property
    def element_orders(self) -> np.ndarray:
        if self._orders is None:
            n = self.order
            t = self.table
            orders = np.zeros(n, np.int64)
            orders[0] = 1
            idx = np.arange(n)
            cur = idx.copy()
            k = 1
            while (orders == 0).any():
                k += 1
                cur = t[cur, idx]
                orders[(cur == 0) & (orders == 0)] = k
            self._orders = orders
        return self._orders

    def element_order(self, i: int) -> int:
        return int(self.element_orders[i])


def closure(
    degree: int,
    gens: Iterable[Permutation | Sequence[int]],
    *,
    max_order: int = DEFAULT_MAX_ORDER,
    name: str | None = None,
) -> FiniteGroup:
    """Enumerate the group generated by ``gens`` on {0..degree-1}.

    Elements are listed breadth-first over right-multiplication by the
    generators, starting at the identity, so the listing is deterministic
    for a fixed generator order.  The index of every product x·g met on the
    way is kept, and the group's table is built from these columns.  Raises
    GroupTooLarge past ``max_order``.
    """
    if degree < 1:
        raise MalformedPermutation("degree must be positive")
    gen_arrays = []
    for g in gens:
        arr = g.images if isinstance(g, Permutation) else _validate_images(g)
        if arr.size != degree:
            raise MalformedPermutation(
                f"generator degree {arr.size} does not match {degree}"
            )
        gen_arrays.append(np.asarray(arr, np.int32))
    # elements are rows of a buffer that doubles when full, filed under the
    # hash of their images, so no per-element object outlives the enumeration
    rows = np.empty((16, degree), np.int32)
    rows[0] = np.arange(degree)
    index: dict[int, list[int]] = {hash(rows[0].tobytes()): [0]}
    right: list[list[int]] = [[] for _ in gen_arrays]
    n, head = 1, 0
    while head < n:
        cur = rows[head]
        head += 1
        for garr, col in zip(gen_arrays, right):
            prod = garr[cur]
            data = prod.tobytes()
            bucket = index.setdefault(hash(data), [])
            for j in bucket:
                if rows[j].tobytes() == data:
                    break
            else:
                if n >= max_order:
                    raise GroupTooLarge(
                        f"closure exceeded the order cap of {max_order}"
                    )
                if n == len(rows):
                    rows = np.concatenate([rows, np.empty_like(rows)])
                rows[n] = prod
                bucket.append(n)
                j = n
                n += 1
            col.append(j)
    elements = rows[:n].copy()
    del rows, cur  # the buffer goes before the table is built
    gen_indices = [col[0] for col in right]  # g is first met as identity·g
    right_cols = np.array(right, np.int32).reshape(len(gen_arrays), n)
    return FiniteGroup(elements, gen_indices, right_cols, name=name)


class Subgroup:
    """An element-index set inside a parent group, with a generator witness.

    ``members`` are kept sorted and read-only.  Generators that are given
    are kept as given.  Otherwise the subgroup chooses them when they are
    first read: it walks the members in increasing order and keeps each one
    not yet in the closure of those kept.  The choice depends on the member
    set alone, so it yields the same tuple whenever it is made, and a
    subgroup whose generators are never read never makes it.
    """

    def __init__(self, parent: FiniteGroup, members: np.ndarray | Sequence[int],
                 generators: Iterable[int] | None = None):
        mem = np.unique(np.asarray(members, np.int32))
        mem.setflags(write=False)
        self.parent = parent
        self.members = mem
        if generators is not None:  # an instance entry shadows the cached property
            self.__dict__["generators"] = tuple(generators)

    @cached_property
    def generators(self) -> tuple[int, ...]:
        gens: list[int] = []
        covered = np.zeros(self.parent.order, bool)
        covered[0] = True
        for x in self.members:
            if not covered[x]:
                gens.append(int(x))
                covered[close_indices(self.parent, gens)] = True
        return tuple(gens)

    @property
    def order(self) -> int:
        return int(self.members.size)

    @cached_property
    def member_mask(self) -> np.ndarray:
        mask = np.zeros(self.parent.order, bool)
        mask[self.members] = True
        mask.setflags(write=False)
        return mask

    def contains(self, i: int) -> bool:
        return bool(self.member_mask[i])

    def is_trivial(self) -> bool:
        return self.order == 1

    def is_full(self) -> bool:
        return self.order == self.parent.order

    def is_abelian(self) -> bool:
        # the subgroup is abelian when its generators commute pairwise
        t = self.parent.table
        gens = np.array(self.generators, np.int64)
        sub = t[np.ix_(gens, gens)]
        return bool((sub == sub.T).all())

    def is_normal(self) -> bool:
        t = self.parent.table
        inv = self.parent.inverse_array
        for g in self.parent.generators:
            conj = t[t[g, self.members], inv[g]]
            if not self.member_mask[conj].all():
                return False
        return True

    def conjugate_by(self, g: int) -> "Subgroup":
        t = self.parent.table
        inv = self.parent.inverse_array
        mem = t[t[g, self.members], inv[g]]
        gens = tuple(int(t[t[g, x], inv[g]]) for x in self.generators)
        return Subgroup(self.parent, mem, gens)

    def same_members(self, other: "Subgroup") -> bool:
        return self.order == other.order and bool(
            (self.members == other.members).all()
        )

    def key(self) -> bytes:
        return self.members.tobytes()

    def __repr__(self) -> str:
        return f"<Subgroup order={self.order} of {self.parent!r}>"


def row_blocks(rows: int, row_len: int) -> Iterator[slice]:
    """Slices covering ``rows`` rows, each of about ROW_BLOCK_ENTRIES entries."""
    step = max(1, ROW_BLOCK_ENTRIES // max(row_len, 1))
    return (slice(s, s + step) for s in range(0, rows, step))


def close_indices(G: FiniteGroup, gens: Iterable[int]) -> np.ndarray:
    """Sorted element indices of the subgroup generated by ``gens``."""
    t = G.table
    gen_list = sorted({int(g) for g in gens} - {0})
    in_set = np.zeros(G.order, bool)
    in_set[0] = True
    if not gen_list:
        return np.array([0], np.int32)
    frontier = np.array([0], np.int32)
    garr = np.array(gen_list, np.int32)
    while frontier.size:
        prods = np.unique(t[np.ix_(frontier, garr)])
        new = prods[~in_set[prods]]
        in_set[new] = True
        frontier = new
    return np.nonzero(in_set)[0].astype(np.int32)


def generated_subgroup(G: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    gen_tuple = tuple(int(g) for g in gens)
    return Subgroup(G, close_indices(G, gen_tuple), gen_tuple)


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
