"""Commuting graph of a finite group.

Vertices are the noncentral elements; two vertices are adjacent when they
commute.  Adjacency is stored in CSR form: the neighbours of vertex i are
``indices[indptr[i]:indptr[i + 1]]``, vertex positions in increasing order,
with ``indices`` in ``perm.index_dtype(order)``.

The rows come from the conjugacy classes, not from comparing x·y with y·x
for every pair.  C(x^g) = C(x)^g, so the centralizers of the noncentral class
representatives, each conjugated by a transversal of its class, give every
row: row y is T(y)·C(r)·T(y)⁻¹ without the centre and y, where r is the
representative of y's class and T(y)·r·T(y)⁻¹ = y.  The rows hold fewer
than Σ|C(x)| = |G|·k(G) entries, k(G) the number of classes, where all
pairs are |G|².  Representatives and rows are taken a block at a time, so
no temporary grows with the graph.

Conjugation by any element is an automorphism of the graph, so all members
of a conjugacy class have the same eccentricity.  The diameter therefore
searches from one representative of each noncentral class, and the
twin-reduced graph from the cyclic subgroups of those representatives
(conjugation permutes cyclic subgroups and keeps commuting pairs).  The
sources are searched up to 64 at once, each a bit of one ``uint64`` word per
vertex ("The More the Merrier", Then et al., PVLDB 8(4), 2014): a level ORs
the frontier words of each vertex's neighbours, a block of rows at a time.
When a source misses a vertex, the components are counted by labelling
each vertex with the least vertex of its component: ``perm._least_labels``,
which also labels a group's orbits, hooks and jumps labels over the ends
of the edges, a block of rows at a time.

The JSON and DOT exports are streamed: ``json_chunks`` and ``dot_chunks``
yield the text a block of rows at a time, so a graph of millions of edges
is written without holding its edges as Python pairs or its whole text.
"""

from __future__ import annotations

import json
import math
from functools import cached_property
from typing import Iterator, NamedTuple

import numpy as np

from .perm import (FiniteGroup, _least_labels, conjugations, distinct, index_dtype, orbit_labels,
                   powers, row_blocks)
from .structure import conjugacy_classes


# adjacency entries built, searched or restricted at once: each takes a few
# 8-byte temporaries, and blocks of 1 << 16 raised the process's peak RSS
BLOCK_ENTRIES = 1 << 13
SOURCE_BITS = 64  # sources searched at once, one bit each of a uint64 word


class DiameterResult(NamedTuple):
    status: str  # "connected", "disconnected", or "empty-vertex-set"
    diameter: int | None
    components: int

    @property
    def connected(self) -> bool:
        return self.status == "connected"


def _chunks(ends: np.ndarray) -> list[tuple[int, int]]:
    """Runs s..e of consecutive items, given the running totals ``ends`` of
    their sizes, each of about BLOCK_ENTRIES (a run holds at least one item)."""
    if not ends.size:
        return []
    if ends[-1] <= BLOCK_ENTRIES:
        return [(0, ends.size)]
    cuts = ends.searchsorted(np.arange(BLOCK_ENTRIES, ends[-1], BLOCK_ENTRIES)) + 1
    bounds = list(dict.fromkeys([0, *cuts.tolist(), ends.size]))
    return list(zip(bounds, bounds[1:]))


def _segments(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges starts[i] .. starts[i] + lengths[i] - 1, concatenated."""
    ends = lengths.cumsum()
    return (starts - ends + lengths).repeat(lengths) + np.arange(ends[-1])


def _adjacency(G: FiniteGroup, classes: list[np.ndarray]
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vertices, ``indptr``, ``indices`` and class sources of the commuting
    graph, from the conjugacy classes as ``conjugacy_classes`` lists them.

    For a block of class representatives r at a time, one ``conjugations``
    call gives every g·r·g⁻¹: its values give a transversal of the classes
    and the g where it equals r give C(r).  The rows of the block's class
    members are then conjugated, stripped of the vertex itself and sorted,
    a block of entries at a time."""
    inv, order = G.inverse_array, G.order
    noncentral = [c for c in classes if c.size > 1]
    sizes = np.array([c.size for c in noncentral], np.intp)
    members = np.concatenate([np.zeros(0, np.int32), *noncentral])
    first = sizes.cumsum() - sizes  # each class's start in members
    reps = members[first]
    central = np.ones(order, bool)
    central[members] = False
    vertices = (~central).nonzero()[0].astype(np.int32)
    n = vertices.size
    position = np.zeros(order, index_dtype(order))
    position[vertices] = np.arange(n)
    # a row of class j holds C(x) without the centre, x itself included:
    # |G| / |class| - |Z| entries
    row_len = order // sizes - (order - n)
    class_of = np.zeros(order, np.intp)
    class_of[members] = np.arange(sizes.size).repeat(sizes)
    degree = row_len[class_of[vertices]] - 1
    indptr = np.zeros(n + 1, np.intp)
    degree.cumsum(out=indptr[1:])
    indices = np.empty(indptr[-1], position.dtype)
    everyone = np.arange(order)
    transversal = np.zeros(order, np.intp)
    for block in row_blocks(sizes.size, order):
        conj = conjugations(G, everyone, reps[block])
        transversal[conj] = everyone[:, None]
        # C(r) ∖ Z, the g with g·r·g⁻¹ = r, one representative after another
        cent = ((conj == reps[block]) & ~central[:, None]).T.nonzero()[1]
        cent_start = row_len[block].cumsum() - row_len[block]
        ys = members[first[block.start]:first[block.start] + sizes[block].sum()]
        span = row_len[class_of[ys]]
        for s, e in _chunks(span.cumsum()):
            y, length = ys[s:e], span[s:e]
            g = transversal[y].repeat(length)
            x = cent[_segments(cent_start[class_of[y] - block.start], length)]
            row = G.products(G.products(g, x), inv[g])
            # sort by row, then by position: one key per entry
            row_base = (np.arange(y.size) * n).repeat(length - 1)
            key = row_base + position[row[row != y.repeat(length)]]
            key.sort()
            at = position[y]
            indices[_segments(indptr[at], degree[at])] = key - row_base
    return vertices, indptr, indices, position[reps]


def _bfs_packed(graph: "CommutingGraph", sources: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Breadth-first search from up to 64 sources at once.

    Source k is bit k of a ``uint64`` word per vertex.  Each level ORs the
    frontier words of every row's neighbours, with ``reduceat`` over a
    block of rows at a time; rows without neighbours are left out, since
    ``reduceat`` reads an empty segment as its first entry.  Returns each
    source's eccentricity in its component, the last level at which its bit
    spreads, and the word of sources that reached each vertex."""
    m = len(sources)
    bits = np.left_shift(np.uint64(1), np.arange(m, dtype=np.uint64))
    frontier = np.zeros(graph.n_vertices, np.uint64)
    frontier[sources] = bits
    visited = frontier.copy()
    eccentricity = np.zeros(m, np.int64)
    reach = np.zeros_like(frontier)
    level = 0
    while True:
        for e0, e1, rows, starts in graph._row_blocks:
            reach[rows] = np.bitwise_or.reduceat(frontier[graph.indices[e0:e1]], starts)
        frontier = reach & ~visited
        spread = np.bitwise_or.reduce(frontier)
        if not spread:
            return eccentricity, visited
        level += 1
        eccentricity[(bits & spread) != 0] = level
        visited |= frontier


def _unit_generators(e: int) -> list[int]:
    """A few units modulo e that generate all of them: each unit k, in
    increasing order, that the subgroup of those kept before it misses.
    That subgroup H grows to ⟨H, k⟩, the cosets H·k^i until k^i is in H."""
    size = sum(1 for k in range(e) if math.gcd(k, e) == 1)  # Euler's phi
    reached, kept, k = {1 % e}, [], 1
    while len(reached) < size:
        k += 1
        if math.gcd(k, e) == 1 and k not in reached:
            kept.append(k)
            H, y = list(reached), k
            while y not in reached:
                reached.update(h * y % e for h in H)
                y = y * k % e
    return kept


def _least_generators(G: FiniteGroup, elements: np.ndarray) -> np.ndarray:
    """For each element v, the least generator of the cyclic subgroup <v>.

    The generators of <v> are the powers v^k with k prime to the order
    o(v).  Every unit modulo o(v) lifts to a unit modulo the exponent e of
    G, so they are the orbit of v under the power maps x ↦ x^k, k a unit
    modulo e.  These maps permute G, and the maps of a few units generate
    them (``_unit_generators``), each the powers of all elements at once,
    one ``powers`` call; ``orbit_labels`` of those maps labels each element
    with the least member of its orbit.  Two elements generate the same
    subgroup exactly when the results agree.
    """
    everyone = np.arange(G.order)
    maps = [powers(G, everyone, k) for k in _unit_generators(G.exponent)]
    return orbit_labels(np.array(maps, index_dtype(G.order)).reshape(-1, G.order))[elements]


class CommutingGraph:
    """Commuting graph on the noncentral elements of a group, in CSR form.

    ``classes`` are the group's conjugacy classes as ``conjugacy_classes``
    lists them; they are computed when not given.  ``sources`` are the
    vertex positions the diameter searches from, one in each orbit of
    conjugation: the least member of each noncentral class.  Graphs
    returned by ``twin_reduce`` also carry ``class_sizes``, the number of
    vertices merged into each reduced vertex.
    """

    def __init__(self, group: FiniteGroup, classes: list[np.ndarray] | None = None):
        if classes is None:
            classes = conjugacy_classes(group)
        self.group = group
        self.vertices, self.indptr, self.indices, self.sources = _adjacency(group, classes)

    @classmethod
    def _from_csr(cls, group: FiniteGroup, vertices: np.ndarray, indptr: np.ndarray,
                  indices: np.ndarray, sources: np.ndarray) -> "CommutingGraph":
        graph = cls.__new__(cls)
        graph.group, graph.vertices, graph.indptr, graph.indices, graph.sources = \
            group, vertices, indptr, indices, sources
        return graph

    @property
    def n_vertices(self) -> int:
        return self.vertices.size

    @cached_property
    def _row_blocks(self) -> list[tuple[int, int, np.ndarray, np.ndarray]]:
        """Blocks of consecutive rows of about BLOCK_ENTRIES entries, each
        as its entry range e0..e1, its rows with neighbours and their
        starts within the range."""
        indptr = self.indptr
        blocks = []
        for r0, r1 in _chunks(indptr[1:]):
            rows = r0 + (indptr[r0 + 1:r1 + 1] != indptr[r0:r1]).nonzero()[0]
            blocks.append((int(indptr[r0]), int(indptr[r1]), rows, indptr[rows] - indptr[r0]))
        return blocks

    def _rows_of_entries(self, rows: np.ndarray) -> np.ndarray:
        """The row of each entry of the block of ``_row_blocks`` whose rows
        with neighbours are ``rows``."""
        return rows.repeat(self.indptr[rows + 1] - self.indptr[rows])

    def diameter(self) -> DiameterResult:
        """Status, diameter and component count, from the class sources,
        searched up to 64 at a time.

        The graph is connected when every source reaches every vertex; only
        when one does not are the components counted, by ``_component_labels``."""
        n = self.n_vertices
        if n == 0:
            return DiameterResult("empty-vertex-set", None, 0)
        diam = 0
        for s in range(0, self.sources.size, SOURCE_BITS):
            batch = self.sources[s:s + SOURCE_BITS]
            eccentricity, visited = _bfs_packed(self, batch)
            if (visited != np.uint64((1 << batch.size) - 1)).any():
                labels = self._component_labels()
                components = int(np.count_nonzero(labels == np.arange(n)))
                return DiameterResult("disconnected", None, components)
            diam = max(diam, int(eccentricity.max()))
        return DiameterResult("connected", diam, 1)

    def _component_labels(self) -> np.ndarray:
        """Each vertex's label: the least vertex of its component, hooked and
        jumped by ``perm._least_labels`` over the edges of one of
        ``_row_blocks`` at a time, each entry joined to its row."""
        return _least_labels(np.arange(self.n_vertices), lambda: (
            (self._rows_of_entries(rows), self.indices[e0:e1])
            for e0, e1, rows, _ in self._row_blocks))

    # -- twin reduction ------------------------------------------------------

    def twin_reduce(self) -> "CommutingGraph":
        """Merge vertices generating the same cyclic subgroup.

        Such vertices have identical closed neighborhoods, so distances
        between distinct classes are preserved exactly.  Each class is kept
        as its first vertex, and the reduced graph searches from the classes
        of this graph's sources.  Its rows are the kept rows restricted to
        the kept columns, renumbered in the same order, so they stay sorted.
        """
        # the least generator of <v> generates <v>, so it is the class's
        # first vertex
        first = np.searchsorted(self.vertices, _least_generators(self.group, self.vertices))
        keep = distinct(first, self.n_vertices)
        reduced = np.searchsorted(keep, first)
        renumber = np.full(self.n_vertices, -1, np.intp)
        renumber[keep] = np.arange(keep.size)
        degree = np.zeros(self.n_vertices, np.intp)
        pieces = []
        for e0, e1, rows, starts in self._row_blocks:
            col = renumber[self.indices[e0:e1]]
            taken = (col >= 0) & (renumber[self._rows_of_entries(rows)] >= 0)
            pieces.append(col[taken].astype(self.indices.dtype))
            degree[rows] = np.add.reduceat(taken, starts, dtype=np.intp)
        indptr = np.zeros(keep.size + 1, np.intp)
        np.cumsum(degree[keep], out=indptr[1:])
        indices = np.concatenate(pieces) if pieces else self.indices[:0]
        graph = CommutingGraph._from_csr(self.group, self.vertices[keep], indptr, indices,
                                           distinct(reduced[self.sources], keep.size))
        graph.class_sizes = np.bincount(reduced).astype(np.int32)
        return graph

    def diameter_via_reduction(self) -> DiameterResult:
        """Diameter computed on the twin-reduced graph.

        The reduced graph of a nonabelian group has at least two vertices:
        were every noncentral element in one cyclic subgroup C, G would be
        Z(G) ∪ C, and no group is the union of two proper subgroups.  So a
        connected reduced graph has diameter at least 1, the distance
        between twins, and its diameter is the graph's.
        """
        if self.n_vertices == 0:
            return DiameterResult("empty-vertex-set", None, 0)
        return self.twin_reduce().diameter()

    # -- export ---------------------------------------------------------------

    def _edge_blocks(self) -> Iterator[tuple[list[int], list[int]]]:
        """The edges of each of ``_row_blocks`` as two lists of group
        elements, one entry per pair of vertex positions i < j, in
        row-major order of (i, j)."""
        v = self.vertices
        for e0, e1, rows, _ in self._row_blocks:
            i = self._rows_of_entries(rows)
            j = self.indices[e0:e1]
            upper = j > i
            yield v[i[upper]].tolist(), v[j[upper]].tolist()

    def edge_list(self) -> list[tuple[int, int]]:
        """Edges as pairs of group elements, one per pair of vertex positions
        i < j, in row-major order of (i, j)."""
        return [edge for a, b in self._edge_blocks() for edge in zip(a, b)]

    def dot_chunks(self) -> Iterator[str]:
        """The DOT text of the graph ``commuting``, a block of rows at a time."""
        yield "graph commuting {\n"
        yield "".join(f"  {v};\n" for v in self.vertices.tolist())
        for a, b in self._edge_blocks():
            yield "".join(f"  {x} -- {y};\n" for x, y in zip(a, b))
        yield "}\n"

    def json_chunks(self) -> Iterator[str]:
        """The JSON text, a block of rows at a time: the bytes of
        ``json.dumps`` of the object {group, order, vertices, edges}
        without spaces, then a newline."""
        vertices = ",".join(map(str, self.vertices.tolist()))
        yield (f'{{"group":{json.dumps(self.group.name)},"order":{self.group.order},'
               f'"vertices":[{vertices}],"edges":[')
        sep = ""
        for a, b in self._edge_blocks():
            if a:
                yield sep + ",".join(f"[{x},{y}]" for x, y in zip(a, b))
                sep = ","
        yield "]}\n"
