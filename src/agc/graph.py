"""Commuting graph of a finite group.

Vertices are the noncentral elements; two vertices are adjacent when they
commute, that is when ``t[x, y] == t[y, x]`` in the Cayley table ``t``.
Adjacency is stored packed (one bit per pair) and distances come from
breadth-first search over packed rows.  The rows are built from the table a
stripe of TILE_WIDTH rows at a time: each TILE_WIDTH-square tile of the
stripe is compared with the transposed tile across the diagonal, so both
operands stay in cache, and the stripe's vertex rows are packed at once.  No
n x n boolean matrix is ever held.  ``_commuting_rows`` is thus the tiled
n x n form of ``perm.commuting``, kept separate because it is tuned for
whole graphs.

Conjugation by any element is an automorphism of the graph, so all members
of a conjugacy class have the same eccentricity.  The diameter therefore
searches from one representative of each noncentral class, and the
twin-reduced graph from the cyclic subgroups of those representatives
(conjugation permutes cyclic subgroups and keeps commuting pairs).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .perm import FiniteGroup, distinct
from .structure import center, conjugacy_classes


TILE_WIDTH = 128  # a 128 x 128 int16 tile is 32 KiB: both operands stay in L2


@dataclass(frozen=True)
class DiameterResult:
    status: str  # "connected", "disconnected", or "empty-vertex-set"
    diameter: int | None
    components: int

    @property
    def connected(self) -> bool:
        return self.status == "connected"


def _bfs_packed(adj_packed: np.ndarray, n: int, start: int) -> np.ndarray:
    """Distances from start over a packed adjacency matrix; -1 is unreachable."""
    dist = np.full(n, -1, np.int32)
    dist[start] = 0
    frontier = np.array([start], np.int64)
    visited_packed = np.zeros(adj_packed.shape[1], np.uint8)
    visited_packed[start >> 3] |= np.uint8(1 << (start & 7))
    d = 0
    while frontier.size:
        reach = np.bitwise_or.reduce(adj_packed[frontier], axis=0)
        new_packed = reach & ~visited_packed
        visited_packed |= new_packed
        nxt = np.nonzero(np.unpackbits(new_packed, count=n, bitorder="little"))[0]
        d += 1
        dist[nxt] = d
        frontier = nxt
    return dist


def class_sources(vertices: np.ndarray, classes: list[np.ndarray]) -> np.ndarray:
    """Positions in the sorted ``vertices`` of the least member of each
    noncentral conjugacy class (each class of more than one element)."""
    return np.searchsorted(vertices, [int(c[0]) for c in classes if c.size > 1])


def _least_generators(G: FiniteGroup, elements: np.ndarray) -> np.ndarray:
    """For each element v, the least generator of the cyclic subgroup <v>.

    The generators of <v> are the powers v^k with k prime to the order of
    v; the powers of all elements advance together, one vector step per k.
    Two elements generate the same subgroup exactly when the results agree.
    """
    t = G.table
    orders = G.element_orders[elements]
    least = elements.astype(np.int64)
    power = least
    for k in range(2, int(orders.max(initial=1))):
        power = t[power, elements]
        least = np.where(np.gcd(k, orders) == 1, np.minimum(least, power), least)
    return least


def _commuting_rows(t: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Packed adjacency rows of the commuting graph on ``vertices``.

    Table rows are compared a stripe of TILE_WIDTH rows at a time, one
    square tile against its transpose across the diagonal; the stripe's
    vertex rows, restricted to the vertex columns, are then packed.
    """
    n, order, w = vertices.size, t.shape[0], TILE_WIDTH
    packed = np.zeros((n, (n + 7) // 8), np.uint8)
    stripe = np.empty((w, order), bool)
    for i in range(0, order, w):
        rows = np.nonzero((vertices >= i) & (vertices < i + w))[0]
        if not rows.size:
            continue
        h = min(w, order - i)
        for j in range(0, order, w):
            np.equal(t[i:i + h, j:j + w], t[j:j + w, i:i + h].T, out=stripe[:h, j:j + w])
        packed[rows] = np.packbits(np.take(stripe[vertices[rows] - i], vertices, axis=1),
                                   axis=1, bitorder="little")
    diagonal = np.arange(n)
    packed[diagonal, diagonal >> 3] &= ~np.left_shift(1, diagonal & 7).astype(np.uint8)
    return packed


class CommutingGraph:
    """Commuting graph on the noncentral elements of a group.

    ``sources`` are the vertex positions the diameter searches from, one in
    each orbit of conjugation; by default the least member of each
    noncentral conjugacy class, which presumes the default vertex set.
    ``packed`` rows, when given, are the adjacency, which is then not built
    from the table (``twin_reduce`` passes them).  Graphs returned by
    ``twin_reduce`` also carry ``class_sizes``, the number of vertices
    merged into each reduced vertex.
    """

    def __init__(self, group: FiniteGroup, vertices: np.ndarray | None = None,
                 packed: np.ndarray | None = None, *,
                 sources: np.ndarray | None = None,
                 class_sizes: np.ndarray | None = None):
        self.group = group
        if vertices is None:
            zmask = center(group).member_mask
            vertices = np.nonzero(~zmask)[0].astype(np.int32)
        self.vertices = np.asarray(vertices, np.int32)
        self._packed = _commuting_rows(group.table, self.vertices) if packed is None \
            else packed
        self._sources = sources
        if class_sizes is not None:
            self.class_sizes = class_sizes

    @property
    def n_vertices(self) -> int:
        return self.vertices.size

    @property
    def sources(self) -> np.ndarray:
        if self._sources is None:
            self._sources = class_sources(self.vertices, conjugacy_classes(self.group))
        return self._sources

    def diameter(self) -> DiameterResult:
        """Status, diameter and component count, from one search per source.

        The graph is connected when the first search reaches every vertex;
        only when it does not are the components counted, the first one
        from that search and each further one from a search from the least
        vertex not yet reached."""
        n = self.n_vertices
        if n == 0:
            return DiameterResult("empty-vertex-set", None, 0)
        diam = 0
        for s in self.sources:
            dist = _bfs_packed(self._packed, n, int(s))
            if dist.min() < 0:
                reached, components = dist >= 0, 1
                while not reached.all():
                    reached |= _bfs_packed(self._packed, n, int(np.argmin(reached))) >= 0
                    components += 1
                return DiameterResult("disconnected", None, components)
            diam = max(diam, int(dist.max()))
        return DiameterResult("connected", diam, 1)

    # -- twin reduction ------------------------------------------------------

    def twin_reduce(self) -> "CommutingGraph":
        """Merge vertices generating the same cyclic subgroup.

        Such vertices have identical closed neighborhoods, so distances
        between distinct classes are preserved exactly.  Each class is kept
        as its first vertex, and the reduced graph searches from the classes
        of this graph's sources.
        """
        # the least generator of <v> generates <v>, so it is the class's
        # first vertex
        first = np.searchsorted(self.vertices, _least_generators(self.group, self.vertices))
        keep = distinct(first, self.n_vertices)
        reduced = np.searchsorted(keep, first)
        # the kept rows of this graph, restricted to the kept columns
        packed = np.zeros((keep.size, (keep.size + 7) // 8), np.uint8)
        for s in range(0, keep.size, TILE_WIDTH):
            rows = np.unpackbits(self._packed[keep[s:s + TILE_WIDTH]], axis=1,
                                 count=self.n_vertices, bitorder="little")
            packed[s:s + TILE_WIDTH] = np.packbits(rows[:, keep], axis=1, bitorder="little")
        return CommutingGraph(self.group, self.vertices[keep], packed,
                              sources=distinct(reduced[self.sources], keep.size),
                              class_sizes=np.bincount(reduced).astype(np.int32))

    def diameter_via_reduction(self) -> DiameterResult:
        """Diameter computed on the twin-reduced graph.

        A reduced graph with one class recovers diameter 1 when the class has
        at least two members (same-subgroup vertices commute) and the empty
        case when the single class is a lone vertex.
        """
        if self.n_vertices == 0:
            return DiameterResult("empty-vertex-set", None, 0)
        reduced = self.twin_reduce()
        if reduced.n_vertices == 1:
            size = int(reduced.class_sizes[0])
            if size >= 2:
                return DiameterResult("connected", 1, 1)
            return DiameterResult("connected", 0, 1)
        return reduced.diameter()

    # -- export ---------------------------------------------------------------

    def edge_list(self) -> list[tuple[int, int]]:
        """Edges as pairs of group elements, one per pair of vertex positions
        i < j, in row-major order of (i, j)."""
        edges: list[tuple[int, int]] = []
        n, v = self.n_vertices, self.vertices
        for s in range(0, n, TILE_WIDTH):
            c = s - s % 8  # unpack from the byte that holds column s
            rows = np.unpackbits(self._packed[s:s + TILE_WIDTH, c // 8:], axis=1,
                                 count=n - c, bitorder="little")
            i, j = np.nonzero(rows.view(bool))
            j += c
            upper = j > s + i
            edges.extend(zip(v[s + i[upper]].tolist(), v[j[upper]].tolist()))
        return edges

    def to_dot(self, name: str = "commuting") -> str:
        lines = [f"graph {name} {{"]
        for v in self.vertices:
            lines.append(f"  {int(v)};")
        for a, b in self.edge_list():
            lines.append(f"  {a} -- {b};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "group": self.group.name,
            "order": self.group.order,
            "vertices": [int(v) for v in self.vertices],
            "edges": [[a, b] for a, b in self.edge_list()],
        }
        return json.dumps(payload, separators=(",", ":")) + "\n"
