"""Commuting graph of a finite group.

Vertices are the noncentral elements; two vertices are adjacent when they
commute.  Adjacency is stored packed (one bit per pair) and distances come
from breadth-first search over packed rows, so all-pairs diameters on groups
of order around 2000 stay fast.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import CentralElement
from .perm import FiniteGroup, row_blocks
from .structure import center


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


class CommutingGraph:
    """Commuting graph on the noncentral elements of a group."""

    def __init__(self, group: FiniteGroup, vertices: np.ndarray | None = None,
                 adjacency: np.ndarray | None = None):
        self.group = group
        if vertices is None:
            zmask = center(group).member_mask
            vertices = np.nonzero(~zmask)[0].astype(np.int32)
        self.vertices = np.asarray(vertices, np.int32)
        n = self.vertices.size
        if adjacency is None:
            t, v = group.table, self.vertices
            adjacency = np.empty((n, n), bool)
            for rows in row_blocks(n, n):
                adjacency[rows] = t[np.ix_(v[rows], v)] == t[np.ix_(v, v[rows])].T
            np.fill_diagonal(adjacency, False)
        self._adj = adjacency
        self._packed = np.packbits(adjacency, axis=1, bitorder="little") if n else \
            np.zeros((0, 0), np.uint8)
        self._vertex_index = {int(v): i for i, v in enumerate(self.vertices)}
        self._component_ids: np.ndarray | None = None

    @property
    def n_vertices(self) -> int:
        return self.vertices.size

    def degree(self, element: int) -> int:
        i = self._require_vertex(element)
        return int(self._adj[i].sum())

    def neighbors(self, element: int) -> np.ndarray:
        i = self._require_vertex(element)
        return self.vertices[self._adj[i]]

    def _require_vertex(self, element: int) -> int:
        if element not in self._vertex_index:
            raise CentralElement(f"element {element} is not a graph vertex")
        return self._vertex_index[element]

    def component_ids(self) -> np.ndarray:
        """Component id per vertex, numbered by least vertex position."""
        if self._component_ids is None:
            n = self.n_vertices
            ids = np.full(n, -1, np.int32)
            cid = 0
            for s in range(n):
                if ids[s] >= 0:
                    continue
                dist = _bfs_packed(self._packed, n, s)
                ids[dist >= 0] = cid
                cid += 1
            self._component_ids = ids
        return self._component_ids

    def n_components(self) -> int:
        ids = self.component_ids()
        return int(ids.max()) + 1 if ids.size else 0

    def distance(self, x: int, y: int) -> int:
        """Graph distance between two noncentral elements; -1 if disconnected."""
        i, j = self._require_vertex(x), self._require_vertex(y)
        dist = _bfs_packed(self._packed, self.n_vertices, i)
        return int(dist[j])

    def eccentricities(self) -> np.ndarray:
        """Max finite distance from each vertex (only valid when connected)."""
        n = self.n_vertices
        out = np.zeros(n, np.int32)
        for s in range(n):
            dist = _bfs_packed(self._packed, n, s)
            out[s] = dist.max()
        return out

    def diameter(self) -> DiameterResult:
        n = self.n_vertices
        if n == 0:
            return DiameterResult("empty-vertex-set", None, 0)
        comps = self.n_components()
        if comps > 1:
            return DiameterResult("disconnected", None, comps)
        diam = 0
        for s in range(n):
            dist = _bfs_packed(self._packed, n, s)
            diam = max(diam, int(dist.max()))
        return DiameterResult("connected", diam, 1)

    # -- twin reduction ------------------------------------------------------

    def twin_reduce(self) -> "CommutingGraph":
        """Merge vertices generating the same cyclic subgroup.

        Such vertices have identical closed neighborhoods, so distances
        between distinct classes are preserved exactly.
        """
        G = self.group
        orders = G.element_orders
        reps: dict[bytes, int] = {}
        rep_of = np.empty(self.n_vertices, np.int32)
        class_size: dict[int, int] = {}
        for i, v in enumerate(self.vertices):
            # powers of v with exponent coprime to its order generate <v>
            o = int(orders[v])
            gens_of_cyclic = sorted(
                G.power(int(v), k) for k in range(1, o + 1) if np.gcd(k, o) == 1
            )
            key = np.asarray(gens_of_cyclic, np.int32).tobytes()
            if key not in reps:
                reps[key] = i
                class_size[i] = 0
            rep_of[i] = reps[key]
            class_size[reps[key]] += 1
        keep = np.array(sorted(reps.values()), np.int64)
        sub_adj = self._adj[np.ix_(keep, keep)]
        reduced = CommutingGraph(G, self.vertices[keep], sub_adj)
        reduced.class_sizes = np.array([class_size[int(i)] for i in keep], np.int32)
        return reduced

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
        edges = []
        n = self.n_vertices
        for i in range(n):
            for j in np.nonzero(self._adj[i, i + 1:])[0]:
                edges.append((int(self.vertices[i]), int(self.vertices[i + 1 + j])))
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
