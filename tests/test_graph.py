import json
import tracemalloc

import numpy as np
from hypothesis import given

from agc import graph as graph_module
from agc.classify import GroupAnalysis
from agc.graph import CommutingGraph
from agc.constructions import abelian, cyclic, dihedral, quaternion, symmetric
from agc.perm import closure
from agc.structure import center

from oracles import (
    all_sources_diameter,
    brute_adjacency,
    brute_center,
    brute_centralizer,
    brute_twin_classes,
)
from test_permutation import generator_sets


def unpacked(g: CommutingGraph) -> np.ndarray:
    """The graph's packed rows as a boolean matrix."""
    n = g.n_vertices
    return np.unpackbits(g._packed, axis=1, count=n, bitorder="little").astype(bool)


def test_abelian_group_has_empty_graph():
    g = CommutingGraph(cyclic(6))
    assert g.n_vertices == 0
    result = g.diameter()
    assert result.status == "empty-vertex-set"
    assert result.diameter is None
    assert g.diameter_via_reduction().status == "empty-vertex-set"


def test_s3_graph_is_disconnected():
    g = CommutingGraph(symmetric(3))
    assert g.n_vertices == 5
    result = g.diameter()
    assert result.status == "disconnected" and result.components == 4


def test_adjacency_matches_centralizers():
    G = dihedral(6)
    g = CommutingGraph(G)
    for i, v in enumerate(g.vertices):
        expected = set(brute_centralizer(G, int(v))) & set(g.vertices.tolist())
        expected.discard(int(v))
        assert set(g.vertices[unpacked(g)[i]].tolist()) == expected


def test_adjacency_in_tiles_matches_all_pairs(witness60, monkeypatch):
    """Built from tiles of an odd width, which straddle the stripe edges
    and the central elements, the packed rows, their twin reduction and
    the edge list equal comparing every pair of vertices at once; also on
    a vertex subset that leaves some stripes without a vertex."""
    monkeypatch.setattr(graph_module, "TILE_WIDTH", 5)
    cases = [(G, None) for G in (symmetric(4), dihedral(6), quaternion(), witness60)]
    cases.append((witness60, np.arange(0, 60, 7)))
    for G, vertices in cases:
        g = CommutingGraph(G, vertices)
        want = brute_adjacency(G, g.vertices)
        assert np.array_equal(unpacked(g), want), G.name
        i, j = np.nonzero(np.triu(want))
        assert g.edge_list() == list(zip(g.vertices[i].tolist(), g.vertices[j].tolist()))
        reduced = g.twin_reduce()
        assert np.array_equal(unpacked(reduced), brute_adjacency(G, reduced.vertices))


def test_graph_build_makes_no_table_sized_temporary(corpus_groups):
    """Building the order-1500 witness's graph, and its twin reduction,
    hold the packed rows and a stripe of the table comparison: less than
    half the n² bytes of a boolean adjacency matrix."""
    G = corpus_groups["diameter6-witness"]
    vertices = np.nonzero(~center(G).member_mask)[0]
    tracemalloc.start()
    try:
        g = CommutingGraph(G, vertices)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        g.twin_reduce()
        reduce_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = g.n_vertices
    assert n == 1499
    assert build_peak < n * n / 2
    assert reduce_peak < n * n / 2


@given(generator_sets())
def test_packed_adjacency_and_diameters_on_random_groups(case):
    """On random subgroups of S_n (n <= 7) the packed rows equal the
    all-pairs comparison, and the class-source, twin-reduced and
    all-sources diameters agree."""
    degree, gens = case
    g = CommutingGraph(closure(degree, gens))
    assert np.array_equal(unpacked(g), brute_adjacency(g.group, g.vertices))
    want = all_sources_diameter(g)
    assert g.diameter() == want
    assert g.diameter_via_reduction() == want


def test_vertices_are_the_noncentral_elements():
    for G in (dihedral(6), quaternion(), symmetric(4)):
        g = CommutingGraph(G)
        central = set(brute_center(G))
        assert g.vertices.tolist() == [x for x in range(G.order) if x not in central]


def test_diameter_of_witness(witness60):
    g = CommutingGraph(witness60)
    result = g.diameter()
    assert result.status == "connected"
    assert result.diameter == 4
    assert all_sources_diameter(g) == result


def test_class_sources_match_all_sources_oracle(corpus_groups):
    """One search per conjugacy class gives the status, diameter and
    component count of searching from every vertex: on the graph of G, of
    G/Z and on both twin reductions."""
    checked = 0
    for name, G in corpus_groups.items():
        if G.order > 1500:
            continue
        a = GroupAnalysis(G)
        for b in (a, a.central_quotient):
            for g in (b.graph, b.graph.twin_reduce()):
                assert g.diameter() == all_sources_diameter(g), (name, b.group.order)
                checked += g.n_vertices > 0
    assert checked > 40


def test_diameter_runs_one_bfs_per_class(witness1500, monkeypatch):
    """A connected graph is searched once per noncentral class, a
    disconnected one once per component."""
    bfs = graph_module._bfs_packed
    starts = []

    def counted(adj_packed, n, start):
        starts.append(start)
        return bfs(adj_packed, n, start)

    monkeypatch.setattr(graph_module, "_bfs_packed", counted)
    for G, diameter, components in ((witness1500, 6, 1), (symmetric(3), None, 4),
                                    (symmetric(4), None, 5), (dihedral(6), None, 4)):
        a = GroupAnalysis(G)
        noncentral = sum(c.size > 1 for c in a.classes)
        for g in (a.graph, CommutingGraph(G)):
            starts.clear()
            result = g.diameter()
            assert (result.diameter, result.components) == (diameter, components)
            assert len(starts) == (noncentral if result.connected else components), G.name


def test_q8_twin_reduction():
    g = CommutingGraph(quaternion())
    reduced = g.twin_reduce()
    assert reduced.n_vertices == 3  # <i>, <j>, <k> classes
    assert reduced.edge_list() == []
    assert g.diameter_via_reduction().status == "disconnected"


def test_s3_twin_reduction():
    g = CommutingGraph(symmetric(3))
    reduced = g.twin_reduce()
    assert reduced.n_vertices == 4  # three transpositions, one rotation class
    assert reduced.edge_list() == []


def test_twin_classes_match_power_loop_oracle(corpus_groups):
    for name, G in corpus_groups.items():
        g = CommutingGraph(G)
        reduced = g.twin_reduce()
        keep, sizes = brute_twin_classes(g)
        assert reduced.vertices.tolist() == g.vertices[keep].tolist(), name
        assert reduced.class_sizes.tolist() == sizes, name
        assert not hasattr(g, "class_sizes")


def test_twin_reduction_matches_full_diameter_on_corpus(corpus_groups):
    for name, G in corpus_groups.items():
        g = CommutingGraph(G)
        full = g.diameter()
        reduced = g.diameter_via_reduction()
        assert (full.status, full.diameter, full.components) == \
               (reduced.status, reduced.diameter, reduced.components), name


def test_edge_list_is_sorted_and_consistent():
    g = CommutingGraph(dihedral(6))
    edges = g.edge_list()
    assert all(a < b for a, b in edges)
    assert len(edges) == len(set(edges))
    # each edge really is a commuting pair
    G = g.group
    for a, b in edges:
        assert G.mult(a, b) == G.mult(b, a)


def test_dot_export_shape():
    g = CommutingGraph(symmetric(3))
    text = g.to_dot()
    assert text.startswith("graph")
    assert text.rstrip().endswith("}")
    for v in g.vertices:
        assert f"  {int(v)};" in text


def test_json_export_round_trips():
    g = CommutingGraph(dihedral(6))
    payload = json.loads(g.to_json())
    assert payload["order"] == 12
    assert sorted(payload["vertices"]) == sorted(int(v) for v in g.vertices)
    assert [tuple(e) for e in payload["edges"]] == g.edge_list()
