import json
import tracemalloc

import numpy as np
from hypothesis import given

from agc import graph as graph_module
from agc.classify import GroupAnalysis
from agc.graph import CommutingGraph
from agc.constructions import abelian, cyclic, dihedral, quaternion, symmetric
from agc.perm import closure, index_dtype
from agc.products import direct_product
from agc.structure import conjugacy_classes

from oracles import (
    all_sources_diameter,
    brute_adjacency,
    brute_center,
    brute_centralizer,
    brute_component_labels,
    brute_twin_classes,
)
from test_permutation import generator_sets


def dense(g: CommutingGraph) -> np.ndarray:
    """The graph's CSR rows as a boolean matrix, after checking that each
    row lists its neighbours in strictly increasing order."""
    n = g.n_vertices
    rows = np.repeat(np.arange(n), np.diff(g.indptr))
    assert g.indptr[0] == 0 and g.indptr[-1] == g.indices.size
    assert g.indices.dtype == index_dtype(g.group.order)
    assert (np.diff(g.indices)[rows[1:] == rows[:-1]] > 0).all()
    adj = np.zeros((n, n), bool)
    adj[rows, g.indices] = True
    return adj


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
        assert set(g.vertices[dense(g)[i]].tolist()) == expected


def test_adjacency_matches_all_pairs(corpus_groups, witness1500_x_c2):
    """The CSR rows equal comparing every pair of vertices at once, and the
    edge list is their upper triangle: on every corpus group, on its G/Z,
    on the twin reductions of both and on the order-3000 W1500 x C2."""
    analyses = [GroupAnalysis(G) for G in corpus_groups.values()]
    analyses += [a.central_quotient for a in analyses] + [GroupAnalysis(witness1500_x_c2)]
    for a in analyses:
        g = a.graph
        want = brute_adjacency(a.group, g.vertices)
        assert np.array_equal(dense(g), want), a.group.name
        i, j = np.nonzero(np.triu(want))
        assert g.edge_list() == list(zip(g.vertices[i].tolist(), g.vertices[j].tolist()))
        reduced = g.twin_reduce()
        assert np.array_equal(dense(reduced), brute_adjacency(a.group, reduced.vertices))


def test_graph_build_makes_no_table_sized_temporary(corpus_groups):
    """Building the order-1500 witness's graph, and its twin reduction,
    hold the CSR rows and a block of temporaries: less than half the n²
    bytes of a boolean adjacency matrix."""
    G = corpus_groups["diameter6-witness"]
    classes = conjugacy_classes(G)
    tracemalloc.start()
    try:
        g = CommutingGraph(G, classes)
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


def test_nearly_abelian_graph_stays_below_the_table():
    """C500 x S3 (order 3000, 1500 classes) is nearly abelian, so its CSR
    rows are long: 1 747 500 entries.  Its build, search and twin reduction
    each peak below the 17.2 MiB of the group's table."""
    G = direct_product(cyclic(500), symmetric(3))
    classes = conjugacy_classes(G)
    peaks = []
    tracemalloc.start()
    try:
        g = CommutingGraph(G, classes)
        for step in (lambda: None, g.diameter, g.twin_reduce):
            tracemalloc.reset_peak()
            step()
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert (len(classes), g.n_vertices) == (1500, 2500)
    assert g.diameter().components == 4  # C500 x <t> for each transposition t, C500 x A3
    assert max(peaks) < G.table.nbytes


@given(generator_sets())
def test_packed_adjacency_and_diameters_on_random_groups(case):
    """On random subgroups of S_n (n <= 7) the sorted CSR rows equal the
    all-pairs comparison, and the class-source, twin-reduced and
    all-sources diameters agree."""
    degree, gens = case
    g = CommutingGraph(closure(degree, gens))
    assert np.array_equal(dense(g), brute_adjacency(g.group, g.vertices))
    want = all_sources_diameter(g)
    assert g.diameter() == want
    assert g.diameter_via_reduction() == want


@given(generator_sets())
def test_component_labels_on_random_groups(case):
    """On random subgroups of S_n (n <= 7) every vertex is labelled with the
    least vertex of its component."""
    g = CommutingGraph(closure(*case))
    assert np.array_equal(g._component_labels(), brute_component_labels(g))


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
    component count of searching from every vertex, and every vertex is
    labelled with the least vertex of its component: on the graph of G, of
    G/Z and on both twin reductions."""
    checked = disconnected = 0
    for name, G in corpus_groups.items():
        if G.order > 1500:
            continue
        a = GroupAnalysis(G)
        for b in (a, a.central_quotient):
            for g in (b.graph, b.graph.twin_reduce()):
                assert g.diameter() == all_sources_diameter(g), (name, b.group.order)
                labels = g._component_labels()
                assert np.array_equal(labels, brute_component_labels(g)), name
                checked += g.n_vertices > 0
                disconnected += np.count_nonzero(labels == np.arange(g.n_vertices)) > 1
    assert checked > 40 and disconnected > 10


def test_diameter_runs_one_bfs_per_class(witness1500, witness60, monkeypatch):
    """A connected graph is searched once from each noncentral class, 64
    sources a call; a disconnected one stops at the first call that misses
    a vertex, and its components are counted by labelling, with no further
    search."""
    bfs = graph_module._bfs_packed
    calls = []

    def counted(graph, sources):
        calls.append(len(sources))
        return bfs(graph, sources)

    monkeypatch.setattr(graph_module, "_bfs_packed", counted)
    for G, diameter, components, searches in (
            (witness1500, 6, 1, [18]), (symmetric(3), None, 4, [2]),
            (symmetric(4), None, 5, [4]), (dihedral(6), None, 4, [4]),
            (direct_product(cyclic(9), witness60), 4, 1, [64, 8]),
            (direct_product(cyclic(33), symmetric(3)), None, 4, [64])):
        a = GroupAnalysis(G)
        noncentral = sum(c.size > 1 for c in a.classes)
        for g in (a.graph, CommutingGraph(G)):
            calls.clear()
            result = g.diameter()
            assert (result.diameter, result.components) == (diameter, components)
            assert calls == searches, G.name
            assert calls[0] == min(64, noncentral)
            assert not result.connected or sum(calls) == noncentral


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
        # no nonabelian group is its centre and one cyclic subgroup
        assert g.n_vertices == 0 or reduced.n_vertices >= 2, name


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
    text = "".join(g.dot_chunks())
    assert text.startswith("graph")
    assert text.rstrip().endswith("}")
    for v in g.vertices:
        assert f"  {int(v)};" in text


def test_json_export_round_trips():
    g = CommutingGraph(dihedral(6))
    payload = json.loads("".join(g.json_chunks()))
    assert payload["order"] == 12
    assert sorted(payload["vertices"]) == sorted(int(v) for v in g.vertices)
    assert [tuple(e) for e in payload["edges"]] == g.edge_list()
