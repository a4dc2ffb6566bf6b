from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given

from fjoin import (
    DerivedKind,
    Graph,
    GraphError,
    ProvenancedGraph,
    VertexTag,
    degrees,
    derive,
    first_zagreb,
    generate,
)

from conftest import graphs


def expected_edge_count(kind: DerivedKind, g: Graph) -> int:
    m = g.m
    count = 2 * m
    if kind.keeps_original_edges:
        count += m
    if kind.links_inserted:
        count += (first_zagreb(g) - 2 * m) // 2
    return count


@pytest.mark.parametrize("kind", list(DerivedKind))
@given(graphs())
def test_sizes(kind, g):
    pg = derive(kind, g)
    assert pg.graph.n == g.n + g.m
    assert pg.graph.m == expected_edge_count(kind, g)


@pytest.mark.parametrize("kind", list(DerivedKind))
@given(graphs())
def test_degree_contract(kind, g):
    deg = degrees(g)
    out = degrees(derive(kind, g).graph)
    for v in range(g.n):
        assert out[v] == (2 * deg[v] if kind.keeps_original_edges else deg[v])
    for i, (u, v) in enumerate(g.edges):
        expected = deg[u] + deg[v] if kind.links_inserted else 2
        assert out[g.n + i] == expected


@pytest.mark.parametrize("kind", list(DerivedKind))
@given(graphs())
def test_provenance(kind, g):
    pg = derive(kind, g)
    assert pg.ids(VertexTag.ORIGINAL_G1) == tuple(range(g.n))
    assert pg.ids(VertexTag.INSERTED) == tuple(range(g.n, g.n + g.m))
    assert pg.ids(VertexTag.ORIGINAL_G2) == ()
    # Inserted vertex g.n + i subdivides the i-th canonical edge.
    assert pg.origin_edge == {g.n + i: e for i, e in enumerate(g.edges)}
    # Each inserted vertex is adjacent to both endpoints of its edge.
    adjacency = {w: set() for w in pg.ids(VertexTag.INSERTED)}
    for a, b in pg.graph.edges:
        if b in adjacency and a < g.n:
            adjacency[b].add(a)
    for w, (u, v) in pg.origin_edge.items():
        assert adjacency[w] == {u, v}


@pytest.mark.parametrize("kind", list(DerivedKind))
@given(graphs())
def test_edges_are_the_definition(kind, g):
    # Inserted vertex n + i joins both ends of the i-th edge; R and T keep
    # the edges; Q and T link the inserted vertices of edges that touch.
    n, edges = g.n, g.edges
    expected = {(end, n + i) for i, edge in enumerate(edges) for end in edge}
    if kind.keeps_original_edges:
        expected.update(edges)
    if kind.links_inserted:
        expected.update((n + i, n + j) for i, j in combinations(range(len(edges)), 2)
                        if set(edges[i]) & set(edges[j]))
    assert derive(kind, g).graph.edges == tuple(sorted(expected))


def test_subdivided_path_is_longer_path():
    pg = derive(DerivedKind.S, generate("path", 3))
    # 0-3-1-4-2 is a five-vertex path.
    assert pg.graph == Graph.from_edges(5, [(0, 3), (3, 1), (1, 4), (4, 2)])


def test_total_graph_of_triangle_is_4_regular():
    pg = derive(DerivedKind.T, generate("cycle", 3))
    assert pg.graph.n == 6
    assert pg.graph.m == 12
    assert degrees(pg.graph) == [4] * 6


def test_q_of_star_links_all_inserted_vertices():
    # All star edges share the hub, so inserted vertices form a clique.
    pg = derive(DerivedKind.Q, generate("star", 4))
    inserted = pg.ids(VertexTag.INSERTED)
    edges = set(pg.graph.edges)
    for i, a in enumerate(inserted):
        for b in inserted[i + 1 :]:
            assert (a, b) in edges


def test_r_keeps_original_edges():
    g = generate("cycle", 4)
    edges = set(derive(DerivedKind.R, g).graph.edges)
    for edge in g.edges:
        assert edge in edges


def test_s_drops_original_edges():
    g = generate("cycle", 4)
    edges = set(derive(DerivedKind.S, g).graph.edges)
    for edge in g.edges:
        assert edge not in edges


def test_kind_parse():
    assert DerivedKind.parse("s") is DerivedKind.S
    assert DerivedKind.parse("T") is DerivedKind.T
    with pytest.raises(GraphError, match="unknown derived kind"):
        DerivedKind.parse("x")


def test_edgeless_source_has_no_inserted_vertices():
    g = Graph(3, ())
    for kind in DerivedKind:
        pg = derive(kind, g)
        assert pg.graph == g
        assert pg.origin_edge == {}


def test_derived_graph_is_reused_for_the_same_source():
    g = generate("cycle", 5)
    assert all(derive(kind, g) is derive(kind, g) for kind in DerivedKind)


def test_provenance_needs_room_for_both_left_blocks():
    # path-3 has 3 vertices and 2 edges, so its blocks need 5 vertex ids.
    with pytest.raises(GraphError, match="cannot hold"):
        ProvenancedGraph(Graph(2, ()), generate("path", 3))
