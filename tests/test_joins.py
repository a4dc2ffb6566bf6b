from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings

from fjoin import (
    ALL_SPECS,
    CorpusConfig,
    DerivedKind,
    Graph,
    GraphError,
    JoinMode,
    OperationSpec,
    VertexTag,
    degrees,
    derive,
    f_join,
    family_corpus,
    random_graph,
)

from conftest import graphs


def test_all_specs_order():
    assert [str(spec) for spec in ALL_SPECS] == [
        "S-vertex",
        "S-edge",
        "R-vertex",
        "R-edge",
        "Q-vertex",
        "Q-edge",
        "T-vertex",
        "T-edge",
    ]


def test_mode_parse():
    assert JoinMode.parse("VERTEX") is JoinMode.VERTEX
    assert JoinMode.parse("edge") is JoinMode.EDGE
    with pytest.raises(GraphError, match="unknown join mode"):
        JoinMode.parse("both")


@given(graphs(max_n=6), graphs(max_n=6))
def test_block_layout(g1, g2):
    spec = OperationSpec(DerivedKind.Q, JoinMode.EDGE)
    pg = f_join(spec, g1, g2)
    n1, m1 = g1.n, g1.m
    assert pg.tags == (
        (VertexTag.ORIGINAL_G1,) * n1
        + (VertexTag.INSERTED,) * m1
        + (VertexTag.ORIGINAL_G2,) * g2.n
    )
    assert pg.origin_edge == {n1 + i: e for i, e in enumerate(g1.edges)}


@pytest.mark.parametrize("spec", ALL_SPECS)
@settings(max_examples=40)
@given(graphs(max_n=6), graphs(max_n=6))
def test_composite_edge_count(spec, g1, g2):
    derived_m = derive(spec.kind, g1).graph.m
    cross = g1.n * g2.n if spec.mode is JoinMode.VERTEX else g1.m * g2.n
    assert f_join(spec, g1, g2).graph.m == derived_m + g2.m + cross


@pytest.mark.parametrize("spec", ALL_SPECS)
@settings(max_examples=40)
@given(graphs(max_n=6), graphs(max_n=6))
def test_composite_degree_contract(spec, g1, g2):
    """Every block's composite degree follows from the factor degrees alone."""
    d1 = degrees(g1)
    d2 = degrees(g2)
    deg = degrees(f_join(spec, g1, g2).graph)
    n1, m1 = g1.n, g1.m
    double = spec.kind.keeps_original_edges
    vertex_mode = spec.mode is JoinMode.VERTEX
    for v in range(n1):
        base = 2 * d1[v] if double else d1[v]
        assert deg[v] == base + (g2.n if vertex_mode else 0)
    for i, (u, v) in enumerate(g1.edges):
        base = d1[u] + d1[v] if spec.kind.links_inserted else 2
        assert deg[n1 + i] == base + (0 if vertex_mode else g2.n)
    for w in range(g2.n):
        assert deg[n1 + m1 + w] == d2[w] + (n1 if vertex_mode else m1)


def definition_edges(left, anchors, g2):
    """The edge set of ``left`` joined at ``anchors`` to ``g2``, by definition."""
    offset = left.n
    edges = set(left.edges)
    edges.update((u + offset, v + offset) for u, v in g2.edges)
    edges.update((a, offset + w) for a in anchors for w in range(g2.n))
    return edges


def definition_sorted(spec, g1, g2):
    """The composite's edges by definition, in canonical order."""
    left = derive(spec.kind, g1).graph
    if spec.mode is JoinMode.VERTEX:
        anchors = range(g1.n)
    else:
        anchors = range(g1.n, left.n)
    return tuple(sorted(definition_edges(left, anchors, g2)))


def _operand_pairs():
    """Every ordered pair of the family corpus, then 40 seeded random pairs."""
    corpus = [g for _, g in family_corpus(CorpusConfig())]
    rng = random.Random(2017)

    def operand():
        n = rng.randint(1, 9)
        return random_graph(n, rng.randint(0, n * (n - 1) // 2), rng.randrange(2**32))

    return [(g1, g2) for g1 in corpus for g2 in corpus] + [
        (operand(), operand()) for _ in range(40)
    ]


def test_composites_are_built_in_canonical_order():
    for g1, g2 in _operand_pairs():
        for spec in ALL_SPECS:
            # Equal to a sorted set: strictly ascending, and the right edges.
            assert f_join(spec, g1, g2).graph.edges == definition_sorted(spec, g1, g2)


@pytest.mark.parametrize("spec", ALL_SPECS)
@settings(max_examples=60)
@given(graphs(max_n=7), graphs(max_n=7))
# An edgeless left factor: edge mode has no anchors at all.
@example(Graph(3, ()), Graph(2, ((0, 1),)))
# Trailing isolated left vertices: the last vertex-mode anchors own no edges.
@example(Graph(5, ((0, 1), (1, 2))), Graph(2, ((0, 1),)))
# A 1-vertex right factor: one cross edge per anchor, no right edges.
@example(Graph(3, ((0, 1), (1, 2))), Graph(1, ()))
# Q/T links into the last inserted vertex (a star): in vertex mode they come
# after the last anchor's cross edges.
@example(Graph(4, ((0, 3), (1, 3), (2, 3))), Graph(2, ()))
def test_composite_edges_are_the_definition_sorted(spec, g1, g2):
    assert f_join(spec, g1, g2).graph.edges == definition_sorted(spec, g1, g2)
