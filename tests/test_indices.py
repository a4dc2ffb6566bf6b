from __future__ import annotations

import json
from itertools import chain

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fjoin import (
    ALL_SPECS,
    DerivedKind,
    Graph,
    GraphError,
    GraphInvariants,
    f_index,
    f_join,
    family_corpus,
    first_zagreb,
    general_first_zagreb,
    generate,
    invariants,
    power_sum,
    power_sum_edge_form,
    random_graph,
)
from fjoin.indices import _DENSE, MAX_POWER
from fjoin.joins import JoinMode, OperationSpec

from conftest import graphs


def test_path_bundles():
    assert invariants(generate("path", 3)) == GraphInvariants(
        n=3, m=2, M1=6, M2=4, F=10, HM=18, ReZM=12, M4=18
    )
    assert invariants(generate("path", 4)) == GraphInvariants(
        n=4, m=3, M1=10, M2=8, F=18, HM=34, ReZM=28, M4=34
    )


def test_star_bundle():
    # Degrees 3, 1, 1, 1.
    assert invariants(generate("star", 4)) == GraphInvariants(
        n=4, m=3, M1=12, M2=9, F=30, HM=48, ReZM=36, M4=84
    )


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_complete_bundle(n):
    d = n - 1
    inv = invariants(generate("complete", n))
    m = n * d // 2
    assert inv == GraphInvariants(
        n=n,
        m=m,
        M1=n * d * d,
        M2=m * d * d,
        F=n * d**3,
        HM=m * (2 * d) ** 2,
        ReZM=m * d * d * 2 * d,
        M4=n * d**4,
    )


def test_edgeless_graph_is_all_zero():
    inv = invariants(Graph(4, ()))
    assert (inv.M1, inv.M2, inv.F, inv.HM, inv.ReZM, inv.M4) == (0, 0, 0, 0, 0, 0)


@given(graphs(), st.integers(min_value=1, max_value=8))
def test_vertex_and_edge_power_sums_agree(g, a):
    assert power_sum(g, a) == power_sum_edge_form(g, a)


def reference_edge_form(graph, a):
    """The edge-form sum as a builtin pipeline over the flattened edges."""
    powered = [d ** (a - 1) for d in graph.degree_vector]
    return sum(map(powered.__getitem__, chain.from_iterable(graph.edges)))


def assert_edge_form_matches_reference(g):
    for a in range(1, MAX_POWER + 1):
        assert power_sum_edge_form(g, a) == reference_edge_form(g, a)


def _composites():
    corpus = dict(family_corpus())
    return [f_join(spec, corpus["cycle-8"], corpus["complete-5"]).graph for spec in ALL_SPECS]


# At most two edges: itemgetter takes no index at m = 0 and returns a bare
# item, not a tuple, at m = 1.
_SMALL = [Graph(0, ()), Graph(3, ()), Graph(2, ((0, 1),)), Graph(4, ((1, 3),)), generate("path", 3)]


def _t_edge(n, m):
    """The T-edge composite of two random n-vertex, m-edge factors."""
    spec = OperationSpec(DerivedKind.T, JoinMode.EDGE)
    return f_join(spec, random_graph(n, m, 1), random_graph(n, m, 2)).graph


# The edge form sums the first column by runs once m > _DENSE * n: graphs on
# both sides of that bound and on it. Complete graphs have m = (n - 1) / 2 * n.
_N = 2 * _DENSE + 8
_DENSITIES = {
    "below-bound": random_graph(_N, _DENSE * _N - 1, 1),
    "at-bound": random_graph(_N, _DENSE * _N, 1),
    "past-bound": random_graph(_N, _DENSE * _N + 1, 1),
    "complete-at-bound": generate("complete", 2 * _DENSE + 1),
    "complete-past-bound": generate("complete", 2 * _DENSE + 2),
    "sparse-T-edge": _t_edge(12, 40),
    "dense-T-edge": _t_edge(20, 120),
}


def test_density_graphs_straddle_the_bound():
    excess = [g.m - _DENSE * g.n for g in _DENSITIES.values()]
    assert excess[:5] == [-1, 0, 1, 0, _DENSE + 1]
    assert excess[5] <= 0 < excess[6]


@pytest.mark.parametrize(
    "g",
    [*_SMALL, *_composites(), *_DENSITIES.values()],
    ids=["empty", "edgeless", "k2", "one-edge", "two-edges", *map(str, ALL_SPECS), *_DENSITIES],
)
def test_edge_form_matches_builtin_reference(g):
    assert_edge_form_matches_reference(g)


@given(graphs(min_n=0))
def test_edge_form_matches_builtin_reference_on_any_graph(g):
    assert_edge_form_matches_reference(g)


@given(graphs())
def test_general_first_zagreb_specializations(g):
    assert general_first_zagreb(g, 2) == first_zagreb(g)
    assert general_first_zagreb(g, 3) == f_index(g)
    assert general_first_zagreb(g, 4) == invariants(g).M4


@given(graphs())
def test_bundle_matches_individual_indices(g):
    inv = invariants(g)
    assert inv.n == g.n
    assert inv.m == g.m
    assert inv.M1 == first_zagreb(g)
    assert inv.F == f_index(g)
    assert inv.M4 == general_first_zagreb(g, 4)
    # Edge sums of d_u + d_v (the degree of a linked inserted vertex), which
    # the closed form reads off the bundle.
    deg = g.degree_vector
    sums = [deg[u] + deg[v] for u, v in g.edges]
    assert sum(sums) == inv.M1
    assert sum(s**2 for s in sums) == inv.HM
    assert sum(s**3 for s in sums) == inv.M4 + 3 * inv.ReZM


@pytest.mark.parametrize("a", [0, -1, 9, 2.5, 3.0, True])
def test_power_out_of_range(a):
    g = generate("path", 3)
    with pytest.raises(GraphError):
        power_sum(g, a)
    with pytest.raises(GraphError):
        power_sum_edge_form(g, a)


def test_json_key_order():
    payload = json.loads(invariants(generate("path", 3)).to_json())
    assert list(payload) == ["n", "m", "M1", "M2", "F", "HM", "ReZM", "M4"]
    assert payload == {"n": 3, "m": 2, "M1": 6, "M2": 4, "F": 10, "HM": 18, "ReZM": 12, "M4": 18}
