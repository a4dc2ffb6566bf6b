"""Tests of the benchmark's own parts: the reference, the generators, the tracer.

Run from the repository root: ``python3 -m pytest benchmark``.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import fjoin  # noqa: E402

from inputs import family_edges, preferential_edges, uniform_edges  # noqa: E402
from reference import all_composites, composite_f_index  # noqa: E402
from tracing import Tracer  # noqa: E402

PINNED_P3_P4 = {
    ("S", "vertex"): 860,
    ("S", "edge"): 624,
    ("R", "vertex"): 1338,
    ("R", "edge"): 694,
    ("Q", "vertex"): 898,
    ("Q", "edge"): 878,
    ("T", "vertex"): 1376,
    ("T", "edge"): 948,
}

# Worked by hand from the drawn composite. K2 has one edge, so Q = S and T = R.
#   S-vertex(K2, K1) is a 4-cycle: 4 * 2^3 = 32.
#   S-edge(K2, K1) is a 3-star centred on the inserted vertex: 27 + 3 = 30.
#   R-vertex(K2, K1): degrees 3, 3, 2, 2 -> 70.  R-edge: 2, 2, 3, 1 -> 44.
#   Q-vertex(P3, K1): originals 2, 3, 2; inserted 3, 3; right 3 -> 124.
#   Q-edge(P3, K1): originals 1, 2, 1; inserted 4, 4; right 2 -> 146.
#   T-vertex(P3, K1): originals 3, 5, 3; inserted 3, 3; right 3 -> 260.
#   T-edge(P3, K1): originals 2, 4, 2; inserted 4, 4; right 2 -> 216.
#   S-vertex(2 isolated, K2) is K4 less an edge: 8 + 8 + 27 + 27 = 70.
#   S-edge(2 isolated, K2) adds no cross edge: 0 + 0 + 1 + 1 = 2.
HAND_WORKED = [
    ("S", "vertex", (2, [(0, 1)]), (1, []), 32),
    ("S", "edge", (2, [(0, 1)]), (1, []), 30),
    ("R", "vertex", (2, [(0, 1)]), (1, []), 70),
    ("R", "edge", (2, [(0, 1)]), (1, []), 44),
    ("Q", "vertex", (2, [(0, 1)]), (1, []), 32),
    ("Q", "edge", (2, [(0, 1)]), (1, []), 30),
    ("T", "vertex", (2, [(0, 1)]), (1, []), 70),
    ("T", "edge", (2, [(0, 1)]), (1, []), 44),
    ("Q", "vertex", (3, [(0, 1), (1, 2)]), (1, []), 124),
    ("Q", "edge", (3, [(0, 1), (1, 2)]), (1, []), 146),
    ("T", "vertex", (3, [(0, 1), (1, 2)]), (1, []), 260),
    ("T", "edge", (3, [(0, 1), (1, 2)]), (1, []), 216),
    ("S", "vertex", (2, []), (2, [(0, 1)]), 70),
    ("S", "edge", (2, []), (2, [(0, 1)]), 2),
]


def test_pinned_path_pair():
    assert all_composites(3, family_edges("path", 3), 4, family_edges("path", 4)) == PINNED_P3_P4


@pytest.mark.parametrize("kind, mode, g1, g2, want", HAND_WORKED)
def test_hand_worked_composites(kind, mode, g1, g2, want):
    assert composite_f_index(kind, mode, *g1, *g2) == want


def _tiny_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Each pair of the ``n`` vertices kept with probability one half."""
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]


def test_matches_fjoin_oracle_on_seeded_tiny_pairs():
    rng = random.Random("reference-vs-oracle")
    for _ in range(40):
        n1, n2 = rng.randint(1, 7), rng.randint(1, 7)
        edges1, edges2 = _tiny_edges(rng, n1), _tiny_edges(rng, n2)
        g1, g2 = fjoin.Graph.from_edges(n1, edges1), fjoin.Graph.from_edges(n2, edges2)
        want = all_composites(n1, edges1, n2, edges2)
        for spec in fjoin.ALL_SPECS:
            oracle = fjoin.f_index(fjoin.f_join(spec, g1, g2).graph)
            assert oracle == want[(spec.kind.value, spec.mode.value)]


def test_generators_give_simple_graphs_of_the_asked_size():
    rng = random.Random(5)
    for edges, n, m in (
        (uniform_edges(rng, 50, 150), 50, 150),
        (preferential_edges(rng, 50, 3), 50, 150),
        (family_edges("cycle", 6), 6, 6),
    ):
        assert len(edges) == m == len(set(edges))
        assert edges == sorted(edges)
        assert all(0 <= u < v < n for u, v in edges)


def test_tracer_times_calls_made_inside_fjoin():
    tracer = Tracer()
    tracer.install(fjoin)
    try:
        tracer.begin_round()
        fjoin.verify_pair(fjoin.generate("path", 3), fjoin.generate("path", 4))
        duration = tracer.end_round()
    finally:
        tracer.uninstall()
    assert not hasattr(fjoin.harness.f_join, "__wrapped__")
    assert not hasattr(vars(fjoin.Graph)["from_edges"].__func__, "__wrapped__")
    assert tracer.calls["harness.verify_pair"] == 1
    assert tracer.calls["joins.f_join"] == tracer.calls["derived.derive"] == 8
    assert tracer.calls["indices.invariants"] == 2
    assert tracer.derive_distinct == 4
    assert tracer.counts["indices.invariants.edges_in"] == 2 + 3
    assert all(value >= 0 for value in tracer.self_s.values())
    assert sum(tracer.self_s.values()) <= duration
