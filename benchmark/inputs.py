"""Seeded input generators for the benchmark, independent of fjoin.

Every generator takes a ``random.Random`` and returns a sorted list of
canonical ``(u, v)`` pairs with ``u < v``, so a change to fjoin's own
sampling (``fjoin.random_graph``) cannot change what the benchmark feeds it.
"""

from __future__ import annotations

import random

Edges = list[tuple[int, int]]


def uniform_edges(rng: random.Random, n: int, m: int) -> Edges:
    """``m`` distinct edges drawn uniformly by rejection (needs m well below n^2/2)."""
    picked: set[tuple[int, int]] = set()
    while len(picked) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            picked.add((u, v) if u < v else (v, u))
    return sorted(picked)


def preferential_edges(rng: random.Random, n: int, per_vertex: int) -> Edges:
    """Preferential attachment with exactly ``per_vertex * n`` edges.

    Starts from a clique on ``2 * per_vertex + 1`` vertices, which has exactly
    ``per_vertex`` edges per vertex; each later vertex links to ``per_vertex``
    distinct earlier vertices chosen with probability proportional to degree,
    so the degree spread is heavy-tailed.
    """
    core = 2 * per_vertex + 1
    if n < core:
        raise ValueError(f"preferential attachment needs n >= {core}, got {n}")
    edges = [(u, v) for u in range(core) for v in range(u + 1, core)]
    # Each vertex appears here once per incident edge, so a uniform pick from
    # it is a degree-proportional pick.
    endpoints = [x for edge in edges for x in edge]
    for w in range(core, n):
        targets: set[int] = set()
        while len(targets) < per_vertex:
            targets.add(endpoints[rng.randrange(len(endpoints))])
        for t in sorted(targets):
            edges.append((t, w))
            endpoints.extend((t, w))
    edges.sort()
    return edges


def family_edges(family: str, n: int) -> Edges:
    """Edges of the ``n``-vertex path, cycle, complete graph or star (hub 0)."""
    if family == "path":
        return [(i, i + 1) for i in range(n - 1)]
    if family == "cycle":
        return sorted([(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])
    if family == "complete":
        return [(u, v) for u in range(n) for v in range(u + 1, n)]
    if family == "star":
        return [(0, leaf) for leaf in range(1, n)]
    raise ValueError(f"unknown family {family!r}")


def render(n: int, edges: Edges) -> str:
    """The edge-list text format: header ``n m``, then one ``u v`` per line."""
    lines = [f"{n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"
