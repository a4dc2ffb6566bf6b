"""Reference F-index of the eight composites, straight from their definitions.

This shares no formula with fjoin: it never calls ``theorem_value``,
``invariants`` or ``f_index``. Each composite vertex's degree is read off the
construction, and the F-index is the sum of the cubes of those degrees.

With ``d`` the degree in the left factor G1 (n1 vertices, m1 edges) and
``d2`` the degree in the right factor G2 (n2 vertices):

- a left original vertex keeps one inserted neighbour per incident edge,
  plus its original edges in R and T: degree ``d`` (S, Q) or ``2d`` (R, T);
- the inserted vertex of edge ``uv`` is adjacent to ``u`` and ``v``, and in Q
  and T also to the ``(d_u - 1) + (d_v - 1)`` inserted vertices of the other
  edges at ``u`` or ``v``: degree ``2`` (S, R) or ``d_u + d_v`` (Q, T);
- the join adds ``n2`` to every left original (vertex mode) or to every
  inserted vertex (edge mode), and adds ``n1`` (vertex mode) or ``m1`` (edge
  mode) to every right vertex.
"""

from __future__ import annotations

from typing import Iterable, Sequence

KINDS = ("S", "R", "Q", "T")
MODES = ("vertex", "edge")


def degree_list(n: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def composite_f_index(
    kind: str,
    mode: str,
    n1: int,
    edges1: Sequence[tuple[int, int]],
    n2: int,
    edges2: Sequence[tuple[int, int]],
) -> int:
    """F-index of the ``kind``-``mode`` composite of G1 = (n1, edges1) and G2 = (n2, edges2)."""
    return _f_index(kind, mode, degree_list(n1, edges1), edges1, degree_list(n2, edges2))


def all_composites(
    n1: int, edges1: Sequence[tuple[int, int]], n2: int, edges2: Sequence[tuple[int, int]]
) -> dict[tuple[str, str], int]:
    """``{(kind, mode): F-index}`` for all eight operations on one pair."""
    deg1 = degree_list(n1, edges1)
    deg2 = degree_list(n2, edges2)
    return {
        (kind, mode): _f_index(kind, mode, deg1, edges1, deg2)
        for kind in KINDS
        for mode in MODES
    }


def _f_index(
    kind: str, mode: str, deg1: list[int], edges1: Sequence[tuple[int, int]], deg2: list[int]
) -> int:
    if kind not in KINDS or mode not in MODES:
        raise ValueError(f"unknown operation {kind}-{mode}")
    n1, m1, n2 = len(deg1), len(edges1), len(deg2)
    vertex = mode == "vertex"
    scale = 2 if kind in ("R", "T") else 1
    shift = n2 if vertex else 0
    total = sum((scale * d + shift) ** 3 for d in deg1)
    shift = 0 if vertex else n2
    if kind in ("Q", "T"):
        total += sum((deg1[u] + deg1[v] + shift) ** 3 for u, v in edges1)
    else:
        total += m1 * (2 + shift) ** 3
    shift = n1 if vertex else m1
    total += sum((d + shift) ** 3 for d in deg2)
    return total
