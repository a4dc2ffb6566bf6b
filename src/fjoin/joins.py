"""Join composites: the eight derived-graph join variants.

Each variant first replaces the left factor by one of its edge-insertion
derived graphs and then attaches the right factor completely to either the
surviving source vertices (vertex mode) or the inserted vertices (edge mode).

Composite vertex ids follow the block layout of :mod:`fjoin.derived`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from itertools import chain, product
from typing import Iterable

from .derived import DerivedKind, ProvenancedGraph, VertexTag, derive
from .graph import Graph, GraphError


class JoinMode(str, Enum):
    """Which left-factor block the right factor attaches to."""

    VERTEX = "vertex"
    EDGE = "edge"

    @classmethod
    def parse(cls, text: str) -> JoinMode:
        try:
            return cls(text.lower())
        except ValueError:
            raise GraphError(
                f"unknown join mode {text!r}; expected vertex or edge"
            ) from None


@dataclass(frozen=True)
class OperationSpec:
    """One composite operation: a derived kind plus a join mode."""

    kind: DerivedKind
    mode: JoinMode

    def __str__(self) -> str:
        return f"{self.kind.value}-{self.mode.value}"


ALL_SPECS: tuple[OperationSpec, ...] = tuple(
    OperationSpec(kind, mode) for kind in DerivedKind for mode in JoinMode
)


def _attach(left: Graph, anchors: Iterable[int], right: Graph) -> Graph:
    """``left`` and ``right`` side by side, each anchor joined to every right
    vertex; ``anchors`` must ascend.

    The edges are emitted already in canonical order, so nothing is sorted:
    each left vertex's own edges, then its cross edges (right ids all exceed
    left ids), and after the whole left block the right factor's edges
    shifted past it.
    """
    offset = left.n
    right_ids = range(offset, offset + right.n)
    edges = left.edges
    pieces: list[Iterable[tuple[int, int]]] = []
    start = 0
    for a in anchors:
        # (a + 1,) sorts after every (a, v) and before every (a + 1, v).
        stop = bisect_left(edges, (a + 1,))
        pieces.append(edges[start:stop])
        # Built as its own small tuple: the final concatenation then creates
        # no objects, so the cyclic collector never runs while the large
        # composite tuple is young, and never re-traverses it.
        pieces.append(tuple(product((a,), right_ids)))
        start = stop
    pieces.append(edges[start:])
    shifted = map(offset.__add__, chain.from_iterable(right.edges))
    pieces.append(zip(shifted, shifted))  # re-pairs the flattened endpoints
    return Graph(offset + right.n, tuple(chain.from_iterable(pieces)))


def f_join(spec: OperationSpec, g1: Graph, g2: Graph) -> ProvenancedGraph:
    """Derived-graph join of ``g1`` and ``g2`` under ``spec``.

    Vertex mode adds ``n1 * n2`` cross edges from the source vertices of the
    derived left factor; edge mode adds ``m1 * n2`` cross edges from its
    inserted vertices.
    """
    base = derive(spec.kind, g1)
    block = VertexTag.ORIGINAL_G1 if spec.mode is JoinMode.VERTEX else VertexTag.INSERTED
    return ProvenancedGraph(_attach(base.graph, base.ids(block), g2), g1)
