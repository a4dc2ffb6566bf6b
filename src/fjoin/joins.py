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


def f_join(spec: OperationSpec, g1: Graph, g2: Graph) -> ProvenancedGraph:
    """Derived-graph join of ``g1`` and ``g2`` under ``spec``.

    Vertex mode adds ``n1 * n2`` cross edges from the source vertices of the
    derived left factor; edge mode adds ``m1 * n2`` cross edges from its
    inserted vertices.
    """
    base = derive(spec.kind, g1)
    block = VertexTag.ORIGINAL_G1 if spec.mode is JoinMode.VERTEX else VertexTag.INSERTED
    left = base.graph.edges
    offset = base.graph.n
    right_ids = tuple(range(offset, offset + g2.n))
    # Canonical order as built: each anchor's left edges, then its cross edges
    # (right ids exceed every left id); then the other left edges and the right
    # edges, shifted and re-paired. One list copied once: a tuple grown from
    # iterators, or a tuple per anchor, has the cyclic collector re-traverse it.
    edges: list[tuple[int, int]] = []
    start = 0
    for anchor in base.ids(block):
        end = bisect_left(left, (anchor + 1,), start)
        edges += left[start:end]
        edges += product((anchor,), right_ids)
        start = end
    edges += left[start:]
    shifted = map(offset.__add__, chain.from_iterable(g2.edges))
    edges += zip(shifted, shifted)
    return ProvenancedGraph(Graph(offset + g2.n, tuple(edges)), g1)
