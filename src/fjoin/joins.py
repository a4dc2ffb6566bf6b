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
    left_us, left_vs = base.graph.us, base.graph.vs
    offset = base.graph.n
    n2 = g2.n
    right_ids = tuple(range(offset, offset + n2))
    # Canonical order as built: each anchor's left edges, then its cross edges
    # (right ids exceed every left id); then the other left edges and the right
    # edges, shifted. Every anchor's second endpoints are the one right_ids.
    us = []
    vs = []
    start = 0
    for anchor in base.ids(block):
        end = bisect_left(left_us, anchor + 1, start)
        us += left_us[start:end]
        vs += left_vs[start:end]
        us += [anchor] * n2
        vs += right_ids
        start = end
    us += left_us[start:]
    vs += left_vs[start:]
    us += map(offset.__add__, g2.us)
    vs += map(offset.__add__, g2.vs)
    # Rebound, so that each list is freed once its tuple is made.
    us = tuple(us)
    vs = tuple(vs)
    return ProvenancedGraph(Graph._of_columns(offset + n2, us, vs), g1)
