"""Join composites: the eight derived-graph join variants.

Each variant first replaces the left factor by one of its edge-insertion
derived graphs and then attaches the right factor completely to either the
surviving source vertices (vertex mode) or the inserted vertices (edge mode).

Composite vertex ids follow the block layout of :mod:`fjoin.derived`.
"""

from __future__ import annotations

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
    left = base.graph
    offset = left.n
    right_ids = range(offset, offset + g2.n)
    shifted = map(offset.__add__, chain.from_iterable(g2.edges))
    # Each run ascends, so sorted only merges them into canonical order: the
    # left edges, the cross edges (right ids exceed every left id) and the
    # right edges shifted past the left block (re-paired from flat endpoints).
    runs = chain(left.edges, product(base.ids(block), right_ids), zip(shifted, shifted))
    return ProvenancedGraph(Graph(offset + g2.n, tuple(sorted(runs))), g1)
