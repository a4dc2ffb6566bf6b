"""Edge-insertion derived graphs with per-vertex provenance.

All four constructions start the same way: every edge (u, v) of the source
gets a new inserted vertex w joined to u and v. They differ in whether the
original edges survive and whether inserted vertices of edges sharing an
endpoint are linked to each other.

Vertex ids in the result are laid out in blocks: source vertices keep their
ids in ``[0, n)``, inserted vertices occupy ``[n, n + m)`` in the canonical
order of the edges they subdivide. A join composite appends the right
factor's vertices after both blocks.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .graph import Graph, GraphError


class DerivedKind(str, Enum):
    """The four derived constructions."""

    S = "S"  # subdivision: inserted vertices only
    R = "R"  # subdivision plus the original edges
    Q = "Q"  # subdivision plus links between inserted vertices of touching edges
    T = "T"  # total graph: Q plus the original edges

    @classmethod
    def parse(cls, text: str) -> DerivedKind:
        try:
            return cls(text.upper())
        except ValueError:
            raise GraphError(f"unknown derived kind {text!r}; expected S, R, Q or T") from None

    @property
    def keeps_original_edges(self) -> bool:
        return self in (DerivedKind.R, DerivedKind.T)

    @property
    def links_inserted(self) -> bool:
        return self in (DerivedKind.Q, DerivedKind.T)


class VertexTag(str, Enum):
    """Where a composite vertex came from."""

    ORIGINAL_G1 = "original_g1"
    INSERTED = "inserted"
    ORIGINAL_G2 = "original_g2"


# The tags in block order, read once: iterating an Enum is slow.
_BLOCKS = tuple(VertexTag)


@dataclass(frozen=True)
class ProvenancedGraph:
    """A derived graph or join composite together with its left factor.

    Provenance is the block layout, so it is read off ``source`` rather
    than stored: ``tags[v]`` says which block vertex ``v`` belongs to, and
    ``origin_edge`` maps each inserted vertex to the source edge it
    subdivides. Ids from ``source.n + source.m`` on are the right factor's.
    """

    graph: Graph
    source: Graph

    def __post_init__(self):
        if self.graph.n < self.source.n + self.source.m:
            raise GraphError(
                f"{self.graph.n} vertices cannot hold a source with "
                f"{self.source.n} vertices and {self.source.m} edges"
            )

    def ids(self, tag: VertexTag) -> tuple[int, ...]:
        """All vertex ids carrying ``tag``, ascending; blocks follow tag order."""
        cuts = (0, self.source.n, self.source.n + self.source.m, self.graph.n)
        block = _BLOCKS.index(tag)
        return tuple(range(cuts[block], cuts[block + 1]))

    @property
    def tags(self) -> tuple[VertexTag, ...]:
        return tuple(tag for tag in VertexTag for _ in self.ids(tag))

    @property
    def origin_edge(self) -> dict[int, tuple[int, int]]:
        return dict(enumerate(zip(self.source.us, self.source.vs), self.source.n))


@lru_cache(maxsize=len(DerivedKind))
def derive(kind: DerivedKind, source: Graph) -> ProvenancedGraph:
    """Build the derived graph of ``kind`` over ``source``.

    The edges are built in canonical order, from the layout: each source
    vertex's original edges (R, T), then its inserted neighbours; then each
    inserted vertex's links to the later inserted vertices at either of its
    endpoints (Q, T). A left factor serves several composites in turn, so
    the cache keeps the last four derived graphs and their sources alive.
    """
    n, src_us, src_vs = source.n, source.us, source.vs
    inserted = range(n, n + source.m)
    # The inserted vertices at each source vertex, ascending.
    incident: list[list[int]] = [[] for _ in range(n)]
    for w, u, v in zip(inserted, src_us, src_vs):
        incident[u].append(w)
        incident[v].append(w)
    keeps = kind.keeps_original_edges
    us: list[int] = []
    vs: list[int] = []
    start = 0
    for x, ws in enumerate(incident):
        if keeps:
            end = bisect_left(src_us, x + 1, start)
            us += [x] * (end - start)
            vs += src_vs[start:end]
            start = end
        us += [x] * len(ws)
        vs += ws
    if kind.links_inserted:
        # Inserted vertices whose edges share an endpoint are linked once,
        # from the lower id; the two endpoints' later ids are disjoint.
        seen = [0] * n
        for w, u, v in zip(inserted, src_us, src_vs):
            seen[u] += 1
            seen[v] += 1
            later = sorted(incident[u][seen[u]:] + incident[v][seen[v]:])
            us += [w] * len(later)
            vs += later
    graph = Graph._of_columns(n + source.m, tuple(us), tuple(vs))
    return ProvenancedGraph(graph, source)
