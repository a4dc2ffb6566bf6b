"""Degree-power sums and the per-graph invariant bundle.

Every index is an exact integer: Python arithmetic never overflows, so no
tolerance is involved anywhere. The vertex sums (M1, F, M4) have equivalent
edge-sum forms (each edge contributes one power of each endpoint degree);
the cheap form is used for the value and the other form backs a debug-mode
cross-check under ``assert``. The edge indices M2, HM and ReZM exist only
as fields of the bundle, which :func:`invariants` fills in one edge pass.
Edge sums read the graph's two endpoint columns, ``graph.us`` and
``graph.vs``, and build no pair per edge; on a dense graph the edge form
sums the ascending first column by runs of one first endpoint.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import Counter
from dataclasses import asdict, dataclass
from itertools import repeat
from operator import itemgetter, mul, sub

from .graph import Graph, GraphError

# Degree-power sums are only meaningful here up to the fourth power; the cap
# just guards against runaway exponents from bad call sites.
MAX_POWER = 8
# The edge form sums a first column by runs past this many edges a vertex: on
# random graphs of 40-300 vertices, n + 1 bisections cost 1.1-1.5x the m
# lookups at 12, about the same at 16-20 and 0.75-0.8x at 24.
_DENSE = 16


@dataclass(frozen=True)
class GraphInvariants:
    """The size and index values a closed-form evaluation needs of one factor.

    M1, F and M4 sum d^2, d^3 and d^4 over vertices; M2, HM and ReZM sum
    d_u * d_v, (d_u + d_v)^2 and d_u * d_v * (d_u + d_v) over edges.
    """

    n: int
    m: int
    M1: int
    M2: int
    F: int
    HM: int
    ReZM: int
    M4: int

    def as_dict(self) -> dict[str, int]:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.as_dict())


def _check_power(a: int) -> None:
    # Exactly int: a float power would make a float sum, and a bool is no power.
    if type(a) is not int or not 1 <= a <= MAX_POWER:
        raise GraphError(f"power must be an int in [1, {MAX_POWER}], got {a!r}")


def power_sum(graph: Graph, a: int) -> int:
    """Sum of ``deg(v) ** a`` over vertices; a=2, 3, 4 give M1, F, M4."""
    _check_power(a)
    value = sum(d**a for d in graph.degree_vector)
    assert value == power_sum_edge_form(graph, a)
    return value


# The general first Zagreb index M_a is the same sum under its literature name.
general_first_zagreb = power_sum


def power_sum_edge_form(graph: Graph, a: int) -> int:
    """Sum of ``deg(u) ** (a-1) + deg(v) ** (a-1)`` over edges, summed one
    endpoint column at a time.

    Equals :func:`power_sum` for the same ``a``: each vertex is hit once per
    incident edge, collecting deg(v) copies of ``deg(v) ** (a-1)``. Past
    ``_DENSE * n`` edges the ascending first column is summed by runs, as each
    x's power times its run's length, bisected; else it is summed per edge.
    """
    _check_power(a)
    powered = [d ** (a - 1) for d in graph.degree_vector]
    n, us, vs = graph.n, graph.us, graph.vs
    if len(us) < 2:  # itemgetter needs an index, and of one gives a bare item
        return sum(map(powered.__getitem__, us)) + sum(map(powered.__getitem__, vs))
    if len(us) > _DENSE * n:
        # x's edges as first endpoint are us[starts[x]:starts[x + 1]].
        starts = list(map(bisect_left, repeat(us, n + 1), range(n + 1)))
        first = sum(map(mul, powered, map(sub, starts[1:], starts)))
    else:
        first = sum(itemgetter(*us)(powered))
    return first + sum(itemgetter(*vs)(powered))


def first_zagreb(graph: Graph) -> int:
    """Sum of squared degrees."""
    return power_sum(graph, 2)


def f_index(graph: Graph) -> int:
    """Sum of cubed degrees (the forgotten index)."""
    return power_sum(graph, 3)


def invariants(graph: Graph) -> GraphInvariants:
    """Compute the full invariant bundle in one pass over the degree
    distribution plus one pass over edges.

    The vertex sums run over the degree distribution rather than raw
    vertices. The edge pass walks the two endpoint columns together and
    accumulates M2 and ReZM; HM follows from the identity HM = F + 2 * M2,
    since each edge (u, v) adds deg(u)^2 + deg(v)^2 to F and
    2 * deg(u) * deg(v) to 2 * M2.
    """
    deg = graph.degree_vector
    m1 = f = m4 = 0
    for d, count in Counter(deg).items():
        d2 = d * d
        m1 += count * d2
        f += count * d2 * d
        m4 += count * d2 * d2
    m2 = rezm_value = 0
    for u, v in zip(graph.us, graph.vs):
        du = deg[u]
        dv = deg[v]
        product = du * dv
        m2 += product
        rezm_value += product * (du + dv)
    return GraphInvariants(
        n=graph.n, m=graph.m, M1=m1, M2=m2, F=f, HM=f + 2 * m2, ReZM=rezm_value, M4=m4
    )
