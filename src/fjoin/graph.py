"""Simple undirected graphs: construction, named families, text I/O, sampling.

Vertices are dense 0-based integers. Edges are canonical ``(u, v)`` pairs with
``u < v`` in ascending order, stored as two int columns, and a graph is
immutable once built, so two graphs with the same vertex count and edge set
compare equal structurally.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from itertools import chain
from typing import Iterable

# The named families and the least order each exists at: shorter cycles would
# need loops or doubled edges, and a star needs its hub and one leaf.
FAMILIES = {"path": 1, "cycle": 3, "complete": 1, "star": 2}

# Deletes the ASCII digits, which leaves " \n" of each plain-format line.
_NO_DIGITS = str.maketrans("", "", "0123456789")
# The bulk parser screens and loads the text this many characters at a time.
# Each slice makes a few strings and a list of ints of about its own size, so
# slicing keeps that transient memory small beside the columns: on a 20 K-edge
# text the peak is 1.13 times what the graph keeps, against 1.33 in one slice.
_SLICE_CHARS = 1 << 14


class GraphError(ValueError):
    """A graph construction or domain precondition was violated."""


class ParseError(GraphError):
    """Malformed edge-list text.

    ``line`` is the 1-based line number the parser choked on.
    """

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True, init=False)
class Graph:
    """An immutable simple graph on vertices ``0..n-1``.

    ``Graph(n, edges)`` takes an iterable of canonical pairs: each pair sorted,
    no loops, no duplicates, the whole sequence in ascending order. Use
    :meth:`from_edges` to build from arbitrary pair iterables. The edges are
    stored as two int columns, ``us`` the first endpoints and ``vs`` the
    second, so the ``i``-th edge is ``(us[i], vs[i])``; :attr:`edges` zips
    them. ``degree_vector``, the degrees by vertex id, is counted once at
    construction and is not a dataclass field, so it takes no part in
    equality, hashing or ``repr``.
    """

    n: int
    us: tuple[int, ...]
    vs: tuple[int, ...]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        try:
            edges = tuple(edges)  # read once, so an iterator fills both columns
            self._fill(n, tuple([u for u, _ in edges]), tuple([v for _, v in edges]))
        except Exception:
            # The slow walk names the first fault; if it finds none, the error
            # raised stands (a float endpoint, an unallocatable n, a pair of
            # the wrong arity).
            self._check_edges(n, edges)
            raise

    @classmethod
    def _of_columns(cls, n: int, us: tuple[int, ...], vs: tuple[int, ...]) -> Graph:
        """The graph with edges ``zip(us, vs)``, built without a pair per edge.
        It accepts what ``Graph(n, edges)`` accepts, but a refusal does not
        name its fault."""
        graph = cls.__new__(cls)
        graph._fill(n, us, vs)
        return graph

    def _fill(self, n: int, us: tuple[int, ...], vs: tuple[int, ...]) -> None:
        """The checks of :meth:`_check_edges` and the degree count in one pass.
        When ``n`` and the first endpoint are nonnegative, the columns are the
        same length, each pair ascends, the pairs strictly ascend (so no
        duplicates) and every endpoint indexes the ``n`` counts, it stores the
        columns and the degrees; else it raises an exception whose message
        need not name the fault. Each run of one first endpoint in the
        ascending ``us`` adds its length to that count once, when it ends."""
        out = [0] * n
        if n < 0 or (us and us[0] < 0) or len(us) != len(vs):
            raise GraphError("edge tuple is not canonical")
        pu = pv = -1
        run = 0  # the edges so far under first endpoint pu
        for u, v in zip(us, vs):
            # Under the same first endpoint u = pu < pv, so pv < v alone
            # gives both u < v and the ascent.
            if u == pu and pv < v:
                run += 1
            elif pu < u < v:
                if run:
                    out[pu] += run
                pu = u
                run = 1
            else:
                raise GraphError("edge tuple is not canonical")
            out[u]  # a float equal to pu joins its run; only an index refuses it
            out[v] += 1
            pv = v
        if run:
            out[pu] += run
        vars(self).update(n=n, us=us, vs=vs, degree_vector=tuple(out))
        # Handshake identity: every edge was counted at both ends.
        assert sum(out) == 2 * len(us)

    @staticmethod
    def _check_edges(n: int, edges: Iterable[tuple[int, int]]) -> None:
        """Check ``n``, then walk the edges one at a time, and raise on the
        first fault found."""
        if n < 0:
            raise GraphError(f"vertex count must be nonnegative, got {n}")
        previous = None
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if u > v:
                raise GraphError(f"edge ({u}, {v}) not in (min, max) order")
            if not 0 <= u < n or not v < n:
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if (u, v) in seen:
                raise GraphError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
            if previous is not None and previous > (u, v):
                raise GraphError("edge tuple is not sorted")
            previous = (u, v)

    @property
    def m(self) -> int:
        return len(self.us)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The canonical edge pairs, zipped from the columns on every access:
        a loop that reads them more than once should hold them once."""
        return tuple(zip(self.us, self.vs))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> Graph:
        """Build a graph from edge pairs in any order and orientation."""
        return cls(n, sorted((u, v) if u <= v else (v, u) for u, v in edges))


def degrees(graph: Graph) -> list[int]:
    """Per-vertex degree list, indexed by vertex id; a fresh list each call."""
    return list(graph.degree_vector)


def generate(family: str, n: int) -> Graph:
    """Build the ``n``-vertex member of a named family, ``n`` at least the
    family's minimum in :data:`FAMILIES`; a star's hub is vertex 0."""
    if family not in FAMILIES:
        raise GraphError(f"unknown family {family!r}; expected one of {', '.join(FAMILIES)}")
    if n < FAMILIES[family]:
        raise GraphError(f"{family} needs n >= {FAMILIES[family]}, got {n}")
    # Check that n indexes a list, allocating nothing, then request one edge
    # column's slots before any edge or degree count, so that a size too
    # large to allocate fails here, not once the edges fill memory. The cap
    # keeps an edge count past sys.maxsize failing as out of memory.
    b"" * n
    edge_count = {"path": n - 1, "cycle": n, "complete": n * (n - 1) // 2, "star": n - 1}[family]
    [None] * min(edge_count, sys.maxsize)
    if family == "path":
        us, vs = range(n - 1), range(1, n)
    elif family == "cycle":
        us, vs = (0, *range(n - 1)), (1, n - 1, *range(2, n))
    elif family == "complete":
        us = [u for u in range(n) for _ in range(u + 1, n)]
        vs = [v for u in range(n) for v in range(u + 1, n)]
    else:
        us, vs = [0] * (n - 1), range(1, n)
    return Graph._of_columns(n, tuple(us), tuple(vs))


def random_graph(n: int, m: int, seed: int) -> Graph:
    """Sample a simple graph with exactly ``m`` edges, uniform over the
    ``m``-subsets of the ``C(n, 2)`` vertex pairs.

    The sample is drawn as ranks into the pairs' canonical order, so the
    edges are built in that order, already canonical. Deterministic for a
    fixed ``(n, m, seed)`` triple regardless of platform; whenever
    ``C(n, 2) <= 10**6`` it is the same graph that sampling from a list of
    all the pairs gave.
    """
    if n < 1:
        raise GraphError(f"random graph needs n >= 1, got {n}")
    total = n * (n - 1) // 2
    if not 0 <= m <= total:
        raise GraphError(f"m={m} outside [0, {total}] for n={n}")
    # sample() takes len() of the range, which overflows past sys.maxsize,
    # so an empty draw skips it and any other draw is refused by name.
    if m and total > sys.maxsize:
        raise OverflowError(
            f"random graph on n={n} vertices has {total} vertex pairs, "
            f"more than random.sample can index ({sys.maxsize})"
        )
    ranks = sorted(random.Random(seed).sample(range(total), m)) if m else ()
    us = []
    vs = []
    u, start = 0, 0  # row u holds ranks [start, start + n - 1 - u), v = u + 1 first
    for rank in ranks:
        while rank >= start + n - 1 - u:
            start += n - 1 - u
            u += 1
        us.append(u)
        vs.append(rank - start + u + 1)
    return Graph._of_columns(n, tuple(us), tuple(vs))


def parse_edge_list(text: str | bytes) -> Graph:
    """Parse the edge-list text format into a graph.

    The first data line is ``n m``; the next ``m`` data lines each hold one
    edge ``u v`` with 0-based ids. Lines starting with ``#`` are comments,
    blank lines are skipped, and both LF and CRLF endings are accepted.
    Bytes are decoded as UTF-8.
    """
    if isinstance(text, bytes):
        text = _decode(text)
    # CRLF text takes the bulk path as LF; the line loop reads the original.
    graph = _parse_canonical(text.replace("\r\n", "\n") if "\r" in text else text)
    return _parse_lines(text) if graph is None else graph


def _decode(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The line the bad byte is on, counting line breaks as splitlines does.
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(line, f"invalid UTF-8 byte 0x{data[exc.start]:02x}") from None


def _parse_canonical(text: str) -> Graph | None:
    """Parse plain-format text in bulk, or return None for any other text.

    Plain-format text is LF-ended lines of two ASCII-digit fields with no
    leading zeros, a header and then exactly the declared number of edges,
    as :func:`render_edge_list` writes. Its order is not checked here: the
    edges go to Graph as two columns, and when Graph refuses them, which it
    does without naming the fault, they go again sorted as
    :meth:`Graph.from_edges` sorts them; a second refusal returns None.
    Every text this accepts, :func:`_parse_lines` accepts as the same graph;
    on None it decides the verdict and writes any error message itself.
    """
    us = []
    vs = []
    start = 0
    while start < len(text):
        end = text.rfind("\n", start, start + _SLICE_CHARS) + 1
        chunk = text[start:end]
        if not chunk or not _is_plain(chunk):
            return None
        try:  # JSON makes the ints without a str per field
            ints = json.loads("[" + chunk[:-1].replace(" ", ",").replace("\n", ",") + "]")
        except ValueError:  # an empty field, a leading zero, a field past the digit limit
            return None
        if not start:
            n, m = ints[0], ints[1]
            del ints[:2]
        us += ints[0::2]
        vs += ints[1::2]
        start = end
    if not text or len(us) != m:
        return None
    # Rebound, so that each list is freed once its tuple is made.
    us = tuple(us)
    vs = tuple(vs)
    try:
        try:
            return Graph._of_columns(n, us, vs)
        except GraphError:  # out of order: sort as from_edges does, and try once more
            pairs = sorted((u, v) if u <= v else (v, u) for u, v in zip(us, vs))
            return Graph._of_columns(n, tuple([u for u, _ in pairs]), tuple([v for _, v in pairs]))
    except (GraphError, IndexError, MemoryError, OverflowError):
        return None


def _is_plain(chunk: str) -> bool:
    """Whether ``chunk`` is LF-ended lines of two ASCII-digit fields and one
    space. A field may be empty here; JSON refuses that when the slice loads."""
    return chunk.translate(_NO_DIGITS) == " \n" * chunk.count("\n")


def _parse_lines(text: str) -> Graph:
    """Parse any edge-list text one line at a time; the reference parser."""
    header: tuple[int, int] | None = None
    header_line = 0
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if len(parts) != 2:
                raise ValueError
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(lineno, f"expected two integers, got {line!r}") from None
        if header is None:
            if a < 0 or b < 0:
                raise ParseError(lineno, f"negative count in header {line!r}")
            header = (a, b)
            header_line = lineno
            continue
        n, m = header
        if len(edges) == m:
            raise ParseError(lineno, f"more than the declared {m} edges")
        if not 0 <= a < n or not 0 <= b < n:
            raise ParseError(lineno, f"vertex id out of range for n={n}: {line!r}")
        if a == b:
            raise ParseError(lineno, f"self-loop at vertex {a}")
        edge = (a, b) if a < b else (b, a)
        if edge in seen:
            raise ParseError(lineno, f"duplicate edge {edge}")
        seen.add(edge)
        edges.append(edge)
    if header is None:
        raise ParseError(max(lineno, 1), "missing 'n m' header line")
    if len(edges) != header[1]:
        raise ParseError(lineno + 1, f"declared {header[1]} edges, found {len(edges)}")
    try:
        return Graph.from_edges(header[0], edges)
    except (MemoryError, OverflowError):
        raise ParseError(
            header_line, f"vertex count {header[0]} is too large to allocate"
        ) from None


def render_edge_list(graph: Graph) -> str:
    """Serialize a graph to the edge-list text format (LF line endings)."""
    return f"{graph.n} {graph.m}\n" + "%s %s\n" * graph.m % tuple(chain.from_iterable(zip(graph.us, graph.vs)))
