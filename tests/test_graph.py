from __future__ import annotations

import dataclasses
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fjoin.graph
from fjoin import (
    ALL_SPECS,
    DerivedKind,
    Graph,
    GraphError,
    ParseError,
    degrees,
    derive,
    f_join,
    generate,
    parse_edge_list,
    random_graph,
    render_edge_list,
)
from fjoin.graph import _parse_canonical, _parse_lines

from conftest import graphs, small_numbers


def reference_validate(n, edges):
    """Graph validation as one plain loop: the reference the one-pass check
    in ``Graph.__post_init__`` must agree with, exception and message alike."""
    if n < 0:
        raise GraphError(f"vertex count must be nonnegative, got {n}")
    previous = None
    seen = set()
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


def reference_degrees(n, edges):
    """The degree count as one plain loop, run after :func:`reference_validate`."""
    out = [0] * n
    for u, v in edges:
        out[u] += 1
        out[v] += 1
    return tuple(out)


# Mostly ints. Floats and bools compare like ints, but only a bool indexes a list.
_ints = st.integers(min_value=-2, max_value=7)
_entries = st.one_of(_ints, _ints, st.floats(min_value=-2, max_value=7), st.booleans())
_pairs = st.tuples(_entries, _entries)
# Mostly pairs, some of the wrong arity.
_edges = st.one_of(_pairs, _pairs, st.lists(_entries, max_size=3).map(tuple))
_edge_tuples = st.lists(_edges, max_size=6).map(tuple)
# Sorted and duplicate-free, so that many are accepted.
_sorted_edge_tuples = st.sets(_pairs, max_size=6).map(sorted).map(tuple)
# Vertex counts: mostly ints; a float cannot size the counts, a bool can.
_counts = st.one_of(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
    st.floats(min_value=0, max_value=6),
    st.booleans(),
)


# Characters that int(), str.split() or str.splitlines() accept in ways the
# ASCII-only canonical form does not, such as "+1", "1_0", "\x1c" and "\u0661".
_RAW_ALPHABET = "0123456789 \n\r\t#-+_x\x0c\x1c\u0661"


@st.composite
def _edited_edge_lists(draw):
    """Rendered edge lists, some edited the ways real files go wrong."""
    g = draw(graphs(max_n=8, min_n=0))
    header, *body = render_edge_list(g).splitlines()
    edits = st.sampled_from(["swap", "reverse", "duplicate", "respace", "splice", "n", "m"])
    for edit in draw(st.lists(edits, max_size=2)):
        n, m = header.split()
        if edit == "n":
            header = f"{draw(st.integers(0, 10))} {m}"
        elif edit == "m":
            header = f"{n} {draw(st.integers(0, 30))}"
        elif body:
            i = draw(st.integers(0, len(body) - 1))
            j = draw(st.integers(0, len(body) - 1))
            if edit == "swap":
                body[i], body[j] = body[j], body[i]
            elif edit == "reverse":
                body[i] = " ".join(reversed(body[i].split()))
            elif edit == "duplicate":  # the header keeps counting the lines
                body.insert(j, body[i])
                header = f"{n} {int(m) + 1}"
            elif edit == "respace":  # any character but an ASCII digit
                body[i] = body[i].replace(" ", draw(st.sampled_from(_RAW_ALPHABET[10:])))
            else:  # splice: replace up to one character with one or two others
                k = draw(st.integers(0, len(body[i])))
                cut = k + draw(st.integers(0, 1))
                body[i] = body[i][:k] + draw(st.text(_RAW_ALPHABET, min_size=1, max_size=2)) + body[i][cut:]
    return "\n".join([header, *body]) + draw(st.sampled_from(["\n", ""]))


_raw_edge_lists = st.text(_RAW_ALPHABET, max_size=60).filter(small_numbers)


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc), exc.line


class TestGraph:
    def test_from_edges_canonicalizes_orientation_and_order(self):
        g = Graph.from_edges(4, [(3, 2), (1, 0), (2, 0)])
        assert g.edges == ((0, 1), (0, 2), (2, 3))

    def test_equal_regardless_of_input_order(self):
        a = Graph.from_edges(3, [(0, 1), (1, 2)])
        b = Graph.from_edges(3, [(2, 1), (1, 0)])
        assert a == b

    def test_m_property(self):
        assert Graph.from_edges(3, [(0, 1)]).m == 1
        assert Graph(0, ()).m == 0

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            Graph.from_edges(2, [(1, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(GraphError, match="duplicate"):
            Graph.from_edges(2, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError, match="out of range"):
            Graph.from_edges(2, [(0, 2)])
        with pytest.raises(GraphError, match="out of range"):
            Graph.from_edges(2, [(-1, 0)])

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(GraphError):
            Graph(-1, ())

    def test_rejects_unsorted_direct_construction(self):
        with pytest.raises(GraphError):
            Graph(3, ((1, 0),))
        with pytest.raises(GraphError):
            Graph(3, ((1, 2), (0, 1)))

    @given(graphs())
    def test_handshake(self, g):
        assert sum(degrees(g)) == 2 * g.m

    @settings(max_examples=400)
    @given(_counts, st.one_of(_edge_tuples, _sorted_edge_tuples))
    @example(n=2, edges=((-1, 0),))  # ascends from the one pass's (-1, -1) start
    @example(n=3, edges=((0, 3),))
    @example(n=3, edges=((0, 1), (0, 2), (0, 1)))  # the ascent breaks at the duplicate
    @example(n=3, edges=((0, 2), (0, 1), (0, 2)))  # the ascent breaks before it
    @example(n=3, edges=((0, 1), (0, 1)))
    @example(n=3, edges=((0.0, 1), (1, 2.0)))
    @example(n=3, edges=((0.0, 1), (2, 1)))  # the count fails first, the order fault wins
    @example(n=3.0, edges=((0, 1),))  # the count's own TypeError
    # A float equal to the first endpoint before it takes the same-endpoint
    # branch and fails only as an index, as in the reference count.
    @example(n=3, edges=((0, 1), (0.0, 2)))
    @example(n=3, edges=((0, 2), (0, 1)))  # falls under the same first endpoint
    @example(n=4, edges=((1, 2), (0, 3)))  # a new first endpoint that falls
    @example(n=3, edges=((0, 1), (1, 1)))  # a loop on a new first endpoint
    # The run counter: a float run start, a float new run, a float new run
    # whose second endpoint is out of range, one long run, runs of length 1.
    @example(n=3, edges=((0.0, 1), (0, 2)))
    @example(n=3, edges=((0, 1), (1.0, 2)))
    @example(n=3, edges=((0, 1), (1.0, 5)))
    @example(n=7, edges=((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6)))
    @example(n=6, edges=((0, 1), (1, 2), (2, 3), (3, 4), (4, 5)))
    def test_validation_matches_reference_loop(self, n, edges):
        try:
            reference_validate(n, edges)
            counted = reference_degrees(n, edges)
        except Exception as exc:
            for given_edges in (edges, (edge for edge in edges)):
                with pytest.raises(type(exc)) as excinfo:
                    Graph(n, given_edges)
                assert str(excinfo.value) == str(exc)
        else:
            g = Graph(n, edges)
            assert g.edges == edges
            assert g.degree_vector == counted
            assert Graph(n, (edge for edge in edges)) == g  # a generator is read once
            twin = Graph._of_columns(n, tuple(u for u, _ in edges), tuple(v for _, v in edges))
            assert g == twin
            assert hash(g) == hash(twin)

    @given(graphs(min_n=0), graphs(max_n=5), st.integers(0, 2**32))
    def test_columns_paths_build_the_pair_built_graph(self, g, g2, seed):
        # Every builder that fills the edge columns directly gives the graph
        # that the public pair constructor gives for the same edges.
        built = [_parse_canonical(render_edge_list(g)), Graph.from_edges(g.n, g.edges)]
        built += [generate(f, g.n) for f, least in fjoin.graph.FAMILIES.items() if g.n >= least]
        if g.n:
            built.append(random_graph(g.n, g.m, seed))
        built += [derive(kind, g).graph for kind in DerivedKind]
        built += [f_join(spec, g, g2).graph for spec in ALL_SPECS]
        for graph in built:
            twin = Graph(graph.n, graph.edges)
            assert graph == twin
            assert hash(graph) == hash(twin)
            assert repr(graph) == repr(twin)

    def test_degrees_returns_a_fresh_list(self):
        g = generate("star", 4)
        first = degrees(g)
        first[0] = 99
        first.append(5)
        assert degrees(g) == [3, 1, 1, 1]

    def test_degree_cache_takes_no_part_in_identity(self):
        a = generate("path", 3)
        b = Graph(3, ((0, 1), (1, 2)))
        assert a.degree_vector == b.degree_vector == (1, 2, 1)
        assert a == b
        assert hash(a) == hash(b)
        assert repr(a) == repr(b)
        assert "degree_vector" not in repr(a)
        assert "degree_vector" not in {field.name for field in dataclasses.fields(a)}

    def test_degrees_are_counted_at_construction(self):
        g = Graph.from_edges(3, [(0, 1)])
        assert "degree_vector" in vars(g)

    def test_unindexable_vertex_count_fails_at_construction(self):
        with pytest.raises(OverflowError):
            Graph(10**20, ())
        # A faulty edge is still reported before the count fails.
        with pytest.raises(GraphError, match="not in"):
            Graph(10**20, ((1, 0),))



class TestGenerate:
    def test_path(self):
        assert generate("path", 1) == Graph(1, ())
        assert generate("path", 4).edges == ((0, 1), (1, 2), (2, 3))

    def test_cycle(self):
        g = generate("cycle", 4)
        assert g.m == 4
        assert degrees(g) == [2, 2, 2, 2]

    def test_complete(self):
        g = generate("complete", 5)
        assert g.m == 10
        assert degrees(g) == [4] * 5

    def test_star_hub_is_vertex_zero(self):
        g = generate("star", 5)
        assert degrees(g) == [4, 1, 1, 1, 1]

    @pytest.mark.parametrize(
        "family,n",
        [("path", 0), ("cycle", 2), ("complete", 0), ("star", 1)],
    )
    def test_rejects_below_family_minimum(self, family, n):
        with pytest.raises(GraphError):
            generate(family, n)

    def test_rejects_unknown_family(self):
        with pytest.raises(GraphError, match="unknown family"):
            generate("wheel", 5)

    def test_unbuildable_edge_count_is_refused_before_the_degree_counts(self):
        # The ~5 * 10^13 edge slots are requested first and refused at once,
        # before the 80 MB of 10^7 degree counts.
        tracemalloc.start()
        try:
            with pytest.raises(MemoryError):
                generate("complete", 10**7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestEdgeListFormat:
    def test_parse_basic(self):
        g = parse_edge_list("3 2\n0 1\n1 2\n")
        assert g == generate("path", 3)

    def test_parse_comments_blanks_and_crlf(self):
        text = "# a path\r\n\r\n3 2\r\n0 1\r\n# middle\r\n1 2\r\n"
        assert parse_edge_list(text) == generate("path", 3)

    def test_parse_bytes(self):
        assert parse_edge_list(b"2 1\n0 1\n") == generate("path", 2)

    def test_parse_no_trailing_newline(self):
        assert parse_edge_list("2 1\n0 1") == generate("path", 2)

    @given(graphs())
    def test_round_trip(self, g):
        assert parse_edge_list(render_edge_list(g)) == g

    def test_render_format(self):
        assert render_edge_list(generate("path", 3)) == "3 2\n0 1\n1 2\n"

    def test_self_loop_reports_line(self):
        with pytest.raises(ParseError, match="line 2") as excinfo:
            parse_edge_list("2 1\n0 0\n")
        assert excinfo.value.line == 2

    def test_bad_token_reports_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_edge_list("# c\n2 1\n0 x\n")

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_edge_list("")
        with pytest.raises(ParseError):
            parse_edge_list("# only comments\n")

    def test_wrong_field_count(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_edge_list("3\n")

    def test_out_of_range_vertex(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_edge_list("2 1\n0 5\n")

    def test_duplicate_edge(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_edge_list("3 2\n0 1\n1 0\n")

    def test_too_many_edges(self):
        with pytest.raises(ParseError, match="more than the declared"):
            parse_edge_list("3 1\n0 1\n1 2\n")

    def test_too_few_edges(self):
        with pytest.raises(ParseError, match="declared 2 edges, found 1"):
            parse_edge_list("3 2\n0 1\n")

    @pytest.mark.parametrize(
        "data,line,byte",
        [(b"2 1\n0 \xff1\n", 2, "0xff"), (b"\xc3", 1, "0xc3"), (b"# c\r\n3 1\r0 \x80\n", 3, "0x80")],
        ids=["lf", "first-byte", "cr"],
    )
    def test_undecodable_bytes_report_line(self, data, line, byte):
        with pytest.raises(ParseError) as excinfo:
            parse_edge_list(data)
        assert excinfo.value.line == line
        assert str(excinfo.value) == f"line {line}: invalid UTF-8 byte {byte}"

    def test_overflowing_vertex_count(self):
        with pytest.raises(ParseError, match="line 1: vertex count 10+ is too large to allocate"):
            parse_edge_list("100000000000000000000 0\n")

    @settings(max_examples=1000)
    @given(st.one_of(_edited_edge_lists(), _raw_edge_lists), st.integers(1, 40))
    @example("3 2\n0 1\n1 2\n", 4)
    @example("3 2\n0 1\n1 3\n", 40)  # a vertex id equal to n
    @example("3 2\n1 2\n0 1\n", 40)  # unsorted
    @example("3 2\n0 1\n0 1\n", 40)  # duplicate
    @example("3 2\n0 1\n1 0\n", 40)  # a duplicate that only the sorted retry meets
    @example("3 2\n1 1\n0 1\n", 40)  # a self-loop before an unsorted edge
    @example("3 1\n1 0\n", 40)  # reversed
    @example("2 1\n0\x1c1\n", 40)  # a separator splitlines breaks at
    @example("2 1\n0 1", 40)  # no final newline
    @example("1" * 5000 + " 0\n", 40)  # past int()'s default digit limit on 3.11
    @example("3 2\n00 01\n01 02\n", 40)  # leading zeros, which JSON refuses
    @example("03 2\n0 1\n1 2\n", 4)  # a leading zero in the header only
    @example("3 2\n0 1\n1 02\n", 4)  # a leading zero past the first slice
    @example("3 1\n0 \n", 40)  # empty fields pass the screen; JSON refuses them
    @example(" 1\n0 1\n", 40)
    def test_bulk_parse_matches_line_loop(self, text, slice_chars):
        expected = _parse_outcome(_parse_lines, text)
        assert _parse_outcome(parse_edge_list, text) == expected
        # Small slices put slice boundaries inside the text.
        with mock.patch.object(fjoin.graph, "_SLICE_CHARS", slice_chars):
            assert _parse_outcome(parse_edge_list, text) == expected

    @given(graphs(min_n=0), st.integers(5, 40))
    def test_rendered_text_takes_bulk_path(self, g, slice_chars):
        # Graph's refusal only sends text on to the line loop, so the
        # equivalence property above cannot see the bulk path turn canonical
        # text away.
        with mock.patch.object(fjoin.graph, "_SLICE_CHARS", slice_chars):
            assert _parse_canonical(render_edge_list(g)) == g

    @pytest.mark.parametrize("edit", ["crlf", "leading-zero"])
    def test_bulk_parse_gives_up_in_first_slice(self, edit):
        # A format fault stops the bulk path in the slice it is in.
        header, *body = render_edge_list(random_graph(5000, 20_000, 1)).splitlines()
        if edit == "leading-zero":
            body[0] = "0" + body[0]
        end = "\r\n" if edit == "crlf" else "\n"
        text = end.join([header, *body]) + end
        with mock.patch.object(fjoin.graph, "_is_plain", wraps=fjoin.graph._is_plain) as screen:
            assert _parse_canonical(text) is None
        assert screen.call_count == 1

    @pytest.mark.parametrize("edit", ["unsorted", "reversed"])
    def test_bulk_parse_leaves_order_to_graph(self, edit):
        # Edges out of order are read to the end; only Graph turns them away,
        # and the bulk path sorts them and reads the graph without the line loop.
        # A star's first fields still ascend once every pair is reversed, so
        # only the pairs' own order is wrong.
        g = random_graph(5000, 20_000, 1) if edit == "unsorted" else generate("star", 20_001)
        header, *body = render_edge_list(g).splitlines()
        if edit == "unsorted":
            body.reverse()
        else:
            body = [" ".join(reversed(line.split())) for line in body]
        text = "\n".join([header, *body]) + "\n"
        with mock.patch.object(
            fjoin.graph, "_is_plain", wraps=fjoin.graph._is_plain
        ) as screen, mock.patch.object(fjoin.graph, "_parse_lines", side_effect=AssertionError):
            assert _parse_canonical(text) == parse_edge_list(text) == g
        assert screen.call_count > 4  # each read went past its first two slices
        assert _parse_lines(text) == g

    @pytest.mark.parametrize("fault", ["duplicate", "falling"])
    def test_late_fault_matches_line_loop(self, fault):
        # The bulk path reads a repeated edge and a falling second endpoint
        # like any other line; only Graph, at the end, sees them.
        g = random_graph(5000, 20_000, 1)
        header, *body = render_edge_list(g).splitlines()
        # The last two lines that share a first endpoint.
        firsts = [line.split()[0] for line in body]
        i = next(i for i in range(len(body) - 1, 0, -1) if firsts[i - 1] == firsts[i])
        if fault == "duplicate":
            body[i] = body[i - 1]
        else:
            body[i - 1], body[i] = body[i], body[i - 1]
        text = "\n".join([header, *body]) + "\n"
        assert len("\n".join(body[:i])) > 2 * fjoin.graph._SLICE_CHARS
        # Graph's naming walk is not run on refused bulk edges: the line loop
        # names the fault.
        with mock.patch.object(
            fjoin.graph, "_is_plain", wraps=fjoin.graph._is_plain
        ) as screen, mock.patch.object(Graph, "_check_edges", side_effect=AssertionError):
            outcome = _parse_outcome(parse_edge_list, text)
        assert screen.call_count > 2  # the bulk path reached the fault's slice
        assert outcome == _parse_outcome(_parse_lines, text)
        if fault == "duplicate":
            assert outcome == (f"line {i + 2}: duplicate edge {g.edges[i - 1]}", i + 2)
        else:
            assert outcome == g

    def test_crlf_text_takes_bulk_path(self):
        g = random_graph(5000, 20_000, 1)
        lf = render_edge_list(g)
        assert len(lf) > 2 * fjoin.graph._SLICE_CHARS
        with mock.patch.object(fjoin.graph, "_parse_lines", side_effect=AssertionError):
            assert parse_edge_list(lf.replace("\n", "\r\n")) == parse_edge_list(lf) == g

    def test_bulk_parse_peak_memory_is_bounded(self):
        # Measured peak over kept: about 1.13 with the text screened and
        # loaded in 16 K slices, 1.20 in 64 K slices and 1.33 in one slice.
        g = random_graph(5000, 20_000, 1)
        text = render_edge_list(g)
        assert len(text) > fjoin.graph._SLICE_CHARS
        tracemalloc.start()
        try:
            parsed = parse_edge_list(text)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert parsed == g
        assert peak < 1.5 * kept

    def test_bulk_parsed_graph_keeps_two_int_columns(self):
        # Two int columns keep about 71 traced bytes an edge here (ints past
        # the small-int cache, two tuples of pointers, the degree counts);
        # a tuple of pair tuples kept about 119.
        g = random_graph(5000, 20_000, 1)
        text = render_edge_list(g)
        tracemalloc.start()
        try:
            parsed = parse_edge_list(text)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert parsed == g
        assert kept < 80 * g.m


def reference_random_graph(n, m, seed):
    """The pair-list sampler: draw ``m`` of the enumerated pairs, then sort.
    ``random_graph`` must give the same graph by unranking sampled indices."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph.from_edges(n, random.Random(seed).sample(pairs, m))


@st.composite
def sampler_args(draw):
    n = draw(st.integers(1, 40))
    m = draw(st.integers(0, n * (n - 1) // 2))
    return n, m, draw(st.integers())


class TestRandomGraph:
    @given(sampler_args())
    @example((1, 0, 0))
    @example((40, 0, 3))
    @example((40, 780, 3))  # every pair
    def test_matches_pair_list_sampler(self, args):
        assert random_graph(*args) == reference_random_graph(*args)

    def test_matches_pair_list_sampler_at_largest_list(self):
        # 998,991 pairs: the largest order the pair list served. The
        # reference alone takes longer than Hypothesis's deadline.
        assert random_graph(1414, 1000, 5) == reference_random_graph(1414, 1000, 5)

    @pytest.mark.parametrize("n", [1, 2, 3, 17])
    def test_every_pair_is_the_complete_graph(self, n):
        assert random_graph(n, n * (n - 1) // 2, 9) == generate("complete", n)

    def test_deterministic(self):
        assert random_graph(9, 12, 7) == random_graph(9, 12, 7)

    def test_seed_changes_graph(self):
        assert random_graph(10, 20, 1) != random_graph(10, 20, 2)

    def test_exact_edge_count(self):
        for m in (0, 1, 10, 45):
            assert random_graph(10, m, 3).m == m

    def test_rejects_bad_sizes(self):
        with pytest.raises(GraphError):
            random_graph(0, 0, 1)
        with pytest.raises(GraphError):
            random_graph(3, 4, 1)
        with pytest.raises(GraphError):
            random_graph(3, -1, 1)

    def test_unsampleable_pair_count_is_overflow(self):
        # C(10^12, 2) is past sys.maxsize, which random.sample cannot index;
        # the error names the order and the pair count before any allocation.
        with pytest.raises(OverflowError, match="n=1000000000000 .* 499999999999500000000000 vertex pairs"):
            random_graph(10**12, 4, 1)

    def test_rejection_sampling_regime(self):
        # 2000 vertices: more pairs than the pair-list sampler ever enumerated.
        g = random_graph(2000, 50, 11)
        assert g.m == 50
        assert g == random_graph(2000, 50, 11)
