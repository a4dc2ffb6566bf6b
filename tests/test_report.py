from __future__ import annotations

import enum
import json
from typing import NamedTuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fjoin.report import _Batches, _indented_json, _Rows, pieces


# Strings that hold JSON's own punctuation, escapes, newlines, non-ASCII text
# and %, so that a row's text can look like a row boundary or a format field.
_JSON_TEXT = st.text(st.one_of(st.sampled_from('{},"\\: \n\r\té€%s'), st.characters()), max_size=6)
_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _JSON_TEXT)
# Every key type json accepts; it writes the non-str ones as text.
_JSON_KEYS = st.one_of(_JSON_TEXT, st.integers(), st.floats(), st.booleans(), st.none())
# Lists of flat dicts, empty ones included.
_JSON_ROWS = st.lists(st.dictionaries(_JSON_KEYS, _JSON_SCALARS, max_size=4), max_size=4)
_JSON_TREES = st.recursive(
    st.one_of(_JSON_SCALARS, _JSON_ROWS, _JSON_ROWS.map(tuple)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_JSON_KEYS, children, max_size=4),
    ),
    max_leaves=12,
)


class TestIndentedJson:
    @settings(max_examples=300)
    @given(_JSON_TREES)
    @example([{"a": "},\n      {", "b": 1}, {"c": None}])
    @example({"rows": [{"x": '"}, {"'}, {"y": [1]}], "more": [{}, {"z": 2.5}], "": {}})
    @example({1: [{True: 0, None: "\u00e9", 1.5: float("nan")}], False: ()})
    def test_matches_json_dumps(self, obj):
        assert _indented_json(obj) == json.dumps(obj, indent=2)


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


# What one table column holds: each exact type the table writer formats
# itself, the types it hands back to _indented_json, a mix, nested trees.
_CELLS = [
    st.integers(), _JSON_TEXT, st.booleans(), st.none(), st.floats(),
    st.sampled_from(_Level), _JSON_SCALARS, _JSON_TREES,
]


@st.composite
def _tables(draw, cells=st.sampled_from(_CELLS)):
    """A table with 0 to 4 keys, distinct as dict keys, and 0 to 4 rows."""
    keys = tuple(draw(st.dictionaries(_JSON_KEYS, st.none(), max_size=4)))
    count = draw(st.integers(min_value=0, max_value=4))
    columns = [draw(st.lists(draw(cells), min_size=count, max_size=count)) for _ in keys]
    return _Rows(keys, list(zip(*columns)) if keys else [()] * count)


# fjoin puts a table in a report only as a top-level batched value or as a
# cell of a table row (an audit case's mismatches), so tables nest only so.
_NESTED_TABLES = _tables(st.sampled_from([*_CELLS, _tables()]))


def dict_rows(obj):
    """``obj`` with a table, and each table in its cells, replaced by its
    list of dict rows."""
    if isinstance(obj, _Rows):
        return [{key: dict_rows(value) for key, value in zip(obj.keys, row)} for row in obj.tuples]
    return obj


class TestIndentedJsonTables:
    @settings(max_examples=300)
    @given(_NESTED_TABLES)
    @example(_Rows(("%s", "a%%b", "%(x)s", 1, None, False, 2.5), [(1, "%s", "%", 2, 3, 4, 5)]))
    @example(_Rows((), [(), ()]))
    @example(_Rows(("empty", "none"), [(_Rows(("a", "b"), []), _Rows((), []))]))
    @example(_Rows(("flag", "level", "x"), [(True, _Level.LOW, float("nan")), (False, _Level.HIGH, -0.0)]))
    @example(_Rows(("v",), [(1,), (True,), (1.5,), (None,), (_Level.LOW,), ("s",), ({"k": [1]},)]))
    @example(_Rows(("nested", "text"), [([{"a": "},\n  {"}], "\u00e9\ud800"), ((), "")]))
    @example(_Rows(("case", "mismatches"), [("a", _Rows(("n", "m"), [(3, 4), (5, 6)])), ("b", _Rows(("n",), []))]))
    # Exact ints are written as they are; a bool or IntEnum among them is not.
    @example(_Rows(("n", "m"), [(1, 2), (3, True)]))
    @example(_Rows(("n", "m"), [(1, _Level.LOW), (2, 3)]))
    @example(_Rows(("n", "m", "f", "o"), [(3, 4, 10**30, -7)] * 3))
    def test_matches_json_dumps_of_dict_rows(self, obj):
        assert _indented_json(obj) == json.dumps(dict_rows(obj), indent=2)


class _Batched(NamedTuple):
    """A test's description of a :class:`_Batches` value."""

    keys: tuple
    batches: list


@st.composite
def _report_trees(draw):
    """A report tree as a dict of descriptions: a JSON tree, or
    :class:`_Batched` rows, whose cells may be tables."""
    tree = {}
    for key in draw(st.lists(_JSON_TEXT, min_size=1, max_size=4, unique=True)):
        if draw(st.booleans()):
            tree[key] = draw(_JSON_TREES)
        else:
            table = draw(_NESTED_TABLES)
            cut = sorted(draw(st.lists(st.integers(0, len(table.tuples)), max_size=3)))
            bounds = [0, *cut, len(table.tuples)]
            tree[key] = _Batched(table.keys, [table.tuples[a:b] for a, b in zip(bounds, bounds[1:])])
    return tree


class TestPieces:
    @settings(max_examples=200)
    @given(_report_trees(), st.sampled_from(["", "\n"]))
    @example({"rows": _Batched((), [[], []])}, "")
    @example({"rows": _Batched(("a",), [[], [(1,)], [], [(2,), (3,)]]), "summary": {"n": 3}}, "\n")
    @example({"rows": _Batched(("a", "b"), [[(1, 2)], [(3, False)]])}, "")
    def test_join_to_json_dumps_with_a_piece_per_nonempty_batch(self, tree, end):
        def batched(value):
            return _Batches(value.keys, iter(value.batches)) if isinstance(value, _Batched) else value

        def listed(value):
            if isinstance(value, _Batched):
                return dict_rows(_Rows(value.keys, [row for batch in value.batches for row in batch]))
            return value

        written = list(pieces({key: batched(value) for key, value in tree.items()}, end))
        expected = json.dumps({key: listed(value) for key, value in tree.items()}, indent=2)
        assert "".join(written) == expected + end
        nonempty = sum(bool(batch) for value in tree.values() if isinstance(value, _Batched)
                       for batch in value.batches)
        assert len(written) == nonempty + 1

    def test_a_piece_is_yielded_only_once_its_batch_is_made(self):
        made = []

        def batches():
            for index in range(3):
                made.append(index)
                yield [(index,)]

        summary = {"made": 0}
        tree = {"rows": _Batches(("i",), batches()), "summary": summary}
        for count, piece in enumerate(pieces(tree), 1):
            if count <= 3:
                assert len(made) == count and piece.endswith(f'"i": {count - 1}\n    }}')
            summary["made"] = len(made)
        assert piece.endswith('"summary": {\n    "made": 3\n  }\n}')
