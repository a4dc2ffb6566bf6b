"""Report JSON: a report's tree laid out exactly as ``json.dumps(..., indent=2)``.

A report subclasses :class:`_Report` and builds its tree in ``_tree(rows)``,
each list of rows in it made by ``rows(keys, tuples)``. ``as_dict`` makes
those rows dicts; ``to_json`` writes them as tables, one ``%`` format per row.
"""

from __future__ import annotations

import json
from typing import NamedTuple, Sequence


class _Rows(NamedTuple):
    """Report rows as a table, each of ``tuples`` in ``keys`` order."""

    keys: tuple
    tuples: Sequence[tuple]


class _Report:
    """A report whose ``_tree(rows)`` builds its JSON tree, each list of rows
    in it made by ``rows(keys, tuples)``."""

    def as_dict(self) -> dict:
        return self._tree(lambda keys, tuples: [dict(zip(keys, row)) for row in tuples])

    def to_json(self) -> str:
        """:meth:`as_dict` laid out exactly as ``json.dumps(..., indent=2)``."""
        return _indented_json(self._tree(_Rows))


def _json_key(key) -> str:
    # A key that is not a str is written as json coerces it: 1 as "1", None as "null".
    return json.dumps(key if isinstance(key, str) else json.dumps(key))


def _indented_json(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2)`` byte for byte, for trees of dicts, lists,
    tuples and JSON scalars, with :class:`_Rows` written as its dict rows;
    ``indent`` is a newline and ``obj``'s own indent.

    ``json`` indents in pure Python, so a table makes no dict per row: each
    column is written once, by its values' exact types, and each row is one
    ``%`` format of a template holding the keys and the indents.
    """
    inner = indent + "  "
    if isinstance(obj, _Rows):
        if not obj.tuples:
            return "[]"
        field = inner + "  "
        keys = (_json_key(key).replace("%", "%%") + ": %s" for key in obj.keys)
        row = "{" + field + ("," + field).join(keys) + inner + "}" if obj.keys else "{}"
        columns = list(zip(*obj.tuples))
        written = [_json_column(column, field) for column in columns]
        # Columns all written as they are (or no keys: "{}" % ()) are the rows.
        rows = map(row.__mod__, obj.tuples if written == columns else zip(*written))
        return "[" + inner + ("," + inner).join(rows) + indent + "]"
    if isinstance(obj, dict) and obj:
        fields = (f"{_json_key(k)}: {_indented_json(v, inner)}" for k, v in obj.items())
        return "{" + inner + ("," + inner).join(fields) + indent + "}"
    if isinstance(obj, (list, tuple)) and obj:
        items = (_indented_json(item, inner) for item in obj)
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    return json.dumps(obj)  # a scalar, {} or []


def _json_column(column: tuple, indent: str):
    """A table column as its rows' ``%s`` is to write it: plain ints as they
    are, str and bool as json writes them, others by :func:`_indented_json`."""
    types = set(map(type, column))
    if types == {int}:
        return column
    if types == {str}:
        return list(map(json.encoder.encode_basestring_ascii, column))
    if types == {bool}:
        return ["true" if value else "false" for value in column]
    return [_indented_json(value, indent) for value in column]
