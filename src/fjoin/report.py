"""Report JSON: a report's tree laid out exactly as ``json.dumps(..., indent=2)``,
as pieces written while the report is produced.

A :class:`_Report` builds its tree in ``_tree(rows)``, each list of rows in
it made by ``rows(keys, tuples)``; ``as_dict`` makes those rows dicts, and
the writer writes them as tables, one ``%`` format a table. A top-level
value may instead be :class:`_Batches`, a table whose rows come a batch at
a time. :func:`pieces` yields the text up to and including each batch as
one piece, as soon as the batch is made, and the rest as a last piece, so
values after the batches (a summary counted over them) are read only once
every batch is written. ``to_json`` joins the pieces once; the CLI writes
each piece as it comes.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Sequence


class _Rows(NamedTuple):
    """Report rows as a table, each of ``tuples`` in ``keys`` order."""

    keys: tuple
    tuples: Sequence[tuple]


class _Batches(NamedTuple):
    """A table whose rows come a batch at a time: each of ``batches`` is a
    sequence of row tuples in ``keys`` order."""

    keys: tuple
    batches: Iterable[Sequence[tuple]]


def _dict_rows(keys, tuples) -> list[dict]:
    return [dict(zip(keys, row)) for row in tuples]


class _Report:
    """A report whose ``_tree(rows)`` builds its JSON tree, each list of rows
    in it made by ``rows(keys, tuples)``."""

    def as_dict(self) -> dict:
        # In key order, so a summary counted over the batches is read after them.
        return {
            key: _dict_rows(value.keys, chain.from_iterable(value.batches))
            if isinstance(value, _Batches) else value
            for key, value in self._tree(_dict_rows).items()
        }

    def to_json(self) -> str:
        """:meth:`as_dict` laid out exactly as ``json.dumps(..., indent=2)``."""
        return "".join(pieces(self._tree(_Rows)))


def pieces(tree: dict, end: str = "") -> Iterator[str]:
    """``json.dumps(tree, indent=2) + end`` for a nonempty report tree, as
    one piece per nonempty batch of its :class:`_Batches` and a last piece.

    Each piece is joined once from the text since the last one.
    """
    text, sep = [], "{"
    for key, value in tree.items():
        text += sep, "\n  ", _json_key(key), ": "
        sep = ","
        if not isinstance(value, _Batches):
            text.append(_indented_json(value, "\n  "))
            continue
        row = _row_template(value.keys, "\n    ")
        opening = "["
        for batch in value.batches:
            if batch:
                text += opening, "\n    ", _format_rows(row, batch, ",\n    ", "\n      ")
                opening = ","
                yield "".join(text)
                text.clear()
        text.append("[]" if opening == "[" else "\n  ]")
    text.append("\n}" + end)
    yield "".join(text)


def _json_key(key) -> str:
    # A key that is not a str is written as json coerces it: 1 as "1", None as "null".
    return json.dumps(key if isinstance(key, str) else json.dumps(key))


def _indented_json(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2)`` byte for byte, for trees of dicts, lists,
    tuples and JSON scalars, with :class:`_Rows` written as its dict rows;
    ``indent`` is a newline and ``obj``'s own indent."""
    inner = indent + "  "
    if isinstance(obj, _Rows):
        if not obj.tuples:
            return "[]"
        rows = _format_rows(_row_template(obj.keys, inner), obj.tuples, "," + inner, inner + "  ")
        return "[" + inner + rows + indent + "]"
    if isinstance(obj, dict) and obj:
        fields = (f"{_json_key(k)}: {_indented_json(v, inner)}" for k, v in obj.items())
        return "{" + inner + ("," + inner).join(fields) + indent + "}"
    if isinstance(obj, (list, tuple)) and obj:
        items = (_indented_json(item, inner) for item in obj)
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    return json.dumps(obj)  # a scalar, {} or []


def _row_template(keys: tuple, indent: str) -> str:
    """A row with ``keys`` written at ``indent``, as a ``%`` template of its values.

    ``json`` indents in pure Python, so a table makes no dict per row: each
    column is written once, by its values' exact types, and the rows are
    written by one ``%`` format of this template repeated.
    """
    if not keys:
        return "{}"
    field = indent + "  "
    fields = (_json_key(key).replace("%", "%%") + ": %s" for key in keys)
    return "{" + field + ("," + field).join(fields) + indent + "}"


def _format_rows(row: str, tuples: Sequence[tuple], sep: str, indent: str) -> str:
    """``tuples`` written by the template ``row``, whose fields are at
    ``indent``, and joined by ``sep``: one ``%`` format for them all."""
    columns = list(zip(*tuples))
    written = [_json_column(column, indent) for column in columns]
    # Columns all written as they are (or no keys: "{}" % ()) are the rows.
    rows = tuples if written == columns else zip(*written)
    return sep.join([row] * len(tuples)) % tuple(chain.from_iterable(rows))


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
