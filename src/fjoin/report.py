"""Report JSON: a report's tree laid out exactly as ``json.dumps(..., indent=2)``,
as pieces written while the report is produced.

A :class:`_Report` builds its tree in ``_tree()``. Its tables, a top-level
:class:`_Batches` whose rows come a batch at a time and any :class:`_Rows`
in a table's cells, are written one ``%`` format a table, all else by
``json.dumps``. :func:`pieces` yields the text up to and including each
batch as one piece, as soon as the batch is made, and the rest as a last
piece, so values after the batches (a summary counted over them) are read
only once every batch is written. ``to_json`` joins the pieces,
``as_dict`` parses that text, and the CLI writes each piece as it comes.
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


class _Report:
    """A report whose ``_tree()`` builds its JSON tree."""

    def as_dict(self) -> dict:
        """The report as the dicts and lists that its JSON text parses to."""
        return json.loads(self.to_json())

    def to_json(self) -> str:
        """The report's tree laid out exactly as ``json.dumps(..., indent=2)``."""
        return "".join(pieces(self._tree()))


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
    """``json.dumps(obj, indent=2)`` at ``indent``, a newline and ``obj``'s own
    indent, with a :class:`_Rows` table written as its dict rows. A table sits
    only at the top of ``obj`` or in its rows' cells, never deeper in a tree."""
    if isinstance(obj, _Rows):
        if not obj.tuples:
            return "[]"
        inner = indent + "  "
        rows = _format_rows(_row_template(obj.keys, inner), obj.tuples, "," + inner, inner + "  ")
        return "[" + inner + rows + indent + "]"
    # Without an indent json.dumps takes its C encoder; a scalar needs none.
    return json.dumps(obj, indent=2 if isinstance(obj, (dict, list, tuple)) else None).replace("\n", indent)


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
    """Nonempty ``tuples`` written by the template ``row``, whose fields are
    at ``indent``, and joined by ``sep``: one ``%`` format for them all.

    A table whose values' types are all exactly ``int`` (``bool`` and
    ``IntEnum`` are not) is flattened once and written as it is; the first
    row's types rule most other tables out before the flatten. Any other
    table is written a column at a time by :func:`_json_column`.
    """
    values = tuple(chain.from_iterable(tuples)) if set(map(type, tuples[0])) == {int} else ()
    if set(map(type, values)) != {int}:
        written = [_json_column(column, indent) for column in zip(*tuples)]
        values = tuple(chain.from_iterable(zip(*written)))
    # Flattened before the template is joined: in the other order the
    # benchmark's audit-grid round read about 4 % slower.
    return sep.join([row] * len(tuples)) % values


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
