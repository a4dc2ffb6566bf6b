"""Closed-form F-index values of the eight composites, plus a family audit.

:func:`theorem_value` evaluates the F-index of each composite purely from
the two factor invariant bundles, without building anything, by one rule.
A composite has three vertex blocks: the left originals with degree c * d
(c = 2 when the original edges survive, else 1), the inserted vertices with
degree 2 (or d_u + d_v when they are linked) and the right factor with its
own degrees. The join shifts two blocks by a constant s, and each block
contributes sum (d + s)^3 = P3 + 3s * P2 + 3s^2 * P1 + s^3 * N over its N
vertices with degree-power sums P1, P2, P3. For linked inserted vertices
those sums are M1, HM and M4 + 3 * ReZM of the left factor. The rest of
the module carries a fixed table of path/cycle specializations for the same
composites, recorded exactly as tabulated; :func:`audit_examples` checks
every table entry on a grid of constructed operands, one case at a time as
:func:`case_results` makes them, and reports where the tabulated
polynomial disagrees with the closed form. Disagreements are
findings to report, never entries to silently fix.

The audit settles most of the grid by one difference polynomial per entry.
Every bundle field of a path or cycle is linear in its order over the
family's *linear region* (every order but path order 2), so both the
tabulated polynomial and :func:`theorem_value` run unchanged over a small
ring of integer polynomials in (n, m). Every grid point with both orders
in the region is settled by their difference: it matches where the
difference is zero, and is reported where it is not, with both values
read off the polynomials a row at a time. Only the remaining points (path
order 2 rows and columns) are checked one by one.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields
from functools import cache, lru_cache, reduce
from itertools import chain, compress, repeat
from operator import add, mul, sub
from typing import Callable, Iterable, Iterator, NamedTuple

from .derived import DerivedKind
from .graph import GraphError, generate
from .indices import GraphInvariants, invariants
from .joins import JoinMode, OperationSpec
from .report import _Batches, _Report, _Rows

_FAMILY_FLOOR = {"path": 2, "cycle": 3}

# Read once at import: the evaluator runs about 10^5 times per audit.
_SCALE = {kind: 2 if kind.keeps_original_edges else 1 for kind in DerivedKind}
_LINKED = {kind: kind.links_inserted for kind in DerivedKind}


def _shift(count: int, p1: int, p2: int, s: int) -> int:
    """Sum of (d + s)^3 - d^3 over a block of ``count`` degrees d whose sum
    is ``p1`` and whose sum of squares is ``p2``."""
    return s * (3 * p2 + s * (3 * p1 + s * count))


def theorem_value(
    spec: OperationSpec, inv1: GraphInvariants, inv2: GraphInvariants
) -> int:
    """Exact F-index of the ``spec`` composite of two factors.

    ``inv1`` describes the left (derived) factor, ``inv2`` the right one.
    The join adds ``n2`` to the degree of every anchor (each left original
    in vertex mode, each inserted vertex in edge mode) and the anchor count
    to the degree of every right vertex.
    """
    n1, m1, n2 = inv1.n, inv1.m, inv2.n
    c = _SCALE[spec.kind]
    # p1, p2: the inserted block's sums of d and d^2; value starts as its sum
    # of d^3. A linked inserted vertex has degree d_u + d_v for its edge uv.
    if _LINKED[spec.kind]:
        p1, p2, value = inv1.M1, inv1.HM, inv1.M4 + 3 * inv1.ReZM
    else:
        p1, p2, value = 2 * m1, 4 * m1, 8 * m1
    value += c**3 * inv1.F + inv2.F
    if spec.mode is JoinMode.VERTEX:
        return (
            value + _shift(n1, 2 * c * m1, c * c * inv1.M1, n2)
            + _shift(n2, 2 * inv2.m, inv2.M1, n1)
        )
    return value + _shift(m1, p1, p2, n2) + _shift(n2, 2 * inv2.m, inv2.M1, m1)


@dataclass(frozen=True)
class FamilyCase:
    """One tabulated specialization: families fixed, sizes symbolic.

    ``value(n, m)`` evaluates the tabulated polynomial for a left factor of
    order ``n`` and a right factor of order ``m``. ``n_min``/``m_min`` give
    its validity range (tabulated constraint tightened to where the operand
    families exist at all).
    """

    example: int
    case: str
    kind: DerivedKind
    mode: JoinMode
    g1_family: str
    g2_family: str
    n_min: int
    m_min: int
    value: Callable[[int, int], int]

    @property
    def label(self) -> str:
        return f"{self.example}.{self.case}"

    @property
    def spec(self) -> OperationSpec:
        return OperationSpec(self.kind, self.mode)


def _build_table() -> tuple[FamilyCase, ...]:
    S, R, Q, T = DerivedKind
    V, E = JoinMode
    # (example, case, kind, mode, g1 family, g2 family, tabulated n/m floor,
    #  polynomial in n = |g1|, m = |g2|); floors below family existence get
    # raised when the FamilyCase is built.
    rows = [
        (1, "i", S, V, "path", "path", 1, 1,
         lambda n, m: (m * n - 6) * (m**2 + n**2) + 6 * m * n * (m + n) + 24 * m * n - 10 * m - 2 * n - 36),
        (1, "ii", S, V, "path", "cycle", 1, 1,
         lambda n, m: m * n * ((m**2 + n**2) + 6 * (m + n)) - 6 * m**2 + 24 * m * n - 10 * m + 16 * n - 22),
        (1, "iii", S, V, "cycle", "cycle", 1, 1,
         lambda n, m: m * n * ((m**2 + n**2) + 6 * (m + n)) - 6 * m**2 + 24 * m * n + 8 * m + 16 * n),
        (1, "iv", S, V, "cycle", "path", 1, 1,
         lambda n, m: m * n * ((m**2 + n**2) + 6 * (m + n)) - 6 * n**2 + 24 * m * n + 8 * m - 2 * n - 14),
        (2, "i", S, E, "path", "path", 1, 1,
         lambda n, m: (n - 1) * ((m + 2) ** 3 + 6 * (m - 1) * (n - 1) + m * (n - 1) ** 2) + 12 * m * n - 4 * m - 10 * n - 10),
        (2, "ii", S, E, "path", "cycle", 1, 1,
         lambda n, m: (n - 1) * ((m + 2) ** 3 + 6 * m * (n - 1) + m * (n - 1) ** 2) + 12 * m * n - 4 * m + 8 * n - 14),
        (2, "iii", S, E, "cycle", "cycle", 1, 1,
         lambda n, m: n * ((m + 2) ** 3 + 6 * m * n + m * n**2) + 12 * m * n + 8 * m + 8 * n),
        (2, "iv", S, E, "cycle", "path", 1, 1,
         lambda n, m: n * ((m + 2) ** 3 + 6 * n * (m - 1) + m * n**2) + 12 * m * n + 8 * m - 10 * n - 14),
        (3, "i", R, V, "path", "path", 2, 2,
         lambda n, m: m * n * (m**2 + n**2 + 6 * n) + 72 * m * n - 6 * n**2 - 76 * m + 54 * n - 134),
        (3, "ii", R, V, "path", "cycle", 2, 3,
         lambda n, m: m * n * (m**2 + n**2 + 6 * n) + m**4 + 72 * m * n - 84 * m + 72 * n - 120),
        (3, "iii", R, V, "cycle", "cycle", 3, 3,
         lambda n, m: m * n * (m**2 + n**2 + 6 * n) + m**4 + 8 * n**4 + 72 * m * n + 8 * n),
        (3, "iv", R, V, "cycle", "path", 2, 3,
         lambda n, m: m * n * (m**2 + n**2) + 6 * n**2 * (m - 1) + 72 * m * n + 16 * m + 46 * n - 22),
        (4, "i", R, E, "path", "path", 2, 2,
         lambda n, m: (n - 1) * (m + 2) ** 3 + m * (n - 1) ** 3 + 6 * (m - 1) * (n - 1) ** 2 + 12 * m * n - 4 * m + 46 * n - 94),
        (4, "ii", R, E, "path", "cycle", 2, 3,
         lambda n, m: (n - 1) * (m + 2) ** 3 + m * (n - 1) ** 2 * (n + 5) + 12 * m * n - 4 * m + 64 * n - 112),
        (4, "iii", R, E, "cycle", "cycle", 3, 3,
         lambda n, m: n * (m + 2) ** 3 + m * n**3 + 6 * m * n**2 + 12 * m * n + 8 * m + 64 * n),
        (4, "iv", R, E, "cycle", "path", 3, 2,
         lambda n, m: n * (m + 2) ** 3 + m * n**3 + 6 * (m - 1) * n**2 + 12 * m * n + 8 * m + 46 * n - 14),
        (5, "i", Q, V, "path", "path", 3, 3,
         lambda n, m: m * n * (m**2 + n**2) + 6 * m**2 * (n - 1) + 6 * n**2 * (m - 1) + 24 * m * n - 10 * m + 54 * n - 166),
        (5, "ii", Q, V, "path", "cycle", 3, 3,
         lambda n, m: m * n * (m**2 + n**2) + 6 * m**2 * (n - 1) + 6 * n**2 * m + 24 * m * n - 10 * m + 72 * n - 152),
        (5, "iii", Q, V, "cycle", "cycle", 3, 3,
         lambda n, m: m * n * (m**2 + n**2) + 6 * m * n * (m + n) + 24 * m * n + 8 * m + 72 * n),
        (5, "iv", Q, V, "cycle", "path", 3, 3,
         lambda n, m: m * n * (m**2 + n**2) + 6 * m * n * (m + n) - 6 * n**2 + 24 * m * n + 8 * m + 54 * n - 14),
        (6, "i", Q, E, "path", "path", 4, 3,
         lambda n, m: m * (n - 1) * ((n - 1) ** 2 + m**2) + 3 * m**2 * (4 * n - 6) + 6 * (m - 1) * (n - 1) ** 2 + 60 * m * n - 94 * m + 54 * n - 148),
        (6, "ii", Q, E, "path", "cycle", 4, 3,
         lambda n, m: m * (n - 1) * ((n - 1) ** 2 + m**2) + 3 * m**2 * (4 * n - 6) + 6 * m * (n - 1) ** 2 + 60 * m * n - 94 * m + 72 * n - 152),
        (6, "iii", Q, E, "cycle", "cycle", 4, 3,
         lambda n, m: m * n * (m**2 + n**2) + 12 * m**2 * n + 6 * m * n**2 + 60 * m * n + 8 * m + 72 * n),
        (6, "iv", Q, E, "cycle", "path", 4, 3,
         lambda n, m: m * n * (m**2 + n**2) + 12 * m**2 * n + 6 * m * n**2 - 6 * n**2 + 60 * m * n + 8 * m + 6 * n - 14),
        (7, "i", T, V, "path", "path", 3, 3,
         lambda n, m: m * n * (m**2 + n**2) + 6 * n**2 * (m - 1) + 12 * m**2 * (n - 1) + 60 * m * n - 64 * m + 110 * n - 264),
        (7, "ii", T, V, "path", "cycle", 3, 3,
         lambda n, m: m * n * (m**2 + n**2) + 6 * n**2 * m + 12 * m**2 * (n - 1) + 60 * m * n - 64 * m + 128 * n - 250),
        (7, "iii", T, V, "cycle", "cycle", 3, 3,
         lambda n, m: m * n * (m**2 + n**2) + 6 * n**2 * m + 12 * m**2 * n + 60 * m * n + 8 * m + 128 * n),
        (7, "iv", T, V, "cycle", "path", 3, 3,
         lambda n, m: m * n * (m**2 + n**2) + 6 * n**2 * (m - 1) + 12 * m**2 * n + 60 * m * n + 8 * m + 110 * n - 14),
        (8, "i", T, E, "path", "path", 3, 2,
         lambda n, m: m**3 * (n - 1) + 3 * m**2 * (4 * n - 6) + m * (n - 1) ** 3 + 6 * (m - 1) * (n - 1) ** 2 + 60 * m * n - 94 * m + 110 * n - 246),
        (8, "ii", T, E, "path", "cycle", 3, 3,
         lambda n, m: m**3 * (n - 1) + 3 * m**2 * (4 * n - 6) + m * (n - 1) ** 3 + 6 * m * (n - 1) ** 2 + 60 * m * n - 94 * m + 128 * n - 250),
        (8, "iii", T, E, "cycle", "cycle", 3, 3,
         lambda n, m: m**3 * n + 12 * m**2 * n + m * n**2 * (n + 6) + 60 * m * n + 8 * m + 128 * n),
        (8, "iv", T, E, "cycle", "path", 3, 3,
         lambda n, m: m**3 * n + 12 * m**2 * n + m * n**3 + 6 * n**2 * (m - 1) + 60 * m * n + 8 * m + 110 * n - 14),
    ]
    return tuple(
        FamilyCase(example, case, kind, mode, fam1, fam2,
                   max(n_min, _FAMILY_FLOOR[fam1]), max(m_min, _FAMILY_FLOOR[fam2]), poly)
        for example, case, kind, mode, fam1, fam2, n_min, m_min, poly in rows
    )


FAMILY_CASES: tuple[FamilyCase, ...] = _build_table()

_BY_LABEL = {(case.example, case.case): case for case in FAMILY_CASES}


def family_case(example: int, case: str) -> FamilyCase:
    """Look up one table entry by its ``example.case`` identity."""
    try:
        return _BY_LABEL[(example, case)]
    except KeyError:
        raise GraphError(f"no tabulated case {example}.{case}") from None


def family_value(example: int, case: str, n: int, m: int) -> int:
    """Evaluate a tabulated polynomial at factor orders ``(n, m)``."""
    entry = family_case(example, case)
    if n < entry.n_min or m < entry.m_min:
        raise GraphError(
            f"case {entry.label} needs n >= {entry.n_min} and m >= {entry.m_min}, "
            f"got ({n}, {m})"
        )
    return entry.value(n, m)


class Mismatch(NamedTuple):
    n: int
    m: int
    family_value: int
    oracle_value: int


@dataclass(frozen=True)
class CaseResult:
    """Audit outcome for one table entry over its grid."""

    case: FamilyCase
    points: int
    mismatches: tuple[Mismatch, ...]

    @property
    def verified(self) -> bool:
        """At least one grid point was checked and none disagreed."""
        return self.points > 0 and not self.mismatches

    @property
    def verdict(self) -> str:
        """``empty`` when the grid holds no point, so nothing backs a verdict."""
        if not self.points:
            return "empty"
        return "verified" if self.verified else "mismatch"

    def _row(self, rows) -> tuple:
        """The case's fields but its polynomial, then the grid outcome, in
        :data:`_CASE_KEYS` order."""
        entry = vars(self.case)
        return (*(entry[key] for key in _ENTRY_KEYS), self.points, self.verdict,
                rows(Mismatch._fields, self.mismatches))


_ENTRY_KEYS = tuple(field.name for field in fields(FamilyCase) if field.name != "value")
_CASE_KEYS = (*_ENTRY_KEYS, "points", "verdict", "mismatches")


@dataclass(frozen=True)
class AuditReport(_Report):
    n_max: int
    m_max: int
    results: tuple[CaseResult, ...]

    @property
    def mismatched_cases(self) -> tuple[CaseResult, ...]:
        return tuple(result for result in self.results if result.mismatches)

    def _tree(self, rows) -> dict:
        return _audit_tree(self.n_max, self.m_max, self.results, rows)


def _audit_tree(n_max: int, m_max: int, results: Iterable[CaseResult], rows=_Rows) -> dict:
    """The audit report's JSON tree: the grid, the cases one at a time, then
    their summary, which counts each case as the report writer takes it."""
    summary = {"cases": 0, "verified": 0, "mismatched": 0}

    def counted():
        for result in results:
            summary["cases"] += 1
            summary["verified"] += result.verified
            summary["mismatched"] += bool(result.mismatches)
            yield [result._row(rows)]

    return {"n_max": n_max, "m_max": m_max, "cases": _Batches(_CASE_KEYS, counted()), "summary": summary}


class _Poly:
    """Exact integer polynomial in (n, m): ``terms`` maps ``(i, j)`` to the
    nonzero coefficient of n^i m^j.

    It has ``+``, ``-``, ``*``, unary ``-`` and ``**`` by a nonnegative int,
    with int operands on either side, and nothing else: comparison, truth
    value and every other operation raise, so an evaluation that needs more
    fails loudly instead of giving a wrong answer.
    """

    __slots__ = ("terms",)

    def __init__(self, pairs):
        terms: dict[tuple[int, int], int] = {}
        for key, c in pairs:
            terms[key] = terms.get(key, 0) + c
        self.terms = {key: c for key, c in terms.items() if c}

    def __add__(self, other):
        other = _lift(other)
        return NotImplemented if other is None else _Poly(chain(self.terms.items(), other.terms.items()))

    def __mul__(self, other):
        other = _lift(other)
        return NotImplemented if other is None else _Poly(
            ((i + k, j + l), a * b) for (i, j), a in self.terms.items() for (k, l), b in other.terms.items()
        )

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __pow__(self, exponent):
        if type(exponent) is not int or exponent < 0:
            return NotImplemented
        return reduce(mul, [self] * exponent, _Poly([((0, 0), 1)]))

    def _refuse(self, *args):
        raise TypeError("a polynomial has no truth value or order; compare its terms")

    __radd__, __rmul__ = __add__, __mul__
    __eq__ = __bool__ = _refuse


def _lift(value) -> _Poly | None:
    if type(value) is int:
        return _Poly([((0, 0), value)])
    return value if isinstance(value, _Poly) else None


_N, _M = _Poly([((1, 0), 1)]), _Poly([((0, 1), 1)])
_Fit = tuple[tuple[int, int], ...]


def _fit(at3: GraphInvariants, at4: GraphInvariants) -> _Fit:
    """(slope, intercept) of each bundle field over a family's order, fitted
    through its bundles at orders 3 and 4."""
    return tuple((b - a, a - 3 * (b - a)) for a, b in zip(astuple(at3), astuple(at4)))


def _at(fit: _Fit, order) -> GraphInvariants:
    """The fitted bundle at ``order``, an int or a polynomial."""
    return GraphInvariants(*(slope * order + base for slope, base in fit))


@lru_cache(maxsize=1)
def _polynomials(fits: tuple[tuple[str, _Fit], ...]) -> tuple[tuple[_Poly, _Poly], ...]:
    """Each table entry's closed form over the fitted bundles and its
    difference, tabulated minus closed form, in (n, m). A pure function of
    the ``(family, fit)`` pairs, and every audit fits the same built graphs,
    so it is kept."""
    by_family = dict(fits)
    return tuple(
        (closed := theorem_value(
            entry.spec, _at(by_family[entry.g1_family], _N), _at(by_family[entry.g2_family], _M)
        ), entry.value(_N, _M) - closed)
        for entry in FAMILY_CASES
    )


def _rows(poly: _Poly, ns: range, ms: list[int]) -> Iterator[list[int]]:
    """``poly`` at (n, m) for each m in ``ms``, a row for each of the
    consecutive orders n in ``ns``: the first rows term by term, each later
    one from the last by forward differences in n."""
    degree = max((i for i, _ in poly.terms), default=0)
    table = [[sum(c * n**i * m**j for (i, j), c in poly.terms.items()) for m in ms]
             for n in range(ns.start, ns.start + degree + 1)]
    for k in range(degree):  # table[t] becomes the t-th difference at ns.start
        table[k + 1:] = [list(map(sub, high, low)) for low, high in zip(table[k:], table[k + 1:])]
    for _ in ns:
        yield table[0]
        table[:-1] = [list(map(add, low, high)) for low, high in zip(table, table[1:])]


def case_results(n_max: int = 8, m_max: int = 8) -> Iterator[CaseResult]:
    """Check every tabulated case on its grid against the closed form, and
    yield each case's result as it is settled.

    The operands are actually constructed, so the reference is
    :func:`theorem_value` over real invariant bundles, not another
    pencil-and-paper formula. An order is in its family's linear region
    when its built bundle equals the bundle fitted through orders 3 and 4.
    A point with both orders in the region is settled by the entry's
    difference polynomial (evaluation commutes with the ring operations):
    it matches where the difference is zero and is reported with the
    closed form's value where it is not. Every other point is checked one
    by one.
    """

    @cache
    def factor(family: str, size: int) -> GraphInvariants:
        return invariants(generate(family, size))

    fits = {family: _fit(factor(family, 3), factor(family, 4)) for family in _FAMILY_FLOOR}

    @cache
    def in_region(family: str, size: int) -> bool:
        return factor(family, size) == _at(fits[family], size)

    for entry, (closed, difference) in zip(FAMILY_CASES, _polynomials(tuple(fits.items()))):
        spec = entry.spec
        ns = range(entry.n_min, n_max + 1)
        rights = [(m, factor(entry.g2_family, m)) for m in range(entry.m_min, m_max + 1)]
        region_ms = [m for m, _ in rights if in_region(entry.g2_family, m)]
        off_region = [(m, right) for m, right in rights if not in_region(entry.g2_family, m)]
        # Each row's closed form and difference along the region columns.
        region_rows = (zip(_rows(closed, ns, region_ms), _rows(difference, ns, region_ms))
                       if difference.terms else repeat(None))
        mismatches = []
        for n, region_row in zip(ns, region_rows):
            left = factor(entry.g1_family, n)
            settled = in_region(entry.g1_family, n)
            for m, right in off_region if settled else rights:
                tabulated = entry.value(n, m)
                oracle = theorem_value(spec, left, right)
                if tabulated != oracle:
                    mismatches.append(Mismatch(n, m, tabulated, oracle))
            # Path order 2, the only order outside a region, comes first in a row.
            if settled and region_row:
                oracles, differences = region_row
                # tuple.__new__ makes each Mismatch without a Python-level call;
                # list() keeps peak RSS down (extending by the bare iterator
                # reallocates differently and read 5 MB higher in some checkouts).
                found = zip(repeat(n), region_ms, map(add, oracles, differences), oracles)
                mismatches += list(compress(map(tuple.__new__, repeat(Mismatch), found), differences))
        yield CaseResult(entry, len(ns) * len(rights), tuple(mismatches))


def audit_examples(n_max: int = 8, m_max: int = 8) -> AuditReport:
    """All of :func:`case_results` in one report."""
    return AuditReport(n_max, m_max, tuple(case_results(n_max, m_max)))
