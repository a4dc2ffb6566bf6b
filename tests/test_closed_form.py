from __future__ import annotations

import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fjoin import (
    ALL_SPECS,
    FAMILY_CASES,
    DerivedKind,
    GraphError,
    JoinMode,
    audit_examples,
    f_index,
    f_join,
    family_case,
    family_value,
    generate,
    invariants,
    theorem_value,
)
from fjoin import closed_form
from fjoin.closed_form import (
    AuditReport,
    CaseResult,
    GraphInvariants,
    Mismatch,
    _at,
    _block,
    _fit,
    _M,
    _N,
    _Poly,
    _polynomials,
    _rows,
)

from conftest import graphs

README = Path(__file__).resolve().parent.parent / "README.md"


def test_pinned_pair_values(p3, p4):
    inv1, inv2 = invariants(p3), invariants(p4)
    values = {
        (spec.kind.value, spec.mode.value): theorem_value(spec, inv1, inv2)
        for spec in ALL_SPECS
    }
    assert values == {
        ("S", "vertex"): 860,
        ("S", "edge"): 624,
        ("R", "vertex"): 1338,
        ("R", "edge"): 694,
        ("Q", "vertex"): 898,
        ("Q", "edge"): 878,
        ("T", "vertex"): 1376,
        ("T", "edge"): 948,
    }


@pytest.mark.parametrize("spec", ALL_SPECS)
@settings(max_examples=30, deadline=None)
@given(graphs(max_n=7, min_n=0), graphs(max_n=7, min_n=0))
def test_closed_form_equals_brute_force(spec, g1, g2):
    """The central identity: formula value equals the built composite's."""
    closed = theorem_value(spec, invariants(g1), invariants(g2))
    assert closed == f_index(f_join(spec, g1, g2).graph)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 60), max_size=40), st.integers(0, 60))
def test_block_is_the_shifted_cube_sum(ds, s):
    """The one rule: a block's power sums and its shift give sum (d + s)^3."""
    sums = (sum(d**k for d in ds) for k in (1, 2, 3))
    assert _block(len(ds), *sums, s) == sum((d + s) ** 3 for d in ds)


class TestFamilyTable:
    def test_table_shape(self):
        assert len(FAMILY_CASES) == 32
        labels = {(c.example, c.case) for c in FAMILY_CASES}
        assert labels == {
            (e, c) for e in range(1, 9) for c in ("i", "ii", "iii", "iv")
        }

    def test_examples_map_to_specs_in_order(self):
        order = [
            (DerivedKind.S, JoinMode.VERTEX),
            (DerivedKind.S, JoinMode.EDGE),
            (DerivedKind.R, JoinMode.VERTEX),
            (DerivedKind.R, JoinMode.EDGE),
            (DerivedKind.Q, JoinMode.VERTEX),
            (DerivedKind.Q, JoinMode.EDGE),
            (DerivedKind.T, JoinMode.VERTEX),
            (DerivedKind.T, JoinMode.EDGE),
        ]
        for entry in FAMILY_CASES:
            kind, mode = order[entry.example - 1]
            assert entry.spec.kind is kind
            assert entry.spec.mode is mode

    def test_case_family_pattern(self):
        pattern = {
            "i": ("path", "path"),
            "ii": ("path", "cycle"),
            "iii": ("cycle", "cycle"),
            "iv": ("cycle", "path"),
        }
        for entry in FAMILY_CASES:
            assert (entry.g1_family, entry.g2_family) == pattern[entry.case]

    def test_floors_respect_families(self):
        for entry in FAMILY_CASES:
            assert entry.n_min >= (3 if entry.g1_family == "cycle" else 2)
            assert entry.m_min >= (3 if entry.g2_family == "cycle" else 2)

    def test_known_values(self):
        assert family_value(1, "i", 3, 4) == 860
        assert family_value(2, "i", 3, 4) == 624

    def test_lookup_unknown_case(self):
        with pytest.raises(GraphError, match="no tabulated case"):
            family_case(9, "i")
        with pytest.raises(GraphError):
            family_value(1, "v", 5, 5)

    def test_below_floor_is_domain_error(self):
        entry = family_case(5, "i")
        with pytest.raises(GraphError, match="needs n >="):
            family_value(5, "i", entry.n_min - 1, entry.m_min)
        with pytest.raises(GraphError):
            family_value(5, "i", entry.n_min, entry.m_min - 1)


class TestAudit:
    @pytest.mark.parametrize("size", [12, 0])
    def test_json_is_stdlib_layout_of_as_dict(self, size):
        # as_dict parses to_json's text, so this checks that the text (the
        # mismatches written from their tuples) is json's indent=2 layout;
        # at 0 x 0 every list is empty and every verdict empty.
        report = audit_examples(size, size)
        assert report.to_json() == json.dumps(report.as_dict(), indent=2)
        assert any(r.mismatches for r in report.results) == bool(size)
        assert all(r.verdict == "empty" for r in report.results) == (not size)

    def test_grid_respects_floors_and_limits(self):
        report = audit_examples(6, 7)
        assert report.n_max == 6 and report.m_max == 7
        for result in report.results:
            entry = result.case
            assert result.points == (6 - entry.n_min + 1) * (7 - entry.m_min + 1)

    def test_every_mismatch_really_disagrees(self):
        report = audit_examples(5, 5)
        for result in report.results:
            assert result.verified == (not result.mismatches)
            for miss in result.mismatches:
                assert miss.family_value != miss.oracle_value
                assert entry_in_grid(result.case, miss.n, miss.m, 5, 5)

    def test_gate_cases_verify(self):
        report = audit_examples(8, 8)
        by_label = {(r.case.example, r.case.case): r for r in report.results}
        assert by_label[(1, "i")].verified
        assert by_label[(2, "i")].verified


def entry_in_grid(entry, n, m, n_max, m_max):
    return entry.n_min <= n <= n_max and entry.m_min <= m <= m_max


def pointwise_audit(n_max: int = 8, m_max: int = 8) -> AuditReport:
    """The audit as it was before the identity check: every grid point is
    evaluated on both sides. Kept verbatim as the reference."""
    cache: dict[tuple[str, int], GraphInvariants] = {}

    def factor(family: str, size: int) -> GraphInvariants:
        key = (family, size)
        if key not in cache:
            cache[key] = invariants(generate(family, size))
        return cache[key]

    results = []
    for entry in FAMILY_CASES:
        spec = entry.spec
        ns = range(entry.n_min, n_max + 1)
        rights = [(m, factor(entry.g2_family, m)) for m in range(entry.m_min, m_max + 1)]
        mismatches = []
        for n in ns:
            left = factor(entry.g1_family, n)
            for m, right in rights:
                tabulated = entry.value(n, m)
                oracle = theorem_value(spec, left, right)
                if tabulated != oracle:
                    mismatches.append(Mismatch(n, m, tabulated, oracle))
        results.append(CaseResult(entry, len(ns) * len(rights), tuple(mismatches)))
    return AuditReport(n_max, m_max, tuple(results))


def family_fits():
    return {
        family: _fit(invariants(generate(family, 3)), invariants(generate(family, 4)))
        for family in ("path", "cycle")
    }


def difference_terms():
    """Each table entry's difference polynomial, keyed by its label."""
    polynomials = _polynomials(tuple(family_fits().items()))
    return {entry.label: diff.terms for entry, (_, diff) in zip(FAMILY_CASES, polynomials)}


class TestIdentityAudit:
    @pytest.mark.parametrize("n_max", range(13))
    def test_matches_pointwise_audit_byte_for_byte(self, n_max):
        # Empty grids, grids holding only path order 2 and grids that stop
        # below the fit's order 4 are all in range.
        for m_max in range(13):
            assert audit_examples(n_max, m_max).to_json() == pointwise_audit(n_max, m_max).to_json()

    @pytest.mark.parametrize("n_max, m_max", [(60, 60), (60, 3), (3, 60), (2, 60)])
    def test_matches_pointwise_audit_at_full_size(self, n_max, m_max):
        # (60, 60) is the 23,781-row report; the others are one region row
        # or column long, or hold a single path row outside the region.
        # Lists of lines, so that a failure names its first differing line
        # without a diff of two 3 MB strings.
        got = audit_examples(n_max, m_max).to_json().splitlines()
        assert got == pointwise_audit(n_max, m_max).to_json().splitlines()

    def test_points_outside_the_linear_region_are_checked(self, monkeypatch):
        # Skew F of every order-2 bundle. Only path order 2 changes, so the
        # fits and the differences stand; its rows and columns must still be
        # checked point by point, and they now disagree.
        real = invariants

        def skewed(graph):
            bundle = real(graph)
            return replace(bundle, F=bundle.F + 1) if graph.n == 2 else bundle

        monkeypatch.setattr(closed_form, "invariants", skewed)
        monkeypatch.setattr(sys.modules[__name__], "invariants", skewed)
        report = audit_examples(5, 5)
        assert report.to_json() == pointwise_audit(5, 5).to_json()
        skewed_case = next(r for r in report.results if r.case.label == "1.i")
        assert skewed_case.mismatches
        assert all(2 in (miss.n, miss.m) for miss in skewed_case.mismatches)

    def test_linear_region_starts_at_order_3(self):
        fits = family_fits()
        for family, fit in fits.items():
            for order in range(3, 25):
                assert _at(fit, order) == invariants(generate(family, order))
        assert _at(fits["path"], 2) != invariants(generate("path", 2))

    def test_readme_findings_are_the_difference_polynomials(self):
        # Each row is a polynomial identity for n, m >= 3 (the linear region).
        text = README.read_text().split("## Tabulated family specializations: findings")[1]
        rows = re.findall(r"^\| (\d)\.([iv]+) \| [^|]+ \| [^|]+ \| `([^`]+)` \|$", text, re.M)
        assert len(rows) == 7
        tabulated = {}
        for example, case, cell in rows:
            expr = re.sub(r"([\w)])(?=[a-z(])", r"\1*", cell.replace("^", "**"))
            tabulated[f"{example}.{case}"] = (_Poly([]) + eval(expr, {"n": _N, "m": _M})).terms
        differences = difference_terms()
        assert len(differences) == 32
        for label, terms in differences.items():
            assert terms == tabulated.get(label, {}), label


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 7), st.integers(0, 7)),
        st.integers(-10**12, 10**12),
        max_size=12,
    ),
    st.integers(0, 4),
    st.integers(0, 10),
    st.lists(st.integers(-20, 80), max_size=12),
)
@example({}, 0, 4, [3, 4, 5])
@example({(7, 7): -123456789, (0, 0): 98}, 1, 9, [])
@example({(0, 0): 0, (3, 2): -17}, 0, 1, [0, 1, -1])
@example({(0, 7): 3, (0, 0): -5}, 2, 5, [0, -2, 0, 9])
@example({(4, 0): 2, (1, 0): -1}, 0, 3, [5, 6])
@example({(7, 7): 1, (6, 0): -3, (0, 6): 4}, 0, 10, list(range(-3, 9)))
def test_rows_equal_the_term_by_term_sum(terms, start, count, ms):
    # Any coefficients (zero ones dropped), any columns, first rows at orders 0 to 4.
    poly = _Poly(terms.items())
    ns = range(start, start + count)
    want = [[sum(c * n**i * m**j for (i, j), c in terms.items()) for m in ms] for n in ns]
    assert list(_rows(poly, ns, ms)) == want


class TestPolyRing:
    def test_arithmetic_with_ints_on_either_side(self):
        assert ((_N + 2) ** 2 - _N * _N).terms == {(1, 0): 4, (0, 0): 4}
        assert (3 - _M * 2).terms == {(0, 0): 3, (0, 1): -2}
        assert (-(_N - _N)).terms == {}
        assert (_N**0).terms == {(0, 0): 1}

    @pytest.mark.parametrize(
        "operation",
        [
            lambda p: p == p,
            lambda p: bool(p),
            lambda p: p < p,
            lambda p: p / 2,
            lambda p: p // 2,
            lambda p: p % 2,
            lambda p: p + 1.5,
            lambda p: 1.5 * p,
            lambda p: p ** -1,
            lambda p: p**p,
            lambda p: hash(p),
            lambda p: int(p),
        ],
    )
    def test_every_other_operation_raises(self, operation):
        with pytest.raises(TypeError):
            operation(_N)
