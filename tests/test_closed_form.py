from __future__ import annotations

import pytest
from hypothesis import given, settings

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

from conftest import graphs


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
