from __future__ import annotations

import json
import re
from fractions import Fraction

import pytest

from fjoin import (
    ALL_SPECS,
    CorpusConfig,
    GraphError,
    bench_compare,
    family_corpus,
    generate,
    theorem_value,
    verify_corpus,
    verify_pair,
)
from fjoin.cli import main

TINY = CorpusConfig(
    path_sizes=(2, 4),
    cycle_sizes=(3, 4),
    complete_sizes=(1, 3),
    star_sizes=(2, 3),
    random_trials=3,
    max_random_n=6,
    max_random_m=8,
    seed=5,
)


class TestCorpusConfig:
    def test_defaults(self):
        config = CorpusConfig()
        assert config.family_ranges() == {
            "path": (1, 8),
            "cycle": (3, 8),
            "complete": (1, 5),
            "star": (2, 6),
        }
        assert config.random_trials == 200
        assert config.max_random_n == 12
        assert config.max_random_m == 66
        assert config.seed == 42

    def test_rejects_empty_range(self):
        with pytest.raises(GraphError, match="empty"):
            CorpusConfig(path_sizes=(5, 4))

    def test_rejects_below_family_floor(self):
        with pytest.raises(GraphError, match="below the family minimum"):
            CorpusConfig(cycle_sizes=(2, 4))

    def test_from_json(self):
        config = CorpusConfig.from_json(
            '{"path": [2, 3], "random_trials": 1, "seed": 9}'
        )
        assert config.path_sizes == (2, 3)
        assert config.random_trials == 1
        assert config.seed == 9
        assert config.cycle_sizes == (3, 8)

    def test_from_json_rejects_unknown_key(self):
        with pytest.raises(GraphError, match="unknown corpus config key"):
            CorpusConfig.from_json('{"paths": [1, 2]}')

    def test_from_json_rejects_malformed(self):
        with pytest.raises(GraphError, match="not valid JSON"):
            CorpusConfig.from_json("{")

    def test_with_seed(self):
        assert CorpusConfig().with_seed(7).seed == 7


def test_family_corpus_labels():
    corpus = family_corpus()
    assert len(corpus) == 24
    labels = [label for label, _ in corpus]
    assert labels[0] == "path-1"
    assert "cycle-5" in labels
    assert labels[-1] == "star-6"
    by_label = dict(corpus)
    assert by_label["complete-4"] == generate("complete", 4)


class TestVerifyPair:
    def test_record_schema(self, p3, p4):
        report = verify_pair(p3, p4, "left", "right")
        assert report.total == 8
        payload = report.as_dict()
        assert set(payload) == {"records", "summary"}
        assert payload["summary"] == {"total": 8, "mismatches": 0}
        for record in payload["records"]:
            assert list(record) == [
                "g1",
                "g2",
                "kind",
                "mode",
                "closed_form",
                "oracle",
                "match",
            ]
            assert record["g1"] == "left"
            assert record["g2"] == "right"
            assert record["match"] is True

    def test_operation_order(self, p3, p4):
        report = verify_pair(p3, p4)
        assert [(r.kind, r.mode) for r in report.records] == [
            ("S", "vertex"),
            ("S", "edge"),
            ("R", "vertex"),
            ("R", "edge"),
            ("Q", "vertex"),
            ("Q", "edge"),
            ("T", "vertex"),
            ("T", "edge"),
        ]


class TestVerifyCorpus:
    def test_deterministic_for_fixed_config(self):
        first = verify_corpus(TINY)
        second = verify_corpus(TINY)
        assert first.to_json() == second.to_json()

    def test_record_count(self):
        report = verify_corpus(TINY)
        families = 3 + 2 + 3 + 2
        assert report.total == (families * families + TINY.random_trials) * 8
        assert report.ok

    def test_labels_name_operands(self):
        report = verify_corpus(TINY)
        labels = {record.g1 for record in report.records}
        assert "path-2" in labels
        assert "random-000-a" in labels

    def test_json_is_stdlib_layout_of_as_dict(self):
        # as_dict parses to_json's text, so this checks that the text (the
        # records written from their str, int and bool columns) is json's
        # indent=2 layout.
        report = verify_corpus(TINY)
        assert report.to_json() == json.dumps(report.as_dict(), indent=2)


class TestBench:
    def test_small_run_compares_both_arms(self):
        record = bench_compare(40, 30, Fraction(1, 5), seed=3)
        assert record.n1 == 40 and record.n2 == 30
        assert record.m1 == int(Fraction(1, 5) * (40 * 39 // 2))
        assert record.feasible is True
        assert record.equal is True
        assert record.closed_ns > 0 and record.construct_ns > 0

    def test_infeasible_run_skips_construction(self):
        record = bench_compare(40, 30, Fraction(1, 5), seed=3, edge_budget=10)
        assert record.feasible is False
        assert record.construct_ns is None
        assert record.equal is None
        assert record.closed_ns > 0

    def test_memory_error_in_construction_downgrades_to_infeasible(self, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr("fjoin.harness.f_join", exhausted)
        record = bench_compare(20, 20, Fraction(1, 4), seed=1)
        assert record.feasible is False
        assert record.construct_ns is None
        assert record.equal is None
        assert record.closed_ns > 0

    def test_csv_row_shape(self):
        full = bench_compare(20, 20, Fraction(1, 4), seed=1)
        assert re.fullmatch(r"20,20,\d+,\d+,\d+,\d+,true,true", full.csv_row())
        skipped = bench_compare(20, 20, Fraction(1, 4), seed=1, edge_budget=5)
        assert re.fullmatch(r"20,20,\d+,\d+,\d+,,false,", skipped.csv_row())

    def test_deterministic(self):
        a = bench_compare(25, 25, Fraction(1, 3), seed=11)
        b = bench_compare(25, 25, Fraction(1, 3), seed=11)
        assert (a.n1, a.m1, a.m2, a.feasible, a.equal) == (b.n1, b.m1, b.m2, b.feasible, b.equal)

    def test_density_bounds(self):
        with pytest.raises(GraphError, match="density"):
            bench_compare(10, 10, Fraction(3, 2), seed=1)
        with pytest.raises(GraphError, match="density"):
            bench_compare(10, 10, -1, seed=1)

    def test_density_accepts_string(self):
        record = bench_compare(20, 20, "1/4", seed=1)
        assert record.m1 == int(Fraction(1, 4) * 190)


class TestMismatchPath:
    """A closed form off by one for one spec: each route that compares the
    two arms must report it."""

    SKEWED = ALL_SPECS[3]

    @pytest.fixture(autouse=True)
    def skew_closed_form(self, monkeypatch):
        def skewed(spec, inv1, inv2):
            return theorem_value(spec, inv1, inv2) + (1 if spec == self.SKEWED else 0)

        monkeypatch.setattr("fjoin.harness.theorem_value", skewed)

    def test_only_the_skewed_record_mismatches(self, p3, p4):
        report = verify_pair(p3, p4)
        assert [record.match for record in report.records] == [spec != self.SKEWED for spec in ALL_SPECS]
        (miss,) = report.mismatches
        assert (miss.kind, miss.mode) == (self.SKEWED.kind.value, self.SKEWED.mode.value)
        assert miss.closed_form == miss.oracle + 1
        assert not report.ok

    def test_json_writes_the_mismatch(self, p3, p4):
        report = verify_pair(p3, p4)
        text = report.to_json()
        assert text.count('"match": false') == 1
        assert text == json.dumps(report.as_dict(), indent=2)

    def test_verify_exits_1_with_one_mismatch_per_pair(self, capsys, tmp_path):
        config = tmp_path / "tiny.json"
        config.write_text(
            '{"path": [2, 3], "cycle": [3, 3], "complete": [1, 1], "star": [2, 2], "random_trials": 2}'
        )
        code = main(["verify", "--config", str(config)])
        summary = json.loads(capsys.readouterr().out)["summary"]
        pairs = (2 + 1 + 1 + 1) ** 2 + 2
        assert code == 1
        assert summary == {"total": 8 * pairs, "mismatches": pairs}

    def test_bench_arms_disagree(self):
        assert bench_compare(20, 20, "1/4", seed=1).equal is False
