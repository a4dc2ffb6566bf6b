from __future__ import annotations

import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from itertools import islice
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fjoin.cli
from fjoin import (
    FAMILIES,
    CorpusConfig,
    DerivedKind,
    audit_examples,
    derive,
    f_join,
    generate,
    invariants,
    parse_edge_list,
    render_edge_list,
    verify_corpus,
)
from fjoin.cli import main
from fjoin.harness import _PAIRS_A_BATCH
from fjoin.joins import JoinMode, OperationSpec

from conftest import graphs, small_numbers

REPO_ROOT = Path(__file__).resolve().parent.parent

TINY_CONFIG = {
    "path": [2, 4],
    "cycle": [3, 4],
    "complete": [1, 3],
    "star": [2, 3],
    "random_trials": 3,
    "max_random_n": 6,
    "max_random_m": 8,
    "seed": 5,
}

# Small integers keep every valid corpus config tiny: ranges end by 6 at most.
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)
CONFIG_KEYS = (*TINY_CONFIG, "paths", "trials", "")
CONFIG_VALUES = st.one_of(st.lists(st.integers(-2, 6), min_size=2, max_size=2), JSON_VALUES)


def run(capsys, argv, stdin: str | None = None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin.encode())))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, name, graph):
    path = tmp_path / name
    path.write_text(render_edge_list(graph))
    return str(path)


class TestGen:
    def test_gen_path(self, capsys):
        code, out, err = run(capsys, ["gen", "--family", "path", "--n", "3"])
        assert code == 0 and err == ""
        assert out == "3 2\n0 1\n1 2\n"

    def test_gen_below_floor_is_usage_error(self, capsys):
        code, out, err = run(capsys, ["gen", "--family", "cycle", "--n", "2"])
        assert code == 2
        assert "cycle needs n >= 3" in err

    def test_unknown_family_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["gen", "--family", "wheel", "--n", "3"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize(
        "n, message",
        [("100000000000000000000", "fjoin: overflow: "), ("1000000000000", "fjoin: out of memory: ")],
        ids=["unindexable", "unallocatable"],
    )
    def test_unbuildable_order_exits_3(self, capsys, family, n, message):
        # The n degree counts are requested before any edge is built.
        code, out, err = run(capsys, ["gen", "--family", family, "--n", n])
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith(message)

    def test_unbuildable_edge_count_exits_3(self, capsys):
        # 10^7 degree counts fit; the ~5 * 10^13 edge slots (4 * 10^14 bytes)
        # are requested before any edge is built, and refused at once.
        code, out, err = run(capsys, ["gen", "--family", "complete", "--n", "10000000"])
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("fjoin: out of memory: ")


class TestDerive:
    def test_derive_from_stdin(self, capsys, monkeypatch):
        text = render_edge_list(generate("cycle", 4))
        code, out, err = run(capsys, ["derive", "--kind", "T"], stdin=text, monkeypatch=monkeypatch)
        assert code == 0
        assert parse_edge_list(out) == derive(DerivedKind.T, generate("cycle", 4)).graph

    def test_derive_from_file_with_tags(self, capsys, tmp_path):
        g = generate("path", 3)
        infile = write_graph(tmp_path, "p3.txt", g)
        tags = tmp_path / "tags.json"
        code, out, err = run(
            capsys, ["derive", "--kind", "s", "--in", infile, "--tags", str(tags)]
        )
        assert code == 0
        payload = json.loads(tags.read_text())
        assert payload["tags"] == ["original_g1"] * 3 + ["inserted"] * 2
        assert payload["origin_edge"] == {"3": [0, 1], "4": [1, 2]}

    def test_bad_kind(self, capsys, tmp_path):
        infile = write_graph(tmp_path, "g.txt", generate("path", 3))
        code, out, err = run(capsys, ["derive", "--kind", "Z", "--in", infile])
        assert code == 2
        assert "unknown derived kind" in err


@pytest.mark.parametrize(
    "argv",
    [["derive", "--kind", "S"], ["join", "--kind", "S", "--mode", "vertex", "--g1", "p3.txt"]],
    ids=["derive", "join"],
)
def test_unwritable_tags_leave_stdout_empty(capsys, tmp_path, monkeypatch, argv):
    text = render_edge_list(generate("path", 3))
    monkeypatch.chdir(tmp_path)
    Path("p3.txt").write_text(text)
    argv = [*argv, "--tags", "missing/t.json"]
    code, out, err = run(capsys, argv, stdin=text, monkeypatch=monkeypatch)
    assert code == 1
    assert out == ""
    assert err.startswith("fjoin: ") and err.count("\n") == 1


class TestJoin:
    def test_join_files(self, capsys, tmp_path):
        g1, g2 = generate("path", 3), generate("cycle", 3)
        code, out, err = run(
            capsys,
            [
                "join",
                "--kind", "Q",
                "--mode", "edge",
                "--g1", write_graph(tmp_path, "a.txt", g1),
                "--g2", write_graph(tmp_path, "b.txt", g2),
            ],
        )
        assert code == 0
        expected = f_join(OperationSpec(DerivedKind.Q, JoinMode.EDGE), g1, g2)
        assert parse_edge_list(out) == expected.graph

    def test_join_one_side_from_stdin(self, capsys, tmp_path, monkeypatch):
        g1, g2 = generate("path", 2), generate("path", 2)
        code, out, err = run(
            capsys,
            ["join", "--kind", "S", "--mode", "vertex",
             "--g1", write_graph(tmp_path, "a.txt", g1)],
            stdin=render_edge_list(g2),
            monkeypatch=monkeypatch,
        )
        assert code == 0
        expected = f_join(OperationSpec(DerivedKind.S, JoinMode.VERTEX), g1, g2)
        assert parse_edge_list(out) == expected.graph

    def test_join_both_sides_stdin_is_usage_error(self, capsys):
        code, out, err = run(capsys, ["join", "--kind", "S", "--mode", "vertex"])
        assert code == 2
        assert "at most one" in err


class TestIndex:
    def test_table_output(self, capsys, tmp_path):
        infile = write_graph(tmp_path, "p4.txt", generate("path", 4))
        code, out, err = run(capsys, ["index", "--in", infile])
        assert code == 0
        assert re.search(r"^F\s+18$", out, flags=re.M)
        assert re.search(r"^ReZM\s+28$", out, flags=re.M)

    def test_json_output(self, capsys, monkeypatch):
        text = render_edge_list(generate("path", 3))
        code, out, err = run(capsys, ["index", "--json"], stdin=text, monkeypatch=monkeypatch)
        assert code == 0
        assert json.loads(out) == invariants(generate("path", 3)).as_dict()

    def test_parse_error_exits_1(self, capsys, monkeypatch):
        code, out, err = run(capsys, ["index"], stdin="2 1\n0 0\n", monkeypatch=monkeypatch)
        assert code == 1
        assert "line 2" in err

    def test_unallocatable_vertex_count_exits_1(self, capsys, monkeypatch):
        # 10^12 vertices fail at the allocation request itself.
        code, out, err = run(capsys, ["index"], stdin="1000000000000 0\n", monkeypatch=monkeypatch)
        assert code == 1
        assert err == "fjoin: line 1: vertex count 1000000000000 is too large to allocate\n"

    def test_overflowing_vertex_count_exits_1(self, capsys, monkeypatch):
        # 10^20 vertices do not fit in an index at all.
        header = "100000000000000000000"
        code, out, err = run(capsys, ["index"], stdin=f"{header} 0\n", monkeypatch=monkeypatch)
        assert code == 1
        assert err == f"fjoin: line 1: vertex count {header} is too large to allocate\n"

    def test_undecodable_file_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"2 1\n0 \xff1\n")
        code, out, err = run(capsys, ["index", "--in", str(path)])
        assert code == 1
        assert out == ""
        assert err == "fjoin: line 2: invalid UTF-8 byte 0xff\n"

    @settings(max_examples=300)
    @given(
        st.one_of(
            st.text().filter(small_numbers),
            st.binary().filter(small_numbers),
            graphs().map(render_edge_list).map(str.encode),
        )
    )
    def test_any_stdin_exits_cleanly(self, data):
        if isinstance(data, str):
            data = data.encode()
        stdin = io.TextIOWrapper(io.BytesIO(data))
        out, err = io.StringIO(), io.StringIO()
        with mock.patch("sys.stdin", stdin), redirect_stdout(out), redirect_stderr(err):
            code = main(["index"])
        assert code in (0, 1, 2)
        if code:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("fjoin: ")
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")

    def test_missing_file_exits_1(self, capsys):
        code, out, err = run(capsys, ["index", "--in", "/nonexistent/graph.txt"])
        assert code == 1


class TestVerify:
    @pytest.fixture
    def config_file(self, tmp_path):
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(TINY_CONFIG))
        return str(path)

    def test_matches_library_and_exits_0(self, capsys, config_file):
        code, out, err = run(capsys, ["verify", "--config", config_file])
        assert code == 0
        expected = verify_corpus(CorpusConfig.from_dict(TINY_CONFIG))
        assert out == expected.to_json() + "\n"

    def test_flag_seed_beats_env_and_config(self, capsys, config_file, monkeypatch):
        monkeypatch.setenv("FJOIN_SEED", "3")
        code, out, err = run(capsys, ["verify", "--config", config_file, "--seed", "9"])
        assert code == 0
        expected = verify_corpus(CorpusConfig.from_dict(TINY_CONFIG).with_seed(9))
        assert out == expected.to_json() + "\n"

    def test_env_seed_beats_config(self, capsys, config_file, monkeypatch):
        monkeypatch.setenv("FJOIN_SEED", "9")
        code, out, err = run(capsys, ["verify", "--config", config_file])
        assert code == 0
        expected = verify_corpus(CorpusConfig.from_dict(TINY_CONFIG).with_seed(9))
        assert out == expected.to_json() + "\n"

    def test_default_report_is_pinned(self, capsys):
        # Criterion 7 compares two runs of one build; this pins the bytes
        # across changes to the sampler, the oracle and the report writer.
        code, out, err = run(capsys, ["verify", "--seed", "42"])
        assert code == 0
        data = out.encode("utf-8")
        assert len(data) == 1_071_343
        assert hashlib.sha256(data).hexdigest() == (
            "dfc74c16f189862fe7a59329b32925361dd01e5ed792c8e42e20d7fc92e7efb5"
        )

    def test_bad_env_seed_is_usage_error(self, capsys, config_file, monkeypatch):
        monkeypatch.setenv("FJOIN_SEED", "abc")
        code, out, err = run(capsys, ["verify", "--config", config_file])
        assert code == 2
        assert "FJOIN_SEED" in err

    @pytest.mark.parametrize(
        "config, reason",
        [
            pytest.param('{"paths": [1, 2]}', "unknown corpus config key 'paths'", id="unknown-key"),
            # A range is keyed by its family's name, never by its field's.
            pytest.param(
                '{"path_sizes": [1, 2]}',
                "unknown corpus config key 'path_sizes'",
                id="field-name-as-key",
            ),
            pytest.param('{"path": 5}', "must be a [low, high] pair", id="range-not-a-list"),
            pytest.param('{"seed": null}', "must be an integer", id="seed-null"),
            pytest.param('{"seed": 1.7}', "must be an integer", id="seed-float"),
            pytest.param('{"seed": true}', "must be an integer", id="seed-bool"),
            pytest.param(
                "[" * 100_000 + "]" * 100_000, "nested too deeply", id="nested-too-deep"
            ),
            pytest.param(
                '{"random_trials": -1}', "random_trials must be nonnegative", id="trials-negative"
            ),
            pytest.param('{"max_random_n": 0}', "max_random_n must be positive", id="max-n-zero"),
            pytest.param(
                '{"max_random_m": -1}', "max_random_m must be nonnegative", id="max-m-negative"
            ),
        ],
    )
    def test_bad_config_is_usage_error(self, capsys, tmp_path, config, reason):
        path = tmp_path / "bad.json"
        path.write_text(config)
        code, out, err = run(capsys, ["verify", "--config", str(path)])
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("fjoin: ")
        assert reason in err

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(
            JSON_VALUES,
            st.dictionaries(st.sampled_from(CONFIG_KEYS), CONFIG_VALUES, max_size=5),
        )
    )
    def test_any_config_exits_cleanly(self, tmp_path_factory, config):
        # Known keys a draw leaves out come from TINY_CONFIG rather than the
        # much larger default corpus, so a valid draw stays under 450 pairs.
        if isinstance(config, dict):
            config = {**TINY_CONFIG, **config}
        path = tmp_path_factory.getbasetemp() / "any-config.json"
        path.write_text(json.dumps(config))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["verify", "--config", str(path)])
        assert code in (0, 1, 2)
        if code:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("fjoin: ")
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")


class TestAudit:
    def test_exits_0_despite_findings(self, capsys):
        code, out, err = run(capsys, ["audit", "--n-max", "5", "--m-max", "5"])
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["cases"] == 32
        assert payload["summary"]["mismatched"] > 0

    def test_empty_grid_verifies_nothing(self, capsys):
        code, out, err = run(capsys, ["audit", "--n-max", "0", "--m-max", "0"])
        assert code == 0
        payload = json.loads(out)
        assert {case["verdict"] for case in payload["cases"]} == {"empty"}
        assert payload["summary"] == {"cases": 32, "verified": 0, "mismatched": 0}

    def test_default_grid_is_the_shipped_report_byte_for_byte(self, capsys):
        # Key order and layout included, which a comparison of parsed JSON misses.
        code, out, err = run(capsys, ["audit", "--n-max", "8", "--m-max", "8"])
        assert code == 0
        assert out.encode() == (REPO_ROOT / "audit_report.json").read_bytes()

    def test_full_size_report_is_pinned(self, capsys):
        # The shipped report covers 8 x 8; this pins the 23,781 mismatch
        # rows of the 60 x 60 grid across changes to how the audit decides.
        code, out, err = run(capsys, ["audit", "--n-max", "60", "--m-max", "60"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "b0c53c9ccc52d07146ba9433c498c68a940f2ea0ba4d48cc3564a836eba3fe81"
        )


def test_report_layout_is_json_dumps_indent_2(capsys, tmp_path):
    config = tmp_path / "corpus.json"
    config.write_text(json.dumps(TINY_CONFIG))
    for argv in (["verify", "--config", str(config)], ["audit", "--n-max", "12", "--m-max", "12"]):
        code, out, err = run(capsys, argv)
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


class _CountingStdout(io.TextIOBase):
    """A stdout that counts what is written to it and keeps none of it."""

    def __init__(self):
        self.written = 0

    def write(self, text: str) -> int:
        self.written += len(text)  # the reports are ASCII: one byte a character
        return len(text)


def _fails_after(producer, items: int):
    """``producer`` that raises MemoryError once it has made ``items`` items."""

    def failing(*args):
        yield from islice(producer(*args), items)
        raise MemoryError

    return failing


class TestStreamedReports:
    """verify and audit write their reports a batch at a time."""

    @pytest.fixture
    def config_file(self, tmp_path):
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(TINY_CONFIG))
        return str(path)

    @pytest.mark.parametrize("command", ["audit", "verify"])
    def test_peak_memory_stays_below_the_bytes_written(self, tmp_path, command):
        # A writer that holds the whole report (or its records) peaks at a
        # multiple of the report's size; a streamed one at a fraction of it.
        if command == "audit":
            argv = ["audit", "--n-max", "100", "--m-max", "100"]
        else:
            path = tmp_path / "trials.json"
            path.write_text(json.dumps({**TINY_CONFIG, "random_trials": 3000}))
            argv = ["verify", "--config", str(path)]
        sink = _CountingStdout()
        tracemalloc.start()
        try:
            with redirect_stdout(sink):
                code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < sink.written

    @pytest.mark.parametrize("batches", [0, 1], ids=["before-first-batch", "after-first-batch"])
    @pytest.mark.parametrize("command", ["audit", "verify"])
    def test_memory_error_mid_report(self, capsys, monkeypatch, config_file, command, batches):
        # An audit batch is one case; a verify batch the records of
        # _PAIRS_A_BATCH operand pairs, each pair one item of its producer.
        if command == "audit":
            argv = ["audit", "--n-max", "5", "--m-max", "5"]
            producer, items = "case_results", batches
            full = audit_examples(5, 5).to_json()
        else:
            argv = ["verify", "--config", config_file]
            producer, items = "corpus_records", batches * _PAIRS_A_BATCH
            full = verify_corpus(CorpusConfig.from_dict(TINY_CONFIG)).to_json()
        monkeypatch.setattr(fjoin.cli, producer, _fails_after(getattr(fjoin.cli, producer), items))
        code, out, err = run(capsys, argv)
        assert code == 3
        assert len(err.splitlines()) == 1 and err.startswith("fjoin: out of memory")
        # Nothing before the first batch; after it, a prefix of the report
        # that stops short of the summary, its verdict.
        assert bool(out) == bool(batches)
        assert full.startswith(out) and '"summary"' not in out

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize(
        "argv", [["audit", "--n-max", "60", "--m-max", "60"], ["verify", "--seed", "1"]],
        ids=["audit", "verify"],
    )
    def test_closed_pipe_exits_1_with_one_line(self, argv, unbuffered):
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "fjoin.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        head = proc.stdout.read(5)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert head == b'{\n  "'
        assert err == b"fjoin: [Errno 32] Broken pipe\n"


class TestBench:
    def test_row_output(self, capsys):
        code, out, err = run(
            capsys, ["bench", "--n1", "20", "--n2", "20", "--density", "1/4", "--seed", "1"]
        )
        assert code == 0
        assert re.fullmatch(r"20,20,\d+,\d+,\d+,\d+,true,true\n", out)

    def test_env_seed_used_when_flag_absent(self, capsys, monkeypatch):
        monkeypatch.setenv("FJOIN_SEED", "1")
        code_env, out_env, _ = run(
            capsys, ["bench", "--n1", "20", "--n2", "20", "--density", "1/4"]
        )
        code_flag, out_flag, _ = run(
            capsys, ["bench", "--n1", "20", "--n2", "20", "--density", "1/4", "--seed", "1"]
        )
        assert code_env == code_flag == 0
        # Timing fields differ run to run; the sampled sizes must not.
        assert out_env.split(",")[:4] == out_flag.split(",")[:4]

    def test_bad_density_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, ["bench", "--n1", "10", "--n2", "10", "--density", "lots"]
        )
        assert code == 2
        assert "density" in err

    def test_negative_budget_is_usage_error(self, capsys):
        code, out, err = run(
            capsys,
            ["bench", "--n1", "5", "--n2", "5", "--density", "1/2", "--edge-budget", "-1"],
        )
        assert code == 2
        assert out == "" and "edge budget" in err

    def test_unindexable_order_exits_3(self, capsys):
        # No index-sized integer holds 10^20, so even the empty graph's
        # degree vector cannot be requested.
        code, out, err = run(
            capsys,
            ["bench", "--n1", "100000000000000000000", "--n2", "1", "--density", "0"],
        )
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("fjoin: overflow: ")

    def test_unallocatable_order_exits_3(self, capsys):
        # 10^12 vertices fit in an index, but the degree vector's allocation
        # request fails at once.
        code, out, err = run(
            capsys,
            ["bench", "--n1", "1000000000000", "--n2", "1", "--density", "0"],
        )
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("fjoin: out of memory: ")

    def test_unsampleable_order_exits_3(self, capsys):
        # C(10^12, 2) pairs: more than any index-sized integer holds, so the
        # four sampled edges cannot be drawn.
        code, out, err = run(
            capsys,
            ["bench", "--n1", "1000000000000", "--n2", "1",
             "--density", "1/100000000000000000000000"],
        )
        assert code == 3
        assert out == ""
        assert err == (
            "fjoin: overflow: random graph on n=1000000000000 vertices has "
            "499999999999500000000000 vertex pairs, more than random.sample "
            f"can index ({sys.maxsize})\n"
        )

    def test_budget_skips_construction(self, capsys):
        code, out, err = run(
            capsys,
            ["bench", "--n1", "30", "--n2", "30", "--density", "1/3",
             "--seed", "2", "--edge-budget", "10"],
        )
        assert code == 0
        assert re.fullmatch(r"30,30,\d+,\d+,\d+,,false,\n", out)


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["gen", "--family", "path", "--n", "3", "--loud"])
        assert excinfo.value.code == 2

    def test_non_integer_n(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["gen", "--family", "path", "--n", "three"])
        assert excinfo.value.code == 2


def test_gen_derive_index_pipeline_matches_library(capsys, monkeypatch):
    code, gen_out, _ = run(capsys, ["gen", "--family", "star", "--n", "5"])
    assert code == 0
    code, derive_out, _ = run(
        capsys, ["derive", "--kind", "R"], stdin=gen_out, monkeypatch=monkeypatch
    )
    assert code == 0
    code, index_out, _ = run(
        capsys, ["index", "--json"], stdin=derive_out, monkeypatch=monkeypatch
    )
    assert code == 0
    expected = invariants(derive(DerivedKind.R, generate("star", 5)).graph)
    assert json.loads(index_out) == expected.as_dict()
