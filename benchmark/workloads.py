"""The four workloads: seeded inputs, the timed fjoin calls, and their checks.

A workload object is built once per process (its inputs are the set-up),
then runs whole rounds. ``timed`` holds the fjoin calls a round times;
``after`` checks that round's output and makes the round's untimed calls,
returning how many of them failed; ``finish`` compares everything kept
against the independent reference. Problems found are appended to
``problems``; a failed operation is noted in ``failures`` instead.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import fjoin
import fjoin.cli

from inputs import family_edges, preferential_edges, render, uniform_edges
from reference import all_composites, composite_f_index
from tracing import STDOUT_BYTES

CLOSED_N = 100_000
CLOSED_M = 300_000
ORACLE_N = 300
ORACLE_M = 900
AUDIT_MAX = 60
AUDIT_SAMPLE = 20  # grid points and listed mismatches checked per audited case

# ``verify``'s default corpus: inclusive size ranges per family, then the
# seeded random trials.
CORPUS_FAMILIES = {"path": (1, 8), "cycle": (3, 8), "complete": (1, 5), "star": (2, 6)}
CORPUS_RANDOM_TRIALS = 200
# Smallest order each audited family exists at as an operand.
AUDIT_FLOORS = {"path": 2, "cycle": 3}

# Each must end in exit code 2 with a one-line message; the first fails as of
# this benchmark's introduction (a TypeError escapes ``cli.main``).
MALFORMED_CONFIGS = ({"path": 5}, {"seed": None})


def run_cli(argv: list[str], tracer=None) -> tuple[int, str, str]:
    """Call ``fjoin.cli.main`` in-process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = fjoin.cli.main(argv)
    text = out.getvalue()
    if tracer is not None:
        tracer.add(STDOUT_BYTES, len(text.encode()))
    return code, text, err.getvalue()


class Workload:
    ops_per_round = 1

    def __init__(self, seed: int, workdir: Path, tracer=None):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.tracer = tracer
        self.problems: list[str] = []
        self.failures: set[str] = set()

    def after(self, output) -> int:
        return 0

    def finish(self) -> None:
        pass


class ClosedLarge(Workload):
    """Parse two 10^5-vertex edge lists, then the closed form for all 8 specs."""

    name = "closed-large"
    ops_per_round = 2 + 2 + 8  # parses, invariant bundles, theorem values

    def __init__(self, seed, workdir, tracer=None):
        super().__init__(seed, workdir, tracer)
        self.left = uniform_edges(self.rng, CLOSED_N, CLOSED_M)
        self.right = preferential_edges(self.rng, CLOSED_N, CLOSED_M // CLOSED_N)
        self.texts = (render(CLOSED_N, self.left), render(CLOSED_N, self.right))
        self.values: list[list[int]] = []

    def timed(self):
        g1 = fjoin.parse_edge_list(self.texts[0])
        g2 = fjoin.parse_edge_list(self.texts[1])
        inv1 = fjoin.invariants(g1)
        inv2 = fjoin.invariants(g2)
        return g1, g2, [fjoin.theorem_value(spec, inv1, inv2) for spec in fjoin.ALL_SPECS]

    def after(self, output) -> int:
        g1, g2, values = output
        for label, graph, edges in (("left", g1, self.left), ("right", g2, self.right)):
            if graph.n != CLOSED_N or list(graph.edges) != edges:
                self.problems.append(f"parsed {label} factor differs from the generated edge set")
        self.values.append(values)
        return 0

    def finish(self) -> None:
        reference = all_composites(CLOSED_N, self.left, CLOSED_N, self.right)
        expected = [reference[spec.kind.value, spec.mode.value] for spec in fjoin.ALL_SPECS]
        for index, values in enumerate(self.values):
            if values != expected:
                self.problems.append(f"round {index}: closed form {values} != reference {expected}")


class Oracle300(Workload):
    """``verify_pair`` on one 300-vertex pair: all 8 composites are built."""

    name = "oracle-300"

    def __init__(self, seed, workdir, tracer=None):
        super().__init__(seed, workdir, tracer)
        self.left = uniform_edges(self.rng, ORACLE_N, ORACLE_M)
        self.right = preferential_edges(self.rng, ORACLE_N, ORACLE_M // ORACLE_N)
        self.g1 = fjoin.Graph.from_edges(ORACLE_N, self.left)
        self.g2 = fjoin.Graph.from_edges(ORACLE_N, self.right)
        self.records: list[list[tuple]] = []

    def timed(self):
        return fjoin.verify_pair(self.g1, self.g2, "left", "right")

    def after(self, report) -> int:
        self.records.append(
            [(r.kind, r.mode, r.closed_form, r.oracle, r.match) for r in report.records]
        )
        return 0

    def finish(self) -> None:
        reference = all_composites(ORACLE_N, self.left, ORACLE_N, self.right)
        for index, records in enumerate(self.records):
            if sorted((kind, mode) for kind, mode, *_ in records) != sorted(reference):
                self.problems.append(f"round {index}: records do not cover the 8 operations once")
            for kind, mode, closed, oracle, match in records:
                want = reference.get((kind, mode))
                if not (match and closed == oracle == want):
                    self.problems.append(
                        f"round {index}: {kind}-{mode} closed {closed}, oracle {oracle}, "
                        f"match {match}, reference {want}"
                    )


class CorpusVerify(Workload):
    """``fjoin verify --seed S`` over the default corpus, plus two malformed configs."""

    name = "corpus-verify"
    ops_per_round = 1 + len(MALFORMED_CONFIGS)

    def __init__(self, seed, workdir, tracer=None):
        super().__init__(seed, workdir, tracer)
        self.config_paths = []
        for index, config in enumerate(MALFORMED_CONFIGS):
            path = workdir / f"malformed-{index}.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            self.config_paths.append((config, path))
        self.first: str | None = None

    def timed(self):
        return run_cli(["verify", "--seed", str(self.seed)], self.tracer)

    def after(self, output) -> int:
        code, out, err = output
        if self.first is None:
            self.first = out
            if code != 0 or err:
                self.problems.append(f"verify exited {code} with stderr {err!r}")
        elif out != self.first:
            self.problems.append("verify report differs between rounds of one seed")
        failed = 0
        for config, path in self.config_paths:
            reason = _usage_error_problem(["verify", "--config", str(path)])
            if reason:
                failed += 1
                self.failures.add(f"verify --config {json.dumps(config)}: {reason}")
        return failed

    def finish(self) -> None:
        data = json.loads(self.first)
        records = data["records"]
        graphs = {f"{family}-{n}": (n, family_edges(family, n)) for family, (low, high)
                  in CORPUS_FAMILIES.items() for n in range(low, high + 1)}
        family_pairs = len(graphs) ** 2
        total = 8 * (family_pairs + CORPUS_RANDOM_TRIALS)
        if len(records) != total or data["summary"] != {"total": total, "mismatches": 0}:
            self.problems.append(f"verify reported {len(records)} records, summary {data['summary']}")
        references = {}
        for record in records:
            if not (record["match"] and record["closed_form"] == record["oracle"]):
                self.problems.append(f"record disagrees: {record}")
                continue
            pair = (record["g1"], record["g2"])
            if record["g1"] not in graphs:
                continue  # a seeded random trial: fjoin drew the graphs itself
            if pair not in references:
                references[pair] = all_composites(*graphs[pair[0]], *graphs[pair[1]])
            want = references[pair][(record["kind"], record["mode"])]
            if record["closed_form"] != want:
                self.problems.append(f"record {record} != reference {want}")
        if len(references) != family_pairs:
            self.problems.append(f"{len(references)} family pairs checked, {family_pairs} expected")


def _usage_error_problem(argv: list[str]) -> str | None:
    """Why a call that should be a usage error is not one, or None if it is."""
    try:
        code, out, err = run_cli(argv)
    except Exception as exc:  # the operation under test failed; record and go on
        return f"raised {type(exc).__name__}: {exc}"
    lines = err.splitlines()
    if code != 2 or out or len(lines) != 1 or not lines[0].startswith("fjoin: "):
        return f"exit {code}, stderr {err!r}"
    return None


class AuditGrid(Workload):
    """``fjoin audit`` of the 32 tabulated cases on a 60 x 60 grid."""

    name = "audit-grid"

    def __init__(self, seed, workdir, tracer=None):
        super().__init__(seed, workdir, tracer)
        self.first: str | None = None

    def timed(self):
        limit = str(AUDIT_MAX)
        return run_cli(["audit", "--n-max", limit, "--m-max", limit], self.tracer)

    def after(self, output) -> int:
        code, out, err = output
        if self.first is None:
            self.first = out
            if code != 0 or err:
                self.problems.append(f"audit exited {code} with stderr {err!r}")
        elif out != self.first:
            self.problems.append("audit report differs between rounds")
        return 0

    def finish(self) -> None:
        cases = json.loads(self.first)["cases"]
        if len(cases) != len(fjoin.FAMILY_CASES):
            self.problems.append(f"audit reported {len(cases)} cases")
        for case in cases:
            self._check_case(case)

    def _check_case(self, case: dict) -> None:
        label = f"case {case['example']}.{case['case']}"
        fam1, fam2 = case["g1_family"], case["g2_family"]
        n_min, m_min = case["n_min"], case["m_min"]
        if n_min < AUDIT_FLOORS[fam1] or m_min < AUDIT_FLOORS[fam2]:
            self.problems.append(f"{label}: grid starts below the family floors")
        grid = (AUDIT_MAX - n_min + 1) * (AUDIT_MAX - m_min + 1)
        if case["points"] != grid:
            self.problems.append(f"{label}: {case['points']} points on a grid of {grid}")
        listed = {(miss["n"], miss["m"]): miss for miss in case["mismatches"]}
        if case["verdict"] != ("mismatch" if listed else "verified"):
            self.problems.append(f"{label}: verdict {case['verdict']} with {len(listed)} mismatches")

        def reference(n: int, m: int) -> int:
            return composite_f_index(
                case["kind"], case["mode"], n, family_edges(fam1, n), m, family_edges(fam2, m)
            )

        points = [(self.rng.randint(n_min, AUDIT_MAX), self.rng.randint(m_min, AUDIT_MAX))
                  for _ in range(AUDIT_SAMPLE)]
        points += self.rng.sample(sorted(listed), min(AUDIT_SAMPLE, len(listed)))
        for n, m in points:
            want = reference(n, m)
            tabulated = fjoin.family_value(case["example"], case["case"], n, m)
            miss = listed.get((n, m))
            if tabulated == want:
                if miss is not None:
                    self.problems.append(f"{label}: ({n}, {m}) listed but agrees with the reference")
            elif miss is None or (miss["family_value"], miss["oracle_value"]) != (tabulated, want):
                self.problems.append(
                    f"{label}: ({n}, {m}) tabulated {tabulated}, reference {want}, listed {miss}"
                )


WORKLOADS = {cls.name: cls for cls in (ClosedLarge, Oracle300, CorpusVerify, AuditGrid)}
