"""Corpus verification of the closed forms, and the two-arm benchmark.

``verify_pair`` pits the closed form against a brute-force oracle (build
the composite, sum cubed degrees) for all eight operations on one operand
pair. ``corpus_records`` does that across a deterministic corpus of family
graphs and seeded random graphs, one pair's records at a time, and
``verify_corpus`` collects them into one report. ``bench_compare`` times
the closed-form arm against ``verify_pair`` and skips that construction arm
when the composite would be infeasibly large.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from itertools import chain, islice
from typing import Iterable, Iterator, NamedTuple

from .closed_form import theorem_value
from .graph import FAMILIES, Graph, GraphError, generate, random_graph
from .indices import f_index, invariants
from .joins import ALL_SPECS, f_join
from .report import _Batches, _Report

# Construction beyond this many composite edges is treated as infeasible for
# the benchmark; well under memory limits but already far slower than the
# closed form.
DEFAULT_EDGE_BUDGET = 3_000_000


def _is_int(value) -> bool:
    """A JSON integer: ``bool`` is an ``int`` subclass but not one here."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class CorpusConfig:
    """What the verification corpus contains.

    Family ranges are inclusive ``(low, high)`` vertex counts, one
    ``<family>_sizes`` field per family in :data:`~fjoin.graph.FAMILIES`,
    keyed by the family's name in a config file. Random operands are drawn
    with ``n`` up to ``max_random_n`` and ``m`` up to
    ``min(max_random_m, n * (n - 1) // 2)``, all derived from ``seed``.
    """

    path_sizes: tuple[int, int] = (1, 8)
    cycle_sizes: tuple[int, int] = (3, 8)
    complete_sizes: tuple[int, int] = (1, 5)
    star_sizes: tuple[int, int] = (2, 6)
    random_trials: int = 200
    max_random_n: int = 12
    max_random_m: int = 66
    seed: int = 42

    def __post_init__(self):
        for family, (low, high) in self.family_ranges().items():
            if low > high:
                raise GraphError(f"empty {family} range ({low}, {high})")
            if low < FAMILIES[family]:
                raise GraphError(
                    f"{family} range starts at {low}, below the family minimum "
                    f"{FAMILIES[family]}"
                )
        if self.random_trials < 0:
            raise GraphError(f"random_trials must be nonnegative, got {self.random_trials}")
        if self.max_random_n < 1:
            raise GraphError(f"max_random_n must be positive, got {self.max_random_n}")
        if self.max_random_m < 0:
            raise GraphError(f"max_random_m must be nonnegative, got {self.max_random_m}")

    def family_ranges(self) -> dict[str, tuple[int, int]]:
        return {family: getattr(self, f"{family}_sizes") for family in FAMILIES}

    @classmethod
    def from_dict(cls, data: dict) -> CorpusConfig:
        if not isinstance(data, dict):
            raise GraphError("corpus config must be a JSON object")
        scalars = {field.name for field in fields(cls)}.difference(
            f"{family}_sizes" for family in FAMILIES
        )
        kwargs = {}
        for key, value in data.items():
            if key in FAMILIES:
                if not (isinstance(value, list) and len(value) == 2 and all(map(_is_int, value))):
                    raise GraphError(
                        f"corpus config {key!r} must be a [low, high] pair of integers, "
                        f"got {json.dumps(value)}"
                    )
                kwargs[f"{key}_sizes"] = tuple(value)
            elif key in scalars:
                if not _is_int(value):
                    raise GraphError(
                        f"corpus config {key!r} must be an integer, got {json.dumps(value)}"
                    )
                kwargs[key] = value
            else:
                raise GraphError(f"unknown corpus config key {key!r}")
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> CorpusConfig:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GraphError(f"corpus config is not valid JSON: {exc}") from None
        except RecursionError:
            raise GraphError("corpus config is nested too deeply to parse") from None
        return cls.from_dict(data)

    def with_seed(self, seed: int) -> CorpusConfig:
        return replace(self, seed=seed)


class PairRecord(NamedTuple):
    """One operation on one operand pair, both routes, and whether they agree."""

    g1: str
    g2: str
    kind: str
    mode: str
    closed_form: int
    oracle: int
    match: bool


@dataclass(frozen=True)
class VerificationReport(_Report):
    records: tuple[PairRecord, ...]

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def mismatches(self) -> tuple[PairRecord, ...]:
        return tuple(record for record in self.records if not record.match)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def _tree(self) -> dict:
        return _verification_tree([self.records])


# Operand pairs whose records go into one batch of a streamed verify report.
# One pair a batch (eight rows) made each corpus-verify round 3 % slower,
# in 10 of 10 benchmark pairs; sixteen keep a batch near 22 KB.
_PAIRS_A_BATCH = 16


def _verification_tree(pairs: Iterable[tuple[PairRecord, ...]]) -> dict:
    """The verify report's JSON tree: the records of ``pairs``, a batch of
    :data:`_PAIRS_A_BATCH` pairs' records at a time, then their summary,
    which counts each batch as the report writer takes it."""
    summary = {"total": 0, "mismatches": 0}

    def counted():
        pending = iter(pairs)
        while group := list(islice(pending, _PAIRS_A_BATCH)):
            batch = tuple(chain.from_iterable(group))
            summary["total"] += len(batch)
            summary["mismatches"] += sum(not record.match for record in batch)
            yield batch

    return {"records": _Batches(PairRecord._fields, counted()), "summary": summary}


def verify_pair(g1: Graph, g2: Graph, label1: str = "g1", label2: str = "g2") -> VerificationReport:
    """Check all eight operations on one ordered operand pair.

    The closed form sees only the factor invariants; the oracle builds each
    composite and sums cubed degrees. The two routes share no code beyond
    the operand graphs themselves.
    """
    inv1 = invariants(g1)
    inv2 = invariants(g2)
    records = []
    for spec in ALL_SPECS:
        closed = theorem_value(spec, inv1, inv2)
        oracle = f_index(f_join(spec, g1, g2).graph)
        records.append(
            PairRecord(label1, label2, spec.kind.value, spec.mode.value, closed, oracle, closed == oracle)
        )
    return VerificationReport(tuple(records))


def family_corpus(config: CorpusConfig | None = None) -> list[tuple[str, Graph]]:
    """The deterministic family part of the corpus, labeled ``family-n``."""
    config = config or CorpusConfig()
    out = []
    for family, (low, high) in config.family_ranges().items():
        for size in range(low, high + 1):
            out.append((f"{family}-{size}", generate(family, size)))
    return out


def _random_operand(rng: random.Random, config: CorpusConfig) -> Graph:
    n = rng.randint(1, config.max_random_n)
    m = rng.randint(0, min(config.max_random_m, n * (n - 1) // 2))
    return random_graph(n, m, rng.randrange(2**63))


def corpus_records(config: CorpusConfig | None = None) -> Iterator[tuple[PairRecord, ...]]:
    """The records of :func:`verify_pair` over every ordered family pair
    plus the seeded random trials, one pair's at a time; deterministic for a
    fixed config."""
    config = config or CorpusConfig()
    corpus = family_corpus(config)
    for label1, g1 in corpus:
        for label2, g2 in corpus:
            yield verify_pair(g1, g2, label1, label2).records
    rng = random.Random(config.seed)
    for trial in range(config.random_trials):
        g1 = _random_operand(rng, config)
        g2 = _random_operand(rng, config)
        labels = (f"random-{trial:03d}-a", f"random-{trial:03d}-b")
        yield verify_pair(g1, g2, *labels).records


def verify_corpus(config: CorpusConfig | None = None) -> VerificationReport:
    """All of :func:`corpus_records` in one report."""
    return VerificationReport(tuple(chain.from_iterable(corpus_records(config))))


class BenchRecord(NamedTuple):
    """One benchmark run; construction fields are None when skipped."""

    n1: int
    n2: int
    m1: int
    m2: int
    closed_ns: int
    construct_ns: int | None
    feasible: bool
    equal: bool | None

    def csv_row(self) -> str:
        """The fields in order, None as an empty field and bools in lower case."""
        return ",".join("" if value is None else str(value).lower() for value in self)


def _worst_composite_edges(n1: int, m1: int, m1_first_zagreb: int, n2: int, m2: int) -> int:
    # The largest composite uses the total graph and the bigger cross block.
    derived = 3 * m1 + (m1_first_zagreb - 2 * m1) // 2
    cross = max(n1, m1) * n2
    return derived + m2 + cross


def bench_compare(
    n1: int,
    n2: int,
    density,
    seed: int,
    edge_budget: int = DEFAULT_EDGE_BUDGET,
) -> BenchRecord:
    """Time the closed-form arm, and the construction arm when feasible.

    ``density`` scales each factor's possible edge count; pass a string or
    :class:`~fractions.Fraction` for exact ratios. The construction arm is
    one :func:`verify_pair`, and ``equal`` compares its oracle column with
    the closed arm's values. Feasibility is judged before construction from
    the worst composite edge count; an unexpected ``MemoryError`` during
    construction also downgrades the run to infeasible rather than crashing.
    """
    density = Fraction(density)
    if not 0 <= density <= 1:
        raise GraphError(f"density must be in [0, 1], got {density}")
    if edge_budget < 0:
        raise GraphError(f"edge budget must be nonnegative, got {edge_budget}")
    m1 = int(density * (n1 * (n1 - 1) // 2))
    m2 = int(density * (n2 * (n2 - 1) // 2))
    rng = random.Random(seed)
    g1 = random_graph(n1, m1, rng.randrange(2**63))
    g2 = random_graph(n2, m2, rng.randrange(2**63))

    start = time.perf_counter_ns()
    inv1 = invariants(g1)
    inv2 = invariants(g2)
    closed = [theorem_value(spec, inv1, inv2) for spec in ALL_SPECS]
    closed_ns = time.perf_counter_ns() - start

    worst = _worst_composite_edges(g1.n, g1.m, inv1.M1, g2.n, g2.m)
    if worst > edge_budget:
        return BenchRecord(n1, n2, m1, m2, closed_ns, None, False, None)
    try:
        start = time.perf_counter_ns()
        report = verify_pair(g1, g2)
        construct_ns = time.perf_counter_ns() - start
    except MemoryError:
        return BenchRecord(n1, n2, m1, m2, closed_ns, None, False, None)
    equal = [record.oracle for record in report.records] == closed
    return BenchRecord(n1, n2, m1, m2, closed_ns, construct_ns, True, equal)
