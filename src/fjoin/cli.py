"""Command-line front end.

Subcommands: gen, derive, join, index, verify, audit, bench. Graph input
is edge-list text from a file flag or stdin; graph output is edge-list text
on stdout.

``verify`` and ``audit`` stream their JSON reports: each case (``audit``)
or the records of each 16 operand pairs (``verify``) are written, in one
write, as soon as they are computed, and the summary last, once every
record is out. So neither holds its whole report. A failure after output
has begun leaves a report without its ``summary`` on stdout, plus the
one-line message and exit code below; a failure before the first batch
leaves stdout empty.

Exit codes: 0 success (for verify, success means zero mismatches), 1 input
parse or read failure (a closed stdout among them), 2 usage or domain
error, 3 a size that no index-sized integer holds (``bench --n1 10**20``)
or that cannot be allocated (``bench --n1 10**12``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .closed_form import _audit_tree, case_results
from .derived import DerivedKind, derive
from .graph import FAMILIES, GraphError, ParseError, generate, parse_edge_list, render_edge_list
from .harness import (
    DEFAULT_EDGE_BUDGET,
    CorpusConfig,
    _verification_tree,
    bench_compare,
    corpus_records,
)
from .indices import invariants
from .joins import JoinMode, OperationSpec, f_join
from .report import pieces

EXIT_OK = 0
EXIT_DATA = 1
EXIT_USAGE = 2
EXIT_OVERFLOW = 3

SEED_ENV_VAR = "FJOIN_SEED"
DEFAULT_SEED = 42


def _read_graph(path: str | None):
    # Bytes, so that parse_edge_list reports undecodable input by line.
    if path is None:
        return parse_edge_list(sys.stdin.buffer.read())
    with open(path, "rb") as handle:
        return parse_edge_list(handle.read())


def _resolve_seed(flag_value: int | None, fallback: int = DEFAULT_SEED) -> int:
    """Flag beats environment beats fallback."""
    if flag_value is not None:
        return flag_value
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise GraphError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    return fallback


def _emit(pg, tags_path: str | None) -> int:
    """Write the provenance sidecar first, if asked for, then the graph, so a
    sidecar that cannot be written leaves stdout empty."""
    if tags_path:
        payload = {
            "tags": [tag.value for tag in pg.tags],
            "origin_edge": {str(w): list(edge) for w, edge in pg.origin_edge.items()},
        }
        with open(tags_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    sys.stdout.write(render_edge_list(pg.graph))
    return EXIT_OK


def cmd_gen(args) -> int:
    sys.stdout.write(render_edge_list(generate(args.family, args.n)))
    return EXIT_OK


def cmd_derive(args) -> int:
    kind = DerivedKind.parse(args.kind)
    return _emit(derive(kind, _read_graph(args.infile)), args.tags)


def cmd_join(args) -> int:
    if args.g1 is None and args.g2 is None:
        raise GraphError("at most one of --g1/--g2 may come from stdin; give at least one file")
    spec = OperationSpec(DerivedKind.parse(args.kind), JoinMode.parse(args.mode))
    g1 = _read_graph(args.g1)
    g2 = _read_graph(args.g2)
    return _emit(f_join(spec, g1, g2), args.tags)


def cmd_index(args) -> int:
    bundle = invariants(_read_graph(args.infile))
    if args.json:
        print(bundle.to_json())
    else:
        for name, value in bundle.as_dict().items():
            print(f"{name:<4} {value}")
    return EXIT_OK


def cmd_verify(args) -> int:
    config = CorpusConfig()
    if args.config:
        with open(args.config, encoding="utf-8") as handle:
            config = CorpusConfig.from_json(handle.read())
    config = config.with_seed(_resolve_seed(args.seed, fallback=config.seed))
    summary = _stream(_verification_tree(corpus_records(config)))
    return EXIT_DATA if summary["mismatches"] else EXIT_OK


def cmd_audit(args) -> int:
    _stream(_audit_tree(args.n_max, args.m_max, case_results(args.n_max, args.m_max)))
    return EXIT_OK


def _stream(tree: dict) -> dict:
    """Write a report tree to stdout a piece at a time; return its summary."""
    for piece in pieces(tree, end="\n"):
        sys.stdout.write(piece)
    return tree["summary"]


def cmd_bench(args) -> int:
    try:
        density = Fraction(args.density)
    except (ValueError, ZeroDivisionError):
        raise GraphError(f"density must be a rational like 1/10 or 0.1, got {args.density!r}") from None
    seed = _resolve_seed(args.seed)
    record = bench_compare(args.n1, args.n2, density, seed, edge_budget=args.edge_budget)
    print(record.csv_row())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fjoin",
        description="Derived-graph join composites and their degree-based indices.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    gen = sub.add_parser("gen", help="emit a family graph as edge-list text")
    gen.add_argument("--family", required=True, choices=FAMILIES)
    gen.add_argument("--n", required=True, type=int, help="vertex count")
    gen.set_defaults(func=cmd_gen)

    der = sub.add_parser("derive", help="derive S, R, Q or T of a graph")
    der.add_argument("--kind", required=True, help="S, R, Q or T")
    der.add_argument("--in", dest="infile", metavar="FILE", help="input graph (default stdin)")
    der.add_argument("--tags", metavar="FILE", help="also write provenance JSON to FILE")
    der.set_defaults(func=cmd_derive)

    jn = sub.add_parser("join", help="build a derived-graph join composite")
    jn.add_argument("--kind", required=True, help="S, R, Q or T")
    jn.add_argument("--mode", required=True, help="vertex or edge")
    jn.add_argument("--g1", metavar="FILE", help="left factor (stdin if omitted)")
    jn.add_argument("--g2", metavar="FILE", help="right factor (stdin if omitted)")
    jn.add_argument("--tags", metavar="FILE", help="also write provenance JSON to FILE")
    jn.set_defaults(func=cmd_join)

    idx = sub.add_parser("index", help="print the invariant bundle of a graph")
    idx.add_argument("--in", dest="infile", metavar="FILE", help="input graph (default stdin)")
    idx.add_argument("--json", action="store_true", help="one-line JSON instead of a table")
    idx.set_defaults(func=cmd_index)

    ver = sub.add_parser("verify", help="closed form vs brute force over the corpus")
    ver.add_argument("--config", metavar="FILE", help="corpus config JSON")
    ver.add_argument("--seed", type=int, help=f"random-trial seed (else ${SEED_ENV_VAR}, else config)")
    ver.set_defaults(func=cmd_verify)

    aud = sub.add_parser("audit", help="tabulated family polynomials vs the closed form")
    aud.add_argument("--n-max", type=int, default=8, help="left factor grid limit (default 8)")
    aud.add_argument("--m-max", type=int, default=8, help="right factor grid limit (default 8)")
    aud.set_defaults(func=cmd_audit)

    ben = sub.add_parser("bench", help="time closed form vs construction, emit one CSV row")
    ben.add_argument("--n1", required=True, type=int)
    ben.add_argument("--n2", required=True, type=int)
    ben.add_argument("--density", required=True, help="edge density as a rational, e.g. 1/10")
    ben.add_argument("--seed", type=int, help=f"operand seed (else ${SEED_ENV_VAR}, else {DEFAULT_SEED})")
    ben.add_argument(
        "--edge-budget",
        type=int,
        default=DEFAULT_EDGE_BUDGET,
        help="composite edge count above which construction is skipped",
    )
    ben.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:  # ahead of GraphError: a ParseError is one
        print(f"fjoin: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OverflowError as exc:
        print(f"fjoin: overflow: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    except MemoryError:
        print("fjoin: out of memory: a requested size is too large to allocate", file=sys.stderr)
        return EXIT_OVERFLOW
    except (GraphError, ValueError) as exc:
        print(f"fjoin: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
