"""Benchmark of fjoin: run a workload in fresh processes and report its metrics.

    python3 benchmark/run.py --workload closed-large --seed 1 --seconds 24 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 24 --trace 1

Each run starts ``CHILDREN`` workload processes one after another (never
more than one at a time), each with a share of ``--seconds`` for whole timed
rounds. With ``--trace 0`` it reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run. The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``. ``--workload all`` runs
every workload (and, with ``--trace 1``, its traced run too, giving the
tracing overhead) and ends with one JSON object keyed by workload.
See README.md for the workloads, the metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"

WORKLOADS = ("closed-large", "oracle-300", "corpus-verify", "audit-grid")
# Set-up is measured once per process; three give a median.
CHILDREN = 3
# A run must end well inside three minutes, whatever --seconds asks.
TIME_LIMIT_S = 170.0


class BenchmarkError(RuntimeError):
    """A workload process failed or gave no result."""


def run_children(workload: str, seed: int, seconds: int, trace: int) -> list[dict]:
    started = perf_counter()
    children = []
    for child in range(CHILDREN):
        command = [
            sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
            "--budget", str(seconds / CHILDREN), "--trace", str(trace), "--child", str(child),
        ]
        spawned = perf_counter()
        try:
            proc = subprocess.run(
                command, cwd=ROOT, capture_output=True, text=True,
                timeout=TIME_LIMIT_S - (spawned - started),
            )
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"{workload} process {child} passed the time limit") from None
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchmarkError(
                f"{workload} process {child} exited {proc.returncode}:\n{proc.stderr}"
            )
        result = json.loads(proc.stdout.splitlines()[-1])
        result["setup_s"] = result["first_call"] - spawned
        children.append(result)
    return children


def end_to_end(children: list[dict]) -> dict:
    ratios = (r / p for c in children for r, p in zip(c["rounds"], c["probes"]))
    return {
        "setup_s": (statistics.median(c["setup_s"] for c in children), "s"),
        "round_probes": (statistics.median(ratios), "probe"),
        "peak_rss_mb": (statistics.median(c["peak_rss_mb"] for c in children), "MB"),
    }


def per_layer(children: list[dict]) -> dict:
    traces = [c["trace"] for c in children]
    rounds = sum(len(c["rounds"]) for c in children)
    busy = sum(sum(c["rounds"]) for c in children)
    metrics = {}
    for name in traces[0]["calls"]:
        metrics[f"{name}.calls"] = (sum(t["calls"][name] for t in traces) / rounds, "count")
        self_s = sum(t["self_s"][name] for t in traces)
        metrics[f"{name}.self_pct"] = (100 * self_s / busy, "%")
    for name in traces[0]["counts"]:
        metrics[name] = (sum(t["counts"][name] for t in traces) / rounds, "count")
    derives = sum(t["calls"]["derived.derive"] for t in traces)
    distinct = sum(t["derive_distinct"] for t in traces)
    metrics["derived.derive.distinct_share"] = (distinct / derives if derives else 0.0, "ratio")
    metrics["trace.round_s"] = (median_round_s(children), "s")
    metrics["trace.probe_s"] = (statistics.median(p for c in children for p in c["probes"]), "s")
    return metrics


def median_round_s(children: list[dict]) -> float:
    return statistics.median(r for c in children for r in c["rounds"])


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[dict]]:
    children = run_children(workload, seed, seconds, trace)
    metrics = per_layer(children) if trace else end_to_end(children)
    problems = [p for c in children for p in c["problems"]]
    result = {
        "correct": not problems,
        "attempted": sum(c["attempted"] for c in children),
        "failed": sum(c["failed"] for c in children),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    raw = OUT / f"result-{workload}-seed{seed}-trace{trace}.json"
    raw.write_text(json.dumps({"result": result, "children": children}, indent=1) + "\n")
    for failure in sorted({f for c in children for f in c["failures"]}):
        print(f"{workload}: failed operation: {failure}")
    for problem in problems[:20]:
        print(f"{workload}: WRONG OUTPUT: {problem}")
    return result, children


def print_table(workload: str, result: dict, children: list[dict]) -> None:
    print(f"{workload}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}, median round wall time {median_round_s(children):.4f} s")
    for name, metric in result["metrics"].items():
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        if args.workload != "all":
            result, children = run_workload(args.workload, args.seed, args.seconds, args.trace)
            print_table(args.workload, result, children)
            print(json.dumps(result))
            return 0
        results = {}
        for workload in WORKLOADS:
            untraced, children = run_workload(workload, args.seed, args.seconds, 0)
            results[workload] = {"untraced": untraced}
            print_table(workload, untraced, children)
            if args.trace:
                untraced_s = median_round_s(children)
                traced, children = run_workload(workload, args.seed, args.seconds, 1)
                results[workload]["traced"] = traced
                print_table(f"{workload} (traced)", traced, children)
                traced_s = median_round_s(children)
                print(f"  tracing overhead: {traced_s - untraced_s:+.4f} s per round "
                      f"({100 * (traced_s / untraced_s - 1):+.1f}%)")
        print(json.dumps(results))
        return 0
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
