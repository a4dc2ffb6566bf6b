"""One workload process: set up, run whole timed rounds, check, report.

Started by ``run.py`` with the interpreter's default flags, so fjoin's debug
``assert`` cross-checks run as they do for a user. The last stdout line is a
JSON object; ``first_call`` is the ``time.perf_counter`` reading (a
system-wide monotonic clock on Linux) when set-up ends, from which the
parent takes set-up time.

Just before each round the process times ``probe``, a fixed piece of pure
Python work that shares no code with fjoin. The host's speed drifts by tens
of percent over minutes; a round's time divided by its probe's time drifts
far less, since both slow down together.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import tempfile
from collections import Counter
from itertools import chain
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def probe() -> float:
    """Seconds taken by a fixed mix of tuple, set, sort and integer work.

    The collector is off while it runs, so the time does not depend on how
    many objects the workload keeps alive.
    """
    gc.disable()
    try:
        start = perf_counter()
        for part in range(12):
            edges = [((i + part) % 997, (i * 7919) % 1009) for i in range(10_000)]
            degrees = Counter(chain.from_iterable(sorted(set(edges))))
            sum(d**3 for d in degrees.values())
        return perf_counter() - start
    finally:
        gc.enable()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True, help="seconds of timed rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", type=int, default=0, help="index, names the trace file")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    try:
        import fjoin
    except ImportError as exc:
        print(f"worker: cannot import fjoin from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(fjoin.__file__).resolve().is_relative_to(SRC):
        print(f"worker: fjoin imported from {fjoin.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracing import Tracer
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(fjoin)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload = WORKLOADS[args.workload](args.seed, Path(workdir), tracer)
        rounds, probes, attempted, failed = [], [], 0, 0
        first_call = perf_counter()
        while True:
            gc.collect()
            probes.append(probe())
            if tracer:
                tracer.begin_round()
            start = perf_counter()
            output = workload.timed()
            rounds.append(perf_counter() - start)
            if tracer:
                tracer.end_round()
            attempted += workload.ops_per_round
            failed += workload.after(output)
            del output
            if perf_counter() - first_call >= args.budget:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        workload.finish()
    result = {
        "first_call": first_call,
        "rounds": rounds,
        "probes": probes,
        "attempted": attempted,
        "failed": failed,
        "failures": sorted(workload.failures),
        "problems": workload.problems,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        tracer.uninstall()
        tracer.write(OUT / f"trace-{args.workload}-child{args.child}.jsonl")
        result["trace"] = tracer.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
