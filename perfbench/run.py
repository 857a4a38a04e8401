"""The repository benchmark: one command, four workloads, every metric by name.

Run from the repository root::

    python3 perfbench/run.py --workload fig3a-lan --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run.  ``--trace 1``
runs the same rounds untraced and then traced, each for half of
``--seconds``, and prints the per-layer metrics of the traced half (per
query: totals divided by the queries the traced half ran), the tracing
overhead, and writes the spans to ``perfbench/out/``.  ``BENCHMARK.json`` at
the repository root lists the workloads and metrics.

Wall-clock end-to-end metrics are given in refs (see :mod:`calibration`):
the run interleaves passes of a fixed reference computation with the
workload — one before each round and, in untraced rounds, one between
queries (or session steps) once ``REF_INTERVAL_S`` has passed since the
last — and divides each round's wall times by the median of the passes
before, during and just after it.  The same figures in milliseconds are
per-layer metrics (``wall.*``), beside the phase's median pass
(``host.ref_pass_ms``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A query fails when
it raises, when its result multiset differs from the reference, or when a
round's exact counters differ from the first round's (the determinism
check); ``failed / attempted`` is the failure ratio.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE_ROOT = HERE.parent / "src"

#: Set-ups per run; ``setup_s`` and its parts are the medians.
SETUP_REPEATS = 3
#: Least wall time between reference passes inside a round.  A pass takes
#: 25-60 ms depending on the host's load, so passes cost 8-20% of the run.
REF_INTERVAL_S = 0.3


def percentile(values, fraction: float) -> float:
    """Linear-interpolated percentile of ``values`` (``fraction`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    position = (len(ordered) - 1) * fraction
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def run_phase(workload, seconds: float, kernel, tracer=None) -> tuple[list, list[float]]:
    """Whole rounds interleaved with reference passes on ``kernel``, for
    about ``seconds`` of wall time: a round starts only if it is expected to
    end nearer to ``seconds`` than stopping now would (the first always
    runs).  Traced rounds get passes only between rounds, so that a pass
    never lands inside a span.

    Returns the rounds and each round's ref: the median wall seconds of the
    passes from the one just before it to the one just after it.
    """
    rounds = []
    bounds = []
    pause = None if tracer is not None else kernel.tick
    started = time.perf_counter()
    while True:
        bounds.append(len(kernel.passes))
        kernel.run_pass()
        rounds.append(workload.run_round(tracer, pause))
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(rounds) / 2 >= seconds:
            break
    bounds.append(len(kernel.passes))
    kernel.run_pass()
    refs = [
        statistics.median(kernel.passes[first:last + 1])
        for first, last in zip(bounds, bounds[1:])
    ]
    return rounds, refs


def check_rounds(rounds, reference_counters) -> tuple[list[str], int]:
    """Problems found in ``rounds`` and the number of failed queries.

    A query fails when it raised or mismatched the reference; every query of
    a round whose exact counters differ from ``reference_counters`` fails too.
    """
    problems = []
    failed = 0
    for number, round_ in enumerate(rounds):
        errors = [outcome for outcome in round_.outcomes if outcome.error is not None]
        problems.extend(f"round {number} {outcome.label}: {outcome.error}" for outcome in errors)
        if round_.counters == reference_counters:
            failed += len(errors)
            continue
        failed += len(round_.outcomes)
        diverged = sorted(
            key
            for key in set(round_.counters) | set(reference_counters)
            if round_.counters.get(key) != reference_counters.get(key)
        )
        problems.append(f"round {number}: exact counters diverged: {diverged}")
    return problems, failed


def wall_figures(rounds, units) -> tuple[float, float, float]:
    """Result rows per unit of wall time, and the p50 and p90 query wall time,
    with each round's times divided by its entry in ``units`` (seconds, or
    the round's ref).

    A query-wall percentile is taken within each round (one pass over the
    workload's queries) and the median over rounds is reported: the host's
    speed drifts in phases of seconds, and a per-round quantile lets a fast
    or slow phase move single rounds rather than the reported value.
    """
    walls = [
        [outcome.wall_s / unit for outcome in round_.outcomes]
        for round_, unit in zip(rounds, units)
    ]
    rows = sum(outcome.rows for round_ in rounds for outcome in round_.outcomes)
    return (
        rows / sum(round_.wall_s / unit for round_, unit in zip(rounds, units)),
        statistics.median(percentile(w, 0.5) for w in walls),
        statistics.median(percentile(w, 0.9) for w in walls),
    )


def end_to_end(rounds, refs, setups) -> dict:
    """End-to-end metrics of the untraced rounds.

    Wall-clock figures are in refs: each round's divided by its entry in
    ``refs``.  Virtual metrics come from the first round, which every later
    round must repeat exactly.
    """
    first = rounds[0].outcomes
    throughput, p50, p90 = wall_figures(rounds, refs)
    ttfts = [outcome.ttft_ms for outcome in first if outcome.ttft_ms is not None]
    latencies = [outcome.latency_ms for outcome in first]
    return {
        "setup_s": (statistics.median(s["total"] for s in setups), "s"),
        "throughput_rows_per_ref": (throughput, "rows/ref"),
        "query_wall_ref.p50": (p50, "ref"),
        "query_wall_ref.p90": (p90, "ref"),
        "virtual_ttft_ms.p50": (percentile(ttfts, 0.5) if ttfts else 0.0, "ms"),
        "virtual_latency_ms.p50": (percentile(latencies, 0.5), "ms"),
        "virtual_latency_ms.p90": (percentile(latencies, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(workload, tracer, traced, untraced, setups, refs, kernel) -> dict:
    """Per-query layer metrics of the traced rounds.

    ``refs`` holds the untraced and the traced rounds' refs, and ``kernel``
    the untraced phase's reference passes; the ``wall.*`` figures are those
    of the untraced phase, in milliseconds.
    """
    from tracer import ROOT

    queries = sum(len(round_.outcomes) for round_ in traced)
    self_ms = defaultdict(float)
    for name, seconds in tracer.self_seconds().items():
        self_ms[name] = seconds * 1000.0 / queries
    calls = tracer.span_counts()
    counts = tracer.counts

    def per_query(value) -> float:
        return value / queries

    def summed(key) -> float:
        return sum(round_.totals.get(key, 0) for round_ in traced)

    lane_rows = [rows for round_ in traced for rows in round_.totals["lane_rows"]]
    skews = [max(rows) / (sum(rows) / len(rows)) for rows in lane_rows if sum(rows)]
    lane_clocks = [
        clock for record in tracer.exchanges for clock in record["lane_virtual_ms"]
    ]
    untraced_refs, traced_refs = refs
    traced_wall = sum(round_.wall_s for round_ in traced) / queries
    wall_ms = traced_wall * 1000.0
    traced_in_refs = sum(r.wall_s / ref for r, ref in zip(traced, traced_refs)) / queries
    untraced_in_refs = sum(r.wall_s / ref for r, ref in zip(untraced, untraced_refs)) / sum(
        len(round_.outcomes) for round_ in untraced
    )
    throughput, p50_s, p90_s = wall_figures(untraced, [1.0] * len(untraced))
    unattributed = self_ms[ROOT]
    cache_lookups = summed("cache_hits") + summed("cache_misses")
    prefetched = summed("prefetch_bytes")

    metrics = {
        "source.open.self_ms": (self_ms["source.open"], "ms"),
        "source.open.calls": (per_query(calls["source.open"]), "count"),
        "source.queued_virtual_ms": (per_query(summed("source_queued_ms")), "ms"),
        "wrapper.fetch.self_ms": (self_ms["wrapper.fetch"], "ms"),
        "wrapper.fetch.rows": (per_query(counts["wrapper.fetch.rows"]), "count"),
        "cache.lookups": (per_query(cache_lookups), "count"),
        "cache.hit_ratio": (summed("cache_hits") / cache_lookups if cache_lookups else 0.0,
                            "ratio"),
        "cache.cross_session_hits": (per_query(summed("cross_session_hits")), "count"),
        "cache.partial_hits": (per_query(summed("partial_hits")), "count"),
        "scan.self_ms": (self_ms["scan"], "ms"),
        "select.self_ms": (self_ms["select"], "ms"),
        "select.rows_in": (per_query(summed("select.rows_in")), "count"),
        "select.comparator_calls": (per_query(summed("select.comparator_calls")), "count"),
        "hash_table.insert.self_ms": (self_ms["hash_table.insert"], "ms"),
        "hash_table.insert.rows": (per_query(counts["hash_table.insert.rows"]), "count"),
        "hash_table.gather.self_ms": (self_ms["hash_table.gather"], "ms"),
        "hash_table.gather.matches": (per_query(counts["hash_table.gather.matches"]), "count"),
        "hash_table.flush.self_ms": (self_ms["hash_table.flush"], "ms"),
        "dpj.self_ms": (self_ms["dpj"], "ms"),
        "dpj.rows_in": (per_query(summed("dpj.rows_in")), "count"),
        "hybrid.self_ms": (self_ms["hybrid"], "ms"),
        "disk.write.self_ms": (self_ms["disk.write"], "ms"),
        "disk.read.self_ms": (self_ms["disk.read"], "ms"),
        "disk.pages_written": (per_query(counts["disk.pages_written"]), "count"),
        "disk.pages_read": (per_query(counts["disk.pages_read"]), "count"),
        "disk.tuples_written": (per_query(counts["disk.tuples_written"]), "count"),
        "disk.tuples_read": (per_query(counts["disk.tuples_read"]), "count"),
        "overflow.events": (per_query(summed("overflow.events")), "count"),
        "exchange.self_ms": (self_ms["exchange"], "ms"),
        "exchange.route.self_ms": (self_ms["exchange.route"], "ms"),
        "exchange.lane_rows.skew": (max(skews) if skews else 0.0, "ratio"),
        "exchange.lane_virtual_ms.max": (max(lane_clocks) if lane_clocks else 0.0, "ms"),
        "exchange.lane_virtual_ms.min": (min(lane_clocks) if lane_clocks else 0.0, "ms"),
        "scheduler.self_ms": (self_ms["scheduler"], "ms"),
        "scheduler.slices": (per_query(summed("scheduler_slices")), "count"),
        "session.step.self_ms": (self_ms["session.step"], "ms"),
        "broker.revocations": (per_query(summed("revocations")), "count"),
        "broker.bytes_revoked": (per_query(summed("bytes_revoked")), "bytes"),
        "broker.speculative_revocations": (per_query(summed("speculative_revocations")), "count"),
        "prefetch.advance.self_ms": (self_ms["prefetch.advance"], "ms"),
        "prefetch.bytes_fetched": (per_query(prefetched), "bytes"),
        "prefetch.useful_ratio": (summed("prefetch_bytes_used") / prefetched if prefetched
                                  else 0.0, "ratio"),
        "optimizer.plan.self_ms": (self_ms["optimizer.plan"], "ms"),
        "optimizer.selections_unplanned": (per_query(summed("selections_unplanned")), "count"),
        "optimizer.default_partial_share": (workload.partial_plan_share(), "ratio"),
        "materialize.self_ms": (self_ms["materialize"], "ms"),
        "other_operators.self_ms": (self_ms["other_operators"], "ms"),
        "rows_boxed": (per_query(summed("rows_boxed")), "count"),
        "clock.virtual_ms_total": (per_query(summed("clock.total_ms")), "ms"),
        "clock.cpu_virtual_ms": (per_query(summed("clock.cpu_ms")), "ms"),
        "clock.wait_virtual_ms": (per_query(summed("clock.wait_ms")), "ms"),
        "clock.io_virtual_ms": (per_query(summed("clock.io_ms")), "ms"),
        "setup.datagen_s": (statistics.median(s["datagen"] for s in setups), "s"),
        "setup.encode_s": (statistics.median(s["encode"] for s in setups), "s"),
        "setup.warmup_s": (statistics.median(s["warmup"] for s in setups), "s"),
        "bench.unattributed_ms": (unattributed, "ms"),
        "trace.coverage_ratio": (1.0 - unattributed / wall_ms if wall_ms else 0.0, "ratio"),
        "trace.overhead_ratio": (traced_in_refs / untraced_in_refs - 1.0, "ratio"),
        "trace.spans": (per_query(len(tracer.spans)), "count"),
        "wall.throughput_rows_per_s": (throughput, "rows/s"),
        "wall.query_ms.p50": (p50_s * 1000.0, "ms"),
        "wall.query_ms.p90": (p90_s * 1000.0, "ms"),
        "host.ref_pass_ms": (kernel.ref_s() * 1000.0, "ms"),
    }
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE_ROOT / "repro").is_dir():
        print(f"error: the engine sources are missing ({SOURCE_ROOT / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE_ROOT))
    from calibration import ReferenceKernel
    from workloads import WORKLOADS
    from tracer import Tracer

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    setups = []
    for _ in range(SETUP_REPEATS):
        workload = WORKLOADS[args.workload]()
        gc.collect()
        started = time.perf_counter()
        parts = workload.setup(args.seed)
        parts["total"] = time.perf_counter() - started
        setups.append(parts)

    budget = args.seconds / 2 if args.trace else args.seconds
    kernel = ReferenceKernel(REF_INTERVAL_S)
    rounds, refs = run_phase(workload, budget, kernel)
    reference_counters = rounds[0].counters
    checked = list(rounds)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_refs = run_phase(
                workload, budget, ReferenceKernel(REF_INTERVAL_S), tracer
            )
        finally:
            tracer.uninstall()
        checked.extend(traced)

    problems, failed = check_rounds(checked, reference_counters)
    attempted = sum(len(round_.outcomes) for round_ in checked)
    for problem in problems:
        print(f"FAILED {problem}")

    if args.trace:
        metrics = per_layer(
            workload, tracer, traced, rounds, setups, (refs, traced_refs), kernel
        )
        out = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(
            out,
            {"workload": args.workload, "seed": args.seed,
             "lane_rows_first_round": traced[0].totals["lane_rows"]},
        )
        print(f"spans written to {out.relative_to(HERE.parent)}")
    else:
        metrics = end_to_end(rounds, refs, setups)
    print(f"{args.workload}: seed {args.seed}, {len(checked)} rounds, {attempted} queries, "
          f"failed_ratio {failed / attempted:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.4f} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
