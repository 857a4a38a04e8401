"""The batch protocol end to end on the Figure-3a workload: exact gates.

The Figure-3a workload (``lineitem ⋈ supplier ⋈ orders``, the double
pipelined join and both hybrid build assignments, see
:mod:`pipeline_records`) is pulled through ``next_batch`` twice per plan: in
full batches and one row at a time (the one-row ``next`` path, which is a
one-row batch of the same pipeline).  Each pull shape must

* return the reference join's rows (``Relation.join`` over the generated
  tables),
* reproduce the committed record's virtual completion and first-tuple
  times, overflow and spill counters, and
* box no more rows than the record.

Wall-clock throughput is printed per plan and pull shape; it gates nothing
(deterministic counters are the gate, a wall-clock ratio here sat inside
run-to-run noise).
"""

from __future__ import annotations

import time

import pytest

from repro.bench.reporting import format_table

from bench_support import run_once, scale_mb
from pipeline_records import (
    FIG3A_BATCH_SIZES,
    FIG3A_PLANS,
    canonical_multiset,
    check_cell,
    fig3a_deployment,
    fig3a_key,
    fig3a_plan,
    fig3a_reference,
    run_cell,
)

#: Wall-clock repetitions per (plan, pull shape); the fastest run is kept.
REPEATS = 3


@pytest.fixture(scope="module")
def deployment():
    return fig3a_deployment(scale_mb(4.0))


def measure(deployment):
    reference = fig3a_reference(deployment)
    measurements = {}
    problems = []
    for label in FIG3A_PLANS:
        for batch_size in FIG3A_BATCH_SIZES:
            best = float("inf")
            # One-row pulls are timed once: they are an order of magnitude
            # slower and only their counters gate.
            for _ in range(REPEATS if batch_size > 1 else 1):
                started = time.perf_counter()
                result, counters = run_cell(
                    fig3a_plan(label), deployment.catalog, f"batch_bench_{label}",
                    batch_size=batch_size,
                )
                best = min(best, time.perf_counter() - started)
            if canonical_multiset(result.relation) != reference:
                problems.append(f"{label}/{batch_size}: result differs from the reference join")
            problems.extend(check_cell(fig3a_key(label, batch_size, scale_mb(4.0)), counters))
            measurements[(label, batch_size)] = dict(counters, s=best)
    return measurements, problems


def print_report(measurements) -> None:
    rows = [
        [
            label,
            batch_size,
            m["rows"],
            round(m["s"] * 1000, 1),
            f"{m['rows'] / m['s']:,.0f}",
            round(m["virtual_ms"], 3),
            m["rows_boxed"],
        ]
        for (label, batch_size), m in measurements.items()
    ]
    print()
    print("Batch protocol — Fig-3a workload (exact counters; wall clock for reference)")
    print(
        format_table(
            ["plan", "batch", "rows", "wall (ms)", "rows/s", "virtual ms", "rows boxed"], rows
        )
    )


def test_batch_pipeline_counters(benchmark, deployment):
    measurements, problems = run_once(benchmark, lambda: measure(deployment))
    print_report(measurements)
    assert not problems, "\n".join(problems)
