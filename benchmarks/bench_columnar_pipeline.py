"""Columnar batches end to end on the Figure-3a workload: exact gates.

Scans build columns straight from fetched blocks, selections filter by
column, hash joins insert and probe by position and assemble output with
per-column gathers, and the double pipelined join processes its input runs
in bulk segments — no per-tuple :class:`~repro.storage.tuples.Row` on any
of those paths.  On the Figure-3a workload (see :mod:`pipeline_records`),
pulled in full batches, every plan must

* return the reference join's rows,
* reproduce the committed record's virtual times, overflow and spill
  counters, and
* box no more rows than the record (``counting_row_constructions``) — the
  columnar pipeline's claim, as an exact counter.

Wall-clock throughput is printed for reference and gates nothing.
"""

from __future__ import annotations

import time

import pytest

from repro.bench.reporting import format_table
from repro.engine.iterators import DEFAULT_BATCH_SIZE

from bench_support import run_once, scale_mb
from pipeline_records import (
    FIG3A_PLANS,
    canonical_multiset,
    check_cell,
    fig3a_deployment,
    fig3a_key,
    fig3a_plan,
    fig3a_reference,
    load_records,
    run_cell,
)

#: Wall-clock repetitions per plan; the fastest run is kept.
REPEATS = 3


@pytest.fixture(scope="module")
def deployment():
    return fig3a_deployment(scale_mb(4.0))


def measure(deployment):
    reference = fig3a_reference(deployment)
    measurements = {}
    problems = []
    for label in FIG3A_PLANS:
        best = float("inf")
        for _ in range(REPEATS):
            started = time.perf_counter()
            result, counters = run_cell(
                fig3a_plan(label), deployment.catalog, f"columnar_bench_{label}"
            )
            best = min(best, time.perf_counter() - started)
        if canonical_multiset(result.relation) != reference:
            problems.append(f"{label}: result differs from the reference join")
        problems.extend(check_cell(fig3a_key(label, DEFAULT_BATCH_SIZE, scale_mb(4.0)), counters))
        measurements[label] = dict(counters, s=best)
    return measurements, problems


def print_report(measurements) -> None:
    records = load_records()
    rows = []
    for label, m in measurements.items():
        recorded = records.get(fig3a_key(label, DEFAULT_BATCH_SIZE, scale_mb(4.0)), {})
        rows.append(
            [
                label,
                m["rows"],
                round(m["s"] * 1000, 1),
                f"{m['rows'] / m['s']:,.0f}",
                m["rows_boxed"],
                recorded.get("rows_boxed", "-"),
            ]
        )
    print()
    print("Columnar pipeline — Fig-3a workload (rows boxed vs record; wall clock for reference)")
    print(format_table(["plan", "rows", "wall (ms)", "rows/s", "rows boxed", "record"], rows))


def test_columnar_pipeline_counters(benchmark, deployment):
    measurements, problems = run_once(benchmark, lambda: measure(deployment))
    print_report(measurements)
    assert not problems, "\n".join(problems)
