"""The columnar spill pipeline on the §4.2.3 overflow workload: exact gates.

``part ⋈ partsupp`` with memory allotments far below the join state, so
every plan spills — the double pipelined join under both overflow
strategies (Incremental Left Flush and Incremental Symmetric Flush) plus a
memory-constrained hybrid hash join whose probe phase spills outer tuples of
flushed buckets (see :mod:`pipeline_records`).  Runs and builds arrive as
batches, arriving tuples probe and insert by position, spills move column
values, and the final overflow resolution joins spill chunks positionally.

Each plan must

* return the reference join's rows,
* reproduce the committed record's virtual completion time, overflow
  events, spilled and re-read tuples and spilled bytes exactly, and
* box no more rows than the record.

``REPRO_BENCH_SCALE_MB`` scales the generated data and the memory limit
with it (always :data:`~pipeline_records.MEMORY_FRACTION` of the join
state), so the workload overflows at every scale; records exist for the
default scale only.  Each run appends a record (per-plan wall clock and
counters) to ``BENCH_spill.json`` at the repo root — the accumulating
perf-history artifact, uploaded by CI.  Wall clock gates nothing.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.bench.reporting import format_table

from bench_support import run_once, scale_mb
from pipeline_records import (
    DISK_CONFIG,
    SPILL_PLANS,
    canonical_multiset,
    check_cell,
    run_cell,
    spill_deployment,
    spill_key,
    spill_memory_bytes,
    spill_plan,
    spill_reference,
)

#: Wall-clock repetitions per plan; the fastest run is kept.
REPEATS = 5

TRAJECTORY_PATH = Path(__file__).resolve().parent.parent / "BENCH_spill.json"


@pytest.fixture(scope="module")
def deployment():
    return spill_deployment(scale_mb(3.0))


def measure(deployment):
    reference = spill_reference(deployment)
    memory_bytes = spill_memory_bytes(deployment)
    measurements = {}
    problems = []
    for label in SPILL_PLANS:
        best = float("inf")
        for _ in range(REPEATS):
            started = time.perf_counter()
            result, counters = run_cell(
                spill_plan(label, memory_bytes), deployment.catalog, f"spill_{label}", DISK_CONFIG
            )
            best = min(best, time.perf_counter() - started)
        if canonical_multiset(result.relation) != reference:
            problems.append(f"{label}: result differs from the reference join")
        if not counters["overflow_events"]:
            problems.append(f"{label}: workload was meant to force spills")
        problems.extend(check_cell(spill_key(label, scale_mb(3.0)), counters))
        measurements[label] = dict(counters, s=best)
    return measurements, problems


def print_report(measurements) -> None:
    rows = [
        [
            label,
            m["rows"],
            m["overflow_events"],
            m["tuples_spilled"],
            m["bytes_spilled"],
            round(m["virtual_ms"], 3),
            round(m["s"] * 1000, 1),
            m["rows_boxed"],
        ]
        for label, m in measurements.items()
    ]
    print()
    print("Columnar spill pipeline — part x partsupp at 1/3 memory")
    print(
        format_table(
            [
                "plan", "rows", "overflows", "spilled", "spilled B", "virtual ms",
                "wall (ms)", "rows boxed",
            ],
            rows,
        )
    )


def append_trajectory(measurements) -> None:
    """Append one record to ``BENCH_spill.json`` (perf history artifact)."""
    record = {
        "benchmark": "bench_spill_pipeline",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "scale_mb": scale_mb(3.0),
        "plans": {
            label: {
                "wall_ms": round(m["s"] * 1000, 3),
                "overflow_events": m["overflow_events"],
                "tuples_spilled": m["tuples_spilled"],
                "virtual_ms": round(m["virtual_ms"], 3),
                "rows_boxed": m["rows_boxed"],
            }
            for label, m in measurements.items()
        },
    }
    history = []
    if TRAJECTORY_PATH.exists():
        try:
            history = json.loads(TRAJECTORY_PATH.read_text())
        except (ValueError, OSError):
            history = []
        if not isinstance(history, list):
            history = [history]
    history.append(record)
    TRAJECTORY_PATH.write_text(json.dumps(history, indent=2) + "\n")


def test_spill_pipeline_counters(benchmark, deployment):
    measurements, problems = run_once(benchmark, lambda: measure(deployment))
    print_report(measurements)
    append_trajectory(measurements)
    assert not problems, "\n".join(problems)
