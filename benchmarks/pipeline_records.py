"""Workloads and exact records of the pipeline benchmarks.

``bench_batch_pipeline.py``, ``bench_columnar_pipeline.py`` and
``bench_spill_pipeline.py`` gate the engine on deterministic counters of two
workloads rather than on wall-clock ratios:

* **Fig-3a** — ``lineitem ⋈ supplier ⋈ orders`` at 4 MB, the DPJ plan and
  both hybrid build assignments;
* **§4.2.3 overflow** — ``part ⋈ partsupp`` at 3 MB with 1/3 of the plain
  columnar join state in memory and spill I/O at spinning-disk rates, both
  DPJ overflow strategies and a constrained hybrid hash join.

Each cell records its result cardinality, completion and first-tuple
virtual times, overflow events, spill counters and the rows boxed while it
ran (``counting_row_constructions``).  ``pipeline_records.json`` holds the
record every cell had before one-row pulls became one-row batches; the
benchmarks require equal results and counters and at most as many boxed
rows.  Regenerate it (only for an intended accounting change) with::

    PYTHONPATH=src python benchmarks/pipeline_records.py > benchmarks/pipeline_records.json
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

from repro.bench.harness import build_deployment, run_operator_tree
from repro.engine.context import EngineConfig
from repro.engine.iterators import DEFAULT_BATCH_SIZE
from repro.plan.physical import JoinImplementation, OverflowMethod, join, wrapper_scan
from repro.storage.tuples import counting_row_constructions

RECORDS_PATH = Path(__file__).resolve().parent / "pipeline_records.json"

FIG3A_TABLES = ["lineitem", "orders", "supplier"]
FIG3A_SCALE_MB = 4.0
#: Plan label -> (first join's build side, join implementation).
FIG3A_PLANS = {
    "dpj": ("supplier", JoinImplementation.DOUBLE_PIPELINED),
    "hybrid_good": ("supplier", JoinImplementation.HYBRID_HASH),
    "hybrid_bad": ("lineitem", JoinImplementation.HYBRID_HASH),
}

SPILL_TABLES = ["part", "partsupp"]
SPILL_SCALE_MB = 3.0
SPILL_PLANS = ["dpj_left", "dpj_symmetric", "hybrid"]
#: Memory allotment as a fraction of the join state actually needed.
MEMORY_FRACTION = 1 / 3
#: Spill I/O charged at spinning-disk rates (the Figure-4 configuration), at
#: the plain-columnar storage layer (``bench_encoding_pipeline.py`` measures
#: encoding).
DISK_CONFIG = EngineConfig(disk_page_read_ms=1.0, disk_page_write_ms=1.2, encoded_columns=False)

#: Batch sizes the Fig-3a plans are pulled at: full batches and one-row pulls.
FIG3A_BATCH_SIZES = (DEFAULT_BATCH_SIZE, 1)


def fig3a_deployment(scale_mb: float = FIG3A_SCALE_MB):
    return build_deployment(scale_mb, FIG3A_TABLES, seed=42)


def fig3a_plan(label: str):
    """One Figure-3a plan: (lineitem ⋈ supplier) ⋈ orders (see bench_fig3a)."""
    first_join_build, implementation = FIG3A_PLANS[label]
    lineitem = wrapper_scan("lineitem")
    supplier = wrapper_scan("supplier")
    if first_join_build == "supplier":
        first = join(
            lineitem, supplier, ["lineitem.l_suppkey"], ["supplier.s_suppkey"],
            implementation=implementation,
        )
    else:
        first = join(
            supplier, lineitem, ["supplier.s_suppkey"], ["lineitem.l_suppkey"],
            implementation=implementation,
        )
    return join(
        first, wrapper_scan("orders"), ["lineitem.l_orderkey"], ["orders.o_orderkey"],
        implementation=implementation,
    )


def fig3a_reference(deployment) -> Counter:
    """The Fig-3a answer by the storage layer's reference join, as name-sorted rows."""
    database = deployment.database
    lineitem, supplier, orders = (
        database[name].qualified() for name in ("lineitem", "supplier", "orders")
    )
    inner = lineitem.join(supplier, ["lineitem.l_suppkey"], ["supplier.s_suppkey"])
    return canonical_multiset(inner.join(orders, ["lineitem.l_orderkey"], ["orders.o_orderkey"]))


def spill_deployment(scale_mb: float = SPILL_SCALE_MB):
    return build_deployment(scale_mb, SPILL_TABLES, seed=42)


def spill_memory_bytes(deployment) -> int:
    """1/3 of the plain columnar bytes both inputs' hash tables need resident."""
    part = deployment.database["part"]
    partsupp = deployment.database["partsupp"]
    state = (
        part.cardinality * part.schema.qualified(part.name).columnar_row_size
        + partsupp.cardinality * partsupp.schema.qualified(partsupp.name).columnar_row_size
    )
    return int(state * MEMORY_FRACTION)


def spill_plan(label: str, memory_bytes: int):
    """One overflow-workload plan, with a stable operator id for stats."""
    if label == "hybrid":
        options = {"implementation": JoinImplementation.HYBRID_HASH}
    else:
        options = {
            "implementation": JoinImplementation.DOUBLE_PIPELINED,
            "overflow_method": (
                OverflowMethod.SYMMETRIC_FLUSH
                if label == "dpj_symmetric"
                else OverflowMethod.LEFT_FLUSH
            ),
        }
    return join(
        wrapper_scan("part"),
        wrapper_scan("partsupp"),
        ["part.p_partkey"],
        ["partsupp.ps_partkey"],
        memory_limit_bytes=memory_bytes,
        operator_id="spill_join",
        **options,
    )


def spill_reference(deployment) -> Counter:
    part = deployment.database["part"].qualified()
    partsupp = deployment.database["partsupp"].qualified()
    return canonical_multiset(part.join(partsupp, ["part.p_partkey"], ["partsupp.ps_partkey"]))


def canonical_multiset(relation) -> Counter:
    """Rows as value tuples ordered by attribute name (plans order columns differently)."""
    names = relation.schema.names
    order = sorted(range(len(names)), key=names.__getitem__)
    return Counter(tuple(row.values[i] for i in order) for row in relation)


def run_cell(spec, catalog, result_name, engine_config=None, batch_size=DEFAULT_BATCH_SIZE):
    """Run one plan with row construction counted; returns ``(result, counters)``."""
    with counting_row_constructions() as counter:
        result = run_operator_tree(
            spec, catalog, result_name=result_name, engine_config=engine_config,
            batch_size=batch_size,
        )
        boxed = counter.count
    context = result.context
    disk = context.disk.stats
    counters = {
        "rows": result.cardinality,
        "virtual_ms": result.completion_time_ms,
        "ttft_ms": result.time_to_first_tuple_ms,
        "overflow_events": sum(
            context.stats.operator(op_id).overflow_events for op_id in sorted(context.operators)
        ),
        "tuples_spilled": disk.tuples_written,
        "tuples_reread": disk.tuples_read,
        "bytes_spilled": disk.bytes_written,
        "rows_boxed": boxed,
    }
    return result, counters


def fig3a_key(label: str, batch_size: int, scale_mb: float = FIG3A_SCALE_MB) -> str:
    return f"fig3a/{scale_mb}/{label}/{batch_size}"


def spill_key(label: str, scale_mb: float = SPILL_SCALE_MB) -> str:
    return f"spill/{scale_mb}/{label}"


def all_records() -> dict:
    records = {}
    deployment = fig3a_deployment()
    for label in FIG3A_PLANS:
        for batch_size in FIG3A_BATCH_SIZES:
            _, counters = run_cell(
                fig3a_plan(label), deployment.catalog, f"record_{label}", batch_size=batch_size
            )
            records[fig3a_key(label, batch_size)] = counters
    deployment = spill_deployment()
    memory_bytes = spill_memory_bytes(deployment)
    for label in SPILL_PLANS:
        _, counters = run_cell(
            spill_plan(label, memory_bytes), deployment.catalog, f"record_{label}", DISK_CONFIG
        )
        records[spill_key(label)] = counters
    return records


def load_records() -> dict:
    with open(RECORDS_PATH) as handle:
        return json.load(handle)


#: Fields a one-row step moves (it takes the batch CPU charge, overlapped
#: with the wait it follows), per cell: held within :data:`MOVED_TOLERANCE`
#: of the record instead of equal.
MOVED_BY_ONE_ROW_STEPS = {
    fig3a_key("dpj", DEFAULT_BATCH_SIZE): {"virtual_ms", "ttft_ms"},
    fig3a_key("dpj", 1): {"virtual_ms", "ttft_ms"},
}
MOVED_TOLERANCE = 1e-3


def check_cell(key: str, counters: dict) -> list[str]:
    """Differences between ``counters`` and the committed record of ``key``.

    Counters must equal the record (fields in :data:`MOVED_BY_ONE_ROW_STEPS`
    within :data:`MOVED_TOLERANCE`) and rows boxed must not exceed it.  A
    scale without a committed record (``REPRO_BENCH_SCALE_MB``) checks
    nothing.
    """
    expected = load_records().get(key)
    if expected is None:
        return []
    moved = MOVED_BY_ONE_ROW_STEPS.get(key, ())
    problems = []
    for name, value in expected.items():
        actual = counters[name]
        if name == "rows_boxed":
            ok = actual <= value
        elif name in moved:
            ok = abs(actual - value) <= MOVED_TOLERANCE * abs(value)
        else:
            ok = actual == value
        if not ok:
            problems.append(f"{key}: {name} {actual!r}, record {value!r}")
    return problems


if __name__ == "__main__":
    json.dump(all_records(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
