"""Exact records of the hash joins, for the exact-parity tests.

Each case drives one join to completion and records everything observable:
the output batches (rows in order, arrival stamps, boundaries), the clock
breakdown, disk counters, overflow counts and the spill files with their
marked bits.  Row contents are recorded as the SHA-256 of their canonical
JSON text (floats in ``repr`` form, so a digest matches only bit-identical
values); batch boundaries and counts are kept in the clear.  ``tests/data/exact_records.json`` holds the record of every
case as the engine produced it before one-row pulls became one-row batches;
``tests/test_batch_parity.py`` and ``tests/test_server.py`` hold the engine
to it.  Regenerate (only when an accounting change is intended) with::

    PYTHONPATH=src python tests/exact_records.py > tests/data/exact_records.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

from repro.catalog.catalog import DataSourceCatalog
from repro.datagen.tpcd import TPCDGenerator
from repro.engine.context import EngineConfig, ExecutionContext
from repro.engine.operators.joins.double_pipelined import DoublePipelinedJoin
from repro.engine.operators.joins.hybrid_hash import HybridHashJoin
from repro.engine.operators.scan import WrapperScan
from repro.network.profiles import NetworkProfile, lan
from repro.network.source import DataSource
from repro.plan.physical import OverflowMethod, join, wrapper_scan
from repro.plan.rules import EventType
from repro.server import QueryServer

from helpers import make_relation

RECORDS_PATH = Path(__file__).parent / "data" / "exact_records.json"

BATCH_SIZES_TIED = (1, 7, 64)
REFUSAL_CASES = [
    (method, batch_size, encoded)
    for method in (OverflowMethod.LEFT_FLUSH, OverflowMethod.SYMMETRIC_FLUSH)
    for batch_size in (7, 64)
    for encoded in (True, False)
]

HYBRID_CASES = [(batch_size, encoded) for batch_size in (7, 64) for encoded in (True, False)]


def tied_catalog() -> DataSourceCatalog:
    """Two sources whose arrival timetables are identical: every step ties."""
    left = make_relation("tl", ["k:int", "a:str"], [(i % 40, f"a{i % 9}") for i in range(200)])
    right = make_relation("tr", ["k:int", "b:str"], [(i % 50, f"b{i % 4}") for i in range(160)])
    catalog = DataSourceCatalog()
    catalog.register_source(DataSource("tl", left, lan()))
    catalog.register_source(DataSource("tr", right, lan()))
    return catalog


def parity_catalog() -> DataSourceCatalog:
    """Joinable catalog with enough rows to fill several batches."""
    orders = make_relation("ord", ["o_id:int", "o_cust:str"], [(i, f"cust{i % 17}") for i in range(150)])
    orders2 = make_relation(
        "ord", ["o_id:int", "o_cust:str"], [(i + 500, f"cust{i % 5}") for i in range(40)]
    )
    items = make_relation(
        "item",
        ["i_order:int", "i_sku:str", "i_qty:int"],
        [(i % 180, f"sku{i}", i % 7) for i in range(300)],
    )
    catalog = DataSourceCatalog()
    catalog.register_source(DataSource("ord", orders, lan()))
    catalog.register_source(DataSource("ord2", orders2, lan()))
    catalog.register_source(DataSource("item", items, lan()))
    return catalog


def tiny_tpcd():
    return TPCDGenerator(scale_mb=0.3, seed=7).generate(
        ["region", "nation", "supplier", "customer", "part", "partsupp", "orders"]
    )


def tpcd_catalog(database) -> DataSourceCatalog:
    catalog = DataSourceCatalog()
    for table in database.names:
        catalog.register_source(DataSource(table, database[table], lan()))
    return catalog


def tree_tied_dpj(context):
    return DoublePipelinedJoin(
        "dpj",
        context,
        WrapperScan("scan_tl", context, "tl"),
        WrapperScan("scan_tr", context, "tr"),
        ["tl.k"],
        ["tr.k"],
    )


def tree_dpj(context):
    return DoublePipelinedJoin(
        "dpj",
        context,
        WrapperScan("scan_ord", context, "ord"),
        WrapperScan("scan_item", context, "item"),
        ["ord.o_id"],
        ["item.i_order"],
    )


def build_overflowing_dpj(database, method):
    def build(context):
        return DoublePipelinedJoin(
            "dpj",
            context,
            WrapperScan("scan_ps", context, "partsupp"),
            WrapperScan("scan_p", context, "part"),
            ["partsupp.ps_partkey"],
            ["part.p_partkey"],
            memory_limit_bytes=len(database["partsupp"]) * 20,
            bucket_count=8,
            overflow_method=method,
        )

    return build


def build_overflowing_hybrid(database):
    def build(context):
        return HybridHashJoin(
            "hh",
            context,
            WrapperScan("scan_ps", context, "partsupp"),
            WrapperScan("scan_p", context, "part"),
            ["partsupp.ps_partkey"],
            ["part.p_partkey"],
            memory_limit_bytes=len(database["part"]) * 20,
            bucket_count=8,
        )

    return build


def build_watched_dpj(database):
    build_join = build_overflowing_dpj(database, OverflowMethod.LEFT_FLUSH)

    def build(context):
        context.watch_events({(EventType.OUT_OF_MEMORY, "dpj")})
        return build_join(context)

    return build


def clear_interrupt(context) -> None:
    # The executor clears the interrupt once it has handled the events.
    context.batch_interrupt = False


def digest(data) -> str:
    """SHA-256 of ``data``'s canonical JSON text (exact for floats)."""
    return hashlib.sha256(json.dumps(data, separators=(",", ":")).encode()).hexdigest()


def drive_exact(build, catalog, batch_size, encoded=True, between_batches=None):
    """Drain ``build``'s join batch by batch and record everything observable.

    Returns ``(record, context, join)``; the record is plain JSON data.
    """
    context = ExecutionContext(catalog, config=EngineConfig(encoded_columns=encoded))
    joined = build(context)
    joined.open()
    batches = []
    while True:
        batch = joined.next_batch(batch_size)
        if not batch:
            break
        batches.append((list(map(list, zip(*batch.columns))), list(batch.arrivals)))
        if between_batches is not None:
            between_batches(context)
    tables = getattr(joined, "_tables", None) or [joined._inner_table]
    files = [bucket.overflow for table in tables for bucket in table.buckets]
    outer = getattr(joined, "_outer_overflow", {})
    files.extend(outer[index] for index in sorted(outer))
    spills = [
        [[list(row.values), row.arrival, marked] for row, marked in spill.peek()]
        for spill in files
        if spill is not None
    ]
    joined.close()
    record = {
        "batch_sizes": [len(arrivals) for _, arrivals in batches],
        "batch_rows": digest([rows for rows, _ in batches]),
        "batch_arrivals": digest([arrivals for _, arrivals in batches]),
        "now": context.clock.now,
        "clock": asdict(context.clock.stats),
        "disk": asdict(context.disk.stats),
        "overflow_count": getattr(joined, "overflow_count", None),
        "overflow_events": context.stats.operator(joined.operator_id).overflow_events,
        "spill_sizes": [len(spill) for spill in spills],
        "spills": digest(spills),
    }
    return record, context, joined


#: Slow link so network waits dominate (the contention case's sources).
SLOW = NetworkProfile(name="slow", initial_latency_ms=40.0, bandwidth_kbps=64.0)
CONTENTION_ROWS = 1200


def contention_catalog(rows: int = CONTENTION_ROWS) -> DataSourceCatalog:
    left = make_relation("l", ["id:int", "tag:str"], [(i, f"tag{i % 7}") for i in range(rows)])
    right = make_relation("r", ["rid:int", "grade:str"], [(i, f"g{i % 5}") for i in range(rows)])
    catalog = DataSourceCatalog()
    catalog.register_source(DataSource("l", left, SLOW))
    catalog.register_source(DataSource("r", right, SLOW))
    return catalog


def contention_join_spec(prefix: str, memory: int | None = None):
    return join(
        wrapper_scan("l", operator_id=f"{prefix}_scan_l"),
        wrapper_scan("r", operator_id=f"{prefix}_scan_r"),
        ["l.id"],
        ["r.rid"],
        operator_id=f"{prefix}_join",
        memory_limit_bytes=memory,
    )


def run_contended():
    """Two DPJ sessions on one server; the second's admission revokes the
    first's lease while its hash tables hold resident rows."""
    server = QueryServer(contention_catalog(), memory_capacity_bytes=96 * 1024)
    server.broker.floor_bytes = 8 * 1024
    a = server.submit(contention_join_spec("a", memory=80 * 1024), "a")
    b = server.submit(contention_join_spec("b", memory=80 * 1024), "b", arrival_ms=400.0)
    server.run()
    return server, a, b


def contention_record(server, sessions) -> dict:
    return {
        "broker": asdict(server.broker.stats),
        "sessions": {
            session.session_id: {
                "result_size": len(session.result),
                "result_rows": digest([list(row.values) for row in session.result]),
                "result_arrivals": digest([row.arrival for row in session.result]),
                "completed_at_ms": session.summary.completed_at_ms,
                "clock": asdict(session.context.clock.stats),
                "disk": asdict(session.context.disk.stats),
                "overflow_count": session.context.operator(
                    f"{session.session_id}_join"
                ).overflow_count,
            }
            for session in sessions
        },
    }


def case_name(*parts) -> str:
    return "-".join(str(part.value if isinstance(part, OverflowMethod) else part) for part in parts)


def all_records() -> dict:
    database = tiny_tpcd()
    records = {}
    for batch_size in BATCH_SIZES_TIED:
        records[case_name("tied", batch_size)] = drive_exact(
            tree_tied_dpj, tied_catalog(), batch_size
        )[0]
    records["output_cut"] = drive_exact(tree_dpj, parity_catalog(), 7)[0]
    for method, batch_size, encoded in REFUSAL_CASES:
        records[case_name("refusal", method, batch_size, encoded)] = drive_exact(
            build_overflowing_dpj(database, method), tpcd_catalog(database), batch_size, encoded
        )[0]
    for batch_size, encoded in HYBRID_CASES:
        records[case_name("hybrid-spill", batch_size, encoded)] = drive_exact(
            build_overflowing_hybrid(database), tpcd_catalog(database), batch_size, encoded
        )[0]
    records["watched_oom"] = drive_exact(
        build_watched_dpj(database), tpcd_catalog(database), 64, between_batches=clear_interrupt
    )[0]
    server, a, b = run_contended()
    records["contention"] = contention_record(server, (a, b))
    return records


def load_records() -> dict:
    with open(RECORDS_PATH) as handle:
        return json.load(handle)


if __name__ == "__main__":
    json.dump(all_records(), sys.stdout, indent=1)
    sys.stdout.write("\n")
