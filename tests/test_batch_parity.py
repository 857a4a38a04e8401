"""Engine vs. oracle: every operator returns the reference evaluator's rows.

The engine runs one pipeline (columnar batches through ``next_batch``; a
one-row ``next`` is a one-row batch).  These tests drive each operator at
several batch sizes — and by one-row pulls — over the tiny joinable catalog
and the TPC-D catalog, including the memory-overflow paths of both hash
joins, the dependent and nested-loops joins (duplicate-key and empty-probe
paths), and the rule-driven collector-switch path, and compare the result
multiset with :mod:`oracle`, a nested-loops evaluator that shares no code
with the engine.

Beyond multisets, the hash joins are held to exact records
(:mod:`exact_records`): the same output rows in the same order and batch
boundaries, the same clock breakdown, disk counters, overflow counts and
spill files, as recorded from the engine before one-row pulls became
one-row batches.
"""

from __future__ import annotations

import pytest

import exact_records
import oracle
from repro.catalog.catalog import DataSourceCatalog
from repro.core.policies import apply_policy, race_policy
from repro.engine.context import EngineConfig, ExecutionContext
from repro.engine.executor import ExecutionStatus, QueryExecutor
from repro.engine.operators.choose import ChooseNode
from repro.engine.operators.collector import DynamicCollector
from repro.engine.operators.joins.dependent import DependentJoin
from repro.engine.operators.joins.double_pipelined import DoublePipelinedJoin
from repro.engine.operators.joins.hybrid_hash import HybridHashJoin
from repro.engine.operators.joins.nested_loops import NestedLoopsJoin
from repro.engine.operators.materialize import Materialize
from repro.engine.operators.project import Project
from repro.engine.operators.scan import TableScan, WrapperScan
from repro.engine.operators.select import Select
from repro.engine.operators.union import Union
from repro.network.profiles import lan, wide_area
from repro.network.source import DataSource, make_mirror
from repro.plan.fragments import Fragment, QueryPlan
from repro.plan.physical import OverflowMethod, collector, join, wrapper_scan
from repro.query.conjunctive import SelectionPredicate
from repro.storage.hash_table import BucketedHashTable
from repro.storage.tuples import counting_row_constructions

from helpers import make_relation, multiset

BATCH_SIZES = [1, 3, 7, 64, 512]

#: Relative tolerance between the clocks of a batch drive and one-row pulls
#: (batching coarsens the CPU/wait interleave by a few percent).
ONE_ROW_TIME_TOLERANCE = 0.10

RECORDS = exact_records.load_records()

#: Record fields that one-row steps move, per case: a one-row pull now takes
#: the batch CPU charge (overlapped with the wait it follows), so a row that
#: follows a tie step is stamped when it arrives rather than after the
#: previous row's CPU.  Every other field matches the record bit for bit.
MOVED_BY_ONE_ROW_STEPS = {
    "tied-1": {"batch_arrivals"},
    "tied-7": {"batch_arrivals"},
    "tied-64": {"batch_arrivals"},
}


def drain_rows(operator):
    """One-row pulls (``next``) to end of stream."""
    operator.open()
    rows = list(operator.iterate())
    operator.close()
    return rows


def drain_batch(operator, batch_size):
    operator.open()
    rows = []
    while True:
        batch = operator.next_batch(batch_size)
        if not batch:
            break
        assert len(batch) <= batch_size
        rows.extend(batch)
    operator.close()
    return rows


def assert_parity(build_tree, catalog, batch_size, expected):
    """Batches of ``batch_size`` and one-row pulls both give the oracle's rows.

    Each drive gets a fresh context; their clocks must agree within
    :data:`ONE_ROW_TIME_TOLERANCE`.
    """
    one_row_context = ExecutionContext(catalog)
    one_row = drain_rows(build_tree(one_row_context))
    context = ExecutionContext(catalog)
    rows = drain_batch(build_tree(context), batch_size)
    assert multiset(rows) == expected
    assert multiset(one_row) == expected
    if one_row_context.clock.now > 0:
        assert context.clock.now == pytest.approx(
            one_row_context.clock.now, rel=ONE_ROW_TIME_TOLERANCE
        )


def assert_matches_record(case, record):
    """``record`` equals the committed record of ``case`` (see module docs)."""
    expected = RECORDS[case]
    assert set(record) == set(expected)
    moved = MOVED_BY_ONE_ROW_STEPS.get(case, set())
    for key, value in expected.items():
        if key not in moved:
            assert record[key] == value, f"{case}: {key} differs from the record"


STORED_VALUES = [(i, f"v{i}") for i in range(100)]
SELECT_QTY = SelectionPredicate("item", "i_qty", ">=", 2)
SELECT_MULTI = [
    SelectionPredicate("item", "i_qty", ">=", 1),
    SelectionPredicate("item", "i_order", "<", 10),
]


# -- operator trees over the tiny joinable catalog ----------------------------------------


def tree_wrapper_scan(context):
    return WrapperScan("scan_ord", context, "ord")


def tree_table_scan(context):
    stored = make_relation("stored", ["k:int", "v:str"], STORED_VALUES)
    context.local_store.materialize(stored)
    return TableScan("tscan", context, "stored")


def tree_select(context):
    scan = WrapperScan("scan_item", context, "item")
    return Select("sel", context, scan, [SELECT_QTY])


def tree_select_multi_predicate(context):
    # Two predicates with very different selectivities: the adaptive batch
    # evaluator may reorder them mid-stream, which must never change results.
    scan = WrapperScan("scan_item", context, "item")
    return Select("sel_multi", context, scan, list(SELECT_MULTI))


def tree_select_unsatisfiable(context):
    scan = WrapperScan("scan_item", context, "item")
    return Select(
        "sel", context, scan, [SelectionPredicate("item", "no_such_attr", "=", 1)]
    )


def tree_project(context):
    scan = WrapperScan("scan_ord", context, "ord")
    return Project("proj", context, scan, ["ord.o_cust"])


def tree_union(context):
    return Union(
        "uni",
        context,
        [
            WrapperScan("scan_a", context, "ord"),
            WrapperScan("scan_b", context, "ord2"),
        ],
    )


def tree_hybrid(context):
    return HybridHashJoin(
        "hh",
        context,
        WrapperScan("scan_ord", context, "ord"),
        WrapperScan("scan_item", context, "item"),
        ["ord.o_id"],
        ["item.i_order"],
    )


def tree_nested_loops(context):
    return NestedLoopsJoin(
        "nl",
        context,
        WrapperScan("scan_ord", context, "ord"),
        WrapperScan("scan_item", context, "item"),
        ["ord.o_id"],
        ["item.i_order"],
    )


def tree_nested_loops_dup_keys(context):
    # Outer side with duplicate keys and keys missing from the inner: the
    # items' i_order values repeat (i % 180 over 300 rows) and values 150-179
    # have no matching order — both the multi-match and no-match paths.
    return NestedLoopsJoin(
        "nl2",
        context,
        WrapperScan("scan_item", context, "item"),
        WrapperScan("scan_ord", context, "ord"),
        ["item.i_order"],
        ["ord.o_id"],
    )


def tree_dependent(context):
    # Unique bind keys: one probe per left tuple, all keys match.
    return DependentJoin(
        "dj",
        context,
        WrapperScan("scan_ord", context, "ord"),
        "item",
        ["ord.o_id"],
        ["item.i_order"],
    )


def tree_dependent_dup_keys(context):
    # Duplicate bind keys (memoized probes) and empty probes (i_order 150-179
    # have no matching o_id).
    return DependentJoin(
        "dj2",
        context,
        WrapperScan("scan_item", context, "item"),
        "ord",
        ["item.i_order"],
        ["ord.o_id"],
    )


def tree_dependent_no_memo(context):
    # Same shape with the probe memo disabled: every duplicate key re-probes.
    return DependentJoin(
        "dj3",
        context,
        WrapperScan("scan_item", context, "item"),
        "ord",
        ["item.i_order"],
        ["ord.o_id"],
        probe_cache=False,
    )


def tree_materialize(context):
    scan = WrapperScan("scan_ord", context, "ord")
    return Materialize("mat", context, scan, result_name="mat_out")


tree_dpj = exact_records.tree_dpj


JOINABLE_TREES = {
    "wrapper_scan": tree_wrapper_scan,
    "table_scan": tree_table_scan,
    "select": tree_select,
    "select_multi_predicate": tree_select_multi_predicate,
    "select_unsatisfiable": tree_select_unsatisfiable,
    "project": tree_project,
    "union": tree_union,
    "hybrid_hash": tree_hybrid,
    "nested_loops": tree_nested_loops,
    "nested_loops_dup_keys": tree_nested_loops_dup_keys,
    "dependent": tree_dependent,
    "dependent_dup_keys": tree_dependent_dup_keys,
    "dependent_no_memo": tree_dependent_no_memo,
    "materialize": tree_materialize,
    "double_pipelined": tree_dpj,
}



def joinable_oracles(catalog):
    """The oracle's answer for every tree in :data:`JOINABLE_TREES`."""
    ord_, ord2, item = (oracle.source(catalog, name) for name in ("ord", "ord2", "item"))
    orders_items = oracle.join(ord_, item, ["ord.o_id"], ["item.i_order"])
    items_orders = oracle.join(item, ord_, ["item.i_order"], ["ord.o_id"])
    stored = oracle.scan(make_relation("stored", ["k:int", "v:str"], STORED_VALUES))
    tables = {
        "wrapper_scan": ord_,
        "table_scan": stored,
        "select": oracle.select(item, [SELECT_QTY]),
        "select_multi_predicate": oracle.select(item, SELECT_MULTI),
        "select_unsatisfiable": oracle.Table(item.names, []),
        "project": oracle.project(ord_, ["ord.o_cust"]),
        "union": oracle.union([ord_, ord2]),
        "hybrid_hash": orders_items,
        "nested_loops": orders_items,
        "nested_loops_dup_keys": items_orders,
        "dependent": orders_items,
        "dependent_dup_keys": items_orders,
        "dependent_no_memo": items_orders,
        "materialize": ord_,
        "double_pipelined": orders_items,
    }
    return {name: oracle.multiset(table) for name, table in tables.items()}


@pytest.fixture
def parity_catalog():
    """Joinable catalog with enough rows to fill several batches."""
    return exact_records.parity_catalog()


@pytest.mark.parametrize("tree_name", sorted(JOINABLE_TREES))
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_operator_parity_on_joinable_catalog(parity_catalog, tree_name, batch_size):
    expected = joinable_oracles(parity_catalog)[tree_name]
    assert expected or tree_name == "select_unsatisfiable"
    assert_parity(JOINABLE_TREES[tree_name], parity_catalog, batch_size, expected)


# -- the server-mix shape: a DPJ over selections over wrapper scans ---------------------


@pytest.mark.parametrize("batch_size", [1, 64])
def test_dpj_over_selects_boxes_no_rows(parity_catalog, batch_size):
    """Selections take the DPJ's arrival bounds natively: no row is boxed."""
    order_filter = SelectionPredicate("ord", "o_id", "<", 120)

    def build(context):
        return DoublePipelinedJoin(
            "dpj",
            context,
            Select("sel_ord", context, WrapperScan("scan_ord", context, "ord"), [order_filter]),
            Select("sel_item", context, WrapperScan("scan_item", context, "item"), [SELECT_QTY]),
            ["ord.o_id"],
            ["item.i_order"],
        )

    context = ExecutionContext(parity_catalog)
    joined = build(context)
    batches = []
    with counting_row_constructions() as counter:
        joined.open()
        while True:
            batch = joined.next_batch(batch_size)
            if not batch:
                break
            batches.append(batch)
        joined.close()
        boxed = counter.count
    assert boxed == 0, f"{boxed} rows boxed"
    expected = oracle.multiset(
        oracle.join(
            oracle.select(oracle.source(parity_catalog, "ord"), [order_filter]),
            oracle.select(oracle.source(parity_catalog, "item"), [SELECT_QTY]),
            ["ord.o_id"],
            ["item.i_order"],
        )
    )
    assert expected
    assert multiset(row for batch in batches for row in batch) == expected


def bounded_input(kind, context):
    """A DPJ left input of ``kind`` over the orders sources (read under run bounds)."""
    def scan(operator_id="scan_ord", source="ord"):
        return WrapperScan(operator_id, context, source)

    if kind == "union":
        return Union("uni", context, [scan("scan_a", "ord"), scan("scan_b", "ord2")])
    if kind == "materialize":
        return Materialize("mat", context, scan(), result_name="mat_out")
    if kind == "choose":
        return ChooseNode("choose", context, [scan("scan_a"), scan("scan_b")])
    if kind == "collector":
        return DynamicCollector("coll", context, [scan("scan_a", "ord"), scan("scan_b", "ord2")])
    stored = exact_records.parity_catalog().source("ord").relation.qualified()
    context.local_store.materialize(stored)
    return TableScan("tscan", context, stored.name)


@pytest.mark.parametrize("batch_size", [1, 64])
@pytest.mark.parametrize("kind", ["union", "materialize", "choose", "collector", "table_scan"])
def test_dpj_over_bounded_inputs_matches_oracle(parity_catalog, kind, batch_size):
    """Every operator a DPJ reads in arrival-bounded runs returns the oracle's rows."""
    context = ExecutionContext(parity_catalog)
    joined = DoublePipelinedJoin(
        "dpj",
        context,
        bounded_input(kind, context),
        WrapperScan("scan_item", context, "item"),
        ["ord.o_id"],
        ["item.i_order"],
    )
    ord_, ord2, item = (oracle.source(parity_catalog, name) for name in ("ord", "ord2", "item"))
    left = oracle.union([ord_, ord2]) if kind in ("union", "collector") else ord_
    expected = oracle.multiset(oracle.join(left, item, ["ord.o_id"], ["item.i_order"]))
    assert multiset(drain_batch(joined, batch_size)) == expected


# -- overflow paths (tiny memory budgets force bucket spills) -------------------------------


def partsupp_part(catalog):
    return oracle.multiset(
        oracle.join(
            oracle.source(catalog, "partsupp"),
            oracle.source(catalog, "part"),
            ["partsupp.ps_partkey"],
            ["part.p_partkey"],
        )
    )


def assert_budget_invariant(join_operator) -> None:
    """budget.used must equal the sum of the operator's tables' resident bytes."""
    tables = (
        join_operator._tables
        if hasattr(join_operator, "_tables") and join_operator._tables
        else [join_operator._inner_table]
    )
    resident = sum(table.resident_bytes for table in tables if table is not None)
    assert join_operator.budget.used_bytes == resident, (
        f"accounting drift: budget says {join_operator.budget.used_bytes}B, "
        f"tables hold {resident}B"
    )


def watch_overflow_resolutions(monkeypatch, check):
    """Assert ``check`` after every DPJ overflow resolution (mid-batch flushes)."""
    original = DoublePipelinedJoin._resolve_overflow

    def checked(self):
        original(self)
        check(self)

    monkeypatch.setattr(DoublePipelinedJoin, "_resolve_overflow", checked)


@pytest.mark.parametrize("batch_size", [1, 7, 64])
@pytest.mark.parametrize(
    "method", [OverflowMethod.LEFT_FLUSH, OverflowMethod.SYMMETRIC_FLUSH]
)
def test_dpj_overflow_parity(tpcd_catalog, tiny_tpcd, method, batch_size, monkeypatch):
    watch_overflow_resolutions(monkeypatch, assert_budget_invariant)
    context = ExecutionContext(tpcd_catalog)
    joined = build_overflowing_dpj(tiny_tpcd, method)(context)
    rows = drain_batch(joined, batch_size)
    assert joined.overflow_count > 0, "memory budget was meant to force spills"
    assert multiset(rows) == partsupp_part(tpcd_catalog)
    assert_budget_invariant(joined)


@pytest.mark.parametrize("batch_size", [1, 7, 64])
def test_hybrid_overflow_parity(tpcd_catalog, tiny_tpcd, batch_size):
    context = ExecutionContext(tpcd_catalog)
    joined = exact_records.build_overflowing_hybrid(tiny_tpcd)(context)
    rows = drain_batch(joined, batch_size)
    assert context.stats.operator("hh").overflow_events > 0
    assert multiset(rows) == partsupp_part(tpcd_catalog)
    assert_budget_invariant(joined)


# -- spill paths under memory pressure, encoded and plain ---------------------------------
#
# The hash tables, memory accounting, and spill files are columnar; column
# *encoding* (dictionary strings + RLE arrivals) changes how they represent
# and charge values.  Both encodings must give the oracle's rows, keep the
# budget invariant at every overflow resolution, and read back every byte
# they spilled.


def drain_batch_with_context(build_tree, catalog, batch_size, encoded=True):
    config = EngineConfig(encoded_columns=encoded)
    context = ExecutionContext(catalog, config=config)
    operator = build_tree(context)
    rows = drain_batch(operator, batch_size)
    return rows, context, operator


@pytest.mark.parametrize("encoded", [True, False])
@pytest.mark.parametrize("batch_size", [7, 64])
@pytest.mark.parametrize(
    "method", [OverflowMethod.LEFT_FLUSH, OverflowMethod.SYMMETRIC_FLUSH]
)
def test_dpj_spill_drive_parity(
    tpcd_catalog, tiny_tpcd, method, batch_size, encoded, monkeypatch
):
    watch_overflow_resolutions(monkeypatch, assert_budget_invariant)
    rows, context, joined = drain_batch_with_context(
        build_overflowing_dpj(tiny_tpcd, method), tpcd_catalog, batch_size, encoded
    )
    assert multiset(rows) == partsupp_part(tpcd_catalog)
    assert joined.overflow_count > 0
    stats = context.disk.stats
    assert stats.tuples_written > 0
    assert (stats.tuples_read, stats.bytes_read) == (stats.tuples_written, stats.bytes_written)
    assert_budget_invariant(joined)


# -- exact DPJ records: bulk segments, ties, cuts and refusals ----------------------------
#
# The DPJ processes runs in bulk segments and takes a one-row step at every
# tie.  Beyond equal multisets, each case must reproduce its committed record
# exactly: the same rows in the same order and batch boundaries, the same
# clock breakdown and disk counters, the same overflow count, and the same
# spill files (values, arrival stamps and marked bits).


def drive_exact(build, catalog, batch_size, encoded=True, between_batches=None):
    """Record ``build``'s join (see :func:`exact_records.drive_exact`)."""
    record, context, _ = exact_records.drive_exact(
        build, catalog, batch_size, encoded, between_batches
    )
    return record, context


@pytest.fixture
def segment_spy(monkeypatch):
    """Record ``(room, rows emitted, run rows left)`` for every DPJ segment."""
    calls = []
    original = DoublePipelinedJoin._process_segment

    def spied(self, side, run, room):
        before = len(self._out.arrivals)
        original(self, side, run, room)
        calls.append((room, len(self._out.arrivals) - before, len(run.batch) - run.cursor))

    monkeypatch.setattr(DoublePipelinedJoin, "_process_segment", spied)
    return calls


@pytest.fixture
def refusal_spy(monkeypatch):
    """Record ``(start, stop, returned)`` for every hash-table bulk insert."""
    calls = []
    original = BucketedHashTable.insert_batch

    def spied(self, batch, marked=False, keys=None, start=0, stop=None):
        result = original(self, batch, marked, keys, start, stop)
        calls.append((start, len(batch) if stop is None else stop, result))
        return result

    monkeypatch.setattr(BucketedHashTable, "insert_batch", spied)
    return calls


@pytest.fixture
def tied_catalog():
    """Two sources whose arrival timetables are identical: every step ties."""
    return exact_records.tied_catalog()


def tied_oracle(catalog):
    return oracle.multiset(
        oracle.join(oracle.source(catalog, "tl"), oracle.source(catalog, "tr"), ["tl.k"], ["tr.k"])
    )


@pytest.mark.parametrize("batch_size", [1, 7, 64])
def test_dpj_exact_parity_on_tied_arrivals(tied_catalog, batch_size):
    left, right = tied_catalog.source("tl"), tied_catalog.source("tr")
    assert left.arrival_schedule(0.0)[:160] == right.arrival_schedule(0.0)
    record, _ = drive_exact(exact_records.tree_tied_dpj, tied_catalog, batch_size)
    assert_matches_record(exact_records.case_name("tied", batch_size), record)
    rows = drain_batch(exact_records.tree_tied_dpj(ExecutionContext(tied_catalog)), batch_size)
    assert multiset(rows) == tied_oracle(tied_catalog)


def test_dpj_exact_parity_with_output_cut_mid_segment(parity_catalog, segment_spy):
    record, _ = drive_exact(tree_dpj, parity_catalog, 7)
    assert_matches_record("output_cut", record)
    assert any(
        0 < room <= emitted and left > 0 for room, emitted, left in segment_spy
    ), "no segment was cut by a full output batch"


def build_overflowing_dpj(tiny_tpcd, method):
    return exact_records.build_overflowing_dpj(tiny_tpcd, method)


@pytest.mark.parametrize("encoded", [True, False])
@pytest.mark.parametrize("batch_size", [7, 64])
@pytest.mark.parametrize(
    "method", [OverflowMethod.LEFT_FLUSH, OverflowMethod.SYMMETRIC_FLUSH]
)
def test_dpj_exact_parity_with_refusal_mid_segment(
    tpcd_catalog, tiny_tpcd, method, batch_size, encoded, refusal_spy
):
    record, _ = drive_exact(
        build_overflowing_dpj(tiny_tpcd, method), tpcd_catalog, batch_size, encoded
    )
    assert_matches_record(exact_records.case_name("refusal", method, batch_size, encoded), record)
    assert record["overflow_count"] > 0
    assert any(
        start < returned < stop for start, stop, returned in refusal_spy
    ), "no bulk insert was refused mid-segment"


def test_dpj_exact_parity_with_watched_out_of_memory_cut(tpcd_catalog, tiny_tpcd):
    batch_size = 64
    record, _ = drive_exact(
        exact_records.build_watched_dpj(tiny_tpcd),
        tpcd_catalog,
        batch_size,
        between_batches=exact_records.clear_interrupt,
    )
    assert_matches_record("watched_oom", record)
    assert any(size < batch_size for size in record["batch_sizes"][:-1]), (
        "no batch was cut at a watched out_of_memory event"
    )


def test_encoding_reduces_spilled_bytes_on_string_keys(tpcd_catalog, tiny_tpcd):
    """Encoded spill of a string-heavy build writes measurably fewer bytes."""
    def build(context):
        return DoublePipelinedJoin(
            "dpj",
            context,
            WrapperScan("scan_ps", context, "partsupp"),
            WrapperScan("scan_p", context, "part"),
            ["partsupp.ps_partkey"],
            ["part.p_partkey"],
            memory_limit_bytes=len(tiny_tpcd["partsupp"]) * 20,
            bucket_count=8,
        )

    _, plain_ctx, _ = drain_batch_with_context(build, tpcd_catalog, 64, encoded=False)
    _, enc_ctx, _ = drain_batch_with_context(build, tpcd_catalog, 64, encoded=True)
    assert plain_ctx.disk.stats.tuples_written > 0
    # Same allotment: the encoded run keeps more rows resident (fewer
    # spilled tuples) and each spilled tuple moves fewer bytes (part
    # carries three string attributes); the ≥1.5x ratio bar on a fully
    # string-keyed workload lives in benchmarks/bench_encoding_pipeline.py.
    assert enc_ctx.disk.stats.tuples_written < plain_ctx.disk.stats.tuples_written
    assert enc_ctx.disk.stats.bytes_written < plain_ctx.disk.stats.bytes_written
    plain_per_tuple = (
        plain_ctx.disk.stats.bytes_written / plain_ctx.disk.stats.tuples_written
    )
    enc_per_tuple = (
        enc_ctx.disk.stats.bytes_written / enc_ctx.disk.stats.tuples_written
    )
    assert enc_per_tuple < plain_per_tuple


@pytest.mark.parametrize("encoded", [True, False])
@pytest.mark.parametrize("batch_size", [7, 64])
def test_hybrid_spill_drive_parity(tpcd_catalog, tiny_tpcd, batch_size, encoded):
    build = exact_records.build_overflowing_hybrid(tiny_tpcd)
    rows, context, joined = drain_batch_with_context(build, tpcd_catalog, batch_size, encoded)
    assert multiset(rows) == partsupp_part(tpcd_catalog)
    assert context.stats.operator("hh").overflow_events > 0
    assert_budget_invariant(joined)
    record, _ = drive_exact(build, tpcd_catalog, batch_size, encoded)
    assert_matches_record(exact_records.case_name("hybrid-spill", batch_size, encoded), record)


def test_hybrid_mixed_callers_mid_overflow_pass(tpcd_catalog, tiny_tpcd):
    """Switching from batch to one-row pulls mid-overflow-pass must not duplicate.

    A batch caller starts the columnar overflow pass; one-row pulls on the
    same operator must keep draining that pass rather than restart it (which
    would re-read the spill files and re-emit pairs).
    """
    context = ExecutionContext(tpcd_catalog)
    joined = exact_records.build_overflowing_hybrid(tiny_tpcd)(context)
    joined.open()
    rows = []
    switched = False
    while True:
        if not switched:
            batch = joined.next_batch(64)
            if not batch:
                break
            rows.extend(batch)
            # As soon as the overflow pass has begun, switch to one-row
            # pulls for the remainder.
            if joined._overflow_batches is not None:
                switched = True
        else:
            row = joined.next()
            if row is None:
                break
            rows.append(row)
    joined.close()
    assert switched, "memory budget was meant to force an overflow pass"
    assert multiset(rows) == partsupp_part(tpcd_catalog)


# -- TPC-D catalog parity for the hot tree shapes ------------------------------------------


@pytest.mark.parametrize("batch_size", [1, 64, 512])
@pytest.mark.parametrize("implementation", ["hybrid", "dpj"])
def test_tpcd_join_parity(tpcd_catalog, implementation, batch_size):
    def build(context):
        left = WrapperScan("scan_ps", context, "partsupp")
        right = WrapperScan("scan_p", context, "part")
        cls = HybridHashJoin if implementation == "hybrid" else DoublePipelinedJoin
        return cls(
            "j", context, left, right, ["partsupp.ps_partkey"], ["part.p_partkey"]
        )

    assert_parity(build, tpcd_catalog, batch_size, partsupp_part(tpcd_catalog))


# -- collector parity, including the rule-driven switch path -------------------------------

MIRRORS = ["bib-main", "bib-mirror", "bib-partial"]


@pytest.fixture
def mirror_catalog():
    books = make_relation(
        "bib", ["isbn:int", "title:str"], [(i, f"book{i}") for i in range(60)]
    )
    catalog = DataSourceCatalog()
    primary = DataSource("bib-main", books, lan())
    catalog.register_source(primary)
    catalog.register_source(make_mirror(primary, "bib-mirror", wide_area()))
    catalog.register_source(make_mirror(primary, "bib-partial", lan(), coverage=0.6, seed=2))
    return catalog


def mirrors_oracle(catalog, dedup):
    sources = [oracle.source(catalog, name) for name in MIRRORS]
    return oracle.multiset(oracle.collect(sources, dedup))


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("dedup", [None, ["bib.isbn"]])
def test_collector_parity(mirror_catalog, dedup, batch_size):
    def build(context):
        children = [WrapperScan(f"scan_{name}", context, name) for name in MIRRORS]
        return DynamicCollector("coll", context, children, dedup_keys=dedup)

    assert_parity(build, mirror_catalog, batch_size, mirrors_oracle(mirror_catalog, dedup))


def _race_plan():
    """A collector under a race policy: threshold rules deactivate the loser."""
    children = [
        wrapper_scan("bib-main", operator_id="scan_main"),
        wrapper_scan("bib-mirror", operator_id="scan_mirror"),
        wrapper_scan("bib-partial", operator_id="scan_partial"),
    ]
    spec = collector(children, operator_id="coll1")
    spec.params["dedup_keys"] = ["bib.isbn"]
    policy = race_policy(spec, threshold=10, racers=2)
    rules = apply_policy(spec, policy)
    fragment = Fragment(fragment_id="f1", root=spec, result_name="answer")
    fragment.rules = rules
    return QueryPlan(query_name="race", fragments=[fragment], answer_name="answer")


def _run_plan(catalog, batch_size):
    context = ExecutionContext(catalog, query_name="race")
    executor = QueryExecutor(context, batch_size=batch_size)
    outcome = executor.execute(_race_plan())
    assert outcome.status == ExecutionStatus.COMPLETED
    return outcome, context


@pytest.mark.parametrize("batch_size", [2, 16, 256])
def test_executor_collector_switch_parity(mirror_catalog, batch_size):
    """The race policy fires at the same tuple whatever the batch size."""
    reference, ref_context = _run_plan(mirror_catalog, batch_size=1)
    batched, batch_context = _run_plan(mirror_catalog, batch_size=batch_size)
    expected = mirrors_oracle(mirror_catalog, ["bib.isbn"])
    assert multiset(batched.answer) == multiset(reference.answer) == expected
    assert batched.stats.rules_fired == reference.stats.rules_fired > 0
    ref_collector = ref_context.operator("coll1")
    batch_collector = batch_context.operator("coll1")
    assert batch_collector.tuples_per_child == ref_collector.tuples_per_child


@pytest.mark.parametrize("batch_size", [2, 64])
def test_executor_join_plan_parity(tpcd_catalog, batch_size):
    """Whole-plan parity on a TPC-D join fragment against the oracle."""
    context = ExecutionContext(tpcd_catalog, query_name="q")
    plan = QueryPlan(
        query_name="q",
        fragments=[
            Fragment(
                fragment_id="f1",
                root=join(
                    wrapper_scan("partsupp", operator_id="s_ps"),
                    wrapper_scan("part", operator_id="s_p"),
                    ["partsupp.ps_partkey"],
                    ["part.p_partkey"],
                    operator_id="j1",
                ),
                result_name="answer",
            )
        ],
        answer_name="answer",
    )
    outcome = QueryExecutor(context, batch_size=batch_size).execute(plan)
    assert outcome.status == ExecutionStatus.COMPLETED
    expected = partsupp_part(tpcd_catalog)
    assert multiset(outcome.answer) == expected
    assert outcome.stats.output_timeline.total == sum(expected.values())
