"""Unit tests for scans, select, project, union, and materialize operators."""

import pytest

from repro.engine.context import ExecutionContext
from repro.engine.operators.materialize import Materialize
from repro.engine.operators.project import Project
from repro.engine.operators.scan import TableScan, WrapperScan
from repro.engine.operators.select import Select
from repro.engine.operators.union import Union
from repro.errors import ExecutionError, SourceTimeoutError
from repro.network.profiles import slow_start
from repro.plan.rules import EventType
from repro.query.conjunctive import SelectionPredicate

from helpers import make_relation


class TestOperatorBase:
    def test_next_before_open_raises(self, context):
        scan = WrapperScan("s", context, "ord")
        with pytest.raises(ExecutionError):
            scan.next()

    def test_open_emits_opened_event(self, context):
        scan = WrapperScan("s", context, "ord")
        scan.open()
        events = context.events.drain()
        assert any(e.event_type == EventType.OPENED and e.subject == "s" for e in events)

    def test_close_emits_closed_event_with_cardinality(self, context):
        scan = WrapperScan("s", context, "ord")
        scan.open()
        list(scan.iterate())
        context.events.drain()
        scan.close()
        events = context.events.drain()
        closed = [e for e in events if e.event_type == EventType.CLOSED and e.subject == "s"]
        assert closed and closed[0].value == 3

    def test_deactivated_operator_returns_none(self, context):
        scan = WrapperScan("s", context, "ord")
        scan.open()
        scan.deactivate()
        assert scan.next() is None
        assert scan.peek_arrival() is None


class TestWrapperScan:
    def test_streams_all_rows_with_qualified_schema(self, context):
        scan = WrapperScan("s", context, "ord")
        scan.open()
        rows = list(scan.iterate())
        assert len(rows) == 3
        assert scan.output_schema.names == ("ord.o_id", "ord.o_cust")
        assert scan.tuples_produced == 3

    def test_arrival_times_monotone(self, context):
        scan = WrapperScan("s", context, "ord")
        scan.open()
        arrivals = [row.arrival for row in scan.iterate()]
        assert arrivals == sorted(arrivals)

    def test_peek_arrival_before_and_after_eof(self, context):
        scan = WrapperScan("s", context, "ord")
        scan.open()
        assert scan.peek_arrival() is not None
        list(scan.iterate())
        assert scan.peek_arrival() is None

    def test_threshold_events_emitted(self, context):
        # Per-row THRESHOLD events are raised for scans a rule watches.
        context.watch_events({(EventType.THRESHOLD, "s")})
        scan = WrapperScan("s", context, "ord")
        scan.open()
        list(scan.iterate())
        events = context.events.drain()
        thresholds = [e for e in events if e.event_type == EventType.THRESHOLD]
        assert [e.value for e in thresholds] == [1, 2, 3]

    def test_timeout_emits_event_and_raises(self, joinable_catalog):
        joinable_catalog.source("ord").set_profile(slow_start(delay_ms=10_000.0))
        context = ExecutionContext(joinable_catalog)
        scan = WrapperScan("s", context, "ord", timeout_ms=50.0)
        scan.open()
        with pytest.raises(SourceTimeoutError):
            scan.next()
        events = context.events.drain()
        assert any(e.event_type == EventType.TIMEOUT and e.subject == "ord" for e in events)
        assert any(e.event_type == EventType.TIMEOUT and e.subject == "s" for e in events)


class TestTableScan:
    def test_scans_materialized_relation(self, context):
        rel = make_relation("cached", ["x:int"], [(1,), (2,)])
        context.local_store.materialize(rel)
        scan = TableScan("t", context, "cached")
        scan.open()
        assert [row["x"] for row in scan.iterate()] == [1, 2]

    def test_missing_relation_raises_on_open(self, context):
        scan = TableScan("t", context, "ghost")
        with pytest.raises(Exception):
            scan.open()


class TestSelectProject:
    def test_select_filters(self, context):
        scan = WrapperScan("s", context, "ord")
        select = Select(
            "sel", context, scan, [SelectionPredicate("ord", "o_id", ">=", 2)]
        )
        select.open()
        assert [row["o_id"] for row in select.iterate()] == [2, 3]

    def test_select_multiple_predicates_conjunctive(self, context):
        scan = WrapperScan("s", context, "ord")
        select = Select(
            "sel",
            context,
            scan,
            [
                SelectionPredicate("ord", "o_id", ">=", 2),
                SelectionPredicate("ord", "o_cust", "=", "bob"),
            ],
        )
        select.open()
        assert [row["o_cust"] for row in select.iterate()] == ["bob"]

    def test_project_restricts_schema(self, context):
        scan = WrapperScan("s", context, "ord")
        project = Project("p", context, scan, ["ord.o_cust"])
        project.open()
        rows = list(project.iterate())
        assert project.output_schema.names == ("ord.o_cust",)
        assert [row.values for row in rows] == [("ada",), ("bob",), ("cyd",)]


class TestUnion:
    def test_union_concatenates_children(self, context):
        a = WrapperScan("a", context, "ord")
        b = WrapperScan("b", context, "ord")
        union = Union("u", context, [a, b])
        union.open()
        assert len(list(union.iterate())) == 6

    def test_union_requires_children(self, context):
        with pytest.raises(ExecutionError):
            Union("u", context, [])


class TestMaterialize:
    def test_materializes_into_local_store(self, context):
        scan = WrapperScan("s", context, "ord")
        mat = Materialize("m", context, scan, result_name="ord_copy")
        mat.open()
        rows = list(mat.iterate())
        mat.close()
        stored = context.local_store.get("ord_copy")
        assert stored.cardinality == len(rows) == 3
        assert context.local_store.info("ord_copy").materialized_at == context.clock.now
