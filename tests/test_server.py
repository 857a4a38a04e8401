"""Multi-query server: shared timeline, memory broker, cross-session source layer.

Covers the invariants the query-server subsystem promises:

* scheduling — sessions overlap on one virtual timeline (makespan well under
  the serial-equivalent sum) and the interleaving is deterministic;
* shared source cache — a session admitted after another read a source to
  completion pays **zero** network time for that source;
* memory broker — admission under pressure revokes leases mid-build,
  triggering the Section 4.2 overflow path, with results identical to an
  uncontended run and ``broker.used == sum(resident_bytes)`` after every
  revocation;
* connection concurrency — bounded sources queue extra streams on the
  shared timeline;
* drive-mode parity — per session, the columnar and row-batch drives agree
  exactly (results and virtual times).
"""

from __future__ import annotations

import pytest

from repro.catalog.catalog import DataSourceCatalog
from repro.engine.context import EngineConfig
from repro.network.cache import CACHE_SERVE_CPU_MS, SourceCache
from repro.network.profiles import NetworkProfile
from repro.network.source import DataSource
from repro.plan.fragments import Fragment, QueryPlan
from repro.plan.physical import join, wrapper_scan
from repro.server import MemoryBroker, QueryServer, ServerClock, SessionStatus
from repro.storage.memory import MemoryPool

from helpers import make_relation, multiset, reference_join

#: Slow link so network waits dominate and overlap is visible.
SLOW = NetworkProfile(name="slow", initial_latency_ms=40.0, bandwidth_kbps=64.0)


def fresh_catalog(rows: int = 120, max_concurrent: int | None = None) -> DataSourceCatalog:
    """Two joinable sources behind slow links (fresh per test: slot state)."""
    left = make_relation(
        "l", ["id:int", "tag:str"], [(i, f"tag{i % 7}") for i in range(rows)]
    )
    right = make_relation(
        "r", ["rid:int", "grade:str"], [(i, f"g{i % 5}") for i in range(rows)]
    )
    catalog = DataSourceCatalog()
    catalog.register_source(DataSource("l", left, SLOW, max_concurrent=max_concurrent))
    catalog.register_source(DataSource("r", right, SLOW, max_concurrent=max_concurrent))
    return catalog


def scan_spec(source: str, prefix: str):
    return wrapper_scan(source, operator_id=f"{prefix}_scan_{source}")


def join_spec(prefix: str, memory: int | None = None):
    return join(
        scan_spec("l", prefix),
        scan_spec("r", prefix),
        ["l.id"],
        ["r.rid"],
        operator_id=f"{prefix}_join",
        memory_limit_bytes=memory,
    )


class TestServerClock:
    def test_sessions_admitted_at_causal_frontier(self):
        clock = ServerClock()
        a = clock.session_clock("a")
        assert a.now == 0.0
        a.consume_cpu(50.0)
        # a is the only active session, so the frontier — and b's admission
        # time — is 50.
        b = clock.session_clock("b")
        assert b.now == 50.0
        assert b.admitted_at_ms == 50.0

    def test_frontier_and_completion_track_min_and_max(self):
        clock = ServerClock()
        a = clock.session_clock("a")
        b = clock.session_clock("b")
        a.consume_cpu(10.0)
        b.consume_cpu(30.0)
        assert clock.frontier == 10.0
        assert clock.completion_ms == 30.0
        clock.finish("a")
        assert clock.frontier == 30.0
        assert clock.completion_ms == 30.0

    def test_staggered_arrival_never_in_the_past(self):
        clock = ServerClock()
        a = clock.session_clock("a")
        a.consume_cpu(100.0)
        late = clock.session_clock("late", start_ms=20.0)
        # Requested arrival 20 is before the frontier (100): clamped forward.
        assert late.now == 100.0
        future = clock.session_clock("future", start_ms=500.0)
        assert future.now == 500.0

    def test_aggregate_stats_sum_sessions(self):
        clock = ServerClock()
        a = clock.session_clock("a")
        b = clock.session_clock("b")
        a.consume_cpu(5.0)
        b.advance_to(b.now + 7.0)
        total = clock.aggregate_stats()
        assert total.cpu_ms == 5.0
        assert total.wait_ms == 7.0


class TestMemoryBroker:
    def test_lease_within_capacity_is_granted_verbatim(self):
        broker = MemoryBroker(1024 * 1024)
        pool = MemoryPool(name="q1", broker=broker)
        budget = pool.grant("op1", 512 * 1024)
        assert budget.limit_bytes == 512 * 1024
        assert broker.granted_bytes == 512 * 1024

    def test_usage_propagates_pool_and_broker(self):
        broker = MemoryBroker(1024 * 1024)
        pool = MemoryPool(name="q1", broker=broker)
        budget = pool.grant("op1", 512 * 1024)
        budget.reserve(1000)
        budget.force_reserve(24)
        assert pool.used_bytes == 1024
        assert broker.used_bytes == 1024
        budget.release(24)
        assert broker.used_bytes == 1000
        # Over-release clamps; the propagated delta matches the real change.
        budget.release(10_000)
        assert budget.used_bytes == 0
        assert pool.used_bytes == 0
        assert broker.used_bytes == 0

    def test_admission_revokes_largest_lease_down_to_floor(self):
        broker = MemoryBroker(300 * 1024, floor_bytes=64 * 1024)
        pool_a = MemoryPool(name="qa", broker=broker)
        big = pool_a.grant("a_join", 200 * 1024)
        small = pool_a.grant("a_aux", 64 * 1024)
        records = []
        broker.on_revocation = lambda _broker, record: records.append(record)
        pool_b = MemoryPool(name="qb", broker=broker)
        newcomer = pool_b.grant("b_join", 150 * 1024)
        # 36 KB were free; the remaining 114 KB came out of the big lease.
        assert newcomer.limit_bytes == 150 * 1024
        assert big.limit_bytes == 86 * 1024
        assert small.limit_bytes == 64 * 1024  # already at floor, untouched
        assert len(records) == 1 and records[0].victim == "a_join"
        assert broker.stats.revocations == 1
        assert broker.granted_bytes <= broker.capacity_bytes

    def test_floor_grant_when_nothing_revocable(self):
        broker = MemoryBroker(128 * 1024, floor_bytes=64 * 1024)
        pool = MemoryPool(name="qa", broker=broker)
        pool.grant("a", 64 * 1024)
        pool.grant("b", 64 * 1024)
        # Capacity exhausted, every lease at floor: the newcomer still gets
        # the floor (bounded oversubscription beats refusing the query).
        late = pool.grant("c", 100 * 1024)
        assert late.limit_bytes == 64 * 1024

    def test_release_returns_capacity(self):
        broker = MemoryBroker(256 * 1024)
        pool = MemoryPool(name="q", broker=broker)
        pool.grant("op", 256 * 1024)
        assert broker.available_bytes == 0
        pool.revoke("op")
        assert broker.available_bytes == 256 * 1024

    def test_revocation_triggers_on_revoke_handler(self):
        broker = MemoryBroker(200 * 1024, floor_bytes=64 * 1024)
        pool = MemoryPool(name="q", broker=broker)
        victim = pool.grant("victim", 200 * 1024)
        flushed = []
        victim.force_reserve(150 * 1024)
        victim.on_revoke = lambda budget: flushed.append(budget.limit_bytes)
        MemoryPool(name="q2", broker=broker).grant("newcomer", 100 * 1024)
        # The victim was shrunk below its usage; its handler ran.
        assert victim.limit_bytes == 100 * 1024
        assert flushed == [100 * 1024]
        assert victim.revocations == 1

    def test_attainable_counts_free_plus_revocable(self):
        broker = MemoryBroker(300 * 1024, floor_bytes=64 * 1024)
        pool = MemoryPool(name="q", broker=broker)
        pool.grant("op", 200 * 1024)
        # 100 KB free + 136 KB revocable above the floor.
        assert broker.attainable_bytes(1024 * 1024) == 236 * 1024
        assert broker.stats.revocations == 0  # the dry run revoked nothing


class TestSchedulerOverlap:
    def test_concurrent_sessions_overlap_network_stalls(self):
        server = QueryServer(fresh_catalog())
        for i in range(3):
            server.submit(scan_spec("l", f"s{i}"), f"s{i}")
        stats = server.run()
        assert stats.completed_sessions == 3
        # All three stream the same slow source concurrently: the makespan is
        # one stream's worth of time, not three.
        assert stats.makespan_ms < stats.serial_equivalent_ms / 2
        assert stats.overlap_speedup > 2.0

    def test_interleaving_is_deterministic(self):
        def run_once():
            server = QueryServer(fresh_catalog())
            for i in range(3):
                server.submit(join_spec(f"s{i}"), f"s{i}")
            stats = server.run()
            return (
                stats.makespan_ms,
                stats.scheduler_slices,
                [s.result_cardinality for s in stats.sessions],
            )

        assert run_once() == run_once()

    def test_session_failure_is_contained(self):
        catalog = fresh_catalog()
        dead_rel = make_relation("dead", ["id:int"], [(1,)])
        catalog.register_source(
            DataSource("dead", dead_rel, NetworkProfile(name="dead", unavailable=True))
        )
        server = QueryServer(catalog)
        bad = server.submit(
            wrapper_scan("dead", operator_id="bad_scan", timeout_ms=100.0), "bad"
        )
        good = server.submit(scan_spec("l", "good"), "good")
        stats = server.run()
        assert bad.status == SessionStatus.FAILED and bad.error
        assert good.status == SessionStatus.COMPLETED
        assert stats.completed_sessions == 1


class TestSharedSourceCache:
    def test_second_session_pays_zero_network_time(self):
        server = QueryServer(fresh_catalog())
        first = server.submit(scan_spec("l", "first"), "first")
        server.run()
        assert first.status == SessionStatus.COMPLETED
        # Admitted after the first completed: the extent is cached and
        # visible, so the whole scan is local CPU — zero waiting.
        second = server.submit(scan_spec("l", "second"), "second")
        server.run()
        assert second.status == SessionStatus.COMPLETED
        assert multiset(second.result) == multiset(first.result)
        assert second.summary.wait_ms == 0.0
        assert second.summary.elapsed_ms < first.summary.elapsed_ms / 10
        assert server.source_cache.stats.cross_session_hits >= 1

    def test_future_fills_are_invisible_until_reached(self):
        cache = SourceCache()
        schema_rows = make_relation("x", ["id:int"], [(1,), (2,)])
        cache.fill("x", schema_rows.schema, schema_rows.rows, now_ms=100.0, session="ahead")
        # A session whose clock is still at 40 must not see a fill from 100.
        assert cache.lookup("x", 40.0, session="behind") is None
        assert cache.stats.not_yet_visible == 1
        assert cache.lookup("x", 150.0, session="behind") is not None
        assert cache.stats.cross_session_hits == 1
        # Single-query lookups (no session) skip the guard: per-query clocks
        # restart at zero and are not comparable.
        assert cache.lookup("x", 0.0) is not None

    def test_dependent_join_probes_go_local_after_fill(self):
        catalog = fresh_catalog(rows=60)
        server = QueryServer(catalog)
        filler = server.submit(scan_spec("r", "filler"), "filler")
        server.run()
        assert filler.status == SessionStatus.COMPLETED
        from repro.plan.physical import OperatorSpec, OperatorType

        # The spec's second child is the bound side's placeholder scan (the
        # builder reads the source from params and never opens it).
        spec = OperatorSpec(
            "probe_dj",
            OperatorType.DEPENDENT_JOIN,
            children=[scan_spec("l", "probe"), scan_spec("r", "probe_bound")],
            params={"source": "r", "left_keys": ["l.id"], "right_keys": ["r.rid"]},
        )
        prober = server.submit(spec, "prober")
        server.run()
        assert prober.status == SessionStatus.COMPLETED
        # All probes were served from the cached extent: the only waiting the
        # session did was for its own left scan, never the probe source.
        dj = prober.context.operator("probe_dj")
        assert dj._cached_extent


class TestConnectionConcurrency:
    def test_bounded_source_queues_extra_streams(self):
        catalog = fresh_catalog(max_concurrent=1)
        server = QueryServer(catalog)
        a = server.submit(scan_spec("l", "a"), "a")
        b = server.submit(scan_spec("l", "b"), "b")
        stats = server.run()
        assert a.status == b.status == SessionStatus.COMPLETED
        assert multiset(a.result) == multiset(b.result)
        source = catalog.source("l")
        assert source.stats.connections_queued == 1
        assert source.stats.queued_ms > 0
        assert stats.source_queued_ms > 0
        # The queued stream starts after the first finishes: the makespan is
        # roughly two back-to-back streams, not one.
        assert stats.makespan_ms > a.summary.elapsed_ms * 1.5

    def test_slot_frees_early_when_reader_closes(self):
        rel = make_relation("s", ["id:int"], [(i,) for i in range(100)])
        source = DataSource("s", rel, SLOW, max_concurrent=1)
        first = source.open(at_ms=0.0)
        projected_end = first._arrivals[-1]
        first.close(at_ms=50.0)
        second = source.open(at_ms=60.0)
        # Without the early release the second stream would queue until the
        # projected end of the first.
        assert second.opened_at_ms == 60.0 < projected_end
        assert second.queued_ms == 0.0

    def test_unbounded_source_never_queues(self):
        rel = make_relation("s", ["id:int"], [(i,) for i in range(10)])
        source = DataSource("s", rel, SLOW)
        for _ in range(5):
            source.open(at_ms=0.0)
        assert source.stats.connections_queued == 0


def server_resident_bytes(server: QueryServer) -> int:
    """Server-wide resident bytes recomputed from operator state (not budgets)."""
    total = 0
    for session in server.sessions.values():
        for operator in session.context.operators.values():
            for table in getattr(operator, "_tables", None) or ():
                total += table.resident_bytes
            inner = getattr(operator, "_inner_table", None)
            if inner is not None:
                total += inner.resident_bytes
    return total


class TestBrokerRevocationMidBuild:
    ROWS = 1200

    def run_contended(self, columnar: bool | None = None):
        catalog = fresh_catalog(rows=self.ROWS)
        server = QueryServer(
            catalog,
            memory_capacity_bytes=96 * 1024,
        )
        server.broker.floor_bytes = 8 * 1024
        invariant_checks = []

        def check(broker, record):
            invariant_checks.append(
                (broker.used_bytes, server_resident_bytes(server))
            )

        server.broker.on_revocation = check
        a = server.submit(join_spec("a", memory=80 * 1024), "a", columnar=columnar)
        # b arrives once a is mid-build (the streams run for ~500 virtual
        # ms), forcing the broker to claw back most of a's lease while its
        # hash tables hold resident rows.
        b = server.submit(
            join_spec("b", memory=80 * 1024), "b", arrival_ms=400.0, columnar=columnar
        )
        server.run()
        return server, a, b, invariant_checks

    def test_revocation_triggers_overflow_with_identical_results(self):
        server, a, b, checks = self.run_contended()
        assert a.status == b.status == SessionStatus.COMPLETED
        assert server.broker.stats.revocations >= 1
        # The victim actually spilled (the §4.2 path ran mid-build).
        victim = a.context.operator("a_join")
        assert victim.overflow_count >= 1
        assert victim.budget.revocations >= 1
        # Results match an uncontended, single-tenant run of the same query.
        reference = QueryServer(fresh_catalog(rows=self.ROWS)).submit(
            join_spec("ref"), "ref"
        )
        reference.run_to_completion()
        assert multiset(a.result) == multiset(reference.result)
        assert multiset(b.result) == multiset(reference.result)

    def test_budget_invariant_holds_at_every_revocation(self):
        server, _a, _b, checks = self.run_contended()
        assert checks, "expected at least one revocation"
        for broker_used, resident in checks:
            assert broker_used == resident
        # And at quiescence everything was released.
        assert server.broker.used_bytes == 0
        assert server_resident_bytes(server) == 0

    def test_drive_mode_parity_under_contention(self):
        _, a_col, b_col, _ = self.run_contended(columnar=True)
        _, a_row, b_row, _ = self.run_contended(columnar=False)
        assert multiset(a_col.result) == multiset(a_row.result)
        assert multiset(b_col.result) == multiset(b_row.result)
        # The two batch drives account virtual time identically per session.
        assert a_col.summary.completed_at_ms == pytest.approx(
            a_row.summary.completed_at_ms
        )
        assert b_col.summary.completed_at_ms == pytest.approx(
            b_row.summary.completed_at_ms
        )


    def test_drive_mode_exact_parity_under_contention(self):
        # The victim's lease is revoked between its next_batch calls; the
        # columnar drive's bulk DPJ segments must still reproduce the
        # row-batch drive's per-tuple pipeline exactly, per session.
        col_server, *col_sessions, _ = self.run_contended(columnar=True)
        row_server, *row_sessions, _ = self.run_contended(columnar=False)
        assert col_server.broker.stats == row_server.broker.stats
        assert col_server.broker.stats.revocations >= 1
        for col, row in zip(col_sessions, row_sessions):
            assert [(r.values, r.arrival) for r in col.result] == [
                (r.values, r.arrival) for r in row.result
            ]
            assert col.summary.completed_at_ms == row.summary.completed_at_ms
            assert col.context.clock.stats == row.context.clock.stats
            assert col.context.disk.stats == row.context.disk.stats
            join_id = f"{col.session_id}_join"
            assert (
                col.context.operator(join_id).overflow_count
                == row.context.operator(join_id).overflow_count
            )
        assert col_sessions[0].context.operator("a_join").overflow_count >= 1


class TestPlanSessions:
    def make_plan(self, prefix: str, memory: int | None = None) -> QueryPlan:
        fragment = Fragment(
            fragment_id=f"{prefix}_f1",
            root=join_spec(prefix, memory=memory),
            result_name=f"{prefix}_answer",
            estimated_cardinality=None,
            estimate_reliable=True,
            covers=frozenset({"l", "r"}),
        )
        return QueryPlan(query_name=prefix, fragments=[fragment])

    def test_plan_session_completes_through_executor_steps(self):
        catalog = fresh_catalog(rows=60)
        server = QueryServer(catalog)
        session = server.submit_plan(self.make_plan("p"), "p")
        server.run()
        assert session.status == SessionStatus.COMPLETED
        assert session.outcome is not None and session.outcome.completed
        expected = reference_join(
            catalog.source("l").relation, catalog.source("r").relation, "id", "rid"
        )
        assert multiset(session.result) == multiset(expected)
        # The executor yielded at batch boundaries and source waits.
        assert session.summary.slices > 1
        assert session.summary.waits >= 1

    def test_plan_memory_negotiated_against_broker(self):
        catalog = fresh_catalog(rows=60)
        server = QueryServer(catalog, memory_capacity_bytes=200 * 1024)
        # Occupy most of the server first.
        MemoryPool(name="occupant", broker=server.broker).grant(
            "occupant_op", 150 * 1024
        )
        plan = self.make_plan("p", memory=500 * 1024)
        server.submit_plan(plan, "p")
        node = plan.fragments[0].root
        # The single-tenant 500 KB assumption was renegotiated down to what
        # the broker could actually provide (free + revocable headroom).
        assert node.memory_limit_bytes is not None
        assert node.memory_limit_bytes < 500 * 1024

    def test_two_plan_sessions_share_cache(self):
        catalog = fresh_catalog(rows=60)
        server = QueryServer(catalog)
        first = server.submit_plan(self.make_plan("p1"), "p1")
        server.run()
        second = server.submit_plan(self.make_plan("p2"), "p2")
        server.run()
        assert first.status == second.status == SessionStatus.COMPLETED
        assert multiset(first.result) == multiset(second.result)
        # Both scans of the second plan were served from the shared cache.
        assert second.summary.wait_ms == 0.0


class TestReviewRegressions:
    """Pinned fixes from the pre-merge review."""

    def test_small_request_under_pressure_is_not_inflated_to_server_floor(self):
        broker = MemoryBroker(128 * 1024, floor_bytes=64 * 1024)
        pool = MemoryPool(name="big", broker=broker)
        pool.grant("big_op", 128 * 1024)
        # Under pressure a 4 KB request must get (at most) 4 KB — the lease
        # floor is min(request, server floor), never the server floor alone.
        small = MemoryPool(name="small", broker=broker).grant("dedup", 4 * 1024)
        assert small.limit_bytes == 4 * 1024

    def test_resize_growth_never_revokes_the_requestor_itself(self):
        broker = MemoryBroker(128 * 1024, floor_bytes=16 * 1024)
        pool = MemoryPool(name="q", broker=broker)
        budget = pool.grant("join", 128 * 1024)
        spilled = []
        budget.on_revoke = lambda b: spilled.append(b.limit_bytes)
        # The only lease on a full broker asks for more: growth is simply
        # refused — no self-revocation, no spurious spill.
        budget.resize(256 * 1024)
        assert budget.limit_bytes == 128 * 1024
        assert spilled == []
        assert broker.stats.revocations == 0

    def test_replanning_plan_session_is_not_reported_completed(self):
        from repro.plan.physical import table_scan
        from repro.plan.rules import Compare, EventType, Rule, constant, event_value, replan

        catalog = fresh_catalog(rows=30)
        first = Fragment(
            fragment_id="f1",
            root=scan_spec("l", "f1"),
            result_name="res1",
        )
        first.rules = [
            Rule(
                "replan-f1",
                "f1",
                EventType.CLOSED,
                "f1",
                condition=Compare(event_value(), ">=", constant(0)),
                actions=[replan()],
            )
        ]
        second = Fragment(
            fragment_id="f2",
            root=table_scan("res1", operator_id="f2_scan"),
            result_name="final",
        )
        plan = QueryPlan(
            query_name="q", fragments=[first, second], dependencies={"f2": {"f1"}}
        )
        server = QueryServer(catalog)
        session = server.submit_plan(plan, "q")
        server.run()
        # The executor stopped for re-optimization: no answer was produced,
        # so the session must not count as completed.
        assert session.outcome is not None
        assert session.outcome.status.value == "needs_reoptimization"
        assert session.status == SessionStatus.FAILED
        assert "needs_reoptimization" in (session.error or "")
        assert server.stats().completed_sessions == 0


class TestSpeculativeParity:
    """``speculative_sources=False`` (the default) is bit-identical to the
    pre-speculative engine: same virtual times, slices, and accounting."""

    @staticmethod
    def _staggered_run(config):
        catalog = fresh_catalog(rows=80, max_concurrent=1)
        server = QueryServer(
            catalog, engine_config=config, memory_capacity_bytes=8 * 1024 * 1024
        )
        server.submit(join_spec("a", memory=256 * 1024), "a")
        server.submit(scan_spec("l", "b"), "b", arrival_ms=120.0)
        server.submit(join_spec("c", memory=256 * 1024), "c", arrival_ms=250.0)
        stats = server.run()
        return server, stats

    def test_flag_off_matches_default_exactly(self):
        default_server, default_stats = self._staggered_run(EngineConfig())
        explicit_server, explicit_stats = self._staggered_run(
            EngineConfig(speculative_sources=False, prefetch_budget_bytes=0)
        )
        assert default_server.prefetcher is None
        assert explicit_server.prefetcher is None
        for lhs, rhs in zip(default_stats.sessions, explicit_stats.sessions):
            assert lhs.session_id == rhs.session_id
            assert lhs.completed_at_ms == rhs.completed_at_ms
            assert lhs.wait_ms == rhs.wait_ms
            assert lhs.cpu_ms == rhs.cpu_ms
            assert lhs.slices == rhs.slices
        assert default_stats.scheduler_slices == explicit_stats.scheduler_slices
        assert default_stats.makespan_ms == explicit_stats.makespan_ms
        assert default_stats.source_queued_ms == explicit_stats.source_queued_ms
        assert default_stats.partial_extent_hits == 0
        assert explicit_stats.partial_extent_hits == 0

    def test_speculative_layer_preserves_result_multisets(self):
        _, base_stats = self._staggered_run(EngineConfig())
        base_server, _ = self._staggered_run(EngineConfig())
        spec_server, spec_stats = self._staggered_run(
            EngineConfig(
                speculative_sources=True, prefetch_budget_bytes=4 * 1024 * 1024
            )
        )
        assert spec_server.prefetcher is not None
        for name in ("a", "b", "c"):
            assert multiset(spec_server.sessions[name].result) == multiset(
                base_server.sessions[name].result
            )
        # The layer may only help, up to the cache-serve CPU epsilon: a
        # session following a prefetch stream sees rows at live-link pace
        # but pays CACHE_SERVE_CPU_MS per served row instead of fetching on
        # a connection of its own.
        slack = 80 * CACHE_SERVE_CPU_MS
        for lhs, rhs in zip(spec_stats.sessions, base_stats.sessions):
            assert lhs.completed_at_ms <= rhs.completed_at_ms + slack
