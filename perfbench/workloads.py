"""The benchmark's four workloads.

Each workload builds its inputs from the benchmark seed (the TPC-D data and
each source's connection-setup latency, drawn within +/-3% of the network
profile's nominal value), then runs *rounds*: one pass over its fixed set of
queries.  Every round of one process sees identical inputs, so every exact
counter and every virtual time must repeat round after round — the
determinism check — and every query's result is compared with a reference
the benchmark computes without the engine (:mod:`reference`).

Closed-loop workloads run one query at a time through
:func:`repro.bench.harness.run_operator_tree`; ``server-mix`` submits many
planned sessions to one :class:`~repro.server.scheduler.QueryServer` per
round, open loop on the virtual timeline.

``run_round`` takes an optional ``pause``: a callable the round invokes
between queries (between session steps on ``server-mix``) that may spend
wall time on the benchmark's own business, such as a host-speed reference
pass, and returns the seconds it spent; that time is left out of every
wall time the round reports.
"""

from __future__ import annotations

import gc
import random
import re
import time
from collections import Counter
from dataclasses import dataclass

from repro.bench.harness import run_operator_tree
from repro.catalog.catalog import DataSourceCatalog
from repro.core.system import Tukwila
from repro.datagen.tpcd import (
    MARKET_SEGMENTS,
    ORDER_PRIORITIES,
    PART_BRANDS,
    REGION_NAMES,
    TPCDGenerator,
)
from repro.datagen.workload import two_and_three_way_joins
from repro.engine.context import EngineConfig
from repro.engine.operators.joins.double_pipelined import DoublePipelinedJoin
from repro.engine.operators.select import Select
from repro.network.profiles import lan, wide_area
from repro.network.source import DataSource, SourceStats
from repro.optimizer.optimizer import OptimizerConfig, PlanningStrategy
from repro.plan.physical import (
    JoinImplementation,
    OperatorType,
    OverflowMethod,
    join,
    select_,
    wrapper_scan,
)
from repro.query.conjunctive import ConjunctiveQuery, SelectionPredicate
from repro.server import QueryServer
from repro.storage.tuples import counting_row_constructions

from reference import engine_multiset, qualified_columns, reference_multiset, same_multiset

LANE_SOURCE = re.compile(r"^(?P<exchange>.+)\.in\d+\.lane(?P<lane>\d+)$")


@dataclass
class Outcome:
    """One query's measurements (a session's, on ``server-mix``)."""

    label: str
    rows: int
    wall_s: float
    ttft_ms: float | None
    latency_ms: float
    error: str | None = None


@dataclass
class Round:
    """One pass over a workload's queries."""

    outcomes: list[Outcome]
    #: Wall seconds of the timed calls (planning included on ``server-mix``).
    wall_s: float
    #: Exact counters; every round of one process must reproduce them.
    counters: dict
    #: Numeric counters summed over the round, plus ``lane_rows``: the rows
    #: routed to each lane, one list per exchange.
    totals: dict


def round_totals(counter_sets) -> dict:
    """Sum the numeric counters of ``counter_sets``; collect their lane rows."""
    totals: dict = {"lane_rows": []}
    for counters in counter_sets:
        for key, value in counters.items():
            if key == "exchange.lane_rows":
                totals["lane_rows"].extend(value.values())
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                totals[key] = totals.get(key, 0) + value
    return totals


def seeded_inputs(seed: int) -> tuple[int, random.Random]:
    """The data-generator seed and an RNG for everything else the seed picks."""
    rng = random.Random(seed)
    return rng.randrange(1 << 30), rng


def deploy(database, tables, profile, rng, max_concurrent=None) -> dict[str, DataSource]:
    """One source per table, each with a seeded connection-setup latency."""
    sources = {}
    for table in tables:
        latency = profile.initial_latency_ms * rng.uniform(0.97, 1.03)
        sources[table] = DataSource(
            table,
            database[table],
            profile.with_overrides(initial_latency_ms=latency, seed=rng.randrange(1 << 30)),
            max_concurrent=max_concurrent,
        )
    return sources


def encode(sources) -> None:
    """Build each source's one-time encoded column cache (the wrapper translation)."""
    for source in sources.values():
        source.encoded_column_cache()


def context_counters(contexts) -> dict:
    """Exact engine counters summed over execution contexts."""
    totals = {
        "disk.pages_written": 0,
        "disk.pages_read": 0,
        "disk.tuples_written": 0,
        "disk.tuples_read": 0,
        "overflow.events": 0,
        "select.comparator_calls": 0,
        "select.rows_in": 0,
        "dpj.rows_in": 0,
    }
    lanes: dict[str, dict[int, int]] = {}
    for context in contexts:
        disk = context.disk.stats
        totals["disk.pages_written"] += disk.pages_written
        totals["disk.pages_read"] += disk.pages_read
        totals["disk.tuples_written"] += disk.tuples_written
        totals["disk.tuples_read"] += disk.tuples_read
        stats = context.stats.operator_stats
        for operator_id, record in stats.items():
            totals["overflow.events"] += record.overflow_events
            match = LANE_SOURCE.match(operator_id)
            if match:
                per_lane = lanes.setdefault(match["exchange"], {})
                lane = int(match["lane"])
                per_lane[lane] = per_lane.get(lane, 0) + record.tuples_produced
        for operator in context.operators.values():
            if isinstance(operator, Select):
                totals["select.comparator_calls"] += operator.comparator_calls
                totals["select.rows_in"] += stats[operator.child.operator_id].tuples_produced
            elif isinstance(operator, DoublePipelinedJoin):
                totals["dpj.rows_in"] += sum(
                    stats[child.operator_id].tuples_produced for child in operator.children
                )
    totals["exchange.lane_rows"] = {
        exchange: [per_lane[i] for i in sorted(per_lane)] for exchange, per_lane in lanes.items()
    }
    return totals


@dataclass
class InputSet:
    """One generated database, deployed as sources, and its reference answer."""

    relations: dict
    catalog: DataSourceCatalog
    #: Column order of the reference multiset.
    columns: list[str]
    reference: Counter | None = None


class ClosedLoop:
    """One query at a time over a fixed list of hand-built plans."""

    name = ""
    tables: list[str] = []
    #: Equi-joins ``(left_table, left_attr, right_table, right_attr)`` every plan computes.
    joins: list[tuple[str, str, str, str]] = []
    scale_mb = 4.0
    #: Input sets per run, each with its own draw of data and source
    #: latencies from the seed; a round runs every plan on every set.
    input_sets = 1

    def profile(self):
        raise NotImplementedError

    def plans(self, inputs: InputSet) -> list[tuple[str, object, EngineConfig]]:
        """``(label, operator spec, engine config)`` per query of a round on ``inputs``.

        The first plan doubles as the set-up's warm-up query.
        """
        raise NotImplementedError

    def setup(self, seed: int) -> dict:
        """Generate, deploy and encode the input sets, then run one warm-up query."""
        data_seed, rng = seeded_inputs(seed)
        datagen = encoded = 0.0
        self.inputs = []
        for index in range(self.input_sets):
            if index:
                data_seed = rng.randrange(1 << 30)
            started = time.perf_counter()
            database = TPCDGenerator(scale_mb=self.scale_mb, seed=data_seed).generate(self.tables)
            relations = {table: database[table] for table in self.tables}
            sources = deploy(database, self.tables, self.profile(), rng)
            catalog = DataSourceCatalog()
            for source in sources.values():
                catalog.register_source(source)
            datagen += time.perf_counter() - started
            started = time.perf_counter()
            encode(sources)
            encoded += time.perf_counter() - started
            self.inputs.append(
                InputSet(relations, catalog, qualified_columns(relations, self.tables))
            )
        started = time.perf_counter()
        first = self.inputs[0]
        label, spec, config = self.plans(first)[0]
        run_operator_tree(spec, first.catalog, result_name=f"warmup_{label}", engine_config=config)
        warmup = time.perf_counter() - started
        return {"datagen": datagen, "encode": encoded, "warmup": warmup}

    def partial_plan_share(self) -> float:
        """Hand-built plans are never partial."""
        return 0.0

    def reference(self, inputs: InputSet) -> Counter:
        if inputs.reference is None:
            inputs.reference = reference_multiset(inputs.relations, self.tables, self.joins)
        return inputs.reference

    def run_round(self, tracer=None, pause=None) -> Round:
        outcomes = []
        counters = {}
        wall_total = 0.0
        queries = [
            (f"{label}/{index}", inputs, spec, config)
            for index, inputs in enumerate(self.inputs)
            for label, spec, config in self.plans(inputs)
        ]
        for label, inputs, spec, config in queries:
            if pause is not None:
                pause()
            gc.collect()
            error = None
            result = None
            if tracer is not None:
                tracer.query = label
            with counting_row_constructions() as boxed:
                started = time.perf_counter()
                try:
                    if tracer is None:
                        result = run_operator_tree(
                            spec, inputs.catalog, result_name=label, engine_config=config
                        )
                    else:
                        result = tracer.run_query(
                            run_operator_tree, spec, inputs.catalog,
                            result_name=label, engine_config=config,
                        )
                except Exception as exc:  # noqa: BLE001 - a failed query is counted, not fatal
                    error = f"{type(exc).__name__}: {exc}"
                wall = time.perf_counter() - started
                rows_boxed = boxed.count
            wall_total += wall
            if result is None:
                outcomes.append(Outcome(label, 0, wall, None, 0.0, error))
                counters[label] = {"error": error}
                continue
            got = engine_multiset(result.relation, inputs.columns)
            if not same_multiset(got, self.reference(inputs)):
                error = "result differs from the reference"
            clock = result.context.clock.stats
            counters[label] = dict(
                context_counters([result.context]),
                ttft_ms=result.time_to_first_tuple_ms,
                rows=result.cardinality,
                rows_boxed=rows_boxed,
                **{
                    "clock.total_ms": result.completion_time_ms,
                    "clock.cpu_ms": clock.cpu_ms,
                    "clock.wait_ms": clock.wait_ms,
                    "clock.io_ms": clock.io_ms,
                },
            )
            outcomes.append(
                Outcome(
                    label,
                    result.cardinality,
                    wall,
                    result.time_to_first_tuple_ms,
                    result.completion_time_ms,
                    error,
                )
            )
        return Round(outcomes, wall_total, counters, round_totals(counters.values()))


def fig3a_plan(first_build: str, implementation: JoinImplementation):
    """``(lineitem ⋈ supplier) ⋈ orders`` with ``first_build`` built in join 1."""
    lineitem = wrapper_scan("lineitem", operator_id="scan_lineitem")
    supplier = wrapper_scan("supplier", operator_id="scan_supplier")
    if first_build == "supplier":
        first = join(lineitem, supplier, ["lineitem.l_suppkey"], ["supplier.s_suppkey"],
                     implementation=implementation, operator_id="join_ls")
    else:
        first = join(supplier, lineitem, ["supplier.s_suppkey"], ["lineitem.l_suppkey"],
                     implementation=implementation, operator_id="join_sl")
    return join(first, wrapper_scan("orders", operator_id="scan_orders"),
                ["lineitem.l_orderkey"], ["orders.o_orderkey"],
                implementation=implementation, operator_id="join_orders")


FIG3A_JOINS = [
    ("lineitem", "l_suppkey", "supplier", "s_suppkey"),
    ("lineitem", "l_orderkey", "orders", "o_orderkey"),
]


class Fig3aLan(ClosedLoop):
    """Fig. 3a over the 10 Mbps LAN: DPJ and both hybrid build choices, in memory."""

    name = "fig3a-lan"
    tables = ["lineitem", "orders", "supplier"]
    joins = FIG3A_JOINS
    scale_mb = 4.0
    #: The DPJ plan's Python work depends on how the three sources' arrivals
    #: interleave, which each set's data and latencies decide: over seeds
    #: 1-12 its function calls per query were bimodal (2.53-2.55M or
    #: 2.77-2.80M; 3.06M on seed 22) at an equal virtual cost.  With one set
    #: per run the p90 wall followed the mode its seed drew; three sets per
    #: run average over the modes.
    input_sets = 3

    def profile(self):
        return lan()

    def plans(self, inputs):
        config = EngineConfig()
        # The cheapest plan comes first (it is also the warm-up query).
        return [
            ("hybrid_supplier_built", fig3a_plan("supplier", JoinImplementation.HYBRID_HASH),
             config),
            ("hybrid_lineitem_built", fig3a_plan("lineitem", JoinImplementation.HYBRID_HASH),
             config),
            ("dpj", fig3a_plan("supplier", JoinImplementation.DOUBLE_PIPELINED), config),
        ]


class Fig3aLanes(ClosedLoop):
    """CPU-bound Fig. 3a, both hybrid plans, partitioned over 4 inline exchange lanes."""

    name = "fig3a-lanes"
    tables = ["lineitem", "orders", "supplier"]
    joins = FIG3A_JOINS
    scale_mb = 4.0
    lanes = 4

    def profile(self):
        # 1 Gbps with 1 ms setup: arrival is cheap, so per-tuple CPU dominates.
        return lan(bandwidth_kbps=125000.0, initial_latency_ms=1.0)

    def plans(self, inputs):
        config = EngineConfig(
            exchange_lanes=self.lanes, exchange_backend="inline", per_tuple_cpu_ms=0.02
        )
        return [
            ("hybrid_supplier_built", fig3a_plan("supplier", JoinImplementation.HYBRID_HASH),
             config),
            ("hybrid_lineitem_built", fig3a_plan("lineitem", JoinImplementation.HYBRID_HASH),
             config),
        ]


class OverflowDisk(ClosedLoop):
    """§4.2.3: ``part ⋈ partsupp`` with 1/3 of the join state in memory."""

    name = "overflow-disk"
    tables = ["part", "partsupp"]
    joins = [("part", "p_partkey", "partsupp", "ps_partkey")]
    scale_mb = 24.0

    def profile(self):
        return lan()

    def memory_bytes(self, inputs: InputSet) -> int:
        total = 0
        for table in self.tables:
            relation = inputs.relations[table]
            total += relation.cardinality * relation.schema.qualified(table).columnar_row_size
        return total // 3

    def plans(self, inputs):
        memory = self.memory_bytes(inputs)
        config = EngineConfig(disk_page_read_ms=1.0, disk_page_write_ms=1.2)

        def plan(implementation, method=OverflowMethod.LEFT_FLUSH):
            return join(
                wrapper_scan("part", operator_id="scan_part"),
                wrapper_scan("partsupp", operator_id="scan_partsupp"),
                ["part.p_partkey"], ["partsupp.ps_partkey"],
                implementation=implementation, overflow_method=method,
                memory_limit_bytes=memory, operator_id="spill_join",
            )

        return [
            ("hybrid", plan(JoinImplementation.HYBRID_HASH), config),
            ("dpj_left_flush", plan(JoinImplementation.DOUBLE_PIPELINED), config),
            ("dpj_symmetric_flush",
             plan(JoinImplementation.DOUBLE_PIPELINED, OverflowMethod.SYMMETRIC_FLUSH), config),
        ]


#: Selection candidates per table: numeric ranges and equality on
#: dictionary-encoded strings.  Each returns ``(attr, op, value)`` from an RNG.
SELECTIONS = {
    "part": [
        lambda rng: ("p_size", "<=", rng.randint(10, 40)),
        lambda rng: ("p_brand", "=", rng.choice(PART_BRANDS)),
    ],
    "partsupp": [lambda rng: ("ps_availqty", ">=", rng.randint(1000, 8000))],
    "supplier": [lambda rng: ("s_acctbal", ">", round(rng.uniform(-500.0, 5000.0), 2))],
    "customer": [
        lambda rng: ("c_acctbal", "<", round(rng.uniform(0.0, 9000.0), 2)),
        lambda rng: ("c_mktsegment", "=", rng.choice(MARKET_SEGMENTS)),
    ],
    "orders": [
        lambda rng: ("o_totalprice", "<", round(rng.uniform(50000.0, 350000.0), 2)),
        lambda rng: ("o_orderpriority", "=", rng.choice(ORDER_PRIORITIES)),
    ],
    "region": [lambda rng: ("r_name", "=", rng.choice(REGION_NAMES))],
}


def plan_specs(plan):
    """Every operator spec of ``plan``'s fragments."""
    pending = [fragment.root for fragment in plan.fragments]
    while pending:
        spec = pending.pop()
        yield spec
        pending.extend(spec.children)


def place_selections(plan, predicates) -> int:
    """Filter the scans of ``plan`` by the ``predicates`` it does not apply yet.

    The optimizer does not plan selection predicates: its plans return
    unfiltered joins.  The benchmark therefore puts a ``Select`` over each
    selected table's scan itself, and returns how many predicates it had to
    place, so the gap stays visible in the numbers (and the placement becomes
    a no-op once the optimizer plans them).
    """
    planned = {
        predicate.qualified
        for spec in plan_specs(plan)
        if spec.operator_type == OperatorType.SELECT
        for predicate in spec.params["predicates"]
    }
    missing = [predicate for predicate in predicates if predicate.qualified not in planned]
    if missing:
        for fragment in plan.fragments:
            fragment.root = _filter_scans(fragment.root, missing)
    return len(missing)


def _filter_scans(spec, predicates):
    if spec.operator_type == OperatorType.WRAPPER_SCAN:
        mine = [p for p in predicates if p.table == spec.params["source"]]
        return select_(spec, mine, operator_id=f"select_{spec.operator_id}") if mine else spec
    spec.children = [_filter_scans(child, predicates) for child in spec.children]
    return spec


class ServerMix:
    """Many planned sessions on one ``QueryServer``, open loop on virtual time."""

    name = "server-mix"
    scale_mb = 1.0
    sessions = 256
    #: Sessions the set-up's warm-up run admits (the head of the mix).
    warmup_sessions = 32
    #: Mean virtual gap between session due times (exponential gaps).  At
    #: 50 ms on 4 MB sources the two streams per source saturate: queues grow
    #: past the 60 s source timeout and sessions end in reschedule requests
    #: the server cannot serve.  At 100 ms on 1 MB the backlog stays bounded.
    mean_gap_ms = 100.0
    #: Share of sessions that carry selection predicates.
    selection_share = 0.5
    #: Per-session optimizer memory pool; the broker holds two of them, below
    #: the demand of the sessions running at once, so admissions revoke.
    pool_bytes = 256 * 1024
    capacity_pools = 2
    #: Streams one source serves at a time; more connections queue.
    max_streams = 2

    def setup(self, seed: int) -> dict:
        """Generate, deploy and encode the inputs, fix the session mix, then
        run the head of the mix as the warm-up."""
        data_seed, rng = seeded_inputs(seed)
        queries = [q for q in two_and_three_way_joins() if "lineitem" not in q.relations]
        self.tables = sorted({table for query in queries for table in query.relations})
        started = time.perf_counter()
        database = TPCDGenerator(scale_mb=self.scale_mb, seed=data_seed).generate(self.tables)
        self.relations = {table: database[table] for table in self.tables}
        self.sources = deploy(database, self.tables, wide_area(), rng, self.max_streams)
        datagen = time.perf_counter() - started
        started = time.perf_counter()
        encode(self.sources)
        encoded = time.perf_counter() - started
        self.config = EngineConfig(
            speculative_sources=True, prefetch_budget_bytes=self.pool_bytes
        )
        # The session mix is the same for every seed: every query shape
        # appears equally often, in one fixed order, at fixed exponential
        # gaps, with fixed selections.  The seed picks the data and the
        # source latencies, so the virtual metrics move with the seed while
        # the queueing pattern (and with it the latency tail) and the work
        # per round stay put: with seeded selection constants the result
        # rows per round, and with them the wall metrics, swung by up to
        # 1.5x between seeds.
        schedule = random.Random(0)
        shapes = [queries[index % len(queries)] for index in range(self.sessions)]
        schedule.shuffle(shapes)
        self.mix = []
        due = 0.0
        for index, base in enumerate(shapes):
            selections = []
            if schedule.random() < self.selection_share:
                candidates = [
                    (table, pick) for table in base.relations for pick in SELECTIONS.get(table, ())
                ]
                if candidates:
                    table, pick = schedule.choice(candidates)
                    selections.append((table, *pick(schedule)))
            due += schedule.expovariate(1.0 / self.mean_gap_ms)
            self.mix.append((f"q{index}", base, tuple(selections), due))
        self._references: dict = {}
        started = time.perf_counter()
        self._run(self.mix[: self.warmup_sessions], None)
        warmup = time.perf_counter() - started
        return {"datagen": datagen, "encode": encoded, "warmup": warmup}

    def system(self) -> Tukwila:
        """A fresh mediator over the deployed sources (no statistics published)."""
        system = Tukwila(
            optimizer_config=OptimizerConfig(memory_pool_bytes=self.pool_bytes),
            engine_config=self.config,
        )
        for source in self.sources.values():
            system.register_source(source, publish_statistics=False)
        return system

    def partial_plan_share(self) -> float:
        """Share of the mix whose default-strategy plan is partial.

        ``QueryServer`` cannot re-plan: a session over a partial
        plan runs only its first fragment and reports that fragment's result
        as the answer.  The mix is therefore planned with
        ``PlanningStrategy.MATERIALIZE``, which the server runs to completion,
        and this share records what the default strategy would have broken.
        """
        system = self.system()
        partial = sum(
            1 for session_id, base, selections, _due in self.mix
            if system.plan(self.query(session_id, base, selections)).plan.partial
        )
        return partial / len(self.mix)

    def query(self, session_id, base, selections) -> ConjunctiveQuery:
        return ConjunctiveQuery(
            name=session_id,
            relations=base.relations,
            join_predicates=base.join_predicates,
            selections=[SelectionPredicate(*selection) for selection in selections],
        )

    def reference(self, base, selections):
        key = (tuple(base.relations), selections)
        if key not in self._references:
            joins = [
                (p.left_table, p.left_attr, p.right_table, p.right_attr)
                for p in base.join_predicates
            ]
            self._references[key] = (
                qualified_columns(self.relations, base.relations),
                reference_multiset(self.relations, base.relations, joins, selections),
            )
        return self._references[key]

    def _run(self, mix, pause):
        """One server run over ``mix``: fresh system, server and source slots.

        ``pause`` (or None) runs after each session step, outside the
        step's wall time; the run's wall time leaves out what it spent.
        """
        for source in self.sources.values():
            source.reset_concurrency()
            source.stats = SourceStats()
        system = self.system()
        server = QueryServer(
            system.catalog,
            engine_config=self.config,
            memory_capacity_bytes=self.pool_bytes * self.capacity_pools,
        )
        walls: dict[str, float] = {}
        paused = 0.0

        def timed_step(step, session_id):
            def step_and_time():
                nonlocal paused
                started = time.perf_counter()
                try:
                    return step()
                finally:
                    walls[session_id] += time.perf_counter() - started
                    if pause is not None:
                        paused += pause()

            return step_and_time

        sessions = []
        placed = 0
        with counting_row_constructions() as boxed:
            started = time.perf_counter()
            for session_id, base, selections, due in mix:
                planned = time.perf_counter()
                query = self.query(session_id, base, selections)
                plan = system.plan(query, strategy=PlanningStrategy.MATERIALIZE, name=session_id)
                placed += place_selections(plan.plan, query.selections)
                session = server.submit_plan(plan.plan, session_id, arrival_ms=due)
                walls[session_id] = time.perf_counter() - planned
                session.step = timed_step(session.step, session_id)
                sessions.append(session)
            stats = server.run()
            wall = time.perf_counter() - started - paused
            rows_boxed = boxed.count
        return server, stats, sessions, walls, wall, rows_boxed, placed

    def run_round(self, tracer=None, pause=None) -> Round:
        gc.collect()
        if tracer is None:
            server, stats, sessions, walls, wall, rows_boxed, placed = self._run(
                self.mix, pause
            )
        else:
            server, stats, sessions, walls, wall, rows_boxed, placed = tracer.run_query(
                self._run, self.mix, pause
            )
        outcomes = []
        for session, (session_id, base, selections, due) in zip(sessions, self.mix):
            summary = session.summary
            error = None
            if session.status.value != "completed":
                error = session.error or f"session ended {session.status.value}"
            if error is None:
                columns, expected = self.reference(base, selections)
                if not same_multiset(engine_multiset(session.result, columns), expected):
                    error = "result differs from the reference"
            first = session.timeline.time_to_first
            latency = (summary.completed_at_ms or due) - due
            outcomes.append(
                Outcome(
                    session_id,
                    session.result_cardinality,
                    walls[session_id],
                    None if first is None else first - due,
                    latency,
                    error,
                )
            )
        prefetch = stats.prefetch
        cache = server.source_cache.stats
        counters = dict(
            context_counters([session.context for session in sessions]),
            makespan_ms=stats.makespan_ms,
            latencies=[outcome.latency_ms for outcome in outcomes],
            rows=[outcome.rows for outcome in outcomes],
            revocations=stats.revocations,
            bytes_revoked=stats.bytes_revoked,
            speculative_revocations=stats.speculative_revocations,
            cache_hits=cache.hits,
            cache_misses=cache.misses,
            cross_session_hits=cache.cross_session_hits,
            partial_hits=cache.partial_hits,
            prefetch_bytes=prefetch.bytes_fetched if prefetch else 0,
            prefetch_bytes_used=prefetch.bytes_used if prefetch else 0,
            scheduler_slices=stats.scheduler_slices,
            source_queued_ms=stats.source_queued_ms,
            rows_boxed=rows_boxed,
            selections_unplanned=placed,
            **{
                "clock.total_ms": sum(outcome.latency_ms for outcome in outcomes),
                "clock.cpu_ms": sum(session.summary.cpu_ms for session in sessions),
                "clock.wait_ms": sum(session.summary.wait_ms for session in sessions),
                "clock.io_ms": sum(session.summary.io_ms for session in sessions),
            },
        )
        return Round(outcomes, wall, counters, round_totals([counters]))


WORKLOADS = {
    workload.name: workload
    for workload in (Fig3aLan, OverflowDisk, Fig3aLanes, ServerMix)
}
