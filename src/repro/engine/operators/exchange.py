"""Partition-parallel execution: the ``Exchange`` / ``ExchangeSource`` pair.

An :class:`Exchange` hash-partitions its input streams by key across N worker
*lanes*.  Each lane is an independent operator subtree (built by a factory the
planner supplies) running on its own worker clock registered on the server's
shared virtual timeline, exactly like a session: the exchange steps whichever
lane has the earliest next event, so the interleaving — and with it every
result and every virtual-time statistic — is fully deterministic.  Producer
subtrees likewise run on their own worker clocks, so scan and network time is
overlapped with lane CPU instead of serialized in front of it on the virtual
timeline.

Producers drain *at open*: every input is pumped to completion and routed
before the first lane steps.  Virtual time cannot tell the difference —
producer clocks advance only through the fixed pump sequence, lane clocks
only through serves and processing — but it makes each lane a pure function
of its own routed queues (and makes ``ExchangeSource.peek_arrival``
effect-free).  That purity is the foundation of the pluggable lane
*backend* (``EngineConfig.exchange_backend``): the default ``inline``
backend steps lanes in this process, while the ``process`` backend
(:mod:`repro.parallel.backend`) runs each lane's subtree in its own OS
process over a columnar wire format and must produce identical result
multisets *and* identical virtual-time accounting.

Data movement stays encoded end to end: the producer routes a batch by
hashing the *canonical* key values (per-side dictionaries assign different
codes to the same string, so codes themselves cannot be hashed), then ships
per-lane slices built with :meth:`Batch.take` — a per-column gather of codes;
strings never cross the lane boundary.  The merge side re-interleaves lane
outputs by arrival stamp, earliest first, with the lane index as the
deterministic tie-break.

Causality on the timeline:

* a routed batch becomes *available* to a lane at the producer clock's time
  when it was routed; the lane's :class:`ExchangeSource` advances the lane
  clock to that stamp before serving it (a lane cannot read data from its
  producer's future);
* a merged batch carries the lane clock's time when the lane emitted it; the
  exchange advances the consumer clock to that stamp before handing it on;
* at end of stream the consumer clock advances to the *makespan* — the
  maximum over all producer and lane clocks — because the exchange is not
  done until its slowest worker is.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterator, Sequence

from repro.engine.context import EXCHANGE_BACKENDS, ExecutionContext
from repro.engine.iterators import DEFAULT_BATCH_SIZE, Operator
from repro.errors import ExecutionError
from repro.storage.batch import Batch
from repro.storage.hash_table import stable_bucket_of
from repro.storage.schema import Schema
from repro.storage.tuples import KeyBinder

#: CPU charge per routed row, as a fraction of the configured per-tuple cost.
#: Routing hashes one key tuple and appends one index per row — cheaper than
#: an operator that materializes or transforms the row, but not free; it is
#: charged on the *producer's* clock, where the routing work happens.
ROUTE_CPU_FACTOR = 0.25


def _wait_hint(root: Operator, clock) -> float | None:
    """Arrival time ``root``'s next pull would block for; ``None`` if ready.

    Local twin of :func:`repro.engine.executor.wait_hint` (importing the
    executor here would be circular: executor -> builder -> exchange).
    """
    arrival = root.peek_arrival()
    if arrival is None:
        return None
    if arrival > clock.now and arrival != float("inf"):
        return arrival
    return None


class ExchangeSource(Operator):
    """Lane-side leaf: serves the batches routed to one lane from one input.

    Producers are fully drained (and their batches routed) when the exchange
    opens, so by the time a lane pulls, everything routed to it is already
    queued: an empty queue with a finished producer is this lane's end of
    stream for that input, and ``peek_arrival`` is a pure read of the queue
    head — the effect-free peek contract the scheduler analysis enforces.

    ``feed`` is the exchange itself for inline lanes; in a lane worker
    process it is a stand-in satisfying the same three-method protocol
    (``producer_done`` / ``producer_error`` / ``await_routed``) whose
    ``await_routed`` blocks on the parent pipe until the in-flight routed
    data becomes observable — a wall-clock wait, invisible to virtual time.
    """

    def __init__(
        self,
        operator_id: str,
        context: ExecutionContext,
        feed: "Exchange",
        input_index: int,
        schema: Schema,
    ) -> None:
        super().__init__(operator_id, context)
        self._feed = feed
        self._input_index = input_index
        self._schema = schema
        #: queued (available_ms, batch) pairs; available_ms is monotone
        #: because the producer clock only moves forward between routings.
        self._queue: deque[tuple[float, Batch]] = deque()

    @property
    def output_schema(self) -> Schema:
        return self._schema

    def enqueue(self, available_ms: float, batch: Batch) -> None:
        self._queue.append((available_ms, batch))

    def peek_arrival(self) -> float | None:
        if self.state in ("closed", "deactivated"):
            return None
        while True:
            if self._queue:
                return self._queue[0][0]
            if self._feed.producer_done(self._input_index):
                if self._feed.producer_error(self._input_index) is not None:
                    # A failed producer looks ready so the consumer pulls —
                    # and the pull raises; errors never surface from a peek.
                    return self.context.clock.now
                return None
            self._feed.await_routed(self._input_index)

    def _ensure_queued(self) -> bool:
        """Wait until this lane has data queued or the stream has ended.

        Every lane sees the same producer failure: a recorded pump error
        re-raises on each lane's pull of that input, so per-lane collectors
        take their fallback path consistently.
        """
        feed = self._feed
        while not self._queue:
            if feed.producer_done(self._input_index):
                error = feed.producer_error(self._input_index)
                if error is not None:
                    raise error
                return False
            feed.await_routed(self._input_index)
        return True

    def _serve(self, max_rows: int) -> Batch:
        available, batch = self._queue.popleft()
        if len(batch) > max_rows:
            self._queue.appendleft((available, batch.slice(max_rows, len(batch))))
            batch = batch.slice(0, max_rows)
        self.context.clock.advance_to(available)
        return batch

    def _next_batch(self, max_rows: int, arrival_bound: float | None) -> Batch:
        if not self._ensure_queued():
            return Batch.empty(self._schema)
        if arrival_bound is None:
            return self._serve(max_rows)
        available, batch = self._queue[0]
        if available >= arrival_bound:
            return Batch.empty(self._schema)  # not end of stream: tie-break case
        take = 0
        for arrival in batch.arrivals:
            if take >= max_rows or max(arrival, available) >= arrival_bound:
                break
            take += 1
        if take == 0:
            return Batch.empty(self._schema)
        if take == len(batch):
            return self._serve(take)
        self._queue.popleft()
        self._queue.appendleft((available, batch.slice(take, len(batch))))
        self.context.clock.advance_to(available)
        return batch.slice(0, take)


class _ProducerDriver:
    """One input stream: its operator root (on a worker clock) and routing keys."""

    __slots__ = ("root", "binder", "done", "error")

    def __init__(self, root: Operator, keys: Sequence[str]) -> None:
        self.root = root
        self.binder = KeyBinder(list(keys))
        self.done = False
        self.error: Exception | None = None


class _Lane:
    """One worker lane: its context, sources, subtree root, and step state."""

    __slots__ = ("index", "context", "sources", "root", "steps", "next_event_ms", "finished", "output")

    def __init__(self, index: int, context: ExecutionContext) -> None:
        self.index = index
        self.context = context
        self.sources: list[ExchangeSource] = []
        self.root: Operator | None = None
        self.steps: Iterator[float] | None = None
        self.next_event_ms = context.clock.now
        self.finished = False
        #: (produced_at_ms, batch) pairs awaiting the merge side.
        self.output: deque[tuple[float, Batch]] = deque()


class Exchange(Operator):
    """Partition / parallel-execute / merge, on the shared virtual timeline.

    ``children`` are the producer roots, each built on its own worker clock
    (the builder derives those contexts).  ``build_lane(index, lane_context,
    sources)`` constructs one lane's subtree over its :class:`ExchangeSource`
    leaves — the planner decides what runs inside a lane (a hash join, a
    deduplicating collector); the exchange only owns routing, stepping, and
    merging.  ``partition_keys[i]`` names the key columns of input ``i``; a
    row's lane is ``bucket_of(canonical key values, lanes)``, identical
    across inputs so matching rows always meet in the same lane.

    The merge is a pure handoff of already-produced batches (no per-value
    work), hence ``PER_TUPLE_CPU_FACTOR = 0``: the per-tuple cost of the
    parallelized work is paid on producer and lane clocks instead.
    """

    PER_TUPLE_CPU_FACTOR = 0.0

    def __init__(
        self,
        operator_id: str,
        context: ExecutionContext,
        producers: list[Operator],
        partition_keys: Sequence[Sequence[str]],
        lanes: int,
        build_lane: Callable[[int, ExecutionContext, list[ExchangeSource]], Operator],
        output_schema: Schema,
        estimated_cardinality: int | None = None,
        lane_spec=None,
        backend: str | None = None,
    ) -> None:
        if lanes < 1:
            raise ExecutionError(f"exchange {operator_id!r} needs at least one lane, got {lanes}")
        if len(partition_keys) != len(producers):
            raise ExecutionError(
                f"exchange {operator_id!r}: {len(producers)} inputs but "
                f"{len(partition_keys)} partition key lists"
            )
        # A per-plan backend choice overrides the engine-wide default.
        backend = backend or context.config.exchange_backend
        if backend not in EXCHANGE_BACKENDS:
            raise ExecutionError(
                f"exchange {operator_id!r}: unknown backend {backend!r} "
                f"(known: {', '.join(EXCHANGE_BACKENDS)})"
            )
        super().__init__(
            operator_id, context, children=producers, estimated_cardinality=estimated_cardinality
        )
        self.lane_count = lanes
        #: A single lane is pure pass-through — no routing, nothing to
        #: parallelize — so it always runs inline regardless of the backend.
        self.backend_name = backend if lanes > 1 else "inline"
        self._build_lane = build_lane
        #: Picklable description of the lane subtrees (what a worker process
        #: rebuilds); required by the process backend, ignored inline.
        self.lane_spec = lane_spec
        self._schema = output_schema
        self._producers = [
            _ProducerDriver(root, keys) for root, keys in zip(producers, partition_keys)
        ]
        self._route_cpu_ms = context.config.per_tuple_cpu_ms * ROUTE_CPU_FACTOR
        self._lanes: list[_Lane] | None = None
        self._backend = None
        self._drained = False
        #: Per-lane wire shipping counters, populated by the process backend
        #: (``None`` inline); survives close for benchmark reporting.
        self.wire_report: list[dict] | None = None

    # -- schema / introspection ----------------------------------------------------

    @property
    def output_schema(self) -> Schema:
        return self._schema

    @property
    def lane_operators(self) -> list[Operator]:
        """The lane subtree roots (for tests and broker-invariant checks)."""
        if self._lanes is None:
            return []
        return [lane.root for lane in self._lanes if lane.root is not None]

    # -- producer side (called by ExchangeSource) ----------------------------------

    def producer_done(self, input_index: int) -> bool:
        return self._producers[input_index].done

    def producer_error(self, input_index: int) -> Exception | None:
        """The recorded pump failure of input ``input_index`` (``None`` if clean)."""
        return self._producers[input_index].error

    def await_routed(self, input_index: int) -> None:
        """Block until routed data for ``input_index`` is observable.

        Inline this is unreachable: producers drain completely at open, so a
        lane's empty queue always coincides with a finished producer.  The
        worker-process feed overrides this with a pipe read (see
        :class:`ExchangeSource`)."""
        raise ExecutionError(
            f"exchange {self.operator_id!r}: input {input_index} has no data in "
            f"flight — producers drain at open"
        )

    def pump(self, input_index: int) -> None:
        """Pull one batch from input ``input_index`` and route it to the lanes.

        The first pump to raise stores the exception on the driver (and
        re-raises); lanes re-raise it from every pull of that input.
        """
        driver = self._producers[input_index]
        if driver.error is not None:
            raise driver.error
        if driver.done:
            return
        root = driver.root
        try:
            batch = root.next_batch(DEFAULT_BATCH_SIZE)
        except Exception as exc:
            driver.error = exc
            driver.done = True
            raise
        if not batch:
            driver.done = True
            return
        clock = root.context.clock
        clock.consume_cpu(len(batch) * self._route_cpu_ms)
        available = clock.now
        lanes = self._lanes
        assert lanes is not None, "pump before open"
        if self.lane_count == 1:
            lanes[0].sources[input_index].enqueue(available, batch)
            return
        keys = batch.key_tuples(driver.binder.indices_in(batch.schema))
        routed: list[list[int] | None] = [None] * self.lane_count
        for position, key in enumerate(keys):
            # Routing must agree between the parent and lane worker
            # *processes*, so it uses the PYTHONHASHSEED-independent hash
            # (builtin hash randomizes strings per process).
            lane_index = stable_bucket_of(key, self.lane_count)
            positions = routed[lane_index]
            if positions is None:
                routed[lane_index] = [position]
            else:
                positions.append(position)
        for lane_index, positions in enumerate(routed):
            if positions is None:
                continue
            part = batch if len(positions) == len(keys) else batch.take(positions)
            lanes[lane_index].sources[input_index].enqueue(available, part)

    # -- lifecycle -----------------------------------------------------------------

    def _do_open(self) -> None:
        lanes = [
            _Lane(index, self.context.derive_worker(f"{self.operator_id}.lane{index}"))
            for index in range(self.lane_count)
        ]
        self._lanes = lanes
        if self.backend_name == "process":
            from repro.parallel.backend import ProcessLanes

            self._backend = ProcessLanes(self, lanes)
            self._backend.open()
            return
        for lane in lanes:
            lane.sources = [
                ExchangeSource(
                    f"{self.operator_id}.in{input_index}.lane{lane.index}",
                    lane.context,
                    self,
                    input_index,
                    driver.root.output_schema,
                )
                for input_index, driver in enumerate(self._producers)
            ]
            lane.root = self._build_lane(lane.index, lane.context, lane.sources)
        for lane in lanes:
            lane.root.open()
            lane.steps = self._lane_steps(lane)
            lane.next_event_ms = lane.context.clock.now
        self._drain_producers()

    def _drain_producers(self) -> None:
        """Pump every producer to completion, routing everything up front.

        Virtual time is indifferent to *when* pumps physically execute:
        producer clocks advance only through pumps (a fixed sequence), lane
        clocks only through serves and processing, and no information flows
        from lanes back into producers.  Draining at open therefore yields
        the same stamps as demand-driven pumping — while making every lane a
        pure function of its own routed queues, which is what lets a lane
        run unchanged inside a worker process and still match inline
        bit for bit.  A pump failure is recorded on its driver and
        swallowed here; it re-raises on every lane's pull of that input.
        """
        for input_index, driver in enumerate(self._producers):
            while not driver.done:
                try:
                    self.pump(input_index)
                except Exception:
                    if driver.error is None:
                        raise
                    break

    def _lane_steps(self, lane: _Lane) -> Iterator[float]:
        """Session-style step generator: one yield per wait or output batch.

        Mirrors the server session's operator-tree drive: start with a small
        batch (time-to-first-tuple), grow geometrically, and surface a wait
        event (yielding the arrival time) before any pull that would block —
        that is what the earliest-event-first merge loop schedules on.
        """
        root = lane.root
        clock = lane.context.clock
        size = 1
        while True:
            wait_until = _wait_hint(root, clock)
            if wait_until is not None:
                yield wait_until
            batch = root.next_batch(size)
            if not batch:
                return
            lane.output.append((clock.now, batch))
            size = min(size * 4, DEFAULT_BATCH_SIZE)
            yield clock.now

    def _step_lane(self, lane: _Lane) -> None:
        try:
            lane.next_event_ms = next(lane.steps)
        except StopIteration:
            lane.finished = True
            lane.next_event_ms = lane.context.clock.now

    # -- merge side ----------------------------------------------------------------

    def _run_lanes(self) -> None:
        """Step lanes, earliest next event first, until every lane has output
        buffered or is finished.  Ties break on the lane index, so the
        interleaving is deterministic."""
        lanes = self._lanes
        while True:
            needy = [lane for lane in lanes if not lane.finished and not lane.output]
            if not needy:
                return
            self._step_lane(min(needy, key=lambda lane: (lane.next_event_ms, lane.index)))

    def _worker_makespan(self) -> float:
        clocks = [driver.root.context.clock.now for driver in self._producers]
        clocks.extend(lane.context.clock.now for lane in self._lanes)
        return max(clocks)

    def _merge_batch(self, max_rows: int) -> Batch:
        if self._drained:
            return Batch.empty(self._schema)
        self._run_lanes()
        ready = [lane for lane in self._lanes if lane.output]
        if not ready:
            # All lanes done and drained: the exchange completes when its
            # slowest worker does.
            self._drained = True
            self.context.clock.advance_to(self._worker_makespan())
            return Batch.empty(self._schema)
        lane = min(ready, key=lambda lane: (lane.output[0][1].arrivals[0], lane.index))
        produced_at, batch = lane.output.popleft()
        if len(batch) > max_rows:
            lane.output.appendleft((produced_at, batch.slice(max_rows, len(batch))))
            batch = batch.slice(0, max_rows)
        self.context.clock.advance_to(produced_at)
        return batch.with_schema(self._schema)

    def _next_batch(self, max_rows: int, arrival_bound: float | None) -> Batch:
        if arrival_bound is not None:
            return self._next_rows_before(max_rows, arrival_bound)
        return self._merge_batch(max_rows)

    def peek_arrival(self) -> float | None:
        if self.state in ("closed", "deactivated"):
            return None
        if self._lanes is None:
            return self.context.clock.now
        best: float | None = None
        for lane in self._lanes:
            if lane.output:
                candidate = lane.output[0][0]
            elif not lane.finished:
                candidate = lane.next_event_ms
            else:
                continue
            if best is None or candidate < best:
                best = candidate
        return best

    def _do_close(self) -> None:
        lanes = self._lanes or []
        error: Exception | None = None
        try:
            if self._backend is not None:
                self._backend.close()
                return
            for lane in lanes:
                if lane.root is None:
                    continue
                try:
                    lane.root.close()
                except Exception as exc:  # keep closing the other lanes
                    if error is None:
                        error = exc
            if error is not None:
                raise error
        finally:
            # Release every worker clock from the timeline — a stuck lane
            # clock would pin the server frontier forever.
            for clock in [d.root.context.clock for d in self._producers] + [
                lane.context.clock for lane in lanes
            ]:
                server = getattr(clock, "server", None)
                if server is not None:
                    server.finish(clock.session_id)
