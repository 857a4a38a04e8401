"""Parent-side lifecycle of the ``process`` exchange backend.

:class:`ProcessLanes` owns the lane worker processes of one
:class:`~repro.engine.operators.exchange.Exchange`: it spawns one process per
lane, mirrors each lane's broker leases, feeds routed batches through the
columnar wire format, and folds every worker report (clock position, budget
usage, events, operator stats) back onto the parent's registered lane
clocks — so the exchange's merge side, the server timeline, and the broker
see exactly what the inline backend would have produced.

Two drive modes, picked by whether the session pool is broker-backed:

* **free** (no broker — standalone queries): workers run their lanes
  concurrently while the parent pumps producers; all lane output is gathered
  at open, after the ``collect`` barrier.  Real multicore parallelism.
* **lockstep** (broker-backed — the multi-query server): each lane advances
  one event per ``step`` RPC, driven by the exchange's earliest-event merge
  loop exactly like inline generators, so broker revocations — relayed to
  the worker holding the real allotment by :class:`_MirrorBudget` — land at
  identical virtual-time boundaries.

Memory protocol: every budget a lane subtree grants worker-side is
pre-granted parent-side under the same name, in lane-index order, as a
*mirror* (:class:`_MirrorBudget`) on the session pool — so broker leasing,
capacity checks, and revocation targeting are byte-identical to inline.  The
possibly-shrunk granted sizes ride the ``build`` command; worker usage
reports are applied to the mirrors as deltas through the official
reserve/release path, keeping ``broker.used_bytes`` live.

A dead worker (killed, crashed, lost pipe) raises
:class:`~repro.errors.QueryExecutionError` after terminating every process
and releasing every mirror lease — no hang, no leaked leases.
"""

from __future__ import annotations

import multiprocessing
import os
from multiprocessing.connection import wait as connection_wait

from repro.errors import ExecutionError, QueryExecutionError
from repro.parallel.transport import Shipper, recv_msg
from repro.parallel.worker import revive_exception, ship_exception, worker_main
from repro.storage.memory import MemoryBudget
from repro.storage.wire import WireDecoder, WireEncoder, pack


class _MirrorBudget(MemoryBudget):
    """Parent-side twin of a budget whose real allotment lives in a worker.

    Carved from the (possibly broker-backed) session pool like any budget, so
    leasing and usage propagation are inherited unchanged.  A broker
    revocation is *relayed first*: the worker shrinks the real budget (its
    overflow resolution spills at the worker's clock), the resulting usage
    and clock movement are folded back, and only then does the mirror adopt
    the new limit — so reclaimed bytes are real before the broker continues,
    exactly as inline.
    """

    #: Installed by the backend after the grant; ``None`` until then.
    relay = None

    def revoke_to(self, new_limit_bytes: int) -> None:
        if self.relay is not None:
            self.relay(self.name, new_limit_bytes)
        super().revoke_to(new_limit_bytes)


class _LaneOutbox:
    """Stands in for an inline lane's :class:`ExchangeSource` during routing.

    ``Exchange.pump`` enqueues routed slices here; each is wire-encoded on
    the pump loop's thread (one encoder per lane, so dictionary deltas and
    schema refs accumulate per link) and handed to the lane's shipper.
    """

    __slots__ = ("_state", "_input_index")

    def __init__(self, state: "_LaneState", input_index: int) -> None:
        self._state = state
        self._input_index = input_index

    def enqueue(self, available_ms: float, batch) -> None:
        state = self._state
        encoded = state.encoder.encode_batch(batch)
        blob = pack(("input", self._input_index, available_ms, encoded))
        state.encoder.payload_bytes += len(blob)
        state.shipper.post(blob)


class _LaneState:
    """Everything the parent tracks for one lane worker."""

    __slots__ = (
        "lane",
        "process",
        "conn",
        "shipper",
        "encoder",
        "decoder",
        "mirrors",
        "wire_from_worker",
    )

    def __init__(self, lane, process, conn) -> None:
        self.lane = lane
        self.process = process
        self.conn = conn
        self.shipper = Shipper(conn)
        self.encoder = WireEncoder()
        self.decoder = WireDecoder()
        self.mirrors: dict[str, _MirrorBudget] = {}
        self.wire_from_worker: dict | None = None


def _start_context():
    """The multiprocessing context: fork where available (cheap on Linux),
    overridable via ``REPRO_MP_START`` (the spawn smoke test uses this)."""
    method = os.environ.get("REPRO_MP_START")
    if not method:
        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    return multiprocessing.get_context(method)


class ProcessLanes:
    """Run one exchange's lanes in worker processes (see module docstring)."""

    def __init__(self, exchange, lanes) -> None:
        if exchange.lane_spec is None:
            raise ExecutionError(
                f"exchange {exchange.operator_id!r}: the process backend needs a "
                f"picklable lane spec (plans built by the planner have one; "
                f"hand-built exchanges with closure lanes must run inline)"
            )
        self.exchange = exchange
        self.lanes = lanes
        self.pool = exchange.context.memory_pool
        self.mode = "lockstep" if self.pool.broker is not None else "free"
        self.states: list[_LaneState] = []
        self._closed = False
        self._failed = False

    # -- lifecycle ---------------------------------------------------------------

    def open(self) -> None:
        self._spawn()
        for state in self.states:
            self._receive(state, "ready")
            self._grant_mirrors(state)
        for state in self.states:
            reply = self._command(state, ("open",), "opened")
            self._apply_sync(state, reply[1])
            state.lane.next_event_ms = state.lane.context.clock.now
        input_count = len(self.exchange._producers)
        for state in self.states:
            state.lane.sources = [
                _LaneOutbox(state, input_index) for input_index in range(input_count)
            ]
        if self.mode == "free":
            self._run_free()
        else:
            self._ship_inputs()
            for state in self.states:
                state.lane.steps = self._rpc_steps(state)

    def close(self) -> None:
        if self._closed or self._failed:
            return
        self._closed = True
        close_error: Exception | None = None
        for state in self.states:
            reply = self._command(state, ("close",), "closed")
            report = reply[1]
            if report["sync"] is not None:
                self._apply_sync(state, report["sync"])
            self.exchange.context.stats.operator_stats.update(report["operator_stats"])
            state.wire_from_worker = report["wire"]
            if report["close_error"] and close_error is None:
                close_error = ExecutionError(report["close_error"])
        self._release_mirrors()
        self._shutdown()
        self.exchange.wire_report = [
            {
                "lane": state.lane.index,
                "mode": self.mode,
                "to_worker": state.encoder.report(),
                "from_worker": state.wire_from_worker,
            }
            for state in self.states
        ]
        if close_error is not None:
            raise close_error

    # -- spawn / build ------------------------------------------------------------

    def _spawn(self) -> None:
        ctx = _start_context()
        exchange = self.exchange
        schemas = [driver.root.output_schema for driver in exchange._producers]
        for lane in self.lanes:
            parent_conn, child_conn = ctx.Pipe()
            init = {
                "mode": self.mode,
                "lane_index": lane.index,
                "exchange_id": exchange.operator_id,
                "lane_spec": exchange.lane_spec,
                "lane_start_ms": lane.context.clock.now,
                "input_schemas": schemas,
                "config": exchange.context.config,
                "encoded": exchange.context.encoded_columns,
                "query_name": f"{exchange.context.stats.query_name}.lane{lane.index}",
            }
            process = ctx.Process(
                target=worker_main,
                args=(child_conn, init),
                daemon=True,
                name=f"{exchange.operator_id}-lane{lane.index}",
            )
            process.start()
            child_conn.close()
            self.states.append(_LaneState(lane, process, parent_conn))

    def _grant_mirrors(self, state: _LaneState) -> None:
        """Lease lane budgets parent-side (lane-index order — the order the
        inline backend's lane constructors would have granted them)."""
        limits: dict[str, int | None] = {}
        for name, nbytes in self.exchange.lane_spec.budget_requests(state.lane.index):
            mirror = self.pool.grant(name, nbytes, budget_class=_MirrorBudget)
            state.mirrors[name] = mirror
            limits[name] = mirror.limit_bytes
        reply = self._command(state, ("build", limits), "built")
        self._apply_sync(state, reply[1])
        # Only now can a relayed revocation find the worker's real budget.
        for mirror in state.mirrors.values():
            mirror.relay = lambda name, limit, _state=state: self._relay_revoke(
                _state, name, limit
            )

    def _relay_revoke(self, state: _LaneState, budget_name: str, new_limit: int) -> None:
        reply = self._command(state, ("revoke", budget_name, new_limit), "revoked")
        self._apply_sync(state, reply[1])

    # -- free-running drive --------------------------------------------------------

    def _run_free(self) -> None:
        exchange = self.exchange
        for state in self.states:
            state.shipper.post_msg(("run",))
        try:
            exchange._drain_producers()
        except Exception:
            # Unrecorded pump failures are infrastructure errors: the lanes
            # cannot complete, so tear the workers down before propagating.
            self._cleanup_after_failure()
            raise
        self._ship_stream_ends()
        for state in self.states:
            state.shipper.post_msg(("collect",))
        self._gather()

    def _gather(self) -> None:
        by_conn = {state.conn: state for state in self.states}
        pending = set(self.states)
        while pending:
            ready = connection_wait([state.conn for state in pending])
            for conn in ready:
                state = by_conn[conn]
                message = self._read(state)
                kind = message[0]
                if kind == "output":
                    _, produced_at, encoded = message
                    state.lane.output.append(
                        (produced_at, state.decoder.decode_batch(encoded))
                    )
                elif kind == "done":
                    self._apply_sync(state, message[1])
                    state.lane.finished = True
                    state.lane.next_event_ms = state.lane.context.clock.now
                    pending.discard(state)
                else:
                    self._unexpected(state, message)

    # -- lockstep drive ------------------------------------------------------------

    def _ship_inputs(self) -> None:
        """Drain producers and ship everything before the first step RPC —
        the worker's command pipe is FIFO, so all input precedes stepping."""
        self.exchange._drain_producers()
        self._ship_stream_ends()

    def _rpc_steps(self, state: _LaneState):
        lane = state.lane
        while True:
            reply = self._command(state, ("step",), "step-result")
            _, kind, value, output, sync = reply
            self._apply_sync(state, sync)
            if kind == "done":
                return
            if kind == "output":
                produced_at, encoded = output
                lane.output.append((produced_at, state.decoder.decode_batch(encoded)))
            yield value

    # -- shared plumbing -----------------------------------------------------------

    def _ship_stream_ends(self) -> None:
        for input_index, driver in enumerate(self.exchange._producers):
            if driver.error is not None:
                shipped = ship_exception(driver.error)
                for state in self.states:
                    state.shipper.post_msg(("input-error", input_index, shipped))
            else:
                for state in self.states:
                    state.shipper.post_msg(("eos", input_index))

    def _apply_sync(self, state: _LaneState, sync: dict) -> None:
        """Fold a worker report onto the parent's lane clock, mirrors, events."""
        clock = state.lane.context.clock
        clock.restore(sync["now"], sync["wait"], sync["cpu"], sync["io"])
        for name, used in sync["usage"].items():
            mirror = state.mirrors.get(name)
            if mirror is None:
                continue
            delta = used - mirror.used_bytes
            if delta > 0:
                mirror.force_reserve(delta)
            elif delta < 0:
                mirror.release(-delta)
        for event in sync["events"]:
            self.exchange.context.events.push(event)

    def _command(self, state: _LaneState, message: tuple, expect: str) -> tuple:
        state.shipper.post_msg(message)
        return self._receive(state, expect)

    def _read(self, state: _LaneState) -> tuple:
        try:
            return recv_msg(state.conn)
        except (EOFError, OSError, ConnectionError) as exc:
            self._cleanup_after_failure()
            raise QueryExecutionError(
                f"exchange {self.exchange.operator_id!r}: lane {state.lane.index} "
                f"worker died without reporting (killed, or crashed before the "
                f"protocol started)"
            ) from exc

    def _receive(self, state: _LaneState, expect: str) -> tuple:
        while True:
            message = self._read(state)
            kind = message[0]
            if kind == expect:
                return message
            if kind == "lane-error":
                failure = revive_exception(message[1])
                self._cleanup_after_failure()
                raise failure
            self._unexpected(state, message)

    def _unexpected(self, state: _LaneState, message: tuple) -> None:
        kind = message[0]
        self._cleanup_after_failure()
        if kind == "error":
            raise QueryExecutionError(
                f"exchange {self.exchange.operator_id!r}: lane {state.lane.index} "
                f"worker failed:\n{message[1]}"
            )
        raise QueryExecutionError(
            f"exchange {self.exchange.operator_id!r}: lane {state.lane.index} "
            f"sent unexpected frame {kind!r}"
        )

    # -- teardown ------------------------------------------------------------------

    def _release_mirrors(self) -> None:
        """Zero mirror usage and return every lease to the pool/broker."""
        error: Exception | None = None
        for state in self.states:
            for name, mirror in list(state.mirrors.items()):
                try:
                    self._release_mirror(name, mirror)
                except Exception as exc:  # keep releasing the other lanes
                    if error is None:
                        error = exc
            state.mirrors.clear()
        if error is not None:
            raise error

    def _release_mirror(self, name: str, mirror: _MirrorBudget) -> None:
        try:
            residual = mirror.used_bytes
            if residual > 0:
                mirror.release(residual)
        finally:
            # Even a failed usage release must not strand the lease:
            # broker.used == sum(resident_bytes) depends on its return.
            self.pool.revoke(name)

    def _shutdown(self) -> None:
        for state in self.states:
            state.shipper.finish()
            try:
                state.conn.close()
            except OSError:
                pass
            state.process.join(timeout=10)
            if state.process.is_alive():  # pragma: no cover - defensive
                state.process.terminate()
                state.process.join(timeout=10)

    def _cleanup_after_failure(self) -> None:
        """Terminate everything, release every lease, leave no waiter behind."""
        if self._failed:
            return
        self._failed = True
        for state in self.states:
            state.shipper.stop()
            try:
                state.conn.close()
            except OSError:
                pass
            if state.process.is_alive():
                state.process.terminate()
        for state in self.states:
            state.process.join(timeout=10)
        self._release_mirrors()
        for lane in self.lanes:
            lane.finished = True
            lane.steps = None
