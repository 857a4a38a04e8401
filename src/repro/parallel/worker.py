"""The lane worker process: one exchange lane's subtree, rebuilt and driven.

The worker receives a picklable init description (lane index, the
:class:`~repro.parallel.spec.LaneSpec`, input schemas, engine config), builds
the lane's operator subtree over real :class:`ExchangeSource` leaves, and
runs it on a private :class:`~repro.network.simclock.SimClock` started at the
lane's admission time — the exact clock an inline lane would have used.  All
virtual-time effects (waits, CPU, spill I/O, overflow resolution) happen
*here*; every reply carries a ``sync`` payload (clock position and breakdown,
absolute budget usage, drained events) the parent mirrors onto its registered
lane clock, which is how process execution reproduces inline's virtual-time
accounting exactly.

Two drive modes, selected by the parent:

* **free** (standalone, no broker): after ``run``, the worker steps its lane
  to completion, pulling routed input off the pipe as the subtree demands it
  (:class:`_WorkerFeed` turns a blocked pull into a pipe read) — so lanes
  compute concurrently with the parent's pumping.  Outputs buffer locally
  and are sent only after the ``collect`` barrier, which keeps the pipe
  protocol deadlock-free: the worker never writes while the parent is
  writing.
* **lockstep** (under the multi-query server): all input is shipped before
  the first step, then each ``step`` command advances the lane's generator
  exactly one event — the same generator inline uses — so broker revocations
  relayed between steps land at identical virtual-time boundaries.

Failure modes for the parent's graceful-death handling can be injected via
``REPRO_CRASH_LANE`` / ``REPRO_CRASH_MODE`` (``raise`` | ``exit`` |
``import``).
"""

from __future__ import annotations

import os
import pickle
import traceback
from typing import Iterator

from repro.catalog.catalog import DataSourceCatalog
from repro.engine.context import ExecutionContext
from repro.engine.iterators import DEFAULT_BATCH_SIZE, Operator
from repro.engine.operators.exchange import ExchangeSource, _wait_hint
from repro.errors import ExecutionError
from repro.network.simclock import SimClock
from repro.parallel.transport import recv_msg, send_msg
from repro.storage.memory import MemoryPool
from repro.storage.wire import WireDecoder, WireEncoder, pack


def ship_exception(exc: Exception, tb_text: str | None = None) -> dict:
    """Portable form of an exception: pickled when possible, text always."""
    try:
        blob = pickle.dumps(exc)
    except Exception:  # noqa: BLE001 - unpicklable payloads fall back to text
        blob = None
    return {"pickled": blob, "type": type(exc).__name__, "text": tb_text or str(exc)}


def revive_exception(shipped: dict) -> Exception:
    """Rebuild :func:`ship_exception`'s output, best effort."""
    if shipped["pickled"] is not None:
        try:
            return pickle.loads(shipped["pickled"])
        except Exception:  # repro: allow[swallowed-except] text form below carries the error
            pass
    return ExecutionError(f"{shipped['type']}: {shipped['text']}")


class _WorkerFeed:
    """The lane-side stand-in for the exchange's producer protocol.

    ``await_routed`` blocks on the parent pipe and dispatches exactly one
    message — a wall-clock wait, invisible to virtual time.  Because the
    parent ships inputs strictly in (input 0 …, eos 0, input 1 …, eos 1,
    collect) order, a lane can only finish after dispatching every ``eos``,
    so the ``collect`` barrier is always the next frame once stepping ends.
    """

    def __init__(self, conn, input_count: int) -> None:
        self._conn = conn
        self.sources: list[ExchangeSource] = []
        self.decoder = WireDecoder()
        self._done = [False] * input_count
        self._errors: list[Exception | None] = [None] * input_count
        self.collected = False

    def producer_done(self, input_index: int) -> bool:
        return self._done[input_index]

    def producer_error(self, input_index: int) -> Exception | None:
        return self._errors[input_index]

    def await_routed(self, input_index: int) -> None:
        self.dispatch(recv_msg(self._conn))

    def dispatch(self, message: tuple) -> None:
        kind = message[0]
        if kind == "input":
            _, input_index, available, batch_wire = message
            self.sources[input_index].enqueue(
                available, self.decoder.decode_batch(batch_wire)
            )
        elif kind == "eos":
            self._done[message[1]] = True
        elif kind == "input-error":
            _, input_index, shipped = message
            self._errors[input_index] = revive_exception(shipped)
            self._done[input_index] = True
        elif kind == "collect":
            self.collected = True
        else:
            raise ExecutionError(f"lane worker: unexpected frame {kind!r} in input stream")

    def drain_to_collect(self) -> None:
        """Consume (and discard into queues) everything up to the barrier."""
        while not self.collected:
            self.dispatch(recv_msg(self._conn))


def _lane_steps(root: Operator, clock: SimClock) -> Iterator[tuple]:
    """The inline backend's step generator, one event per yield.

    Identical ramping and event order to ``Exchange._lane_steps`` — this is
    load-bearing for parity: virtual stamps depend on the pull sizes and the
    wait/output event sequence, not on which process executes them.
    """
    size = 1
    while True:
        wait_until = _wait_hint(root, clock)
        if wait_until is not None:
            yield ("wait", wait_until, None)
        batch = root.next_batch(size)
        if not batch:
            return
        size = min(size * 4, DEFAULT_BATCH_SIZE)
        yield ("output", clock.now, batch)


def _sync_payload(context: ExecutionContext) -> dict:
    """Clock position/breakdown, absolute budget usage, and drained events."""
    clock = context.clock
    usage = {
        name: budget.used_bytes for name, budget in context.memory_pool.budgets.items()
    }
    return {
        "now": clock.now,
        "wait": clock.stats.wait_ms,
        "cpu": clock.stats.cpu_ms,
        "io": clock.stats.io_ms,
        "usage": usage,
        "events": context.events.drain(),
    }


def _build(init: dict, limits: dict, feed: _WorkerFeed):
    context = ExecutionContext(
        DataSourceCatalog(),
        clock=SimClock(start_ms=init["lane_start_ms"]),
        memory_pool=MemoryPool(),
        config=init["config"],
        query_name=init["query_name"],
    )
    context.encoded_columns = init["encoded"]
    index = init["lane_index"]
    exchange_id = init["exchange_id"]
    sources = [
        ExchangeSource(
            f"{exchange_id}.in{input_index}.lane{index}", context, feed, input_index, schema
        )
        for input_index, schema in enumerate(init["input_schemas"])
    ]
    root = init["lane_spec"].build(index, context, sources, limits)
    return context, sources, root


def _run_free(conn, feed: _WorkerFeed, steps, context, encoder: WireEncoder) -> None:
    """Free-running drive: step to completion, then flush after the barrier."""
    outputs: list[tuple[float, object]] = []
    failure: dict | None = None
    try:
        for kind, value, batch in steps:
            if kind == "output":
                outputs.append((value, batch))
    except Exception as exc:  # noqa: BLE001 - reported to the parent, not lost
        failure = ship_exception(exc, traceback.format_exc())
    # Reach the collect barrier before writing anything: the parent may still
    # be shipping, and a worker that writes while its inbound pipe backs up
    # deadlocks both sides.
    feed.drain_to_collect()
    if failure is not None:
        send_msg(conn, ("lane-error", failure))
        return
    for produced_at, batch in outputs:
        wire = encoder.encode_batch(batch)
        blob = pack(("output", produced_at, wire))
        encoder.payload_bytes += len(blob)
        conn.send_bytes(blob)
    sync = _sync_payload(context)
    send_msg(conn, ("done", sync))


def _one_step(conn, steps, context, encoder: WireEncoder) -> None:
    """Lockstep drive: advance the generator one event and reply."""
    try:
        kind, value, batch = next(steps)
    except StopIteration:
        sync = _sync_payload(context)
        send_msg(conn, ("step-result", "done", None, None, sync))
        return
    except Exception as exc:  # noqa: BLE001 - reported to the parent, not lost
        failure = ship_exception(exc, traceback.format_exc())
        send_msg(conn, ("lane-error", failure))
        return
    output = None
    if kind == "output":
        output = (value, encoder.encode_batch(batch))
    sync = _sync_payload(context)
    blob = pack(("step-result", kind, value, output, sync))
    if output is not None:
        encoder.payload_bytes += len(blob)
    conn.send_bytes(blob)


def _close_reply(root, context, encoder: WireEncoder) -> dict:
    close_error = None
    try:
        if root is not None:
            root.close()
    except Exception:  # noqa: BLE001 - shipped back, re-raised parent-side
        close_error = traceback.format_exc()
    return {
        "sync": _sync_payload(context) if context is not None else None,
        "operator_stats": dict(context.stats.operator_stats) if context is not None else {},
        "wire": encoder.report(),
        "close_error": close_error,
    }


def _serve(conn, init: dict, crash_mode: str | None) -> None:
    send_msg(conn, ("ready",))
    feed = _WorkerFeed(conn, len(init["input_schemas"]))
    encoder = WireEncoder()
    context = None
    root = None
    steps = None
    while True:
        message = recv_msg(conn)
        kind = message[0]
        if kind in ("input", "eos", "input-error"):
            feed.dispatch(message)
        elif kind == "build":
            context, sources, root = _build(init, message[1], feed)
            feed.sources = sources
            sync = _sync_payload(context)
            send_msg(conn, ("built", sync))
        elif kind == "open":
            try:
                root.open()
            except Exception as exc:  # noqa: BLE001 - reported, not lost
                failure = ship_exception(exc, traceback.format_exc())
                send_msg(conn, ("lane-error", failure))
                continue
            if crash_mode == "exit":
                os._exit(3)
            steps = _lane_steps(root, context.clock)
            sync = _sync_payload(context)
            send_msg(conn, ("opened", sync))
        elif kind == "run":
            if crash_mode == "raise":
                raise RuntimeError("injected lane worker crash")
            _run_free(conn, feed, steps, context, encoder)
        elif kind == "step":
            if crash_mode == "raise":
                raise RuntimeError("injected lane worker crash")
            _one_step(conn, steps, context, encoder)
        elif kind == "revoke":
            _, budget_name, new_limit = message
            context.memory_pool.budget(budget_name).revoke_to(new_limit)
            sync = _sync_payload(context)
            send_msg(conn, ("revoked", sync))
        elif kind == "close":
            reply = _close_reply(root, context, encoder)
            send_msg(conn, ("closed", reply))
            return
        else:
            raise ExecutionError(f"lane worker: unknown command {kind!r}")


def worker_main(conn, init: dict) -> None:
    """Process entry point (must stay importable top-level for spawn)."""
    crash_mode = None
    if os.environ.get("REPRO_CRASH_LANE") == str(init["lane_index"]):
        crash_mode = os.environ.get("REPRO_CRASH_MODE")
    if crash_mode == "import":
        raise ImportError("injected import failure in lane worker")
    try:
        _serve(conn, init, crash_mode)
    except Exception:  # noqa: BLE001 - last-resort report before dying
        text = traceback.format_exc()
        try:
            send_msg(conn, ("error", text))
        except Exception:  # repro: allow[swallowed-except] the pipe may already be gone
            pass
    finally:
        try:
            conn.close()
        except Exception:  # repro: allow[swallowed-except] already closed is fine
            pass
