"""Outside-in span tracer for the benchmark's traced run.

The tracer wraps batch-level public calls of each engine layer — operator
``open``/``next_batch``/``next_batch_bounded``/``next``/``close``, source
opens, wrapper block fetches, hash-table bulk inserts/gathers/flushes,
spill-file writes and chunk reads, exchange routing, the server's scheduler
loop, session steps, prefetcher advances and planning — by replacing the
class attributes for the duration of the traced phase and restoring them
afterwards.  Nothing under ``src/`` changes, and the wall time a span records
lives only in the tracer's own list: it never reaches engine state.

A span is ``[name, start, end, parent_index, query_id]``.  A layer's self
time is the summed duration of its spans minus the time their child spans
cover.  Per-tuple paths (``insert_position``, ``match_positions``, spill
``write_position``) are not wrapped; their work lands in the calling
operator's self time and their volume is read from the layers' counters.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict

from repro.core.system import Tukwila
from repro.engine.iterators import Operator
from repro.engine.operators.choose import ChooseNode
from repro.engine.operators.collector import DynamicCollector
from repro.engine.operators.exchange import Exchange, ExchangeSource
from repro.engine.operators.joins.dependent import DependentJoin
from repro.engine.operators.joins.double_pipelined import DoublePipelinedJoin
from repro.engine.operators.joins.hybrid_hash import HybridHashJoin
from repro.engine.operators.joins.nested_loops import NestedLoopsJoin
from repro.engine.operators.materialize import Materialize
from repro.engine.operators.project import Project
from repro.engine.operators.scan import TableScan, WrapperScan
from repro.engine.operators.select import Select
from repro.engine.operators.union import Union
from repro.network.cache import SourceCache
from repro.network.source import DataSource
from repro.network.wrapper import Wrapper
from repro.optimizer.optimizer import Optimizer
from repro.server.prefetch import PlanAwarePrefetcher
from repro.server.scheduler import QueryServer
from repro.server.session import QuerySession
from repro.storage.disk import OverflowFile, SimulatedDisk
from repro.storage.hash_table import BucketedHashTable

#: Operator class -> span name (the layer, named after its module).
OPERATOR_LAYERS = (
    (WrapperScan, "scan"),
    (TableScan, "scan"),
    (Select, "select"),
    (DoublePipelinedJoin, "dpj"),
    (HybridHashJoin, "hybrid"),
    (Exchange, "exchange"),
    (ExchangeSource, "exchange"),
    (Materialize, "materialize"),
    (Project, "other_operators"),
    (Union, "other_operators"),
    (DynamicCollector, "other_operators"),
    (ChooseNode, "other_operators"),
    (NestedLoopsJoin, "other_operators"),
    (DependentJoin, "other_operators"),
)

OPERATOR_METHODS = ("open", "next", "next_batch", "next_batch_bounded", "close")

#: Root span the benchmark opens around each timed unit; its self time is
#: the wall time no named layer accounts for.
ROOT = "bench.query"

_DONE = object()


class Tracer:
    """Records spans in memory while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.query: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[type, str, bool, object]] = []
        self._layers: dict[type, str] = {}
        #: Instances created during the current query, folded into ``counts``.
        self.hash_tables: list[BucketedHashTable] = []
        self.disks: list[SimulatedDisk] = []
        #: Volumes observed at the wrapped boundaries and folded per query.
        self.counts: dict[str, int] = defaultdict(int)
        #: One record per closed exchange: lane clocks at close.
        self.exchanges: list[dict] = []

    # -- span recording -----------------------------------------------------------------

    def _open(self, name: str) -> list:
        stack = self._stack
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.query]
        stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    def run_query(self, func, *args, **kwargs):
        """Call ``func`` inside a root span, then fold the counters of the
        hash tables and disks it created (so they are not kept alive)."""
        record = self._open(ROOT)
        try:
            return func(*args, **kwargs)
        finally:
            self._close(record)
            self._fold()

    def _fold(self) -> None:
        counts = self.counts
        for table in self.hash_tables:
            counts["hash_table.insert.rows"] += table.total_inserted
        for disk in self.disks:
            stats = disk.stats
            counts["disk.pages_written"] += stats.pages_written
            counts["disk.pages_read"] += stats.pages_read
            counts["disk.tuples_written"] += stats.tuples_written
            counts["disk.tuples_read"] += stats.tuples_read
        self.hash_tables.clear()
        self.disks.clear()

    # -- patching -----------------------------------------------------------------------

    def _replace(self, owner: type, attr: str, replacement) -> None:
        own = attr in owner.__dict__
        self._patches.append((owner, attr, own, owner.__dict__.get(attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, owner: type, attr: str, name, after=None, query_of=None) -> None:
        """Replace ``owner.attr`` with a spanned call.

        ``name`` is a span name or a callable mapping ``self`` to one;
        ``after(args, result)`` observes the result; ``query_of(args, kwargs)``
        names the query the call belongs to (its spans carry that id).
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            previous = tracer.query
            if query_of is not None:
                tracer.query = query_of(args, kwargs)
            record = tracer._open(name(args[0]) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(record)
                tracer.query = previous
            if after is not None:
                after(args, result)
            return result

        self._replace(owner, attr, traced)

    def _wrap_generator(self, owner: type, attr: str, name: str) -> None:
        """Span every resume of the iterator ``owner.attr`` returns."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            iterator = iter(original(*args, **kwargs))
            while True:
                record = tracer._open(name)
                try:
                    item = next(iterator, _DONE)
                finally:
                    tracer._close(record)
                if item is _DONE:
                    return
                yield item

        self._replace(owner, attr, traced)

    def _register(self, owner: type, registry: list) -> None:
        original = owner.__init__

        def registering(instance, *args, **kwargs):
            original(instance, *args, **kwargs)
            registry.append(instance)

        self._replace(owner, "__init__", registering)

    def layer_of(self, operator: Operator) -> str:
        cls = type(operator)
        layer = self._layers.get(cls)
        if layer is None:
            layer = next(
                (name for base, name in OPERATOR_LAYERS if issubclass(cls, base)),
                "other_operators",
            )
            self._layers[cls] = layer
        return layer

    def install(self) -> None:
        counts = self.counts
        for method in OPERATOR_METHODS:
            self._wrap(Operator, method, self.layer_of)
        # Operators that override ``open`` bypass the base-class wrapper.
        for cls in (ChooseNode, DynamicCollector):
            self._wrap(cls, "open", self.layer_of)
        traced_close = Exchange.close
        exchanges = self.exchanges

        def exchange_close(exchange):
            lanes = exchange.lane_operators if exchange.state == "open" else []
            exchanges.append(
                {
                    "exchange": exchange.operator_id,
                    "query": self.query,
                    "lane_virtual_ms": [lane.context.clock.now for lane in lanes],
                }
            )
            return traced_close(exchange)

        self._replace(Exchange, "close", exchange_close)
        self._wrap(Exchange, "pump", "exchange.route")

        self._wrap(DataSource, "open", "source.open")

        def fetched(_args, result):
            # fetch_columns returns (columns, arrivals); fetch_batch a row list.
            if result:
                rows = result[1] if isinstance(result, tuple) else result
                counts["wrapper.fetch.rows"] += len(rows)

        self._wrap(Wrapper, "fetch_columns", "wrapper.fetch", after=fetched)
        self._wrap(Wrapper, "fetch_batch", "wrapper.fetch", after=fetched)
        self._wrap(SourceCache, "lookup", "cache.lookup")

        def gathered(_args, result):
            if result is not None:
                counts["hash_table.gather.matches"] += len(result[0])

        self._wrap(BucketedHashTable, "insert_batch", "hash_table.insert")
        self._wrap(BucketedHashTable, "gather_matches", "hash_table.gather", after=gathered)
        for method in ("flush_bucket", "flush_largest_bucket", "flush_all"):
            self._wrap(BucketedHashTable, method, "hash_table.flush")
        self._register(BucketedHashTable, self.hash_tables)

        for method in ("write_columns", "write_gather", "write_all"):
            self._wrap(OverflowFile, method, "disk.write")
        for method in ("read_chunks", "read"):
            self._wrap_generator(OverflowFile, method, "disk.read")
        self._register(SimulatedDisk, self.disks)

        self._wrap(QueryServer, "run", "scheduler")
        self._wrap(
            QuerySession, "step", "session.step", query_of=lambda args, _kw: args[0].session_id
        )
        self._wrap(PlanAwarePrefetcher, "advance", "prefetch.advance")
        self._wrap(PlanAwarePrefetcher, "quiesce", "prefetch.advance")
        self._wrap(Tukwila, "plan", "optimizer.plan", query_of=lambda _a, kw: kw.get("name"))
        self._wrap(Optimizer, "optimize", "optimizer.plan")

    def uninstall(self) -> None:
        for owner, attr, own, original in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- reading the trace --------------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name: duration minus time covered by child spans."""
        totals: dict[str, float] = defaultdict(float)
        spans = self.spans
        for name, start, end, parent, _query in spans:
            duration = end - start
            totals[name] += duration
            if parent >= 0:
                totals[spans[parent][0]] -= duration
        return totals

    def span_counts(self) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for span in self.spans:
            counts[span[0]] += 1
        return counts

    def write(self, path, metadata: dict) -> None:
        """Write the spans as a gzipped Chrome trace-event file (Perfetto opens it)."""
        origin = self.spans[0][1] if self.spans else 0.0
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 0,
                "tid": 0,
                "args": {"query": query, "parent": parent},
            }
            for name, start, end, parent, query in self.spans
        ]
        other = dict(metadata, exchanges=self.exchanges)
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as handle:
            json.dump({"traceEvents": events, "otherData": other}, handle)
