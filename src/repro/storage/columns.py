"""Typed and encoded column storage: the struct-of-arrays substrate.

Columns holding ``int`` or ``float`` attributes are stored in compact
``array('q')`` / ``array('d')`` buffers (8 bytes per value, no per-value
Python object retained by the container); in *encoded* mode, ``str``
attributes are stored as :class:`DictColumn` — an ``array('q')`` of codes
plus a shared, append-only :class:`Dictionary` — and every other type (and
any column that turns out to hold mixed, out-of-range, or excessively
distinct values) falls back to a plain object list.  The helpers here keep
that triple representation invisible to the rest of the engine: appends and
bulk extends degrade a typed or dict-encoded column to a list the first time
a value does not fit, gathers and slices preserve the storage class, and
byte accounting (:meth:`Schema.columnar_row_size` /
:meth:`Schema.encoded_row_size`) matches what the chosen representation
actually costs.

Dictionary encoding gives three wins on string-heavy workloads:

* resident rows charge 8 bytes per string value (the code) plus each
  distinct value once, so hash tables overflow later;
* spill chunks move codes instead of string objects, so overflow files are
  smaller and their page-count I/O cost lower;
* every occurrence of a value decodes to the *same* canonical string
  object, so downstream key hashing hits the cached-hash/pointer-equality
  fast path — the practical equivalent of comparing codes — and extending a
  dict column with another that shares its dictionary moves raw codes with
  no per-value work at all.

:class:`RunLengthArrivals` is the arrival-stamp twin: scans stamp whole
blocks with one arrival, so the parallel arrival list collapses to
``(value, run_length)`` pairs; it degrades internally to a plain list when
the stream does not compress (network stamps are strictly increasing), so
random access never pays more than one indirection.

:class:`ColumnarPartition` is the shared "columnar bag of rows with a key
index" used by hash-table buckets and the nested-loops inner: one typed or
encoded column per attribute, a parallel arrival column, and a ``key -> row
positions`` map, so join operators can insert from batch columns and
assemble output with per-column gathers without ever materializing
:class:`~repro.storage.tuples.Row` objects.
"""

# repro: module-role[hot-path] -- per-row work here multiplies by the dataset size

from __future__ import annotations

from array import array
from bisect import bisect_right
from itertools import islice
from operator import ne
from typing import Any, Iterator, Sequence

from repro.storage.schema import Schema

#: array typecodes for the attribute types stored packed.
NUMERIC_TYPECODES = {"int": "q", "float": "d"}

#: Attribute types that dictionary-encode in encoded mode.
DICT_ENCODED_TYPES = {"str"}

#: Bytes one dictionary code occupies (an ``array('q')`` slot).
DICT_CODE_BYTES = 8

#: Pointer overhead charged per dictionary entry (the value-list slot).
DICT_SLOT_BYTES = 8

#: A dictionary refusing to grow past this many distinct entries degrades
#: the column to an object list (the high-cardinality misfit path).
DICT_MAX_ENTRIES = 1 << 20

#: Exceptions that signal "this value does not fit the typed buffer".
_DEGRADE_ERRORS = (TypeError, ValueError, OverflowError)


class Dictionary:
    """An append-only value dictionary shared by :class:`DictColumn` columns.

    Codes are assigned densely in first-seen order and never change, so any
    number of columns (and any number of spill chunks referencing their
    columns) can share one dictionary.  ``bytes_used`` accumulates the
    estimated footprint of the entries (actual string length plus the
    value-list slot), which is what hash tables charge their budgets for
    dictionary growth.
    """

    __slots__ = ("values", "codes", "bytes_used", "on_grow", "frozen")

    def __init__(self) -> None:
        self.values: list[str] = []
        self.codes: dict[str, int] = {}
        self.bytes_used = 0
        #: Optional growth hook: called with the byte footprint of every new
        #: entry.  Hash tables attach their budget charge here, so steady
        #: state (all values already coded) pays nothing for accounting.
        self.on_grow = None
        #: A frozen dictionary admits no new entries: encoding an unknown
        #: value raises the degrade signal instead.  Long-lived shared
        #: dictionaries (a source's translation cache) freeze so that
        #: downstream consumers mixing in foreign values degrade their own
        #: column rather than permanently polluting the shared cache.
        self.frozen = False

    def __len__(self) -> int:
        return len(self.values)

    def freeze(self) -> "Dictionary":
        self.frozen = True
        return self

    def encode(self, value: str) -> int:
        """Code for ``value``, adding a new entry when first seen.

        Raises
        ------
        TypeError
            If ``value`` is not a string (the misfit degrade signal).
        ValueError
            If the dictionary is frozen or adding the entry would exceed
            :data:`DICT_MAX_ENTRIES` (the degrade signals).
        """
        code = self.codes.get(value)
        if code is not None:
            return code
        if type(value) is not str:
            raise TypeError(f"dictionary columns hold str values, got {type(value).__name__}")
        if self.frozen:
            raise ValueError("dictionary is frozen; degrading column")
        if len(self.values) >= DICT_MAX_ENTRIES:
            raise ValueError("dictionary exceeded DICT_MAX_ENTRIES; degrading column")
        code = len(self.values)
        self.values.append(value)
        self.codes[value] = code
        nbytes = len(value) + DICT_SLOT_BYTES
        self.bytes_used += nbytes
        if self.on_grow is not None:
            self.on_grow(nbytes)
        return code

    def entry_bytes(self, code: int) -> int:
        """Estimated footprint of one entry (used by spill accounting)."""
        return len(self.values[code]) + DICT_SLOT_BYTES

    # -- wire-format deltas (process exchange backend) -------------------------

    def entries_since(self, base: int) -> list[str]:
        """Entries added after the first ``base`` (the wire delta unit).

        Codes are dense and never change, so ``values[base:]`` is exactly
        what a receiver holding ``base`` entries needs to catch up: each
        distinct string crosses a process boundary once, codes ever after.
        """
        return self.values[base:]

    def adopt_entries(self, entries: Sequence[str], base: int) -> None:
        """Append a shipped delta, verifying code alignment with the sender.

        Raises
        ------
        ValueError
            If this dictionary does not hold exactly ``base`` entries — the
            sender computed the delta against a different watermark, so
            adopting it would assign different codes than the shipped code
            vectors use.
        """
        if len(self.values) != base:
            raise ValueError(
                f"dictionary delta expects {base} existing entries, have {len(self.values)}"
            )
        frozen, self.frozen = self.frozen, False
        try:
            for value in entries:
                self.encode(value)
        finally:
            self.frozen = frozen


class DictColumn:
    """A string column stored as ``array('q')`` codes plus a :class:`Dictionary`.

    Sequence-compatible with the plain-list column it replaces: indexing and
    iteration decode to the dictionary's canonical string objects (no string
    is ever constructed per row), slicing and gathering return new
    :class:`DictColumn` views sharing the same dictionary, and ``append`` /
    ``extend`` encode incoming values — raising the standard degrade errors
    on misfits so :func:`append_value` / :func:`extend_column` repair the
    column to an object list exactly like a typed numeric column.
    """

    __slots__ = ("codes", "dictionary")

    def __init__(self, dictionary: Dictionary | None = None, codes: array | None = None) -> None:
        self.dictionary = dictionary if dictionary is not None else Dictionary()
        self.codes = codes if codes is not None else array("q")

    # -- sizing / access -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return DictColumn(self.dictionary, self.codes[index])
        return self.dictionary.values[self.codes[index]]

    def __delitem__(self, index) -> None:
        del self.codes[index]

    def __iter__(self) -> Iterator[str]:
        return map(self.dictionary.values.__getitem__, self.codes)

    def __eq__(self, other) -> bool:
        if isinstance(other, DictColumn):
            if other.dictionary is self.dictionary:
                return other.codes == self.codes
            return list(self) == list(other)
        if isinstance(other, (list, tuple)):
            return len(other) == len(self.codes) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    __hash__ = None  # mutable container

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DictColumn({len(self.codes)} codes, {len(self.dictionary)} entries)"

    # -- mutation ---------------------------------------------------------------

    def append(self, value: str) -> None:
        # Inlined common case (value already coded) to keep the per-row
        # insert path at one dict probe; encode() handles new entries.
        dictionary = self.dictionary
        code = dictionary.codes.get(value)
        if code is None:
            code = dictionary.encode(value)
        self.codes.append(code)

    def extend(self, values) -> None:
        """Extend with ``values``; same-dictionary extends move raw codes.

        A :class:`DictColumn` sharing this column's dictionary extends as a
        single ``array.extend`` of codes (the code-vs-code fast path);
        anything else — a foreign :class:`DictColumn` decodes first — is
        encoded in order, raising the degrade errors on a misfit (partial
        extends are repaired by :func:`extend_column`).
        """
        if isinstance(values, DictColumn) and values.dictionary is self.dictionary:
            self.codes.extend(values.codes)
            return
        # Bulk encode: one C-level map over the codes table resolves every
        # already-seen value; only genuinely new (or misfit) values take the
        # per-value Python path.  TypeError from an unhashable value
        # propagates as the standard degrade signal.
        if not isinstance(values, (list, tuple)):
            values = list(values)
        codes = list(map(self.dictionary.codes.get, values))
        if None in codes:
            encode = self.dictionary.encode
            for i, code in enumerate(codes):
                if code is None:
                    codes[i] = encode(values[i])
        self.codes.extend(codes)

    def gather(self, indices: Sequence[int]) -> "DictColumn":
        """Codes at ``indices`` as a new column sharing the dictionary."""
        return DictColumn(self.dictionary, array("q", map(self.codes.__getitem__, indices)))


class RunLengthArrivals:
    """Arrival stamps stored as ``(value, run_length)`` pairs.

    Scans stamp whole blocks with one arrival, so batches built from local
    blocks carry a single run instead of one float per row.  The container
    is sequence-compatible (indexing via bisect over cumulative run ends,
    iteration run by run) and *self-degrading*: when appends stop merging —
    network arrival stamps are strictly increasing — it switches to an
    internal plain list so random access costs one indirection, never a
    bisect over per-row runs.
    """

    __slots__ = ("_values", "_ends", "_plain")

    #: Once this many runs accumulate without compressing (runs > rows/2),
    #: the container degrades to its internal plain-list form.
    _DEGRADE_CHECK = 64

    def __init__(self, values: Sequence[float] = ()) -> None:
        self._values: list[float] = []
        self._ends: list[int] = []
        self._plain: list[float] | None = None
        if values:
            self.extend(values)

    @classmethod
    def constant(cls, value: float, count: int) -> "RunLengthArrivals":
        """A single run: ``count`` rows all stamped ``value``."""
        out = cls()
        if count:
            out._values.append(value)
            out._ends.append(count)
        return out

    # -- sizing / access ---------------------------------------------------------

    def __len__(self) -> int:
        if self._plain is not None:
            return len(self._plain)
        return self._ends[-1] if self._ends else 0

    def __bool__(self) -> bool:
        return len(self) > 0

    @property
    def run_count(self) -> int:
        """Number of stored runs (``len`` when degraded to the plain form)."""
        if self._plain is not None:
            return len(self._plain)
        return len(self._values)

    @property
    def last(self) -> float | None:
        if self._plain is not None:
            return self._plain[-1] if self._plain else None
        return self._values[-1] if self._values else None

    def __getitem__(self, index):
        if self._plain is not None:
            if isinstance(index, slice):
                return RunLengthArrivals(self._plain[index])
            return self._plain[index]
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                return RunLengthArrivals([self[i] for i in range(start, stop, step)])
            out = RunLengthArrivals()
            position = 0
            for value, end in zip(self._values, self._ends):
                lo = max(start, position)
                hi = min(stop, end)
                if hi > lo:
                    out._push_run(value, hi - lo)
                position = end
                if position >= stop:
                    break
            return out
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("arrival index out of range")
        return self._values[bisect_right(self._ends, index)]

    def __iter__(self) -> Iterator[float]:
        if self._plain is not None:
            return iter(self._plain)

        def runs():
            previous = 0
            for value, end in zip(self._values, self._ends):
                for _ in range(end - previous):
                    yield value
                previous = end

        return runs()

    def __eq__(self, other) -> bool:
        if isinstance(other, RunLengthArrivals):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        form = "plain" if self._plain is not None else f"{self.run_count} runs"
        return f"RunLengthArrivals({len(self)} stamps, {form})"

    def to_list(self) -> list[float]:
        return list(self)

    def wire_runs(self) -> tuple[list[float], list[int]] | None:
        """``(values, cumulative_ends)`` run pairs, or ``None`` when degraded.

        The process exchange backend ships compressed arrivals as runs; a
        degraded container (runs stopped compressing) ships its plain list
        instead, so the receiver reconstructs the *same* internal form and
        downstream behavior (degrade checks, slicing) matches bit for bit.
        """
        if self._plain is not None:
            return None
        return self._values, self._ends

    @classmethod
    def from_wire_runs(cls, values: Sequence[float], ends: Sequence[int]) -> "RunLengthArrivals":
        """Rebuild from shipped run pairs without re-running degrade checks."""
        out = cls()
        out._values = list(values)
        out._ends = list(ends)
        return out

    # -- mutation -----------------------------------------------------------------

    def _push_run(self, value: float, count: int) -> None:
        if self._values and self._values[-1] == value:
            self._ends[-1] += count
        else:
            self._values.append(value)
            self._ends.append((self._ends[-1] if self._ends else 0) + count)

    def _maybe_degrade(self) -> None:
        runs = len(self._values)
        if runs >= self._DEGRADE_CHECK and runs * 2 > self._ends[-1]:
            self._plain = list(self)
            self._values = []
            self._ends = []

    def append(self, value: float) -> None:
        if self._plain is not None:
            self._plain.append(value)
            return
        self._push_run(value, 1)
        self._maybe_degrade()

    def extend(self, values) -> None:
        if self._plain is not None:
            self._plain.extend(values)
            return
        if isinstance(values, RunLengthArrivals) and values._plain is None:
            previous = 0
            for value, end in zip(values._values, values._ends):
                self._push_run(value, end - previous)
                previous = end
        else:
            for value in values:
                self._push_run(value, 1)
        if self._values:
            self._maybe_degrade()

    def gather(self, indices: Sequence[int]) -> "RunLengthArrivals":
        """Stamps at ``indices`` (run-compressed again on the way out)."""
        out = RunLengthArrivals()
        out.extend(self[i] for i in indices)
        return out


def arrival_run_count(arrivals: Sequence[float]) -> int:
    """Number of equal-value runs in ``arrivals`` (the RLE spill unit)."""
    if isinstance(arrivals, RunLengthArrivals):
        if arrivals._plain is None:
            return arrivals.run_count
        arrivals = arrivals._plain
    n = len(arrivals)
    if not n:
        return 0
    # One C-level pass: a run starts wherever a stamp differs from its
    # predecessor.
    return 1 + sum(map(ne, arrivals, islice(arrivals, 1, None)))


def compress_arrivals(arrivals) -> "RunLengthArrivals | list[float]":
    """RLE form of ``arrivals`` when it compresses, the original otherwise."""
    if isinstance(arrivals, RunLengthArrivals):
        return arrivals
    n = len(arrivals)
    if n and arrival_run_count(arrivals) * 2 <= n:
        return RunLengthArrivals(arrivals)
    return arrivals


def make_dictionaries(schema: Schema) -> list:
    """One fresh :class:`Dictionary` per dict-encodable attribute (else None)."""
    return [
        Dictionary() if attribute.type_name in DICT_ENCODED_TYPES else None
        for attribute in schema
    ]


def empty_column(type_name: str, encoded: bool = False, dictionary: Dictionary | None = None):
    """A fresh, empty column for one attribute type.

    Numeric attributes get packed arrays; in encoded mode, dict-encodable
    attributes get a :class:`DictColumn` (over ``dictionary`` when given).
    """
    code = NUMERIC_TYPECODES.get(type_name)
    if code:
        return array(code)
    if encoded and type_name in DICT_ENCODED_TYPES:
        return DictColumn(dictionary)
    return []


def empty_columns(schema: Schema, encoded: bool = False, dictionaries: Sequence | None = None) -> list:
    """One fresh empty column per attribute of ``schema``."""
    if dictionaries is None:
        return [empty_column(a.type_name, encoded) for a in schema]
    return [
        empty_column(a.type_name, encoded, dictionary)
        for a, dictionary in zip(schema, dictionaries)
    ]


def empty_like(column) -> "array | list | DictColumn":
    """A fresh, empty column with the same storage class as ``column``.

    A dict-encoded column's twin shares its dictionary, so values moved
    between the two stay code-compatible (the encoding-stable concat path).
    """
    if type(column) is array:
        return array(column.typecode)
    if type(column) is DictColumn:
        return DictColumn(column.dictionary)
    return []


def build_column(
    type_name: str,
    values: Sequence[Any],
    encoded: bool = False,
    dictionary: Dictionary | None = None,
):
    """A column over ``values``; object-list fallback on mixed/unfit values."""
    code = NUMERIC_TYPECODES.get(type_name)
    if code is not None:
        try:
            return array(code, values)
        except _DEGRADE_ERRORS:
            return list(values)
    if encoded and type_name in DICT_ENCODED_TYPES:
        column = DictColumn(dictionary)
        try:
            column.extend(values)
        except _DEGRADE_ERRORS:
            return list(values)
        return column
    return list(values)


def build_columns(
    schema: Schema,
    columns: Sequence[Sequence[Any]],
    encoded: bool = False,
    dictionaries: Sequence | None = None,
) -> list:
    """Typed/encoded copies of ``columns`` as dictated by ``schema``."""
    if dictionaries is None:
        return [
            build_column(attribute.type_name, column, encoded)
            for attribute, column in zip(schema, columns)
        ]
    return [
        build_column(attribute.type_name, column, encoded, dictionary)
        for attribute, column, dictionary in zip(schema, columns, dictionaries)
    ]


def gather(column, indices: Sequence[int]):
    """Values of ``column`` at ``indices``, preserving the storage class."""
    if type(column) is array:
        return array(column.typecode, map(column.__getitem__, indices))
    if type(column) is DictColumn:
        return column.gather(indices)
    return list(map(column.__getitem__, indices))


def as_values(column) -> Sequence[Any]:
    """``column`` as a random-access value sequence with C-speed indexing.

    Dict-encoded columns decode once (one C-level ``map`` over the codes,
    yielding the dictionary's canonical strings — no string construction);
    everything else is returned as-is.  Bulk consumers that will index a
    column many times (the overflow-resolution joins) call this once per
    chunk instead of paying a Python-level ``__getitem__`` per access.
    """
    if type(column) is DictColumn:
        return list(column)
    if type(column) is RunLengthArrivals:
        return column.to_list()
    return column


def extend_column(columns: list, position: int, values, base_length: int) -> None:
    """Extend ``columns[position]`` with ``values``, degrading to a list on misfit.

    ``base_length`` is the column's length before the extend; a typed or
    dict-encoded buffer that rejects a value mid-extend may have been
    partially extended, so the repair truncates back to ``base_length``
    before re-running on a list.
    """
    column = columns[position]
    try:
        column.extend(values)
    except _DEGRADE_ERRORS:
        del column[base_length:]
        column = list(column)
        column.extend(values)
        columns[position] = column


def append_value(columns: list, position: int, value) -> None:
    """Append one value to ``columns[position]``, degrading to a list on misfit."""
    try:
        columns[position].append(value)
    except _DEGRADE_ERRORS:
        column = list(columns[position])
        column.append(value)
        columns[position] = column


class ColumnarPartition:
    """A columnar row store with a ``key -> row positions`` index.

    The unit of storage inside hash-table buckets (one partition per bucket)
    and the nested-loops join's inner buffer.  Rows live as per-attribute
    column entries plus an arrival stamp; the positions index maps each join
    key to the row positions holding it, in insertion order, so probes return
    gather indices instead of row objects.

    In encoded mode string columns dictionary-encode (over the supplied
    shared ``dictionaries``, so all partitions of one hash table produce
    code-compatible spill chunks).  The arrival column stays a plain list —
    resident stamps come from network scans, which stamp every tuple
    uniquely, so run-length compressing them in place never pays; runs are
    counted (and credited) at spill time, where block-stamped builds do
    collapse.
    """

    __slots__ = ("schema", "columns", "arrivals", "positions", "encoded", "dictionaries")

    def __init__(
        self,
        schema: Schema,
        encoded: bool = False,
        dictionaries: Sequence | None = None,
    ) -> None:
        self.schema = schema
        self.encoded = encoded
        if encoded and dictionaries is None:
            dictionaries = make_dictionaries(schema)
        self.dictionaries = dictionaries
        self.columns = empty_columns(schema, encoded, dictionaries)
        self.arrivals: list[float] = []
        self.positions: dict[tuple[Any, ...], list[int]] = {}

    def __len__(self) -> int:
        return len(self.arrivals)

    @property
    def count(self) -> int:
        return len(self.arrivals)

    # -- insertion ------------------------------------------------------------

    def append_position(
        self,
        key: tuple[Any, ...],
        source_columns: Sequence[Sequence[Any]],
        index: int,
        arrival: float,
    ) -> None:
        """Insert one row by position from another column set — no row boxing.

        Dict-encoded pairs take inlined paths: a source sharing the target's
        dictionary moves the raw code; a foreign dict source decodes and
        re-encodes with direct ``codes`` lookups (one C-level dict probe in
        the common already-seen case, no per-value Python call).
        """
        columns = self.columns
        for j, source in enumerate(source_columns):
            column = columns[j]
            if type(column) is DictColumn and type(source) is DictColumn:
                dictionary = column.dictionary
                if dictionary is source.dictionary:
                    column.codes.append(source.codes[index])
                    continue
                value = source.dictionary.values[source.codes[index]]
                code = dictionary.codes.get(value)
                if code is None:
                    try:
                        code = dictionary.encode(value)
                    except _DEGRADE_ERRORS:
                        append_value(columns, j, value)
                        continue
                column.codes.append(code)
                continue
            value = source[index]
            try:
                column.append(value)
            except _DEGRADE_ERRORS:
                append_value(columns, j, value)
        position = len(self.arrivals)
        self.arrivals.append(arrival)
        found = self.positions.get(key)
        if found is None:
            self.positions[key] = [position]
        else:
            found.append(position)

    def extend_gather(
        self,
        source_columns: Sequence[Sequence[Any]],
        source_arrivals: Sequence[float],
        keys: Sequence[tuple[Any, ...]],
        indices: Sequence[int],
    ) -> None:
        """Bulk-insert the rows of ``source_columns`` at ``indices``.

        Column payloads move as per-column gathers (one slice-style pass per
        attribute; dict-encoded sources gather codes); only the key index is
        maintained per row.
        """
        if type(source_arrivals) is RunLengthArrivals:
            source_arrivals = source_arrivals.to_list()
        base = len(self.arrivals)
        columns = self.columns
        for j in range(len(columns)):
            extend_column(columns, j, gather(source_columns[j], indices), base)
        arrivals = self.arrivals
        positions = self.positions
        for offset, i in enumerate(indices):
            arrivals.append(source_arrivals[i])
            key = keys[i]
            found = positions.get(key)
            if found is None:
                positions[key] = [base + offset]
            else:
                found.append(base + offset)

    # -- lookup ----------------------------------------------------------------

    def match(self, key: tuple[Any, ...]) -> list[int] | None:
        """Row positions holding ``key`` (insertion order), or ``None``."""
        return self.positions.get(key)

    def gather_matches(
        self, keys: Sequence[tuple[Any, ...]]
    ) -> tuple[list[int], list[list[Any]], list[float], bool] | None:
        """Bulk probe against this partition: gathered match columns.

        Returns ``(take, match_columns, match_arrivals, aligned)`` — the
        contract shared with ``BucketedHashTable.gather_matches`` and
        consumed by :func:`repro.storage.batch.gather_join_columns`:
        ``take[i]`` is the probed position whose key produced match ``i``,
        matches arrive as already-gathered column lists, and ``aligned`` is
        true only when every key matched exactly once.  ``None`` when
        nothing matched.
        """
        positions_by_key = self.positions
        take: list[int] = []
        where: list[int] = []
        aligned = True
        for position, key in enumerate(keys):
            found = positions_by_key.get(key)
            if not found:
                aligned = False
            elif len(found) == 1:
                take.append(position)
                where.append(found[0])
            else:
                aligned = False
                take.extend([position] * len(found))
                where.extend(found)
        if not take:
            return None
        # One C-level take per column; dict-encoded columns decode to their
        # canonical strings (two subscripts per match, no construction).
        match_columns = [
            list(map(column.dictionary.values.__getitem__, map(column.codes.__getitem__, where)))
            if type(column) is DictColumn
            else list(map(column.__getitem__, where))
            for column in self.columns
        ]
        return take, match_columns, list(map(self.arrivals.__getitem__, where)), aligned

    # -- teardown ----------------------------------------------------------------

    def take_data(self) -> tuple[list, list[float]]:
        """Remove and return ``(columns, arrivals)``, resetting the partition.

        The counters, columns, and key index all reset in one step *before*
        the data is handed to the caller, so an interrupted consumer (a spill
        write that raises) can never observe — or double-release — a
        half-drained partition.
        """
        columns, arrivals = self.columns, self.arrivals
        self.columns = empty_columns(self.schema, self.encoded, self.dictionaries)
        self.arrivals = []
        self.positions = {}
        return columns, arrivals

    def clear(self) -> None:
        """Drop all rows."""
        self.take_data()
