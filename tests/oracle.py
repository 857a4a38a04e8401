"""A naive reference evaluator: the engine-independent oracle of the parity tests.

The engine runs one batch pipeline whose operators are meant to compute plain
relational algebra; this module computes the same algebra the slowest obvious
way, so the tests can compare the two.  It shares no execution code with the
engine: no batches, columns, hash tables, spill files, clocks or arrival
stamps.  A :class:`Table` is a list of attribute names and a list of value
tuples, read straight out of a :class:`~repro.storage.relation.Relation`;
joins are nested loops over those tuples, selections test each tuple with
the operators of the :mod:`operator` module, and the dynamic collector's
deduplication is set semantics on the dedup key.

Results are compared as multisets of value tuples (:func:`multiset`), the
same shape ``helpers.multiset`` gives engine output.
"""

from __future__ import annotations

import operator
from typing import Any, Iterable, Sequence

#: Selection comparators, by the query language's operator spelling.
COMPARE = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class Table:
    """Attribute names (qualified ``relation.attr``) and one tuple per row."""

    __slots__ = ("names", "rows")

    def __init__(self, names: Sequence[str], rows: Iterable[tuple]) -> None:
        self.names = list(names)
        self.rows = [tuple(row) for row in rows]

    def position(self, name: str) -> int | None:
        """Column of ``name``: an exact match, else the unique ``*.name``."""
        if name in self.names:
            return self.names.index(name)
        suffix = "." + name.rsplit(".", 1)[-1]
        found = [i for i, candidate in enumerate(self.names) if candidate.endswith(suffix)]
        return found[0] if len(found) == 1 else None

    def positions(self, names: Sequence[str]) -> list[int]:
        out = []
        for name in names:
            position = self.position(name)
            if position is None:
                raise KeyError(f"no attribute {name!r} in {self.names}")
            out.append(position)
        return out

    def __len__(self) -> int:
        return len(self.rows)


def scan(relation) -> Table:
    """A stored relation, every attribute qualified by the relation's name."""
    names = [
        name if "." in name else f"{relation.name}.{name}" for name in relation.schema.names
    ]
    return Table(names, (row.values for row in relation.rows))


def source(catalog, name: str) -> Table:
    """The full extent a catalog source exports."""
    return scan(catalog.source(name).relation)


def select(table: Table, predicates) -> Table:
    """Rows satisfying every predicate (``table.attr op value``).

    A predicate on an attribute the table lacks, or a ``None`` value, is
    never satisfied.
    """
    tests = []
    for predicate in predicates:
        position = table.position(f"{predicate.table}.{predicate.attr}")
        if position is None:
            position = table.position(predicate.attr)
        if position is None:
            return Table(table.names, [])
        tests.append((position, COMPARE[predicate.op], predicate.value))
    rows = []
    for row in table.rows:
        for position, compare, constant in tests:
            value = row[position]
            if value is None or not compare(value, constant):
                break
        else:
            rows.append(row)
    return Table(table.names, rows)


def project(table: Table, names: Sequence[str]) -> Table:
    positions = table.positions(names)
    return Table(
        [table.names[i] for i in positions],
        (tuple(row[i] for i in positions) for row in table.rows),
    )


def union(tables: Sequence[Table]) -> Table:
    """Bag union: every row of every input, in input order."""
    rows = []
    for table in tables:
        rows.extend(table.rows)
    return Table(tables[0].names, rows)


def join(
    left: Table, right: Table, left_keys: Sequence[str], right_keys: Sequence[str]
) -> Table:
    """Equi-join by nested loops; output rows are left values then right values."""
    left_at = left.positions(left_keys)
    right_at = right.positions(right_keys)
    rows = []
    for left_row in left.rows:
        left_key = [left_row[i] for i in left_at]
        for right_row in right.rows:
            if [right_row[i] for i in right_at] == left_key:
                rows.append(left_row + right_row)
    return Table(left.names + right.names, rows)


def collect(tables: Sequence[Table], dedup_keys: Sequence[str] | None = None) -> Table:
    """The dynamic collector's answer over overlapping sources.

    Without dedup keys it is the bag union.  With them it is set semantics
    on the key: one row per distinct key value.  Overlapping sources are
    mirrors, so rows sharing a key must be identical; the oracle refuses to
    pick a winner when they are not.
    """
    merged = union(tables)
    if dedup_keys is None:
        return merged
    key_at = merged.positions(dedup_keys)
    by_key: dict[tuple, tuple] = {}
    for row in merged.rows:
        key = tuple(row[i] for i in key_at)
        kept = by_key.setdefault(key, row)
        if kept != row:
            raise ValueError(f"sources disagree on key {key}: {kept} vs {row}")
    return Table(merged.names, by_key.values())


def multiset(table: Table) -> dict[tuple[Any, ...], int]:
    """Value-tuple multiset (compares equal to ``helpers.multiset``)."""
    counts: dict[tuple[Any, ...], int] = {}
    for row in table.rows:
        counts[row] = counts.get(row, 0) + 1
    return counts
