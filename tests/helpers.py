"""Shared helper functions for the test suite.

These used to live in ``tests/conftest.py`` and were imported with
``from conftest import ...``, which relies on the top-level module name
``conftest`` resolving to *this directory's* conftest.  When pytest collects
from the repo root it may import ``benchmarks/conftest.py`` under that name
first, poisoning ``sys.modules`` and breaking every such import.  Keeping the
helpers in a uniquely named module makes the imports unambiguous.
"""

from __future__ import annotations

from repro.storage.relation import Relation
from repro.storage.schema import Schema


def make_relation(name: str, columns: list[str], values: list[tuple]) -> Relation:
    """Helper used throughout the tests to build small relations."""
    schema = Schema.of(*columns)
    return Relation.from_values(name, schema, values)


def reference_join(left: Relation, right: Relation, left_key: str, right_key: str) -> Relation:
    """Order-insensitive reference equi-join used to validate engine operators."""
    return left.qualified().join(right.qualified(), [left_key], [right_key])


def attribute_multiset(relation) -> dict:
    """Multiset of rows as (attribute -> value) sets, ignoring column order.

    Useful when comparing engine output (whose column order depends on the
    chosen join order) with a reference result.
    """
    counts: dict = {}
    for row in relation:
        key = frozenset((name.rsplit(".", 1)[-1], value) for name, value in row.as_dict().items())
        counts[key] = counts.get(key, 0) + 1
    return counts


def multiset(relation_or_rows) -> dict:
    """Value-vector multiset for order-insensitive comparisons."""
    if isinstance(relation_or_rows, Relation):
        return relation_or_rows.multiset()
    counts: dict = {}
    for row in relation_or_rows:
        counts[row.values] = counts.get(row.values, 0) + 1
    return counts


def insert_row(table, row) -> bool:
    """Insert one row into a hash table through its bulk path.

    Returns ``True`` when the row is resident afterwards, ``False`` when it
    went to its flushed bucket's overflow file or the budget refused it.
    """
    from repro.storage.batch import Batch

    before = table.resident_rows
    table.insert_batch(Batch.from_rows(row.schema, [row]))
    return table.resident_rows > before


def probe_values(table, key: tuple) -> list[tuple]:
    """Value tuples of the resident rows matching ``key``."""
    result = table.gather_matches([key])
    if result is None:
        return []
    return list(zip(*result[1]))


def spilled_marks(table, index: int) -> list[bool]:
    """Marked bits of bucket ``index``'s spilled rows (reads charge I/O)."""
    return [bool(marked) for chunk in table.overflow_chunks(index) for marked in chunk.marked]
