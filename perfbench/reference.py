"""Reference answers computed without the engine.

Every query the benchmark runs is checked against a multiset computed here
from the generated :class:`~repro.storage.relation.Relation` objects alone:
a selection filter per table, then naive dict hash joins along the query's
equi-join predicates.  Nothing from the engine (operators, hash tables,
columns, sources) is used, so an engine bug cannot hide in the oracle.
"""

from __future__ import annotations

import operator
from collections import Counter

#: Comparison operators the benchmark's selections use.
COMPARE = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def qualified_columns(relations: dict, tables) -> list[str]:
    """Canonical column order of a join over ``tables``: sorted qualified names."""
    return sorted(
        f"{table}.{name}" for table in tables for name in relations[table].schema.names
    )


def reference_multiset(relations: dict, tables, joins, selections=()) -> Counter:
    """Result multiset of ``tables`` joined on ``joins`` and filtered by ``selections``.

    ``joins`` holds ``(left_table, left_attr, right_table, right_attr)`` and
    ``selections`` holds ``(table, attr, op, value)``; rows come out as
    value tuples in :func:`qualified_columns` order.
    """
    tables = list(tables)
    filtered = {}
    for table in tables:
        relation = relations[table]
        names = relation.schema.names
        tests = [
            (names.index(attr), COMPARE[op], value)
            for sel_table, attr, op, value in selections
            if sel_table == table
        ]
        filtered[table] = [row.values for row in relation.rows if _passes(row.values, tests)]

    first = tables[0]
    index = {f"{first}.{name}": i for i, name in enumerate(relations[first].schema.names)}
    joined = filtered[first]
    pending = set(tables[1:])
    while pending:
        table = next(
            t for t in tables
            if t in pending and any(_connects(edge, t, index) for edge in joins)
        )
        names = relations[table].schema.names
        pairs = []
        for edge in joins:
            if _connects(edge, table, index):
                left_table, left_attr, right_table, right_attr = edge
                if left_table == table:
                    pairs.append((index[f"{right_table}.{right_attr}"], names.index(left_attr)))
                else:
                    pairs.append((index[f"{left_table}.{left_attr}"], names.index(right_attr)))
        build: dict = {}
        for values in filtered[table]:
            build.setdefault(tuple(values[j] for _, j in pairs), []).append(values)
        out = []
        for values in joined:
            for match in build.get(tuple(values[i] for i, _ in pairs), ()):
                out.append(values + match)
        width = len(index)
        for position, name in enumerate(names):
            index[f"{table}.{name}"] = width + position
        joined = out
        pending.discard(table)

    order = [index[name] for name in qualified_columns(relations, tables)]
    return Counter(tuple(values[i] for i in order) for values in joined)


def _passes(values: tuple, tests) -> bool:
    for position, compare, constant in tests:
        value = values[position]
        if value is None or not compare(value, constant):
            return False
    return True


def _connects(edge, table: str, index: dict) -> bool:
    """True when ``edge`` joins ``table`` to a column already in ``index``."""
    left_table, left_attr, right_table, right_attr = edge
    if left_table == table:
        return f"{right_table}.{right_attr}" in index
    if right_table == table:
        return f"{left_table}.{left_attr}" in index
    return False


def engine_multiset(relation, columns: list[str]) -> Counter:
    """The engine's result ``relation`` as a multiset in ``columns`` order.

    Reads whole columns, which a result still held as columnar batches
    serves without building a row object per tuple.
    """
    names = list(relation.schema.names)
    if sorted(names) != columns:
        raise ValueError(f"result has columns {names}, expected {columns}")
    return Counter(zip(*(relation.column(name) for name in columns)))


def same_multiset(got: Counter, expected: Counter) -> bool:
    """Multiset equality of two counted results.

    Counters built by counting hold no zero counts, so plain dict equality
    is multiset equality, and far faster than ``Counter``'s own comparison.
    """
    return dict.__eq__(got, expected)
