"""Shared machinery for join operators."""

from __future__ import annotations

from repro.engine.context import ExecutionContext
from repro.engine.iterators import Operator
from repro.errors import PlanError
from repro.storage.schema import Schema
from repro.storage.tuples import KeyBinder


class JoinOperator(Operator):
    """Base class for binary equi-join operators.

    ``left_keys`` / ``right_keys`` are attribute names (qualified or base)
    resolved against the left and right child schemas respectively.
    """

    def __init__(
        self,
        operator_id: str,
        context: ExecutionContext,
        left: Operator,
        right: Operator,
        left_keys: list[str],
        right_keys: list[str],
        estimated_cardinality: int | None = None,
    ) -> None:
        if len(left_keys) != len(right_keys):
            raise PlanError("join key lists must have the same length")
        if not left_keys:
            raise PlanError("equi-join requires at least one key pair")
        super().__init__(
            operator_id,
            context,
            children=[left, right],
            estimated_cardinality=estimated_cardinality,
        )
        self.left_keys = list(left_keys)
        self.right_keys = list(right_keys)
        self._schema: Schema | None = None
        self._left_binder = KeyBinder(left_keys)
        self._right_binder = KeyBinder(right_keys)

    @property
    def left(self) -> Operator:
        return self.children[0]

    @property
    def right(self) -> Operator:
        return self.children[1]

    @property
    def output_schema(self) -> Schema:
        if self._schema is None:
            self._schema = self.left.output_schema.join(self.right.output_schema)
        return self._schema

    def _charge_disk_time(self) -> None:
        """Convert disk page I/O performed since the last call into virtual time."""
        disk = self.context.disk
        if not hasattr(self, "_disk_baseline"):
            self._disk_baseline = disk.stats.snapshot()
        elapsed = disk.io_time_ms(self._disk_baseline)
        if elapsed > 0:
            self.context.clock.consume_io(elapsed)
            self._disk_baseline = disk.stats.snapshot()
