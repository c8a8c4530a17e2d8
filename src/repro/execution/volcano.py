"""Volcano-style processing: tuple-at-a-time iterators.

Section II-A: "NSM combined with the Volcano-style processing model
suits well for [the record-centric] access pattern in case the costs
for function calls can be hidden by data access costs."  This module
makes that trade measurable: every ``next()`` crossing an operator
boundary costs :data:`~repro.execution.operators.CALL_OVERHEAD_CYCLES`,
on top of the data-access costs the scan charges.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.errors import ExecutionError
from repro.execution.context import ExecutionContext
from repro.execution.operators import CALL_OVERHEAD_CYCLES, column_scan_cost
from repro.layout.layout import Layout

__all__ = ["VolcanoOperator", "VolcanoScan", "VolcanoSelect", "VolcanoSum", "run_volcano"]

Row = tuple[Any, ...]


class VolcanoOperator:
    """Base iterator operator: open / next / close.

    Subclasses pull from ``child`` and pay one interface-call overhead
    per ``next()`` they issue (the classic Volcano cost).
    """

    def __init__(self, child: "VolcanoOperator | None" = None) -> None:
        self.child = child
        self._ctx: ExecutionContext | None = None

    @property
    def ctx(self) -> ExecutionContext:
        """The context bound by :meth:`open`."""
        if self._ctx is None:
            raise ExecutionError(f"{type(self).__name__} used before open()")
        return self._ctx

    def open(self, ctx: ExecutionContext) -> None:
        """Bind the context and recurse into the child."""
        self._ctx = ctx
        if self.child is not None:
            self.child.open(ctx)

    def next(self) -> Row | None:
        """Produce the next row, or None when exhausted."""
        raise NotImplementedError

    def close(self) -> None:
        """Release resources and recurse into the child."""
        if self.child is not None:
            self.child.close()
        self._ctx = None

    def _pull(self) -> Row | None:
        """Fetch one row from the child, paying the call overhead."""
        if self.child is None:
            raise ExecutionError(f"{type(self).__name__} has no child to pull from")
        self.ctx.counters.cycles += CALL_OVERHEAD_CYCLES
        return self.child.next()


class VolcanoScan(VolcanoOperator):
    """Leaf scan over a layout, producing projected rows one at a time.

    The scan's data-access cost is charged once at ``open()`` (the bytes
    must be read either way — single-threaded, since Volcano pipelines
    are sequential); the per-tuple production cost is the call overhead
    its consumers pay on every pull.
    """

    def __init__(self, layout: Layout, attributes: Sequence[str] | None = None) -> None:
        super().__init__(None)
        self.layout = layout
        self.attributes = tuple(attributes or layout.relation.schema.names)
        self._cursor = 0

    def open(self, ctx: ExecutionContext) -> None:
        super().open(ctx)
        self._cursor = 0
        memory = 0.0
        compute = 0.0
        for attribute in self.attributes:
            for fragment in self.layout.fragments_for_attribute(attribute):
                fragment_memory, fragment_compute = column_scan_cost(
                    fragment, attribute, ctx
                )
                memory += fragment_memory
                compute += fragment_compute
        ctx.counters.cycles += memory + compute

    def next(self) -> Row | None:
        if self._cursor >= self.layout.relation.row_count:
            return None
        row = self.layout.read_row(self._cursor)
        positions = [
            self.layout.relation.schema.position_of(name) for name in self.attributes
        ]
        self._cursor += 1
        return tuple(row[position] for position in positions)


class VolcanoSelect(VolcanoOperator):
    """Row-at-a-time selection with a Python predicate."""

    def __init__(
        self, child: VolcanoOperator, predicate: Callable[[Row], bool]
    ) -> None:
        super().__init__(child)
        self.predicate = predicate

    def next(self) -> Row | None:
        while True:
            row = self._pull()
            if row is None:
                return None
            self.ctx.counters.cycles += 2.0
            if self.predicate(row):
                return row


class VolcanoSum(VolcanoOperator):
    """Aggregates one column position of its input into a single row."""

    def __init__(self, child: VolcanoOperator, column_index: int = 0) -> None:
        super().__init__(child)
        self.column_index = column_index
        self._done = False

    def open(self, ctx: ExecutionContext) -> None:
        super().open(ctx)
        self._done = False

    def next(self) -> Row | None:
        if self._done:
            return None
        total = 0.0
        while True:
            row = self._pull()
            if row is None:
                break
            self.ctx.counters.cycles += 1.0
            total += float(row[self.column_index])
        self._done = True
        return (total,)


def run_volcano(root: VolcanoOperator, ctx: ExecutionContext) -> list[Row]:
    """Drive a Volcano plan to completion and collect its rows."""
    root.open(ctx)
    try:
        rows: list[Row] = []
        while True:
            ctx.counters.cycles += CALL_OVERHEAD_CYCLES
            row = root.next()
            if row is None:
                return rows
            rows.append(row)
    finally:
        root.close()
