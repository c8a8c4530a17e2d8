"""GPUTx (He & Yu, 2011): bulk transaction processing on the GPU.

"A single transaction is a small and simple task that might
underutilize the parallelism available in modern graphics cards. ...
GPUTx ... addresses this issue by bulk-processing of transactions."
Relations are thin-column sub-relations resident in device memory; a
host-side *result pool* receives copies of results.

Classification targets (Table 1): single layout, weak flexible, static,
Dev. + Dev. centralized, thin DSM-emulated, no scheme, GPU, OLTP.

The defining mechanism is :meth:`execute_bulk`: a batch of K
transactions is shipped to the device as one parameter buffer, executed
by one kernel launch (amortizing the launch latency that would crush
one-at-a-time execution), and its results are copied back into the
result pool in one transfer.  The under-utilization ablation benchmark
sweeps K and shows per-transaction cost collapsing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.engines.base import (
    EngineCapabilities,
    FragmentationChoice,
    MultiLayoutSupport,
    StorageEngine,
    WorkloadSupport,
    fill_fragment,
)
from repro.errors import EngineError, TransactionError
from repro.execution.access import AccessKind
from repro.execution.context import ExecutionContext
from repro.execution.device import device_sum_column
from repro.layout.fragment import Fragment
from repro.layout.layout import Layout
from repro.layout.partitioning import one_region_per_attribute
from repro.model.relation import Relation

__all__ = ["TxKind", "Transaction", "GpuTxEngine"]

#: Bytes per transaction in the parameter buffer (kind+position+attr+value).
TX_PARAM_BYTES = 24
#: Bytes per transaction result in the result pool.
TX_RESULT_BYTES = 16
#: Device ALU operations one transaction executes.
TX_DEVICE_OPS = 8


class TxKind(enum.Enum):
    """The transaction types GPUTx bulk-executes."""

    READ = "read"
    UPDATE = "update"
    INCREMENT = "increment"


@dataclass(frozen=True)
class Transaction:
    """One simple pre-declared transaction (no user interaction)."""

    kind: TxKind
    position: int
    attribute: str
    value: Any = None

    def __post_init__(self) -> None:
        if self.kind is not TxKind.READ and self.value is None:
            raise TransactionError(f"{self.kind.value} transactions need a value")


class GpuTxEngine(StorageEngine):
    """Device-resident thin columns with bulk transaction kernels."""

    name = "GPUTx"
    year = 2011

    def __init__(self, platform, result_pool_bytes: int = 16 * 1024 * 1024) -> None:
        super().__init__(platform)
        self.result_pool = platform.host_memory.allocate(
            result_pool_bytes, "gputx.result-pool"
        )

    def capabilities(self) -> EngineCapabilities:
        return EngineCapabilities(
            fragmentation_choice=FragmentationChoice.VERTICAL,
            constrained_order=None,
            fat_formats=frozenset(),  # thin fragments only
            per_fragment_choice=False,
            multi_layout=MultiLayoutSupport.SINGLE,
            workload=WorkloadSupport.OLTP,
            host_execution=False,
            device_execution=True,
        )

    # ------------------------------------------------------------------
    def _build(
        self, relation: Relation, columns: dict[str, np.ndarray] | None
    ) -> list[Layout]:
        fragments = []
        for region in one_region_per_attribute(relation):
            fragment = Fragment(
                region,
                relation.schema,
                None,
                self.platform.device_memory,
                label=f"gputx:{relation.name}:{region.attributes[0]}",
                materialize=columns is not None,
            )
            fill_fragment(fragment, columns)
            fragments.append(fragment)
        return [Layout(f"{relation.name}/device-columns", relation, fragments)]

    # ------------------------------------------------------------------
    # Bulk transaction execution (the K-set kernel)
    # ------------------------------------------------------------------
    @staticmethod
    def plan_waves(transactions: Sequence[Transaction]) -> list[list[int]]:
        """Partition a batch into conflict-free waves.

        GPUTx executes a K-set with massive parallelism, which requires
        the transactions inside one kernel launch to be conflict-free:
        two transactions conflict when they touch the same cell and at
        least one writes.  The planner greedily assigns each transaction
        to the earliest wave with no conflict — preserving per-cell
        program order — and returns waves of transaction indices.
        """
        waves: list[list[int]] = []
        wave_writes: list[set[tuple[int, str]]] = []
        wave_reads: list[set[tuple[int, str]]] = []
        last_wave_of_cell: dict[tuple[int, str], int] = {}
        for index, transaction in enumerate(transactions):
            cell = (transaction.position, transaction.attribute)
            is_write = transaction.kind is not TxKind.READ
            earliest = last_wave_of_cell.get(cell, -1) + 1 if is_write else 0
            target = None
            for wave_index in range(max(earliest, 0), len(waves)):
                writes = wave_writes[wave_index]
                reads = wave_reads[wave_index]
                if cell in writes or (is_write and cell in reads):
                    continue
                target = wave_index
                break
            if target is None:
                waves.append([])
                wave_writes.append(set())
                wave_reads.append(set())
                target = len(waves) - 1
            waves[target].append(index)
            (wave_writes if is_write else wave_reads)[target].add(cell)
            if is_write:
                last_wave_of_cell[cell] = max(last_wave_of_cell.get(cell, -1), target)
        return waves

    def execute_bulk(
        self,
        name: str,
        transactions: Sequence[Transaction],
        ctx: ExecutionContext,
    ) -> list[Any]:
        """Execute a batch as conflict-free kernel waves.

        Costs: one host->device parameter transfer for the whole batch,
        one kernel launch per wave (conflict-free transactions run in
        one launch; conflicting ones serialize into later waves), and
        one device->host result transfer into the pool.  READ results
        are the read values; UPDATE/INCREMENT return None.
        """
        if not transactions:
            return []
        managed = self.managed(name)
        layout = managed.primary_layout
        relation = managed.relation

        for transaction in transactions:
            if transaction.kind is not TxKind.READ:
                self._check_update_allowed(name, transaction.attribute)
            if not 0 <= transaction.position < relation.row_count:
                raise TransactionError(
                    f"{self.name}: position {transaction.position} outside "
                    f"relation of {relation.row_count} rows"
                )

        waves = self.plan_waves(transactions)
        results: list[Any] = [None] * len(transactions)
        count = len(transactions)
        params = ctx.platform.staging.scheduler.transfer(
            count * TX_PARAM_BYTES, ctx.counters
        )
        ctx.note("gputx-params", params)

        for wave in waves:
            touched_bytes = 0
            for index in wave:
                transaction = transactions[index]
                fragment = layout.fragment_for(
                    transaction.position, transaction.attribute
                )
                width = fragment.schema.attribute(transaction.attribute).width
                touched_bytes += width
                if fragment.is_phantom:
                    continue
                local = transaction.position - fragment.region.rows.start
                if transaction.kind is TxKind.READ:
                    results[index] = fragment.read_field(
                        local, transaction.attribute
                    )
                elif transaction.kind is TxKind.UPDATE:
                    fragment.update_field(
                        local, transaction.attribute, transaction.value
                    )
                else:
                    current = fragment.read_field(local, transaction.attribute)
                    fragment.update_field(
                        local, transaction.attribute, current + transaction.value
                    )
            kernel_seconds = ctx.platform.gpu.streaming_kernel_seconds(
                nbytes=touched_bytes + len(wave) * TX_PARAM_BYTES,
                ops=len(wave) * TX_DEVICE_OPS,
            )
            kernel = (
                ctx.platform.gpu.seconds_to_host_cycles(kernel_seconds)
                + ctx.platform.gpu.launch_latency_cycles
            )
            ctx.charge("gputx-kernel", kernel)
            ctx.counters.kernel_launches += 1

        result_bytes = count * TX_RESULT_BYTES
        if result_bytes > self.result_pool.size:
            raise EngineError(
                f"{self.name}: {result_bytes} B of results exceed the "
                f"{self.result_pool.size} B result pool"
            )
        pool = ctx.platform.staging.scheduler.transfer(result_bytes, ctx.counters)
        ctx.note("gputx-results", pool)
        return results

    # ------------------------------------------------------------------
    # Reads execute on the device (GPU-only engine)
    # ------------------------------------------------------------------
    def sum(self, name, attribute, ctx):
        managed = self.managed(name)
        self.record_access(name, AccessKind.READ, (attribute,), managed.relation.row_count)
        return device_sum_column(managed.primary_layout, attribute, ctx)

    def materialize(self, name, positions, ctx):
        """Materialize via bulk READ transactions into the result pool."""
        managed = self.managed(name)
        schema = managed.relation.schema
        self.record_access(name, AccessKind.READ, schema.names, len(positions))
        transactions = [
            Transaction(TxKind.READ, position, attribute)
            for position in positions
            for attribute in schema.names
        ]
        flat = self.execute_bulk(name, transactions, ctx)
        rows: list[tuple[Any, ...]] = []
        arity = schema.arity
        for index in range(len(positions)):
            rows.append(tuple(flat[index * arity : (index + 1) * arity]))
        return rows

    def update(self, name, position, attribute, value, ctx):
        self.record_access(name, AccessKind.WRITE, (attribute,), 1)
        self.execute_bulk(
            name, [Transaction(TxKind.UPDATE, position, attribute, value)], ctx
        )
