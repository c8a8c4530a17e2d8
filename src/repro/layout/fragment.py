"""Fragments: the stateful storage unit of every engine in this library.

A :class:`Fragment` binds a :class:`~repro.layout.region.Region` to a
linearization and to an allocation in a simulated memory space, and
actually holds the payload (as numpy arrays).  Everything an engine
stores — PAX pages, HYRISE containers, HyPer vectors, L-Store base and
tail pages, Peloton physical tiles, CoGaDB device columns — is a
fragment with a particular shape, linearization and memory space.

Fragments expose two planes:

* the **data plane**: append / read / update real values, so engines
  return correct query answers;
* the **address plane**: byte addresses of records, fields and columns
  inside the fragment's allocation, so the hardware models can price
  the access patterns a layout induces.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.errors import LayoutError, StorageError
from repro.hardware.memory import Allocation, MemorySpace
from repro.layout.compression import CompressedColumn, choose_codec
from repro.layout.linearization import (
    LinearizationKind,
    dsm_field_offset,
    nsm_field_offset,
)
from repro.layout.region import Region
from repro.model.schema import Schema
from repro.model.tuples import structured_dtype

__all__ = ["Fragment"]


def _to_storable(value: Any) -> Any:
    """Encode strings as bytes for numpy 'S' fields."""
    if isinstance(value, str):
        return value.encode("utf-8")
    return value


def _from_stored(value: Any) -> Any:
    """Decode numpy scalars / bytes back to plain Python values."""
    if isinstance(value, bytes):
        return value.rstrip(b"\x00").decode("utf-8")
    if isinstance(value, np.generic):
        item = value.item()
        if isinstance(item, bytes):
            return item.rstrip(b"\x00").decode("utf-8")
        return item
    return value


class Fragment:
    """One region of a relation, linearized into one memory allocation.

    Parameters
    ----------
    region:
        The rectangle of the relation this fragment covers.
    relation_schema:
        Schema of the *relation* (the fragment projects it down to its
        own attributes).
    linearization:
        ``NSM`` or ``DSM`` for fat regions; thin regions must use
        ``DIRECT`` (passing ``None`` selects it automatically).
    space:
        Memory space to allocate the payload from; capacity errors
        propagate (this is how device-memory pressure surfaces).
    label:
        Allocation tag for reports.
    materialize:
        When False, the fragment is a *phantom*: it has exact geometry,
        addresses and simulated-memory accounting, but no real payload
        arrays.  Phantoms let paper-scale benchmark sweeps (85M rows x
        96 B would be ~8 GB of real numpy) run the cost plane exactly
        while skipping the data plane; data-plane calls raise
        :class:`~repro.errors.StorageError`.  Correctness tests always
        use materialized fragments (DESIGN.md §6).
    """

    def __init__(
        self,
        region: Region,
        relation_schema: Schema,
        linearization: LinearizationKind | None,
        space: MemorySpace,
        label: str = "",
        materialize: bool = True,
    ) -> None:
        self.region = region
        self.schema = region.schema_of(relation_schema)
        self.linearization = self._resolve_linearization(region, linearization)
        self.label = label or f"fragment{region}"
        nbytes = region.row_count * self.schema.record_width
        self.allocation: Allocation = space.allocate(nbytes, self.label)
        #: Mutation counter: bumped by every data-plane write so device
        #: replicas (the staging cache) can detect staleness even if the
        #: staging write hook was missed.
        self.version = 0
        self._filled = 0
        self._records: np.ndarray | None = None
        self._columns: dict[str, np.ndarray] | None = None
        self._compressed: CompressedColumn | None = None
        if not materialize:
            return
        if self.linearization is LinearizationKind.NSM or (
            self.linearization is LinearizationKind.DIRECT and region.is_row
        ):
            self._records = np.zeros(
                region.row_count, dtype=structured_dtype(self.schema)
            )
        else:
            self._columns = {
                attribute.name: np.zeros(
                    region.row_count, dtype=attribute.dtype.numpy_dtype()
                )
                for attribute in self.schema
            }

    @staticmethod
    def _resolve_linearization(
        region: Region, linearization: LinearizationKind | None
    ) -> LinearizationKind:
        if region.is_thin:
            if linearization not in (None, LinearizationKind.DIRECT):
                raise LayoutError(
                    f"thin region {region} is one-dimensional and must use "
                    f"DIRECT linearization, not {linearization}"
                )
            return LinearizationKind.DIRECT
        if linearization is None or linearization is LinearizationKind.DIRECT:
            raise LayoutError(
                f"fat region {region} is two-dimensional and requires an "
                "explicit NSM or DSM linearization"
            )
        return linearization

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        region: Region,
        relation_schema: Schema,
        linearization: LinearizationKind | None,
        space: MemorySpace,
        rows: Sequence[Sequence[Any]],
        label: str = "",
    ) -> "Fragment":
        """Build a fragment and bulk-load *rows* (fragment-schema order)."""
        fragment = cls(region, relation_schema, linearization, space, label)
        fragment.append_rows(rows)
        return fragment

    # ------------------------------------------------------------------
    # Fill state
    # ------------------------------------------------------------------
    @property
    def is_phantom(self) -> bool:
        """True when the fragment has geometry but no payload arrays."""
        return (
            self._records is None
            and self._columns is None
            and self._compressed is None
        )

    def _require_payload(self) -> None:
        if self.is_phantom:
            raise StorageError(
                f"{self.label}: phantom fragment has no payload; data-plane "
                "operations require a materialized fragment"
            )

    def fill_phantom(self, count: int) -> None:
        """Mark *count* additional tuplets as present in a phantom fragment.

        This advances the fill level so the address/cost plane sees the
        right geometry; there is no data to write.
        """
        if not self.is_phantom:
            raise StorageError(
                f"{self.label}: fill_phantom is only valid on phantom fragments"
            )
        if count < 0 or self._filled + count > self.capacity:
            raise StorageError(
                f"{self.label}: cannot phantom-fill {count} rows "
                f"(filled {self._filled} of {self.capacity})"
            )
        self._filled += count
        self.version += 1

    @property
    def capacity(self) -> int:
        """Maximum number of tuplets the fragment can hold."""
        return self.region.row_count

    # ------------------------------------------------------------------
    # Compression (read-only thin columns, e.g. L-Store base pages)
    # ------------------------------------------------------------------
    @property
    def is_compressed(self) -> bool:
        """Whether the payload is stored under a columnar codec."""
        return self._compressed is not None

    @property
    def compression(self) -> CompressedColumn | None:
        """The compressed payload, when :meth:`compress` succeeded."""
        return self._compressed

    def compress(self) -> bool:
        """Encode a full thin column with the best lightweight codec.

        Returns True when a codec strictly beat the raw size (the
        allocation is then shrunk to the compressed footprint); False
        leaves the fragment unchanged.  Only full, materialized,
        single-attribute (thin column) fragments are compressible, and
        a compressed fragment becomes read-only -- updates must go to a
        delta/tail structure, exactly the L-Store design.
        """
        self._require_payload()
        if self.schema.arity != 1 or self.region.is_row:
            raise StorageError(
                f"{self.label}: only thin column fragments are compressible"
            )
        if self.is_compressed:
            raise StorageError(f"{self.label}: already compressed")
        if not self.is_full:
            raise StorageError(
                f"{self.label}: compress only full (read-only) fragments"
            )
        assert self._columns is not None
        name = self.schema.names[0]
        encoded = choose_codec(self._columns[name])
        if encoded is None:
            return False
        space = self.allocation.space
        space.free(self.allocation)
        self.allocation = space.allocate(
            encoded.nbytes, f"{self.label}[{encoded.codec.name}]"
        )
        self._compressed = encoded
        self._columns = None
        self.version += 1
        return True

    def _column_values(self, attribute: str) -> np.ndarray:
        if self._compressed is not None:
            return self._compressed.decode()[: self._filled]
        assert self._columns is not None
        return self._columns[attribute][: self._filled]

    @property
    def filled(self) -> int:
        """Number of tuplets currently stored."""
        return self._filled

    @property
    def is_full(self) -> bool:
        """Whether no more tuplets can be appended."""
        return self._filled >= self.capacity

    @property
    def nbytes(self) -> int:
        """Payload size in bytes."""
        return self.allocation.size

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def append_rows(self, rows: Sequence[Sequence[Any]]) -> None:
        """Append tuplets (values in fragment-schema order)."""
        self._require_payload()
        if self._filled + len(rows) > self.capacity:
            raise StorageError(
                f"{self.label}: appending {len(rows)} rows exceeds capacity "
                f"{self.capacity} (filled {self._filled})"
            )
        for row in rows:
            self.write_row(self._filled, row, _allow_fill=True)
            self._filled += 1

    def append_columns(self, columns: dict[str, np.ndarray]) -> None:
        """Bulk-append from per-column arrays (fast path for generators)."""
        self._require_payload()
        lengths = {name: len(values) for name, values in columns.items()}
        if set(lengths) != set(self.schema.names):
            raise StorageError(
                f"{self.label}: columns {sorted(lengths)} do not match "
                f"schema {sorted(self.schema.names)}"
            )
        counts = set(lengths.values())
        if len(counts) != 1:
            raise StorageError(f"{self.label}: ragged columns {lengths}")
        count = counts.pop()
        if self._filled + count > self.capacity:
            raise StorageError(
                f"{self.label}: appending {count} rows exceeds capacity "
                f"{self.capacity} (filled {self._filled})"
            )
        start, stop = self._filled, self._filled + count
        if self._records is not None:
            for name in self.schema.names:
                self._records[name][start:stop] = columns[name]
        else:
            assert self._columns is not None
            for name in self.schema.names:
                self._columns[name][start:stop] = columns[name]
        self._filled = stop
        self.version += 1

    def write_row(
        self, local_row: int, row: Sequence[Any], _allow_fill: bool = False
    ) -> None:
        """Overwrite tuplet *local_row* (0-based inside the fragment)."""
        self._require_payload()
        if self._compressed is not None:
            raise StorageError(
                f"{self.label}: compressed fragments are read-only"
            )
        limit = self.capacity if _allow_fill else self._filled
        if not 0 <= local_row < limit:
            raise StorageError(
                f"{self.label}: row {local_row} outside filled range 0..{limit - 1}"
            )
        if len(row) != self.schema.arity:
            raise StorageError(
                f"{self.label}: row has {len(row)} values, schema needs "
                f"{self.schema.arity}"
            )
        if self._records is not None:
            self._records[local_row] = tuple(_to_storable(value) for value in row)
        else:
            assert self._columns is not None
            for name, value in zip(self.schema.names, row):
                self._columns[name][local_row] = _to_storable(value)
        self.version += 1

    def read_row(self, local_row: int) -> tuple[Any, ...]:
        """Materialize tuplet *local_row* as plain Python values."""
        self._require_payload()
        self._check_filled(local_row)
        if self._records is not None:
            record = self._records[local_row]
            return tuple(_from_stored(record[name]) for name in self.schema.names)
        if self._compressed is not None:
            return (_from_stored(self._compressed.decode_at(local_row)),)
        assert self._columns is not None
        return tuple(
            _from_stored(self._columns[name][local_row]) for name in self.schema.names
        )

    def read_field(self, local_row: int, attribute: str) -> Any:
        """Read one field of one tuplet."""
        self._require_payload()
        self._check_filled(local_row)
        if self._records is not None:
            return _from_stored(self._records[local_row][attribute])
        if attribute not in self.schema:
            raise LayoutError(
                f"{self.label}: attribute {attribute!r} not in fragment schema"
            )
        if self._compressed is not None:
            return _from_stored(self._compressed.decode_at(local_row))
        assert self._columns is not None
        return _from_stored(self._columns[attribute][local_row])

    def update_field(self, local_row: int, attribute: str, value: Any) -> None:
        """Overwrite one field of one tuplet."""
        self._require_payload()
        self._check_filled(local_row)
        if self._compressed is not None:
            raise StorageError(
                f"{self.label}: compressed fragments are read-only; route "
                "updates through a delta/tail structure"
            )
        if self._records is not None:
            self._records[local_row][attribute] = _to_storable(value)
        else:
            assert self._columns is not None
            if attribute not in self._columns:
                raise LayoutError(
                    f"{self.label}: attribute {attribute!r} not in fragment schema"
                )
            self._columns[attribute][local_row] = _to_storable(value)
        self.version += 1

    def column(self, attribute: str) -> np.ndarray:
        """The filled portion of one column as a numpy array.

        For NSM fragments this is a strided structured-field view; for
        DSM/direct fragments it is the contiguous column array.
        """
        if attribute not in self.schema:
            raise LayoutError(
                f"{self.label}: attribute {attribute!r} not in fragment schema"
            )
        self._require_payload()
        if self._records is not None:
            return self._records[attribute][: self._filled]
        return self._column_values(attribute)

    def _check_filled(self, local_row: int) -> None:
        if not 0 <= local_row < self._filled:
            raise StorageError(
                f"{self.label}: row {local_row} outside filled range "
                f"0..{self._filled - 1}"
            )

    # ------------------------------------------------------------------
    # Address plane
    # ------------------------------------------------------------------
    def field_address(self, local_row: int, attribute: str) -> tuple[int, int]:
        """(byte address, size) of one field inside the allocation."""
        width = self.schema.attribute(attribute).width
        if self.linearization is LinearizationKind.NSM or (
            self.linearization is LinearizationKind.DIRECT and self.region.is_row
        ):
            offset = nsm_field_offset(self.schema, local_row, attribute)
        else:
            offset = dsm_field_offset(
                self.schema, self.capacity, local_row, attribute
            )
        return self.allocation.address_of(offset), width

    def record_address(self, local_row: int) -> tuple[int, int]:
        """(byte address, size) of a whole tuplet (NSM/row fragments only)."""
        if self.linearization is LinearizationKind.DSM:
            raise LayoutError(
                f"{self.label}: DSM fragments have no contiguous records"
            )
        if self.linearization is LinearizationKind.DIRECT and not self.region.is_row:
            if self.schema.arity != 1:
                raise LayoutError(
                    f"{self.label}: direct fragment records are single fields"
                )
        offset = local_row * self.schema.record_width
        return self.allocation.address_of(offset), self.schema.record_width

    def column_address_range(self, attribute: str) -> tuple[int, int]:
        """(base address, byte length) of one column's filled values.

        For NSM fragments the column is strided, so this returns the
        covering span (the cache-relevant footprint); for DSM/direct it
        is the exact contiguous column.
        """
        width = self.schema.attribute(attribute).width
        if self._filled == 0:
            return self.allocation.base, 0
        if self.is_compressed:
            # The compressed payload is one contiguous encoded block.
            return self.allocation.base, self.allocation.size
        if self.linearization is LinearizationKind.NSM or (
            self.linearization is LinearizationKind.DIRECT and self.region.is_row
        ):
            base, __ = self.field_address(0, attribute)
            span = (self._filled - 1) * self.schema.record_width + width
            return base, span
        base = self.allocation.address_of(
            dsm_field_offset(self.schema, self.capacity, 0, attribute)
        )
        return base, self._filled * width

    # ------------------------------------------------------------------
    # Physical format
    # ------------------------------------------------------------------
    def serialize(self) -> bytes:
        """The fragment's filled payload in its physical byte order.

        Tests pin this against :func:`nsm_serialize` /
        :func:`dsm_serialize` on Figure 3's example relation.
        """
        self._require_payload()
        if self._records is not None:
            return self._records[: self._filled].tobytes()
        if self._compressed is not None:
            return b"".join(part.tobytes() for part in self._compressed.payload)
        assert self._columns is not None
        return b"".join(
            self._columns[name][: self._filled].tobytes() for name in self.schema.names
        )

    def free(self) -> None:
        """Release the fragment's memory back to its space."""
        self.allocation.space.free(self.allocation)

    def copy_to(self, space: MemorySpace, label: str = "") -> "Fragment":
        """A deep copy of this fragment allocated in another space.

        This is the substrate of host<->device placement: the copy has
        identical shape, linearization and contents, only its allocation
        lives elsewhere.  Transfer *cost* is charged by the execution
        layer, not here.
        """
        clone = Fragment(
            self.region,
            # The fragment schema already projects the relation schema;
            # projecting again with its own names is the identity.
            self.schema,
            self.linearization
            if self.linearization is not LinearizationKind.DIRECT
            else None,
            space,
            label or f"{self.label}@{space.name}",
            materialize=not self.is_phantom,
        )
        if self.is_phantom:
            clone._filled = self._filled
            return clone
        if self._compressed is not None:
            assert clone._columns is not None
            clone._columns[self.schema.names[0]][: self._filled] = (
                self._compressed.decode()
            )
            clone._filled = self._filled
            return clone
        if self._records is not None:
            assert clone._records is not None
            clone._records[: self._filled] = self._records[: self._filled]
        else:
            assert self._columns is not None and clone._columns is not None
            for name, values in self._columns.items():
                clone._columns[name][: self._filled] = values[: self._filled]
        clone._filled = self._filled
        return clone

    @property
    def space(self) -> MemorySpace:
        """The memory space holding this fragment."""
        return self.allocation.space

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Fragment({self.label}, {self.region}, "
            f"{self.linearization.value}, {self.space.name})"
        )
