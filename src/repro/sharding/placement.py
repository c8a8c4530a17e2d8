"""Sharded fragment placement across the simulated cluster.

The paper's reference design (Section IV-C, requirement 3) asks for
*distributed locality*: partitions delegated to shared-nothing nodes,
with replication providing fault tolerance.  :class:`ShardMap` is that
layer for the scale-out tier — it splits a relation's columns into
*shards* (hash- or range-assigned row sets), serializes each shard's
base columns into the replicated :class:`~repro.distributed.dfs.BlockStore`
(the ES² "raw-byte device"), and keeps the serving, memory-resident
copy on each shard's **primary** node.

The DFS placement doubles as the failover plan: when a primary dies
mid-query, the executor re-runs the sub-query on a node that still
holds (or can remotely read) a surviving replica of the shard's base
file, then *promotes* that node to primary.  The map therefore exposes
both the partition-pruning geometry (which shard owns which row) and
the replica-candidate ordering the failover state machine walks.

Row ownership is one position→shard array, built at load; the scheme
decides only its first contents.  The map is also **versioned** for
elastic rebalancing (:mod:`repro.rebalance`): every split, merge and
move, and every checkpoint that rewrites shard files, cuts over
through one :meth:`ShardMap.commit`, which re-points the named shards'
rows, base files (with the LSN each is current to), primaries and
serving states at once and bumps :attr:`ShardMap.epoch`.  Routing
reads the epoch at plan time, so in-flight plans keep naming their
plan-time nodes while new plans see the new placement.  Shard ids are
stable forever — a merged-away shard stays in the dense list as an
empty shard rather than renumbering its survivors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.distributed.cluster import Cluster
from repro.distributed.dfs import BlockStore
from repro.errors import DistributedError, MigrationInProgress

__all__ = [
    "ShardingScheme",
    "Shard",
    "ShardMap",
    "Piece",
    "serialize_columns",
    "deserialize_columns",
]

#: Knuth's multiplicative constant: cheap, deterministic row spreading.
_HASH_MULTIPLIER = 2654435761

#: One cutover piece: (shard id, sorted rows, DFS path, primary,
#: serving columns, base LSN) — see :meth:`ShardMap.commit`.
Piece = tuple[int, np.ndarray, str, str, dict[str, np.ndarray], int]


class ShardingScheme(enum.Enum):
    """How global row positions map onto shards."""

    #: Contiguous row ranges — prunable by interval, ideal for scans.
    RANGE = "range"
    #: Multiplicative-hash spreading — balances skewed point access.
    HASH = "hash"


def serialize_columns(columns: dict[str, np.ndarray]) -> bytes:
    """Encode named float64/int columns as one deterministic byte blob.

    Attribute order is sorted by name; each entry is a 4-byte length,
    a ``name|dtype|size`` header, and the raw array bytes — the PAX-ish
    "tuplet" format the shard base files use on the DFS.
    """
    parts: list[bytes] = []
    for name in sorted(columns):
        array = np.ascontiguousarray(columns[name])
        header = f"{name}|{array.dtype.str}|{array.size}".encode()
        parts.append(len(header).to_bytes(4, "big") + header + array.tobytes())
    return b"".join(parts)


def deserialize_columns(payload: bytes) -> dict[str, np.ndarray]:
    """Decode :func:`serialize_columns` output back into named arrays."""
    columns: dict[str, np.ndarray] = {}
    offset = 0
    while offset < len(payload):
        header_len = int.from_bytes(payload[offset : offset + 4], "big")
        offset += 4
        header = payload[offset : offset + header_len].decode()
        offset += header_len
        name, dtype, size_text = header.split("|")
        size = int(size_text)
        nbytes = size * np.dtype(dtype).itemsize
        columns[name] = np.frombuffer(
            payload[offset : offset + nbytes], dtype=dtype
        ).copy()
        offset += nbytes
    return columns


@dataclass
class Shard:
    """One horizontal partition: its rows, serving node, and DFS path.

    Attributes
    ----------
    shard_id:
        Dense shard index within the map.
    positions:
        Sorted global row positions this shard owns.
    primary:
        Name of the node currently serving the shard (promotions
        re-point this during failover).
    path:
        DFS path of the shard's serialized base columns.
    base_lsn:
        The LSN the file at *path* is current to: it holds every update
        committed at or below it, so a rebuild replays only the log
        past it.  0 at load.
    """

    shard_id: int
    positions: np.ndarray
    primary: str
    path: str
    base_lsn: int = 0

    @property
    def row_count(self) -> int:
        """Rows owned by this shard."""
        return int(self.positions.size)

    def local_indices(self, positions: np.ndarray) -> np.ndarray:
        """Map sorted global *positions* (all owned here) to local offsets."""
        return np.searchsorted(self.positions, positions)


class ShardMap:
    """Hash/range placement of one relation's columns over a cluster.

    Parameters
    ----------
    name:
        Relation name (namespaces the DFS paths).
    columns:
        Named equal-length numpy columns — the base data.
    cluster / dfs:
        The shared-nothing substrate and its replicated block store;
        every shard's base payload is written through *dfs* so the
        replication factor is the store's.
    shard_count:
        Number of horizontal partitions.
    scheme:
        :class:`ShardingScheme` assigning rows to shards.
    """

    def __init__(
        self,
        name: str,
        columns: dict[str, np.ndarray],
        cluster: Cluster,
        dfs: BlockStore,
        shard_count: int,
        scheme: ShardingScheme = ShardingScheme.RANGE,
    ) -> None:
        if shard_count < 1:
            raise DistributedError(f"shard_count must be >= 1, got {shard_count}")
        if not columns:
            raise DistributedError("a shard map needs at least one column")
        lengths = {attr: len(array) for attr, array in columns.items()}
        if len(set(lengths.values())) != 1:
            raise DistributedError(f"ragged columns: {lengths}")
        self.name = name
        self.cluster = cluster
        self.dfs = dfs
        self.row_count = next(iter(lengths.values()))
        self.attributes = tuple(sorted(columns))
        self.shard_count = shard_count
        if shard_count > max(self.row_count, 1):
            raise DistributedError(
                f"cannot spread {self.row_count} rows over {shard_count} shards"
            )
        self.shards: list[Shard] = []
        #: Placement version: bumped once per committed rebalance
        #: cutover.  Plans are stamped with the epoch they were routed
        #: under; in-flight plans finish on their plan-time nodes.
        self.epoch = 0
        #: shard_id -> memory-resident serving columns (None = lost with
        #: its node, pending a failover rebuild).
        self._states: dict[int, dict[str, np.ndarray] | None] = {}
        #: Shard ids with an in-flight live migration (single-writer
        #: guard: a second migration naming one of these is refused).
        self._migrating: set[int] = set()
        every_position = np.arange(self.row_count)
        if scheme is ShardingScheme.RANGE:
            runs = np.array_split(every_position, shard_count)
            owner = np.repeat(np.arange(shard_count), [run.size for run in runs])
        else:
            owner = ((every_position * _HASH_MULTIPLIER) & 0x7FFFFFFF) % shard_count
        #: position -> shard_id: the one record of row ownership, which
        #: every :meth:`commit` rewrites for the rows it re-points.
        self._owner = owner
        for shard_id in range(shard_count):
            positions = np.flatnonzero(owner == shard_id)
            local = {
                attr: np.ascontiguousarray(columns[attr][positions])
                for attr in self.attributes
            }
            path = f"shards/{name}/{shard_id:04d}"
            self.dfs.write(path, serialize_columns(local))
            holders = self.dfs.file(path).blocks[0].replica_nodes
            shard = Shard(shard_id, positions, primary=holders[0], path=path)
            self.shards.append(shard)
            self._states[shard_id] = local

    # ------------------------------------------------------------------
    # Geometry (planning-time: never charges a counter)
    # ------------------------------------------------------------------
    def shard_of(self, position: int) -> int:
        """The shard owning global row *position* (at the current epoch)."""
        if not 0 <= position < self.row_count:
            raise DistributedError(
                f"position {position} outside [0, {self.row_count})"
            )
        return int(self._owner[position])

    def prune(self, positions: tuple[int, ...]) -> dict[int, np.ndarray]:
        """Group *positions* by owning shard — the router's pruning step.

        Only shards owning at least one requested position appear in
        the result; the rest of the map is pruned from the scatter.
        """
        grouped: dict[int, list[int]] = {}
        for position in positions:
            grouped.setdefault(self.shard_of(position), []).append(position)
        return {
            shard_id: np.array(sorted(members))
            for shard_id, members in sorted(grouped.items())
        }

    # ------------------------------------------------------------------
    # Serving state (execution-time)
    # ------------------------------------------------------------------
    def state(self, shard_id: int) -> dict[str, np.ndarray] | None:
        """The shard's memory-resident columns (None = lost, rebuild first)."""
        return self._states[shard_id]

    def drop_states_on(self, node_name: str) -> list[int]:
        """Forget the serving state of every shard primaried on *node_name*.

        Called when that node's process dies: memory is volatile, so the
        shards it served must be rebuilt from the DFS base + WAL replay
        before anyone answers from them again.  Returns the shard ids
        affected.
        """
        lost = []
        for shard in self.shards:
            if shard.primary == node_name and self._states[shard.shard_id] is not None:
                self._states[shard.shard_id] = None
                lost.append(shard.shard_id)
        return lost

    def promote(
        self, shard_id: int, node_name: str, columns: dict[str, np.ndarray]
    ) -> None:
        """Install rebuilt *columns* on *node_name* and make it primary.

        The final transition of the failover state machine: the shard
        serves from its new home.  A promotion moves no row, so the
        epoch stands.
        """
        self.shards[shard_id].primary = node_name
        self._states[shard_id] = columns

    def replica_candidates(self, shard: Shard) -> tuple[str, ...]:
        """Failover targets for *shard*, deterministic preference order.

        Nodes holding a DFS replica of the shard's base file come
        first (sorted), then the coordinator-eligible rest of the
        cluster (sorted) — any node can rebuild by *remote* DFS reads
        as long as one replica of each block survives somewhere.
        """
        holders: set[str] = set()
        for block in self.dfs.file(shard.path).blocks:
            holders.update(block.replica_nodes)
        rest = [
            node.name for node in self.cluster.nodes if node.name not in holders
        ]
        return tuple(sorted(holders)) + tuple(sorted(rest))

    # ------------------------------------------------------------------
    # Live migration: epoch-bumped cutovers (repro.rebalance)
    # ------------------------------------------------------------------
    @property
    def live_shard_count(self) -> int:
        """Shards currently owning at least one row (merged-away shards
        stay in the dense list as empty placeholders)."""
        return sum(1 for shard in self.shards if shard.row_count)

    def begin_migration(self, *shard_ids: int) -> None:
        """Claim *shard_ids* for one live migration (single-writer guard).

        Raises :class:`~repro.errors.MigrationInProgress` when any of
        them is already mid-migration — the copy/catch-up/cutover
        protocol assumes no concurrent rebalance touches the same
        shard.  On success the ids stay claimed until
        :meth:`end_migration` releases them (the migrator calls it from
        both the commit and the rollback path).
        """
        for shard_id in shard_ids:
            if not 0 <= shard_id < len(self.shards):
                raise DistributedError(f"unknown shard {shard_id}")
            if shard_id in self._migrating:
                raise MigrationInProgress(
                    f"shard {shard_id} of {self.name!r} already has an "
                    "in-flight migration"
                )
        self._migrating.update(shard_ids)

    def end_migration(self, *shard_ids: int) -> None:
        """Release the migration claim on *shard_ids* (idempotent)."""
        self._migrating.difference_update(shard_ids)

    @property
    def migrating(self) -> bool:
        """Whether any shard is claimed by an in-flight migration."""
        return bool(self._migrating)

    def _check_state(
        self, positions: np.ndarray, state: dict[str, np.ndarray]
    ) -> None:
        """Refuse a cutover whose serving state does not match its rows."""
        if set(state) != set(self.attributes):
            raise DistributedError(
                f"cutover state stores {sorted(state)}, "
                f"map stores {list(self.attributes)}"
            )
        for attr, column in state.items():
            if len(column) != positions.size:
                raise DistributedError(
                    f"cutover state {attr!r} has {len(column)} rows for "
                    f"{positions.size} positions"
                )

    def commit(self, shard_ids: Sequence[int], pieces: Sequence[Piece]) -> int:
        """Cut a completed migration over; returns the new epoch.

        The *pieces* must partition exactly the rows of the shards
        *shard_ids* names.  Each piece ``(shard_id, positions, path,
        primary, state, base_lsn)`` re-points a named shard at its
        sorted rows, base file (current to ``base_lsn``), primary and
        serving state, or appends the next dense id (a split's new
        half).  A named shard that no piece covers is left empty (a
        merge's loser): ids are never renumbered, and the router prunes
        it from every later scatter.  Everything is
        checked before anything changes, so a refused cutover leaves
        the map as it was.
        """
        named, piece_ids = list(shard_ids), [piece[0] for piece in pieces]
        if len(set(named)) < len(named) or len(set(piece_ids)) < len(piece_ids):
            raise DistributedError(
                f"cutover names a shard twice: shards {named}, pieces {piece_ids}"
            )
        known = len(self.shards)
        fresh = [shard_id for shard_id in piece_ids if shard_id not in named]
        if not set(named) <= set(range(known)) or fresh != list(
            range(known, known + len(fresh))
        ):
            raise DistributedError(
                f"cutover pieces {piece_ids} must re-point shards {named} "
                f"or append the next dense ids from {known}"
            )
        empty = np.empty(0, dtype=np.int64)
        rows = np.concatenate([empty] + [self.shards[sid].positions for sid in named])
        covered = np.concatenate([empty] + [piece[1] for piece in pieces])
        if not np.array_equal(np.sort(rows), np.sort(covered)):
            raise DistributedError(
                f"cutover pieces do not partition the rows of shards {named}"
            )
        for _, positions, _, _, state, _ in pieces:
            self._check_state(positions, state)
        for shard_id, positions, path, primary, state, base_lsn in pieces:
            if shard_id == len(self.shards):
                self.shards.append(Shard(shard_id, positions, primary, path, base_lsn))
            else:
                shard = self.shards[shard_id]
                shard.positions, shard.path, shard.primary = positions, path, primary
                shard.base_lsn = base_lsn
            self._states[shard_id] = state
            self._owner[positions] = shard_id
        for shard_id in named:
            if shard_id not in piece_ids:
                self.shards[shard_id].positions = empty
                self._states[shard_id] = {
                    attr: np.empty(0, dtype=np.float64) for attr in self.attributes
                }
        self.epoch += 1
        return self.epoch
