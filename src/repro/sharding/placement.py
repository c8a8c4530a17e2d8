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

The map is also **versioned** for elastic rebalancing
(:mod:`repro.rebalance`): every committed split/merge/move cutover
bumps :attr:`ShardMap.epoch` and atomically installs the new
placement.  Routing reads the epoch at plan time, so in-flight plans
keep naming their plan-time nodes while new plans see the new
placement.  Shard ids are stable forever — a merged-away shard stays
in the dense list as an empty shard rather than renumbering its
survivors — and once the first rebalance commits, row ownership is
tracked by an explicit position→shard assignment overlay instead of
the static hash/range geometry.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.distributed.cluster import Cluster
from repro.distributed.dfs import BlockStore
from repro.errors import DistributedError, MigrationInProgress

__all__ = [
    "ShardingScheme",
    "Shard",
    "ShardMap",
    "serialize_columns",
    "deserialize_columns",
]

#: Knuth's multiplicative constant: cheap, deterministic row spreading.
_HASH_MULTIPLIER = 2654435761


def hash_shard_of(position: int, shard_count: int) -> int:
    """The hash-scheme shard owning a global row *position*."""
    return ((position * _HASH_MULTIPLIER) & 0x7FFFFFFF) % shard_count


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
    """

    shard_id: int
    positions: np.ndarray
    primary: str
    path: str
    #: Node names that served this shard before a promotion (audit trail
    #: of the failover state machine).
    former_primaries: list[str] = field(default_factory=list)

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
        self.scheme = scheme
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
        #: position -> shard_id overlay, materialized at the first
        #: rebalance commit (None while the static geometry still
        #: describes ownership exactly).
        self._assignment: np.ndarray | None = None
        #: Shard ids with an in-flight live migration (single-writer
        #: guard: a second migration naming one of these is refused).
        self._migrating: set[int] = set()
        self._range_bounds: np.ndarray | None = None
        every_position = np.arange(self.row_count)
        if scheme is ShardingScheme.RANGE:
            splits = np.array_split(every_position, shard_count)
            self._range_bounds = np.array(
                [split[0] if split.size else self.row_count for split in splits]
            )
        else:
            owners = ((every_position * _HASH_MULTIPLIER) & 0x7FFFFFFF) % shard_count
            splits = [every_position[owners == sid] for sid in range(shard_count)]
        for shard_id, positions in enumerate(splits):
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
        if self._assignment is not None:
            return int(self._assignment[position])
        if self.scheme is ShardingScheme.HASH:
            return hash_shard_of(position, self.shard_count)
        assert self._range_bounds is not None
        return int(
            np.searchsorted(self._range_bounds, position, side="right") - 1
        )

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

        The final transition of the failover state machine: the old
        primary is recorded in ``former_primaries`` and the shard
        serves from its new home.
        """
        shard = self.shards[shard_id]
        if shard.primary != node_name:
            shard.former_primaries.append(shard.primary)
            shard.primary = node_name
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

    def _materialize_assignment(self) -> np.ndarray:
        """The explicit position→shard overlay, built on first rebalance."""
        if self._assignment is None:
            assignment = np.empty(self.row_count, dtype=np.int64)
            for shard in self.shards:
                assignment[shard.positions] = shard.shard_id
            self._assignment = assignment
        return self._assignment

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

    def commit_move(
        self,
        shard_id: int,
        path: str,
        primary: str,
        state: dict[str, np.ndarray],
    ) -> int:
        """Cut a completed *move* migration over; returns the new epoch.

        The shard's rows are unchanged; its base file, primary, and
        serving state are atomically re-pointed at the migration
        destination.  The old primary is kept in the audit trail.
        """
        shard = self.shards[shard_id]
        self._check_state(shard.positions, state)
        if shard.primary != primary:
            shard.former_primaries.append(shard.primary)
            shard.primary = primary
        shard.path = path
        self._states[shard_id] = state
        self.epoch += 1
        return self.epoch

    def commit_split(
        self,
        shard_id: int,
        left_positions: np.ndarray,
        right_positions: np.ndarray,
        left_path: str,
        right_path: str,
        left_primary: str,
        right_primary: str,
        left_state: dict[str, np.ndarray],
        right_state: dict[str, np.ndarray],
    ) -> tuple[int, int]:
        """Cut a completed *split* over; returns ``(new_shard_id, epoch)``.

        The left half keeps *shard_id*; the right half becomes a brand
        new shard appended to the dense list.  The two halves must
        exactly partition the shard's current rows.
        """
        shard = self.shards[shard_id]
        combined = np.sort(np.concatenate([left_positions, right_positions]))
        if not np.array_equal(combined, shard.positions):
            raise DistributedError(
                f"split halves do not partition shard {shard_id}'s rows"
            )
        if not left_positions.size or not right_positions.size:
            raise DistributedError("both split halves must own rows")
        self._check_state(left_positions, left_state)
        self._check_state(right_positions, right_state)
        assignment = self._materialize_assignment()
        new_id = len(self.shards)
        shard.positions = np.sort(left_positions)
        shard.path = left_path
        if shard.primary != left_primary:
            shard.former_primaries.append(shard.primary)
            shard.primary = left_primary
        self._states[shard_id] = left_state
        right = Shard(
            new_id, np.sort(right_positions), primary=right_primary,
            path=right_path,
        )
        self.shards.append(right)
        self._states[new_id] = right_state
        assignment[right.positions] = new_id
        self.epoch += 1
        return new_id, self.epoch

    def commit_merge(
        self,
        winner_id: int,
        loser_id: int,
        path: str,
        primary: str,
        state: dict[str, np.ndarray],
    ) -> int:
        """Cut a completed *merge* over; returns the new epoch.

        The winner absorbs every row the loser owned; the loser stays
        in the dense list as an empty shard (ids are never renumbered),
        and the router prunes it from all future scatters.
        """
        if winner_id == loser_id:
            raise DistributedError("cannot merge a shard into itself")
        winner = self.shards[winner_id]
        loser = self.shards[loser_id]
        merged = np.sort(np.concatenate([winner.positions, loser.positions]))
        self._check_state(merged, state)
        assignment = self._materialize_assignment()
        assignment[loser.positions] = winner_id
        winner.positions = merged
        winner.path = path
        if winner.primary != primary:
            winner.former_primaries.append(winner.primary)
            winner.primary = primary
        self._states[winner_id] = state
        loser.positions = np.empty(0, dtype=np.int64)
        self._states[loser_id] = {
            attr: np.empty(0, dtype=np.float64) for attr in self.attributes
        }
        self.epoch += 1
        return self.epoch
