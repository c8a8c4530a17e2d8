"""Batch-vs-scalar trace equivalence: the license for ``access_batch``.

The vectorized :meth:`CacheHierarchy.access_batch` must be a pure
performance transform — byte-identical counters, cycles and LRU state
to replaying the same trace through the scalar :meth:`access` loop.
These tests pin that on every access shape the operators generate
(sequential, strided, random), plus warm replays, mixed sizes, and the
spillover state (``_last_line``/``_stream_run``) that couples batches.
"""

import numpy as np
import pytest

from repro.errors import StorageError
from repro.hardware.event import PerfCounters
from repro.hardware.platform import Platform


def hierarchy_state(hierarchy):
    """Full observable state: per-level LRU order, tallies, stream run."""
    return (
        hierarchy._last_line,
        hierarchy._stream_run,
        tuple(
            (
                level.hits,
                level.misses,
                tuple(tuple(lru) for lru in level._sets),
                frozenset(level._resident),
            )
            for level in hierarchy.levels
        ),
    )


def replay_both(addresses, sizes, repetitions=1):
    """Run one trace through scalar and batch paths on fresh machines."""
    platform = Platform.paper_testbed()
    scalar_h = platform.make_trace_hierarchy()
    batch_h = platform.make_trace_hierarchy()
    scalar_c, batch_c = PerfCounters(), PerfCounters()
    addresses = np.asarray(addresses, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    for _ in range(repetitions):
        scalar_delta = 0.0
        for address, size in zip(addresses.tolist(), sizes.tolist()):
            scalar_delta += scalar_h.access(address, size, scalar_c)
        batch_delta = batch_h.access_batch(addresses, sizes, batch_c)
    return (scalar_h, scalar_c, scalar_delta), (batch_h, batch_c, batch_delta)


def assert_identical(scalar, batch):
    scalar_h, scalar_c, scalar_delta = scalar
    batch_h, batch_c, batch_delta = batch
    # Byte-identical: no tolerance on counters or LRU state.  The batch
    # path performs the same float additions in the same order (seeded
    # cumsum), so the cycle totals match exactly.
    assert scalar_c.snapshot() == batch_c.snapshot()
    assert hierarchy_state(scalar_h) == hierarchy_state(batch_h)
    # The return values use different (equally valid) groupings of the
    # same additions — summed per-access deltas versus an end-minus-
    # start difference — so they agree to float round-off only.
    assert scalar_delta == pytest.approx(batch_delta, rel=1e-12)


class TestBatchScalarEquivalence:
    def test_sequential_trace(self):
        n = 20_000
        addresses = np.arange(0, n * 64, 64)
        assert_identical(*replay_both(addresses, np.full(n, 64)))

    def test_strided_trace(self):
        n = 20_000
        addresses = np.arange(0, n * 96, 96)
        assert_identical(*replay_both(addresses, np.full(n, 8)))

    def test_random_trace(self):
        rng = np.random.default_rng(17)
        addresses = rng.integers(0, 1 << 26, size=20_000)
        assert_identical(*replay_both(addresses, np.full(20_000, 8)))

    def test_mixed_sizes(self):
        rng = np.random.default_rng(23)
        addresses = rng.integers(0, 1 << 22, size=10_000)
        sizes = rng.integers(1, 300, size=10_000)
        assert_identical(*replay_both(addresses, sizes))

    def test_warm_replay_hits_identically(self):
        # Replaying an LLC-resident trace exercises the hit paths and
        # the cross-batch prefetcher spillover state.
        n = 3_000
        addresses = np.arange(0, n * 96, 96)
        assert_identical(*replay_both(addresses, np.full(n, 8), repetitions=3))

    def test_single_access(self):
        assert_identical(*replay_both([4096], [128]))

    def test_multi_line_spans(self):
        # Accesses straddling several lines expand to per-line touches.
        addresses = np.arange(0, 40 * 100, 100)
        assert_identical(*replay_both(addresses, np.full(40, 200)))


class TestBatchContract:
    def test_zero_size_entries_are_free(self, platform: Platform):
        hierarchy = platform.make_trace_hierarchy()
        counters = PerfCounters()
        delta = hierarchy.access_batch(
            np.array([0, 64], dtype=np.int64),
            np.array([0, 0], dtype=np.int64),
            counters,
        )
        assert delta == 0.0
        assert counters.cycles == 0.0

    def test_negative_size_raises(self, platform: Platform):
        hierarchy = platform.make_trace_hierarchy()
        with pytest.raises(StorageError):
            hierarchy.access_batch(
                np.array([0], dtype=np.int64),
                np.array([-8], dtype=np.int64),
                PerfCounters(),
            )

    def test_mismatched_shapes_rejected(self, platform: Platform):
        hierarchy = platform.make_trace_hierarchy()
        with pytest.raises(StorageError):
            hierarchy.access_batch(
                np.array([0, 64], dtype=np.int64),
                np.array([8], dtype=np.int64),
                PerfCounters(),
            )

    def test_empty_batch(self, platform: Platform):
        hierarchy = platform.make_trace_hierarchy()
        counters = PerfCounters()
        delta = hierarchy.access_batch(
            np.array([], dtype=np.int64), np.array([], dtype=np.int64), counters
        )
        assert delta == 0.0
        assert counters.snapshot() == PerfCounters().snapshot()

