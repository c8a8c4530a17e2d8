"""Patched replicas: a write through ``update_field`` keeps the replica.

The hook records the written offset, and the next ``stage`` ships only
the pending cells (an int64 offset plus a payload cell each, in one
burst) and scatters them with one kernel.  These tests pin that
contract: replicas stay byte-identical to their fragments under random
writes, a patch moves exactly its cells (``8 + width`` bytes each for a
raw replica, ``8 +`` the frame's offset width for an encoded one), a
write outside its frame or a patch that would cost as much as
re-staging drops the replica, a write the hook never sees still forces
a miss, a fault never leaves a stale or half-patched replica, and the
cost prediction prices the patch the read then pays.
"""

import numpy as np
import pytest

from repro.execution.context import ExecutionContext
from repro.execution.device import device_sum_column, run_device_batch
from repro.execution.operators import sum_column, update_field
from repro.faults.injector import (
    SITE_KERNEL_LAUNCH,
    SITE_PCIE_TRANSFER,
    FaultInjector,
)
from repro.faults.policy import RetryPolicy
from repro.hardware import Platform
from repro.layout.fragment import Fragment
from repro.layout.layout import Layout
from repro.layout.linearization import LinearizationKind
from repro.layout.region import Region
from repro.model.datatypes import FLOAT64
from repro.model.relation import Relation
from repro.model.schema import Schema
from repro.obs import Tracer
from repro.serving.server import LayoutBackend
from repro.serving.verifier import OLAP_ATTRIBUTES, build_item_store
from repro.model.datatypes import INT64
from repro.staging.cache import FRAME_ROWS, OFFSET_WIDTH, decode_frames
from repro.workload.queries import QueryShape, QuerySpec

ROWS = 100
WIDTH = 8


def price_store(platform, label="prices"):
    relation = Relation(label, Schema.of(("price", FLOAT64)), ROWS)
    fragment = Fragment(
        Region.full(relation), relation.schema, None, platform.host_memory,
        label=label,
    )
    fragment.append_columns({"price": np.arange(ROWS, dtype=np.float64)})
    return Layout(label, relation, [fragment])


def key_store(platform):
    """A 100-row int64 column of 0..99: one frame of 1 B offsets."""
    relation = Relation("keys", Schema.of(("key", INT64)), ROWS)
    fragment = Fragment(
        Region.full(relation), relation.schema, None, platform.host_memory,
        label="keys",
    )
    fragment.append_columns({"key": np.arange(ROWS, dtype=np.int64)})
    return Layout("keys", relation, [fragment])


def host_sum(store, attribute, platform):
    return sum_column(store, attribute, ExecutionContext(platform))


def assert_replicas_match(platform, read=None):
    """Every replica equals its fragment's column, byte for byte.

    A replica not read since its last write still differs at its
    pending offsets, which are masked out; every *read* attribute's
    replica (all of them when *read* is None) must have none.  An
    encoded replica's values are also exactly what its payload decodes
    to.
    """
    for entry in platform.staging.cache:
        if read is None or entry.attribute in read:
            assert not entry.pending
        keep = np.ones(len(entry.values), dtype=bool)
        keep[list(entry.pending)] = False
        column = entry.source.column(entry.attribute)
        assert entry.values[keep].tobytes() == column[keep].tobytes()
        if entry.frames is not None:
            decoded = decode_frames(entry.frames)
            assert decoded[keep].tobytes() == entry.values[keep].tobytes()


def warm_sum(store, platform, attribute="price"):
    """A read of a clean staged column, in its own context."""
    warm = ExecutionContext(platform)
    device_sum_column(store, attribute, warm)
    return warm.counters


class TestRandomizedWrites:
    STEPS = 2_000
    ROWS = 20_000
    #: A small hot set, so some cells are rewritten between two reads.
    HOT_CELLS = 32

    def test_replicas_stay_byte_identical_to_their_fragments(self):
        platform = Platform.paper_testbed()
        store = build_item_store(platform, self.ROWS)
        ctx = ExecutionContext(platform)
        for attribute in OLAP_ATTRIBUTES:
            device_sum_column(store, attribute, ctx)
        cache = platform.staging.cache
        assert len(cache) == len(OLAP_ATTRIBUTES)
        (im_id,) = store.fragments_for_attribute("i_im_id")
        assert cache.peek(im_id, "i_im_id").frames is not None
        rng = np.random.default_rng(27)
        written_since_read: set[tuple[str, int]] = set()
        rewrites = patched_reads = encoded_patches = drops = 0
        for __ in range(self.STEPS):
            step = rng.uniform()
            if step < 0.6:
                attribute = OLAP_ATTRIBUTES[int(rng.integers(2))]
                if rng.uniform() < 0.5:
                    position = int(rng.integers(self.HOT_CELLS))
                else:
                    position = int(rng.integers(self.ROWS))
                if attribute == "i_price":
                    value = float(rng.uniform(-1e6, 1e6))
                elif rng.uniform() < 0.9:
                    value = int(rng.integers(10_000))
                else:
                    # Often below the frame's base: the replica drops,
                    # and re-stages encoded around the new minimum.
                    value = -int(rng.integers(1, 200))
                rewrites += (attribute, position) in written_since_read
                written_since_read.add((attribute, position))
                staged = cache.peek(im_id, "i_im_id")
                fits = True
                if attribute == "i_im_id" and staged is not None:
                    base, codes = staged.frames[position // FRAME_ROWS].payload
                    delta = value - int(base[0])
                    fits = 0 <= delta <= np.iinfo(codes.dtype).max
                update_field(store, position, attribute, value, ctx)
                if staged is not None and cache.peek(im_id, "i_im_id") is None:
                    # Only a value outside its frame drops the replica.
                    assert not fits
                    drops += 1
                elif staged is not None:
                    assert fits
                continue
            patched_reads += any(entry.pending for entry in cache)
            encoded_patches += any(
                entry.pending and entry.frames is not None for entry in cache
            )
            if step < 0.8:
                attribute = OLAP_ATTRIBUTES[int(rng.integers(2))]
                answers = [device_sum_column(store, attribute, ctx)]
                attributes = [attribute]
            else:
                attributes = [
                    OLAP_ATTRIBUTES[int(index)]
                    for index in rng.integers(2, size=int(rng.integers(1, 6)))
                ]
                answers = run_device_batch(store, attributes, ctx)
            written_since_read.clear()
            for attribute, answer in zip(attributes, answers):
                assert answer == host_sum(store, attribute, platform)
            assert_replicas_match(platform, read=attributes)
        assert rewrites > 0
        assert patched_reads > 0
        assert encoded_patches > 0
        # Every read was served by a replica, except the first read of
        # i_im_id after each write outside its frame dropped it.
        assert drops > 0
        assert ctx.counters.staging_misses == len(OLAP_ATTRIBUTES) + drops
        assert cache.invalidations == drops
        assert platform.device_memory.used == cache.resident_bytes


class TestPatchCharge:
    @pytest.mark.parametrize("writes", [1, 5, 17])
    def test_a_patch_ships_exactly_its_cells(self, platform, ctx, writes):
        store = price_store(platform)
        device_sum_column(store, "price", ctx)
        clean = warm_sum(store, platform)
        for position in range(writes):
            update_field(store, position * 3, "price", -1.0 - position, ctx)
        patched = ExecutionContext(platform)
        total = device_sum_column(store, "price", patched)
        assert total == host_sum(store, "price", platform)
        counters = patched.counters
        assert counters.pcie_bytes - clean.pcie_bytes == writes * (
            OFFSET_WIDTH + WIDTH
        )
        assert counters.kernel_launches == clean.kernel_launches + 1
        assert counters.transfers == clean.transfers + 1
        assert (counters.staging_hits, counters.staging_misses) == (1, 0)
        assert counters.cycles > clean.cycles
        # Once patched, the replica is clean again.
        again = warm_sum(store, platform)
        assert again.pcie_bytes == clean.pcie_bytes
        assert again.cycles == clean.cycles

    @pytest.mark.parametrize("writes", [1, 5, 11])
    def test_an_encoded_patch_ships_its_frame_width(self, platform, ctx, writes):
        store = key_store(platform)
        device_sum_column(store, "key", ctx)
        entry = platform.staging.cache.peek(store.fragments[0], "key")
        # 0..99 is one frame: an 8 B base and 1 B offsets.
        assert entry.nbytes == 8 + ROWS
        clean = warm_sum(store, platform, "key")
        for position in range(writes):
            update_field(store, position * 3, "key", 50 + position, ctx)
        patched = ExecutionContext(platform)
        assert device_sum_column(store, "key", patched) == host_sum(
            store, "key", platform
        )
        counters = patched.counters
        assert counters.pcie_bytes - clean.pcie_bytes == writes * (OFFSET_WIDTH + 1)
        assert (counters.staging_hits, counters.staging_misses) == (1, 0)
        assert_replicas_match(platform)

    def test_a_write_outside_its_frame_drops_the_replica(self, platform, ctx):
        store = key_store(platform)
        device_sum_column(store, "key", ctx)
        update_field(store, 7, "key", 256, ctx)  # past 0 + 255
        assert platform.staging.cache.peek(store.fragments[0], "key") is None
        assert platform.staging.cache.invalidations == 1
        assert platform.device_memory.used == 0
        reread = ExecutionContext(platform)
        assert device_sum_column(store, "key", reread) == host_sum(
            store, "key", platform
        )
        assert reread.counters.staging_misses == 1

    def test_rewriting_a_cell_ships_it_once_with_the_last_value(
        self, platform, ctx
    ):
        store = price_store(platform)
        device_sum_column(store, "price", ctx)
        clean = warm_sum(store, platform)
        for value in (10.0, 20.0, 30.0):
            update_field(store, 4, "price", value, ctx)
        patched = ExecutionContext(platform)
        assert device_sum_column(store, "price", patched) == host_sum(
            store, "price", platform
        )
        assert patched.counters.pcie_bytes - clean.pcie_bytes == (
            OFFSET_WIDTH + WIDTH
        )
        entry = platform.staging.cache.peek(store.fragments[0], "price")
        assert entry.values[4] == 30.0

    def test_scatter_is_a_kernel_span(self, platform, ctx):
        from repro.obs.profile import layer_attribution
        from repro.obs.tracer import Tracer

        store = price_store(platform)
        device_sum_column(store, "price", ctx)
        update_field(store, 1, "price", 5.0, ctx)
        platform.tracer = tracer = Tracer()
        device_sum_column(store, "price", ExecutionContext(platform))
        names = {span.name: span.category for span in tracer.spans()}
        assert names["gpu-scatter"] == "kernel"
        assert layer_attribution(tracer)["kernel"] > 0


class TestThreshold:
    def test_patch_that_costs_a_full_restage_drops_the_replica(
        self, platform, ctx
    ):
        store = price_store(platform)
        fragment = store.fragments[0]
        device_sum_column(store, "price", ctx)
        limit = ROWS * WIDTH // (OFFSET_WIDTH + WIDTH)
        for position in range(limit - 1):
            update_field(store, position, "price", 1.0, ctx)
        entry = platform.staging.cache.peek(fragment, "price")
        assert entry is not None and entry.patch_bytes < entry.nbytes
        update_field(store, limit - 1, "price", 1.0, ctx)
        assert platform.staging.cache.peek(fragment, "price") is None
        assert platform.staging.cache.invalidations == 1
        assert platform.device_memory.used == 0
        reread = ExecutionContext(platform)
        assert device_sum_column(store, "price", reread) == host_sum(
            store, "price", platform
        )
        counters = reread.counters
        assert (counters.staging_hits, counters.staging_misses) == (0, 1)
        # The full column crosses again, plus the result scalar.
        assert counters.pcie_bytes == ROWS * WIDTH + WIDTH


class TestWideFragment:
    def test_write_keeps_the_other_attributes_replica_clean(self, platform, ctx):
        schema = Schema.of(("price", FLOAT64), ("cost", FLOAT64))
        relation = Relation("wide", schema, ROWS)
        fragment = Fragment(
            Region.full(relation), schema, LinearizationKind.NSM,
            platform.host_memory,
        )
        fragment.append_columns(
            {
                "price": np.arange(ROWS, dtype=np.float64),
                "cost": np.arange(ROWS, dtype=np.float64) * 2.0,
            }
        )
        store = Layout("wide", relation, [fragment])
        for attribute in ("price", "cost"):
            device_sum_column(store, attribute, ctx)
        update_field(store, 6, "price", -3.0, ctx)
        cache = platform.staging.cache
        assert cache.peek(fragment, "price").pending == {6}
        assert not cache.peek(fragment, "cost").pending
        read = ExecutionContext(platform)
        assert device_sum_column(store, "cost", read) == host_sum(
            store, "cost", platform
        )
        assert (read.counters.staging_hits, read.counters.staging_misses) == (1, 0)
        assert device_sum_column(store, "price", read) == host_sum(
            store, "price", platform
        )
        assert read.counters.staging_misses == 0
        assert_replicas_match(platform)


class TestMissedWritePath:
    def test_direct_fragment_write_forces_a_miss(self, platform, ctx):
        store = price_store(platform)
        fragment = store.fragments[0]
        device_sum_column(store, "price", ctx)
        fragment.update_field(3, "price", 1234.0)  # bypasses the hook
        reread = ExecutionContext(platform)
        assert device_sum_column(store, "price", reread) == host_sum(
            store, "price", platform
        )
        assert reread.counters.staging_misses == 1

    def test_hooked_write_after_a_missed_one_drops_the_replica(
        self, platform, ctx
    ):
        store = price_store(platform)
        fragment = store.fragments[0]
        device_sum_column(store, "price", ctx)
        fragment.update_field(3, "price", 1234.0)  # bypasses the hook
        update_field(store, 5, "price", 99.0, ctx)
        assert platform.staging.cache.peek(fragment, "price") is None
        reread = ExecutionContext(platform)
        assert device_sum_column(store, "price", reread) == host_sum(
            store, "price", platform
        )
        assert reread.counters.staging_misses == 1


def full_sum(attribute="price"):
    return QuerySpec(
        shape=QueryShape.FULL_SUM, relation_name="prices", attributes=(attribute,)
    )


class TestPatchFaults:
    @pytest.mark.parametrize(
        "site, retried",
        [
            (SITE_PCIE_TRANSFER, False),
            (SITE_KERNEL_LAUNCH, False),
            (SITE_PCIE_TRANSFER, True),
        ],
    )
    def test_faulted_patch_never_serves_a_stale_sum(self, site, retried):
        platform = Platform.paper_testbed()
        injector = FaultInjector(seed=11)
        injector.install(platform)
        store = price_store(platform)
        ctx = ExecutionContext(platform)
        device_sum_column(store, "price", ctx)
        update_field(store, 2, "price", 500.0, ctx)
        update_field(store, 9, "price", -7.5, ctx)
        entry = platform.staging.cache.peek(store.fragments[0], "price")
        stale = entry.values.copy()

        injector.arm(site, 1.0, max_faults=1)
        backend = LayoutBackend(platform, store)
        faulted = ExecutionContext(platform)
        if retried:
            faulted.retry = RetryPolicy(max_attempts=4, report=injector.report)
        assert backend.run(full_sum(), faulted) == host_sum(store, "price", platform)
        assert platform.device_memory.used == platform.staging.cache.resident_bytes
        if retried:
            # The retried burst landed: the replica served, patched.
            assert faulted.counters.fault_retries == 1
            assert faulted.counters.fault_fallbacks == 0
        else:
            # The host answered; the replica is untouched with its
            # offsets kept, so nothing is half-patched.
            assert faulted.counters.fault_fallbacks == 1
            assert entry.values.tobytes() == stale.tobytes()
            assert entry.pending == {2, 9}
        served = ExecutionContext(platform)
        assert backend.run(full_sum(), served) == host_sum(store, "price", platform)
        assert (served.counters.staging_hits, served.counters.fault_fallbacks) == (1, 0)
        assert_replicas_match(platform)
        report = injector.report
        assert report.injected == 1
        assert report.injected == (
            report.retried + report.fallen_back + report.recovered + report.surfaced
        )


class TestPrediction:
    def test_prediction_prices_the_patch_burst_stage_charges(self, platform, ctx):
        store = price_store(platform)
        fragment = store.fragments[0]
        device_sum_column(store, "price", ctx)
        # A second replica, so a lookup would reorder the LRU list.
        device_sum_column(price_store(platform, label="other"), "price", ctx)
        staging = platform.staging
        nbytes = ROWS * WIDTH
        assert staging.predicted_transfer_cost(fragment, "price") == 0.0
        for position in (1, 2, 3):
            update_field(store, position, "price", 8.0, ctx)

        cache = staging.cache
        before = (cache.hits, cache.misses, [id(entry) for entry in cache])
        predicted = staging.predicted_transfer_cost(fragment, "price")
        # Pure: no stats, no LRU movement.
        assert (cache.hits, cache.misses, [id(entry) for entry in cache]) == before
        assert predicted == staging.scheduler.predicted_cost(
            3 * (OFFSET_WIDTH + WIDTH)
        )
        assert 0.0 < predicted < staging.scheduler.predicted_cost(nbytes)

        tracer = platform.tracer = Tracer()
        read = ExecutionContext(platform)
        staging.stage([(fragment, "price", WIDTH)], read)
        (burst,) = [span for span in tracer.spans() if span.name == "pcie-burst"]
        assert burst.cycles == predicted
        assert staging.predicted_transfer_cost(fragment, "price") == 0.0
