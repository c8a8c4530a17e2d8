"""Encoded replicas: integer columns stage as frame-of-reference payloads.

``acquire_set`` encodes each :data:`~repro.staging.cache.FRAME_ROWS`-row
frame of an integer column (an int64 base plus the narrowest unsigned
offsets), allocates and ships only the payload, and keeps ``values``
decoded from that payload for the data plane.  These tests pin the
codec round trip at frame boundaries, the patch and drop rules on
encoded replicas, that other columns stay raw, and that every
prediction prices the payload that ``stage`` and the kernels charge.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution.context import ExecutionContext
from repro.execution.device import device_sum_column
from repro.execution.operators import sum_column, update_field
from repro.fusion import Pipeline, compile_pipeline
from repro.fusion.costs import predicted_route_costs
from repro.fusion.device import run_fused_device
from repro.fusion.oracle import run_unfused_device
from repro.hardware import Platform
from repro.obs import Tracer
from repro.serving.server import BATCH_16
from repro.serving.verifier import (
    build_tenants,
    identity_mismatches,
    serve_once,
)
from repro.staging.cache import (
    FRAME_ROWS,
    OFFSET_WIDTH,
    StagedColumn,
    decode_frames,
    encode_frames,
)

from tests.fusion.stores import dsm_store, fusion_columns, fusion_relation
from tests.staging.test_patch import key_store, price_store

SERVING_ROWS = 20_000


def host_sum(store, attribute, platform):
    return sum_column(store, attribute, ExecutionContext(platform))


def payload_mismatches(platform) -> int:
    """Cells where an encoded replica's values differ from its payload."""
    wrong = 0
    for entry in platform.staging.cache:
        if entry.frames is not None:
            wrong += int(np.count_nonzero(decode_frames(entry.frames) != entry.values))
    return wrong


@st.composite
def integer_columns(draw):
    """An int8..int64 column whose length sits near a frame boundary."""
    dtype = np.dtype(draw(st.sampled_from(["i1", "i2", "i4", "i8"])))
    info = np.iinfo(dtype)
    low = draw(st.integers(int(info.min), int(info.max)))
    high = draw(st.integers(low, int(info.max)))
    frames = draw(st.integers(0, 2))
    length = max(1, frames * FRAME_ROWS + draw(st.integers(-2, 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.integers(low, high, size=length, dtype=dtype, endpoint=True)


class TestFrameCodec:
    @given(integer_columns())
    @settings(max_examples=40, deadline=None)
    def test_frames_round_trip(self, values):
        frames = encode_frames(values)
        assert len(frames) == -(-len(values) // FRAME_ROWS)
        decoded = decode_frames(frames)
        assert decoded.dtype == values.dtype
        assert decoded.tobytes() == values.tobytes()
        probes = {0, len(values) - 1, FRAME_ROWS - 1, FRAME_ROWS, 2 * FRAME_ROWS - 1}
        for index in sorted(probe for probe in probes if probe < len(values)):
            frame = frames[index // FRAME_ROWS]
            assert frame.decode_at(index % FRAME_ROWS) == values[index]


class TestEncodedReplicas:
    def test_an_integer_replica_holds_its_payload(self, platform, ctx):
        store = key_store(platform)
        device_sum_column(store, "key", ctx)
        entry = platform.staging.cache.peek(store.fragments[0], "key")
        assert entry.frames is not None
        assert entry.nbytes == platform.device_memory.used == 8 + 100
        assert ctx.counters.pcie_bytes == 8 + 100 + 8  # payload + result

    def test_a_write_inside_its_frame_patches_then_hits(self, platform, ctx):
        store = key_store(platform)
        fragment = store.fragments[0]
        device_sum_column(store, "key", ctx)
        update_field(store, 42, "key", 255, ctx)  # base 0 + 255 fits u1
        entry = platform.staging.cache.peek(fragment, "key")
        assert entry.pending == {42}
        patched = ExecutionContext(platform)
        assert device_sum_column(store, "key", patched) == host_sum(
            store, "key", platform
        )
        assert patched.counters.pcie_bytes == (OFFSET_WIDTH + 1) + 8
        base, codes = entry.frames[0].payload
        assert int(codes[42]) + int(base[0]) == entry.values[42] == 255
        warm = ExecutionContext(platform)
        device_sum_column(store, "key", warm)
        assert (warm.counters.staging_hits, warm.counters.pcie_bytes) == (1, 8)
        assert platform.staging.cache.invalidations == 0

    def test_a_write_outside_its_frame_drops_one_replica(self, platform, ctx):
        store = key_store(platform)
        device_sum_column(store, "key", ctx)
        update_field(store, 3, "key", -1, ctx)  # below the frame's base
        assert platform.staging.cache.peek(store.fragments[0], "key") is None
        assert platform.staging.cache.invalidations == 1
        reread = ExecutionContext(platform)
        assert device_sum_column(store, "key", reread) == host_sum(
            store, "key", platform
        )
        entry = platform.staging.cache.peek(store.fragments[0], "key")
        assert int(entry.frames[0].payload[0][0]) == -1  # the new base

    def test_a_float_column_stays_raw(self, platform, ctx):
        store = price_store(platform)
        device_sum_column(store, "price", ctx)
        entry = platform.staging.cache.peek(store.fragments[0], "price")
        assert entry.frames is None
        assert entry.nbytes == 100 * 8

    def test_an_incompressible_integer_column_stays_raw(self, platform, ctx):
        store = key_store(platform)
        fragment = store.fragments[0]
        fragment.update_field(0, "key", -(2**62))  # span needs u8 offsets
        device_sum_column(store, "key", ctx)
        entry = platform.staging.cache.peek(fragment, "key")
        assert entry.frames is None and entry.nbytes == 100 * 8


class TestPredictionsPriceThePayload:
    """Predictions and charges read the same bytes, cold and warm."""

    def _store(self, platform):
        return dsm_store(platform, fusion_relation(), fusion_columns())

    @pytest.mark.parametrize("warm", [False, True])
    def test_a_column_sum(self, warm):
        platform = Platform.paper_testbed()
        store = self._store(platform)
        plan = compile_pipeline(Pipeline.scan("key").aggregate("sum"))
        (fragment,) = store.fragments_for_attribute("key")
        if warm:
            run_unfused_device(plan, store, ExecutionContext(platform))
        staging = platform.staging
        transfer = staging.predicted_transfer_cost(fragment, "key")
        column = staging.stream([fragment], "key")
        assert column.nbytes == 8 + 2 * fragment.filled
        assert column.decoded == fragment.filled
        kernel = platform.gpu.reduction_cost(
            column.count, column.width, nbytes=column.nbytes, decoded=column.decoded
        )
        predicted = predicted_route_costs(plan, store, platform)["unfused-gpu"]
        tracer = platform.tracer = Tracer()
        ctx = ExecutionContext(platform)
        run_unfused_device(plan, store, ctx)
        spans = list(tracer.spans())
        (reduce,) = [span for span in spans if span.name == "gpu-reduce(key)"]
        # Operand bursts run before the kernel; the result copy after it.
        staged = sum(
            span.cycles
            for span in spans
            if span.name == "pcie-burst" and span.end <= reduce.begin
        )
        assert staged == transfer
        assert reduce.end == reduce.begin + kernel
        assert predicted == pytest.approx(ctx.cycles, rel=1e-12)
        assert (transfer == 0.0) is warm

    def test_a_warm_fused_pipeline(self):
        platform = Platform.paper_testbed()
        store = self._store(platform)
        plan = compile_pipeline(
            Pipeline.scan("key").filter(lambda v: v < 400).aggregate("sum", on="price")
        )
        run_fused_device(plan, store, ExecutionContext(platform))
        predicted = predicted_route_costs(plan, store, platform)["fused-gpu"]
        ctx = ExecutionContext(platform)
        run_fused_device(plan, store, ctx)
        assert predicted == pytest.approx(ctx.cycles, rel=1e-12)
        assert ctx.counters.bytes_read == (8 + 2 * 2_048) + 8 * 2_048

    def test_the_uncached_path_ships_the_cold_payload(self):
        platform = Platform.paper_testbed()
        store = self._store(platform)
        cold = ExecutionContext(platform)
        device_sum_column(store, "key", cold)
        capped_platform = Platform.paper_testbed()
        capped_platform.staging.capacity_bytes = 0
        capped = ExecutionContext(capped_platform)
        device_sum_column(self._store(capped_platform), "key", capped)
        assert capped.counters.pcie_bytes == cold.counters.pcie_bytes == 8 + 2 * 2_048 + 8
        assert capped.cycles == cold.cycles


#: Wrong answers ``skipped_patch`` gives on :func:`serving_cell`, by seed.
SKIPPED_PATCH_MISMATCHES = {5: 200, 23: 185, 101: 217}


def serving_cell(seed):
    """The serving smoke cell: 4 tenants over a 20k-row store."""
    return serve_once(
        seed, SERVING_ROWS, build_tenants(4, 40_000.0), 3e6, BATCH_16, max_backlog=48
    )


@pytest.fixture
def values_only_patch(monkeypatch):
    """A patch that refreshes ``values`` from the source, not the payload."""

    def patch(entry):
        offsets = np.fromiter(entry.pending, dtype=np.int64)
        entry.values[offsets] = entry.source.column(entry.attribute)[offsets]
        entry.pending.clear()

    monkeypatch.setattr(StagedColumn, "apply_patch", patch)


class TestMutants:
    @pytest.mark.parametrize("seed", [5, 23, 101])
    def test_clean_replicas_decode_to_their_values(self, seed):
        outcome = serving_cell(seed)
        encoded = [e for e in outcome.platform.staging.cache if e.frames is not None]
        assert [entry.attribute for entry in encoded] == ["i_im_id"]
        assert payload_mismatches(outcome.platform) == 0
        assert identity_mismatches(outcome, SERVING_ROWS) == 0

    @pytest.mark.parametrize("seed", [5, 23, 101])
    def test_a_values_only_patch_leaves_its_payload_stale(
        self, seed, values_only_patch
    ):
        outcome = serving_cell(seed)
        assert payload_mismatches(outcome.platform) > 0

    @pytest.mark.parametrize("seed", [5, 23, 101])
    def test_a_skipped_patch_is_a_wrong_answer(self, seed, skipped_patch):
        wrong = identity_mismatches(serving_cell(seed), SERVING_ROWS)
        assert wrong == SKIPPED_PATCH_MISMATCHES[seed]
