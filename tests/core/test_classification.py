"""Per-axis classification derivation unit tests."""

import pytest

from repro.core.classification import (
    derive_flexibility,
    derive_layout_handling,
    derive_location,
    derive_processors,
    derive_scheme,
)
from repro.core.taxonomy import (
    FragmentScheme,
    LayoutFlexibility,
    LayoutHandling,
    LocationLocality,
    LocationTarget,
    ProcessorSupport,
)
from repro.engines.base import (
    EngineCapabilities,
    FragmentationChoice,
    MultiLayoutSupport,
    WorkloadSupport,
)
from repro.errors import ClassificationError, EngineError
from repro.layout.linearization import LinearizationKind
from repro.layout.partitioning import PartitioningOrder


def caps(**overrides):
    defaults = dict(
        fragmentation_choice=FragmentationChoice.VERTICAL,
        constrained_order=None,
        fat_formats=frozenset({LinearizationKind.NSM}),
        per_fragment_choice=False,
        multi_layout=MultiLayoutSupport.SINGLE,
        workload=WorkloadSupport.HTAP,
    )
    defaults.update(overrides)
    return EngineCapabilities(**defaults)


class TestHandling:
    def test_single(self):
        assert derive_layout_handling(1, caps()) is LayoutHandling.SINGLE

    def test_builtin_multi(self):
        assert (
            derive_layout_handling(2, caps(multi_layout=MultiLayoutSupport.BUILT_IN))
            is LayoutHandling.MULTI_BUILT_IN
        )

    def test_emulated_multi(self):
        assert (
            derive_layout_handling(3, caps(multi_layout=MultiLayoutSupport.EMULATED))
            is LayoutHandling.MULTI_EMULATED
        )

    def test_zero_layouts_rejected(self):
        with pytest.raises(ClassificationError):
            derive_layout_handling(0, caps())


class TestFlexibility:
    def test_none_is_inflexible(self):
        assert (
            derive_flexibility(caps(fragmentation_choice=FragmentationChoice.NONE))
            is LayoutFlexibility.INFLEXIBLE
        )

    def test_one_technique_is_weak(self):
        for choice in (FragmentationChoice.VERTICAL, FragmentationChoice.HORIZONTAL):
            assert (
                derive_flexibility(caps(fragmentation_choice=choice))
                is LayoutFlexibility.WEAK
            )

    def test_both_with_order_is_constrained_strong(self):
        capability = caps(
            fragmentation_choice=FragmentationChoice.BOTH,
            constrained_order=PartitioningOrder.VERTICAL_THEN_HORIZONTAL,
        )
        assert derive_flexibility(capability) is LayoutFlexibility.STRONG_CONSTRAINED

    def test_both_without_order_is_unconstrained(self):
        capability = caps(fragmentation_choice=FragmentationChoice.BOTH)
        assert derive_flexibility(capability) is LayoutFlexibility.STRONG_UNCONSTRAINED

    def test_order_on_weak_engine_rejected(self):
        with pytest.raises(EngineError):
            caps(constrained_order=PartitioningOrder.VERTICAL_THEN_HORIZONTAL)


class TestProcessors:
    def test_cpu_only(self):
        assert derive_processors(caps()) is ProcessorSupport.CPU

    def test_gpu_only(self):
        capability = caps(host_execution=False, device_execution=True)
        assert derive_processors(capability) is ProcessorSupport.GPU

    def test_both(self):
        capability = caps(device_execution=True)
        assert derive_processors(capability) is ProcessorSupport.CPU_GPU

    def test_nowhere_rejected(self):
        with pytest.raises(EngineError):
            caps(host_execution=False, device_execution=False)


class TestLocationAndScheme:
    """Location/scheme derivations against live engines (richer cases
    are covered by the full survey test)."""

    def test_host_centralized(self, loaded_item_engine_factory):
        from repro.engines import HyriseEngine

        engine, __ = loaded_item_engine_factory(HyriseEngine)
        target, locality, label = derive_location(engine, "item")
        assert target is LocationTarget.HOST_MEMORY_ONLY
        assert locality is LocationLocality.CENTRALIZED
        assert label == "Host + Host centr."

    def test_device_only(self, loaded_item_engine_factory):
        from repro.engines import GpuTxEngine

        engine, __ = loaded_item_engine_factory(GpuTxEngine)
        target, __, label = derive_location(engine, "item")
        assert target is LocationTarget.DEVICE_MEMORY_ONLY
        assert label == "Dev. + Dev. centr."

    def test_delegation_beats_replication(self, loaded_item_engine_factory):
        from repro.engines import ES2Engine

        engine, __ = loaded_item_engine_factory(ES2Engine, partition_rows=128)
        # ES2 has replica layouts AND a delegation policy; delegation wins.
        assert derive_scheme(engine, "item") is FragmentScheme.DELEGATION

    def test_replication_detected_from_copies(self, loaded_item_engine_factory):
        from repro.engines import FracturedMirrorsEngine

        engine, __ = loaded_item_engine_factory(FracturedMirrorsEngine)
        assert derive_scheme(engine, "item") is FragmentScheme.REPLICATION

    def test_no_scheme_for_single_layout(self, loaded_item_engine_factory):
        from repro.engines import HyriseEngine

        engine, __ = loaded_item_engine_factory(HyriseEngine)
        assert derive_scheme(engine, "item") is FragmentScheme.NONE

    def test_a_pinned_replica_is_a_device_copy(self, loaded_item_engine_factory):
        from repro.core.classification import classify
        from repro.engines import CoGaDBEngine
        from repro.execution import ExecutionContext

        engine, platform = loaded_item_engine_factory(CoGaDBEngine)
        host_only = classify(engine, "item")
        assert host_only.location_target is LocationTarget.HOST_MEMORY_ONLY
        assert host_only.scheme is FragmentScheme.NONE
        assert host_only.layout_handling is LayoutHandling.SINGLE
        engine.place_columns("item", ("i_price",), ExecutionContext(platform))
        placed = classify(engine, "item")
        assert placed.location_target is LocationTarget.MIXED
        assert placed.scheme is FragmentScheme.REPLICATION
        assert placed.layout_handling is LayoutHandling.MULTI_BUILT_IN

    def test_shared_fragments_are_not_replication(self, loaded_item_engine_factory):
        """Peloton's logical layout shares physical tiles: views, not
        copies — scheme must not degrade to replication (it is
        delegation via the logical-tile catalog anyway)."""
        from repro.engines import PelotonEngine

        engine, __ = loaded_item_engine_factory(PelotonEngine, tile_group_rows=128)
        assert derive_scheme(engine, "item") is FragmentScheme.DELEGATION
