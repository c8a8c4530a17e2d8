"""Simulated heterogeneous hardware: CPU, caches, GPU, PCIe, memories."""

from repro.hardware.cache import (
    AnalyticMemoryModel,
    CacheGeometry,
    CacheHierarchy,
    CacheLevel,
)
from repro.hardware.cpu import CPUModel
from repro.hardware.disk import DiskModel
from repro.hardware.event import Cycles, PerfCounters
from repro.hardware.gpu import GPUModel
from repro.hardware.interconnect import InterconnectModel
from repro.hardware.memory import Allocation, MemoryKind, MemorySpace
from repro.hardware.platform import Platform

__all__ = [
    "Cycles",
    "PerfCounters",
    "MemoryKind",
    "MemorySpace",
    "Allocation",
    "CacheGeometry",
    "CacheLevel",
    "CacheHierarchy",
    "AnalyticMemoryModel",
    "CPUModel",
    "DiskModel",
    "GPUModel",
    "InterconnectModel",
    "Platform",
]
