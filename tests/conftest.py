"""Shared fixtures: platforms, schemas, loaded relations."""

from __future__ import annotations

import sys
import types

import numpy as np
import pytest
from hypothesis import settings

# Derandomize property tests: the suite must be deterministic run to
# run (shrunk counterexamples are committed as regression tests).
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

from repro.hardware import Platform
from repro.execution import ExecutionContext
from repro.model import INT32, Relation, Schema
from repro.workload import generate_items, item_schema


@pytest.fixture
def platform() -> Platform:
    """A fresh paper-testbed platform per test (fresh machine)."""
    return Platform.paper_testbed()


@pytest.fixture
def ctx(platform: Platform) -> ExecutionContext:
    """A single-threaded execution context on the fresh platform."""
    return ExecutionContext(platform)


@pytest.fixture
def abc_schema() -> Schema:
    """Figure 3's example schema R(A, B, C, D, E), all INT32."""
    return Schema.of(
        ("A", INT32), ("B", INT32), ("C", INT32), ("D", INT32), ("E", INT32)
    )


@pytest.fixture
def abc_relation(abc_schema: Schema) -> Relation:
    """Figure 3's example relation with 4 rows."""
    return Relation("R", abc_schema, 4)


@pytest.fixture
def abc_rows() -> list[tuple[int, ...]]:
    """Figure 3's rows: (a_i, b_i, c_i, d_i, e_i) encoded as integers."""
    return [(i * 10 + 1, i * 10 + 2, i * 10 + 3, i * 10 + 4, i * 10 + 5) for i in range(4)]


@pytest.fixture
def small_items() -> dict[str, np.ndarray]:
    """500 deterministic item rows."""
    return generate_items(500)


@pytest.fixture
def loaded_item_engine_factory(small_items):
    """Factory: build any engine class loaded with the small item table."""

    def build(engine_cls, **kwargs):
        platform = Platform.paper_testbed()
        engine = engine_cls(platform, **kwargs)
        engine.create("item", item_schema())
        engine.load("item", small_items)
        return engine, platform

    return build


@pytest.fixture
def fake_plane(monkeypatch):
    """Register a cheap ``repro.verify`` plane that records its arguments."""
    from repro import verify
    from repro.obs.bench import make_bench_record

    module = types.ModuleType("fake_plane")
    module.SITES = ("a", "b")
    module.ok = True
    module.calls = []

    def run(seeds, sites, smoke):
        module.calls.append((seeds, sites, smoke))
        return make_bench_record("fake", ok=module.ok, metrics={}, smoke=smoke)

    module.verify = run
    monkeypatch.setitem(sys.modules, "fake_plane", module)
    monkeypatch.setitem(verify.PLANES, "fake", "fake_plane")
    return module


@pytest.fixture
def skipped_patch(monkeypatch):
    """The skipped-patch mutant: a patch clears its offsets, copies no cell.

    Staging still charges the patch burst and scatter kernel, so only an
    answer computed from the replica, checked against an oracle that
    reads the host columns, can tell the replica went stale.
    """
    from repro.staging.cache import StagedColumn

    monkeypatch.setattr(
        StagedColumn, "apply_patch", lambda entry: entry.pending.clear()
    )
