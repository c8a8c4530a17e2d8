"""Serving fixtures: a replica that silently stops tracking its fragment."""

import pytest

from repro.staging.cache import StagedColumn


@pytest.fixture
def skipped_patch(monkeypatch):
    """The skipped-patch mutant: a patch clears its offsets, copies no cell.

    Staging still charges the patch burst and scatter kernel, so only an
    answer computed from the replica, checked against an oracle that
    reads the host columns, can tell the replica went stale.
    """
    monkeypatch.setattr(
        StagedColumn, "apply_patch", lambda entry: entry.pending.clear()
    )
