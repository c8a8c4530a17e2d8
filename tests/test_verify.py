"""The one verification entry point: ``python -m repro.verify <plane>``.

Its flags are tested in ``test_cli.py``; this file covers records,
exit status and the plane protocol.
"""

from __future__ import annotations

import importlib
import json
import pathlib
import re

import pytest

from repro import verify as cli
from repro.obs.bench import validate_bench_record


class TestRecord:
    def test_output_writes_a_valid_stamped_record(self, fake_plane, tmp_path):
        output = tmp_path / "BENCH_fake.json"
        assert cli.main(["fake", "--output", str(output)]) == 0
        record = json.loads(output.read_text())
        assert validate_bench_record(record) == []
        assert record["bench"] == "fake"
        assert record["wall_seconds"] >= 0.0

    def test_nothing_written_without_output(self, fake_plane, tmp_path,
                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["fake"]) == 0
        assert list(tmp_path.iterdir()) == []

    def test_failed_record_exits_1(self, fake_plane):
        fake_plane.ok = False
        assert cli.main(["fake"]) == 1


def test_run_twice_compares_full_records():
    class Result:
        def __init__(self, value):
            self.value = value

        def to_dict(self):
            return {"value": self.value}

    values = iter([1, 1, 2, 3])
    first, deterministic = cli.run_twice(lambda: Result(next(values)))
    assert first.value == 1 and deterministic
    first, deterministic = cli.run_twice(lambda: Result(next(values)))
    assert first.value == 2 and not deterministic


@pytest.mark.parametrize("plane", sorted(cli.PLANES))
def test_every_plane_exposes_the_protocol(plane):
    module = importlib.import_module(cli.PLANES[plane])
    assert callable(module.verify)
    assert all(isinstance(site, str) for site in getattr(module, "SITES", ()))


@pytest.mark.parametrize("plane", sorted(cli.PLANES))
def test_every_plane_has_a_smoke_baseline(plane):
    root = pathlib.Path(__file__).resolve().parents[1]
    path = root / "benchmarks" / "baselines" / f"BENCH_{plane}.smoke.json"
    record = json.loads(path.read_text(encoding="utf-8"))
    assert validate_bench_record(record) == []
    assert record["bench"] == plane and record["smoke"] is True


def test_ci_verify_matrix_lists_every_plane():
    # Read as text: the tier-1 job installs no YAML parser.
    root = pathlib.Path(__file__).resolve().parents[1]
    workflow = (root / ".github" / "workflows" / "ci.yml").read_text(
        encoding="utf-8"
    )
    (listed,) = re.findall(r"^\s*plane: \[(.*)\]\s*$", workflow, re.MULTILINE)
    names = sorted(name.strip() for name in listed.split(","))
    assert names == sorted(cli.PLANES)
    included = re.findall(r"^\s*- plane: (\S+)\s*$", workflow, re.MULTILINE)
    assert included and set(included) <= set(cli.PLANES)


def test_a_real_plane_end_to_end(tmp_path):
    output = tmp_path / "BENCH_recovery.json"
    argv = ["recovery", "--smoke", "--seeds", "5", "--output", str(output)]
    assert cli.main(argv) == 0
    record = json.loads(output.read_text())
    assert validate_bench_record(record) == []
    assert record["bench"] == "recovery" and record["ok"] is True
    assert record["seeds"] == [5]
    assert [run["crash_site"] for run in record["runs"]] == [
        "during-reorg", "post-commit", "torn-append"
    ]
    assert record["wall_seconds"] > 0.0
