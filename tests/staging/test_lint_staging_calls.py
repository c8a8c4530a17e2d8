"""Lint: device operators reach the staging cache only through ``stage``.

:meth:`~repro.staging.StagingManager.stage` is the one operand-staging
path: it lets resident fragments serve themselves, probes the rest with
``lookup`` and stages every miss with one ``acquire_set``.  A module
that called those itself would grow a second copy of that loop, free to
drift from the first in lookup order, hit accounting or burst shape.

The device operators also compute only from the arrays ``stage``
returns.  One that read ``fragment.column`` itself would answer from
the host copy and hide a stale replica from every answer check.
"""

import re
from pathlib import Path

import repro

PATTERN = re.compile(r"\bstaging\.(lookup|acquire|acquire_set)\s*\(")

#: The staging package itself, where ``stage`` is defined.
ALLOWED = ("repro/staging/",)


def test_no_direct_staging_probes_outside_staging():
    src_root = Path(repro.__file__).resolve().parent
    offenders = []
    for path in sorted(src_root.rglob("*.py")):
        relative = path.relative_to(src_root.parent).as_posix()
        if any(relative.startswith(allowed) for allowed in ALLOWED):
            continue
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            if PATTERN.search(line):
                offenders.append(f"{relative}:{number}: {line.strip()}")
    assert not offenders, (
        "device operators must stage operands through "
        "repro.staging.StagingManager.stage; direct calls found:\n"
        + "\n".join(offenders)
    )


#: Modules whose answers must come from what ``stage`` served them.
DEVICE_OPERATORS = (
    "repro/execution/device.py",
    "repro/serving/batch.py",
    "repro/fusion/device.py",
)


def test_device_operators_read_only_what_they_staged():
    src_root = Path(repro.__file__).resolve().parent
    offenders = []
    for relative in DEVICE_OPERATORS:
        path = src_root.parent / relative
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            if ".column(" in line:
                offenders.append(f"{relative}:{number}: {line.strip()}")
    assert not offenders, (
        "device operators must compute from the arrays "
        "repro.staging.StagingManager.stage returns; host reads found:\n"
        + "\n".join(offenders)
    )
