"""Lint: observation hooks read ``platform.tracer`` directly.

``Platform.__post_init__`` always sets ``platform.tracer`` (``None``
when tracing is off), so a defensive ``getattr`` of ``tracer`` with a
``None`` default only hides a typo.  A platform has no ``metrics``
attribute at all: windowed series come from the serving loop's
registry.  So the same ``getattr`` of ``metrics`` would return ``None``
forever, and every hook behind it would go quiet without failing a
test.  No module under ``src/repro`` may make either call.
"""

import re
from pathlib import Path

import repro

PATTERN = re.compile(
    r"""\bgetattr\(\s*[^,()]+,\s*["'](tracer|metrics)["']\s*,\s*None\s*\)"""
)


def test_no_defensive_observer_getattr():
    src_root = Path(repro.__file__).resolve().parent
    offenders = []
    for path in sorted(src_root.rglob("*.py")):
        relative = path.relative_to(src_root.parent).as_posix()
        text = path.read_text(encoding="utf-8")
        for match in PATTERN.finditer(text):
            number = text.count("\n", 0, match.start()) + 1
            offenders.append(f"{relative}:{number}: {match.group(0)}")
    assert not offenders, (
        "read platform.tracer directly (it always exists) and take a "
        "windowed registry explicitly; defensive getattr calls found:\n"
        + "\n".join(offenders)
    )
