"""Lint: no process pools and no module-level mutable state in ``repro``.

Every simulated figure is a pure function of a run's inputs.  A
``global`` rebinding lets one caller's run change another's (a
process-wide cache keyed on the wrong thing serves stale costings),
and a process pool splits a run across interpreters that do not share
that state, so results can depend on how work was scheduled.  The one
exception is :mod:`repro.obs.tracer`, whose default tracer backs
``repro.obs.tracing`` and the end-to-end benchmark's host profile.
"""

import ast
from pathlib import Path

import repro

#: Modules whose import starts worker processes or threads.
POOL_MODULES = ("multiprocessing", "concurrent.futures")

#: The only module allowed a ``global`` statement.
ALLOWED_GLOBAL = ("repro/obs/tracer.py",)


def _imported_modules(node: ast.AST) -> list[str]:
    """Dotted names an import statement brings in (empty for others)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
        return [node.module] + [
            f"{node.module}.{alias.name}" for alias in node.names
        ]
    return []


def _is_pool_module(name: str) -> bool:
    return any(
        name == banned or name.startswith(banned + ".") for banned in POOL_MODULES
    )


def test_no_process_pools_or_globals_in_repro():
    src_root = Path(repro.__file__).resolve().parent
    offenders = []
    for path in sorted(src_root.rglob("*.py")):
        relative = path.relative_to(src_root.parent).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if any(_is_pool_module(name) for name in _imported_modules(node)):
                offenders.append(f"{relative}:{node.lineno}: imports a process pool")
            elif isinstance(node, ast.Global) and relative not in ALLOWED_GLOBAL:
                offenders.append(
                    f"{relative}:{node.lineno}: global {', '.join(node.names)}"
                )
    assert not offenders, (
        "repro keeps no process-wide state and starts no worker pools; "
        "found:\n" + "\n".join(offenders)
    )
