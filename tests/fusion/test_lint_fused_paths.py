"""AST lint: fused executors must never call materializing operators.

The whole point of :mod:`repro.fusion.host` / :mod:`repro.fusion.device`
is that nothing materializes between stages — no position lists, no
intermediate buffers, no per-operator staging.  A call to any of the
unfused operators from inside a fused path would silently turn the
optimization back into the thing it replaces, while the byte-identity
tests kept passing.  This lint walks the AST of both fused modules and
rejects any call to (or import of) a materializing operator.
"""

import ast
from pathlib import Path

import repro.fusion

#: Operators that materialize intermediates (or wrap ones that do).
FORBIDDEN = {
    "filter_scan",
    "sum_at_positions",
    "aggregate_column",
    "aggregate_at_positions",
    "sum_column",
    "materialize_rows",
    "device_sum_column",
    "bulk_sum",
    "BulkPipeline",
}

FUSED_MODULES = ("host.py", "device.py")


def _called_and_imported_names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                yield node.lineno, func.id
            elif isinstance(func, ast.Attribute):
                yield node.lineno, func.attr
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield node.lineno, alias.name


def test_fused_paths_never_call_materializing_operators():
    package_root = Path(repro.fusion.__file__).resolve().parent
    offenders = []
    for filename in FUSED_MODULES:
        path = package_root / filename
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for lineno, name in _called_and_imported_names(tree):
            if name in FORBIDDEN:
                offenders.append(f"{filename}:{lineno}: {name}")
    assert not offenders, (
        "fused code paths must stay fused — materializing operator "
        "references found:\n" + "\n".join(offenders)
    )
