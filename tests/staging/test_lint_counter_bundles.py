"""Lint: no module swaps a context's counter bundles.

A query that needs its own counters runs on its own context
(:meth:`~repro.execution.context.ExecutionContext.fork`), and the
serving loop merges each unit's counters into its root context once.
Code that assigned ``ctx.counters`` would route charges into a bundle
some other code still holds, a second way to attribute a query's
cycles.  So no ``src/repro`` module assigns to a ``.counters``
attribute: charges go through the bundle a context was built with, and
bundles add with ``merge``.
"""

import ast
from pathlib import Path

import repro

#: Attributes that hold a context's counter bundles.
BUNDLES = frozenset({"counters"})


def _targets(node: ast.AST) -> list[ast.expr]:
    """The expressions *node* assigns to, tuples unpacked."""
    if isinstance(node, ast.Assign):
        pending = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        pending = [node.target]
    else:
        return []
    targets = []
    while pending:
        target = pending.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            pending.extend(target.elts)
        elif isinstance(target, ast.Starred):
            pending.append(target.value)
        else:
            targets.append(target)
    return targets


def bundle_assignments(source: str) -> list[int]:
    """Line numbers in *source* that assign a ``.counters`` bundle."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        for target in _targets(node)
        if isinstance(target, ast.Attribute) and target.attr in BUNDLES
    )


def test_lint_flags_a_bundle_swap():
    swap = "seen = ctx.counters\nctx.counters = scope.counters\n"
    assert bundle_assignments(swap) == [2]
    assert bundle_assignments("saved, ctx.counters = ctx.counters, fresh\n") == [1]
    # Charging through a bundle, or reading one, is fine.
    assert bundle_assignments(
        "ctx.counters.cycles += 5\nseen = ctx.counters\nctx.counters.merge(other)\n"
    ) == []


def test_no_module_assigns_a_counter_bundle():
    src_root = Path(repro.__file__).resolve().parent
    offenders = []
    for path in sorted(src_root.rglob("*.py")):
        relative = path.relative_to(src_root.parent).as_posix()
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for number in bundle_assignments(source):
            offenders.append(f"{relative}:{number}: {lines[number - 1].strip()}")
    assert not offenders, (
        "run a query on its own context (ExecutionContext.fork) instead "
        "of swapping a context's counter bundles:\n" + "\n".join(offenders)
    )
