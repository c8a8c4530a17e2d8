"""Lint: one shard-rebuild path, ``repro/sharding/replay.py``.

Turning a shard's DFS file and the committed log back into columns
means parsing the file (``deserialize_columns``), replaying the log
onto it (``replay_updates``) and charging both.  ``replay.rebuild`` and
``replay.replay`` do that once for the executor's failover and the
migrator's catch-up and resume.  A module that called the two
primitives itself would grow a second rebuild, free to drift from the
first in what it reads, as which node, and what it charges.
"""

import ast
from pathlib import Path

import repro

#: The primitives only the replay module may call.
PRIMITIVES = {"replay_updates", "deserialize_columns"}

#: The one module allowed to call them.
ALLOWED = ("repro/sharding/replay.py",)


def _primitive_calls(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, name)`` of every call to a primitive, bare or dotted."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in PRIMITIVES:
                found.append((node.lineno, name))
    return found


def test_only_the_replay_module_rebuilds_shards():
    src_root = Path(repro.__file__).resolve().parent
    offenders = []
    for path in sorted(src_root.rglob("*.py")):
        relative = path.relative_to(src_root.parent).as_posix()
        if relative in ALLOWED:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [
            f"{relative}:{line}: {name}" for line, name in _primitive_calls(tree)
        ]
    assert not offenders, (
        "shard files and the committed log become columns only through "
        "repro.sharding.replay.rebuild / replay; direct calls found:\n"
        + "\n".join(offenders)
    )


def test_the_replay_module_calls_both_primitives():
    src_root = Path(repro.__file__).resolve().parent
    tree = ast.parse((src_root.parent / ALLOWED[0]).read_text(encoding="utf-8"))
    assert {name for _, name in _primitive_calls(tree)} == PRIMITIVES


def test_the_lint_flags_a_second_rebuild():
    tree = ast.parse(
        "from repro.sharding import replay\n"
        "from repro.sharding.placement import deserialize_columns\n"
        "def rebuild(payload, entries, shard):\n"
        "    columns = deserialize_columns(payload)\n"
        "    replay.replay_updates(entries, 'orders', shard.positions, columns)\n"
        "    return replay.rebuild(shard, columns)\n"
    )
    assert _primitive_calls(tree) == [
        (4, "deserialize_columns"),
        (5, "replay_updates"),
    ]
