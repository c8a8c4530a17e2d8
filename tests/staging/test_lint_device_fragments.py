"""Lint: only device-primary stores build a ``Fragment`` in device memory.

A host column's device copy is a staged replica (``platform.staging``),
pinned when an engine places the column.  A module that built its own
device-space ``Fragment`` would grow a second residency mechanism, one
that writes bypass (``update_field`` writes it like host memory) and
that eviction, patching and HyPE's transfer prices never see.  Only
stores whose primary copy lives on the device may build one: GPUTx's
columns and Figure 2's device column store.
"""

import ast
from pathlib import Path

import repro

#: ``(module, definition)`` allowed to build device fragments; ``None``
#: is the whole module.
ALLOWED = {
    ("repro/engines/gputx.py", None),
    ("repro/bench/figure2.py", "build_device_column_store"),
}


def _mentions_device(node: ast.AST, names: set[str]) -> bool:
    """Whether *node* reads ``device_memory`` or a name bound to it."""
    return any(
        (isinstance(child, ast.Attribute) and child.attr == "device_memory")
        or (isinstance(child, ast.Name) and child.id in names)
        for child in ast.walk(node)
    )


def _device_fragments(tree: ast.Module) -> list[tuple[int, str | None]]:
    """``(line, top-level definition)`` of each device ``Fragment(...)``.

    A call counts when an argument reads ``device_memory``, directly or
    through a name assigned from it in the same top-level definition.
    """
    found = []
    for top in tree.body:
        owner = getattr(top, "name", None)
        names: set[str] = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Assign) and _mentions_device(node.value, names):
                names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if called == "Fragment" and any(
                _mentions_device(argument, names)
                for argument in [*node.args, *(k.value for k in node.keywords)]
            ):
                found.append((node.lineno, owner))
    return found


def test_only_device_primary_stores_build_device_fragments():
    src_root = Path(repro.__file__).resolve().parent
    offenders = []
    seen = set()
    for path in sorted(src_root.rglob("*.py")):
        relative = path.relative_to(src_root.parent).as_posix()
        for line, owner in _device_fragments(ast.parse(path.read_text(encoding="utf-8"))):
            if (relative, None) in ALLOWED or (relative, owner) in ALLOWED:
                seen.add(relative)
                continue
            offenders.append(f"{relative}:{line} ({owner})")
    # The lint sees the device-primary stores it is meant to allow.
    assert seen == {module for module, __ in ALLOWED}
    assert not offenders, (
        "a host column's device copy is a staged replica "
        "(platform.staging.pin); device-space Fragments built at:\n"
        + "\n".join(offenders)
    )


def test_the_device_fragment_lint_flags_a_device_copy():
    tree = ast.parse(
        "def place(platform, fragment):\n"
        "    return Fragment(fragment.region, fragment.schema, None,\n"
        "                    platform.device_memory)\n"
        "class Engine:\n"
        "    def place(self, region, schema):\n"
        "        space = self.platform.device_memory\n"
        "        return Fragment(region, schema, None, space)\n"
        "def stage(platform, region, schema):\n"
        "    return Fragment(region, schema, None, platform.host_memory)\n"
    )
    assert _device_fragments(tree) == [(2, "place"), (7, "Engine")]
