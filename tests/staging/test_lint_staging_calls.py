"""Lint: device operators reach the staging cache only through ``stage``.

:meth:`~repro.staging.StagingManager.stage` is the one operand-staging
path: it lets resident fragments serve themselves, probes the rest with
``lookup`` and stages every miss with one ``acquire_set``.  A module
that called those itself would grow a second copy of that loop, free to
drift from the first in lookup order, hit accounting or burst shape.

The device operators also compute only from the arrays ``stage``
returns.  One that read ``fragment.column`` itself would answer from
the host copy and hide a stale replica from every answer check.

And every GPU kernel cost or transfer prediction a device operator or
predictor prices takes its bytes from the staging helper
(``StagingManager.stream`` / ``payload_bytes``), never from a schema
width: a kernel charged or predicted on ``count * width`` would price
raw bytes for an encoded replica, and HyPE would route on bytes that
never cross.

No oracle names the answers a replica remembers
(``StagedColumn.remembered_sum`` / ``remembered_answer``, its
``remembered`` map or its content ``stamp``): an oracle that reused
them would share the state it checks.  Nor does the fresh route
pricing (``fusion/costs.py`` and the A10 sweep) that HyPE's
remembered pricings are compared with.

Finally, memory pressure is ``stage``'s alone to answer: no device
operator names ``CapacityError``, ``device_memory`` or
``transfer_uncached``.  One that did would grow a second policy for
an operand set the cache cannot hold, free to drift from ``stage``'s.
"""

import ast
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


#: Modules that charge or predict device kernels and transfers.
DEVICE_PRICERS = DEVICE_OPERATORS + (
    "repro/fusion/oracle.py",
    "repro/fusion/costs.py",
    "repro/engines/cogadb.py",
)

#: GPU kernel costs and transfer predictions.
PRICED_CALLS = {
    "reduction_cost",
    "batched_reduction_cost",
    "fused_pipeline_cost",
    "select_kernel_cycles",
    "gather_kernel_cycles",
    "predicted_transfer_cost",
    "predicted_cost",
}

#: A name holding a schema width: ``width``, ``agg_width``, ``widths``...
WIDTH_NAME = re.compile(r"^([a-z_]+_)?widths?$")


def _schema_widths(call: ast.Call) -> list[str]:
    """The schema widths *call*'s arguments reference, by source text.

    A width read off the helper's result (``column.width``) is allowed;
    a width name or a ``schema.attribute(...).width`` lookup is not.
    """
    found = []
    for argument in [*call.args, *(keyword.value for keyword in call.keywords)]:
        for node in ast.walk(argument):
            if isinstance(node, ast.Name) and WIDTH_NAME.match(node.id):
                found.append(node.id)
            elif (
                isinstance(node, ast.Attribute)
                and node.attr == "width"
                and isinstance(node.value, ast.Call)
            ):
                found.append(ast.unparse(node))
    return found


def _priced_calls(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in PRICED_CALLS:
                yield node


def test_device_pricing_reads_the_staging_helper():
    src_root = Path(repro.__file__).resolve().parent
    offenders = []
    priced = 0
    for relative in DEVICE_PRICERS:
        path = src_root.parent / relative
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for call in _priced_calls(tree):
            priced += 1
            for width in _schema_widths(call):
                offenders.append(f"{relative}:{call.lineno}: {width}")
    assert priced >= 15  # the lint sees the calls it is meant to check
    assert not offenders, (
        "device kernel costs and transfer predictions must take their "
        "bytes from StagingManager.stream / payload_bytes, not a schema "
        "width:\n" + "\n".join(offenders)
    )


def test_the_pricing_lint_flags_a_raw_width():
    tree = ast.parse(
        "gpu.reduction_cost(count, width, counters)\n"
        "staging.predicted_transfer_cost(f.filled * f.schema.attribute(a).width)\n"
        "gpu.reduction_cost(column.count, column.width, nbytes=column.nbytes)\n"
        "scheduler.predicted_cost(matches * POSITION_WIDTH)\n"
    )
    assert [_schema_widths(call) for call in _priced_calls(tree)] == [
        ["width"],
        ["f.schema.attribute(a).width"],
        [],
        [],
    ]


#: The remembering API of a staged replica (``repro.staging.cache``).
REMEMBERING = {"remembered", "remembered_answer", "remembered_sum", "stamp"}

#: The oracles, as ``(module, definition)``; ``None`` is the whole
#: module.  They compute every answer afresh, so a replica that
#: remembers a stale answer is still a mismatch.
ORACLES = (
    ("repro/serving/verifier.py", "replay_serial"),
    ("repro/fusion/oracle.py", None),
    ("repro/sharding/verifier.py", "SingleNodeOracle"),
    ("repro/execution/operators.py", "sum_column"),
    # The fresh pricing HyPE's remembered route costs are checked against.
    ("repro/fusion/costs.py", None),
    ("repro/bench/ablations.py", "fusion_sweep"),
)


def _remembering_names(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, name)`` of every name or attribute in *tree* that remembers."""
    found = []
    for node in ast.walk(tree):
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if isinstance(node, (ast.Attribute, ast.Name)) and name in REMEMBERING:
            found.append((node.lineno, name))
    return found


def _definition(tree: ast.Module, name: str | None) -> ast.AST:
    if name is None:
        return tree
    (node,) = [
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
    ]
    return node


def test_oracles_never_reach_remembered_answers():
    src_root = Path(repro.__file__).resolve().parent
    offenders = []
    for relative, name in ORACLES:
        path = src_root.parent / relative
        node = _definition(ast.parse(path.read_text(encoding="utf-8")), name)
        offenders += [
            f"{relative}:{line}: {found}" for line, found in _remembering_names(node)
        ]
    assert not offenders, (
        "oracles must compute every answer afresh, never from what a "
        "replica remembers:\n" + "\n".join(offenders)
    )


def test_the_oracle_lint_flags_a_remembered_answer():
    tree = ast.parse(
        "def replay_serial(store, served):\n"
        "    entry = store.cache.peek(fragment, 'i_price')\n"
        "    return entry.remembered_sum(), entry.stamp\n"
        "def sum_column(layout, attribute, ctx):\n"
        "    return float(np.sum(layout.column(attribute)))\n"
    )
    assert sorted(_remembering_names(_definition(tree, "replay_serial"))) == [
        (3, "remembered_sum"),
        (3, "stamp"),
    ]
    assert _remembering_names(_definition(tree, "sum_column")) == []


#: Names of a memory-pressure policy, which lives in ``repro/staging/``.
PRESSURE_NAMES = {"CapacityError", "device_memory", "transfer_uncached"}

#: Every module that stages device operands (the unfused oracle too).
STAGING_CALLERS = DEVICE_OPERATORS + ("repro/fusion/oracle.py",)


def _pressure_names(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, name)`` of every name, attribute or import of a policy name."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            name = node.name
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            name = getattr(node, "id", None)
        if name in PRESSURE_NAMES:
            found.append((node.lineno, name))
    return found


def test_memory_pressure_is_decided_only_by_stage():
    src_root = Path(repro.__file__).resolve().parent
    offenders = []
    for relative in STAGING_CALLERS:
        tree = ast.parse((src_root.parent / relative).read_text(encoding="utf-8"))
        offenders += [f"{relative}:{line}: {name}" for line, name in _pressure_names(tree)]
    assert not offenders, (
        "device operators must leave memory pressure to "
        "repro.staging.StagingManager.stage; policy names found:\n"
        + "\n".join(offenders)
    )


def test_the_pressure_lint_flags_an_operator_policy():
    tree = ast.parse(
        "from repro.errors import CapacityError\n"
        "def run(layout, ctx):\n"
        "    if ctx.platform.device_memory.available < 8:\n"
        "        raise CapacityError('full')\n"
        "    ctx.platform.staging.transfer_uncached(misses, ctx)\n"
        "    return ctx.platform.staging.stage(requests, ctx)\n"
    )
    assert sorted(_pressure_names(tree)) == [
        (1, "CapacityError"),
        (3, "device_memory"),
        (4, "CapacityError"),
        (5, "transfer_uncached"),
    ]
