"""Online layout re-organization: the responsive engines' mutation step.

Given a layout and a :class:`~repro.adapt.advisor.LayoutProposal`,
:func:`reorganize_layout` builds the proposed fragments, migrates the
data (or just the geometry, for phantom populations), charges the copy
cost, frees the old fragments and swaps the new set in.  This is the
mechanism behind "layout adaptability: responsive" in Table 1 — an
engine is responsive exactly when it wires this (or its own equivalent)
to workload statistics.

Re-organization is **transactional**: the new fragments are built and
filled off to the side, and the swap happens only after the migration
completes and validates.  An interruption mid-migration — injected via
the platform's :class:`~repro.faults.FaultInjector` at the
``reorg.interrupt`` site, mirroring an operator kill —
frees every partially-built fragment, leaves the layout exactly as it
was, charges the wasted partial copy, and re-raises
:class:`~repro.errors.ReorganizationAborted`.

When the calling context carries a write-ahead log (``ctx.wal``), the
transaction is additionally **log-backed**: ``REORG_BEGIN`` is logged
before the migration, ``REORG_END`` after the swap and ``REORG_ABORT``
after an in-process rollback, so recovery can tell a completed
re-organization from one the machine died inside.  That death is its
own fault site — ``crash.during-reorg`` raises
:class:`~repro.errors.EngineCrashed` mid-migration with *no* rollback
(the process is gone; partial fragments vanish with it), leaving a
dangling ``REORG_BEGIN`` for recovery's analysis pass to report.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Sequence

from repro.adapt.advisor import GroupProposal, LayoutProposal
from repro.errors import EngineCrashed, LayoutError, ReorganizationAborted
from repro.execution.context import ExecutionContext
from repro.faults.injector import SITE_CRASH_REORG, SITE_REORG_INTERRUPT
from repro.hardware.memory import MemorySpace
from repro.layout.fragment import Fragment
from repro.layout.layout import Layout
from repro.layout.linearization import LinearizationKind
from repro.layout.region import Region

__all__ = ["build_fragments_for_proposal", "reorganize_layout"]


def build_fragments_for_proposal(
    layout: Layout,
    groups: Sequence[GroupProposal],
    space: MemorySpace,
    materialize: bool,
) -> list[Fragment]:
    """Construct (empty) fragments realizing *groups* over the layout's relation."""
    relation = layout.relation
    fragments: list[Fragment] = []
    for group in groups:
        if group.linearization is LinearizationKind.DIRECT and len(group.attributes) > 1:
            regions = [
                Region(relation.rows, (attribute,)) for attribute in group.attributes
            ]
        else:
            regions = [Region(relation.rows, group.attributes)]
        for region in regions:
            linearization = (
                None if region.is_thin else group.linearization
            )
            fragments.append(
                Fragment(
                    region,
                    relation.schema,
                    linearization,
                    space,
                    label=f"{layout.name}:{'+'.join(region.attributes)}",
                    materialize=materialize,
                )
            )
    return fragments


def reorganize_layout(
    layout: Layout,
    proposal: LayoutProposal,
    space: MemorySpace,
    ctx: ExecutionContext | None = None,
) -> None:
    """Rewrite *layout* in place to match *proposal*.

    Data is migrated row by row through the logical view (so any source
    fragmentation is handled); the cost charged is one full read plus
    one full write of the relation's payload, sequentially streamed —
    the paper's engines all do re-organization as a background bulk
    copy.
    """
    relation = layout.relation
    phantom = any(fragment.is_phantom for fragment in layout.fragments)
    new_fragments = build_fragments_for_proposal(
        layout, proposal.groups, space, materialize=not phantom
    )
    injector = ctx.platform.injector if ctx is not None else None
    counters = ctx.counters if ctx is not None else None
    wal = ctx.wal if ctx is not None else None
    span_cm = (
        ctx.span(f"reorganize({layout.name})", "reorg", rows=relation.row_count)
        if ctx is not None
        else nullcontext(None)
    )
    with span_cm as span:
        if wal is not None:
            from repro.recovery.wal import LogRecordKind

            wal.log_reorg(LogRecordKind.REORG_BEGIN, layout.name, ctx)

        try:
            if phantom:
                if injector is not None:
                    injector.check(SITE_REORG_INTERRUPT, counters)
                    injector.check(SITE_CRASH_REORG, counters)
                for fragment in new_fragments:
                    fragment.fill_phantom(relation.row_count)
            else:
                index_of = {
                    name: position
                    for position, name in enumerate(relation.schema.names)
                }
                for row in range(relation.row_count):
                    if injector is not None:
                        injector.check(SITE_REORG_INTERRUPT, counters)
                        injector.check(SITE_CRASH_REORG, counters)
                    values = layout.read_row(row)
                    for fragment in new_fragments:
                        fragment.append_rows(
                            [
                                tuple(
                                    values[index_of[name]]
                                    for name in fragment.schema.names
                                )
                            ]
                        )
        except EngineCrashed:
            # The machine died: no rollback runs and no abort record is
            # written — the partially-built fragments simply cease to exist
            # with the process.  Recovery sees a REORG_BEGIN with no END
            # and serves the pre-reorganization state from checkpoint+log.
            if span is not None:
                span.attrs["outcome"] = "crashed"
            for fragment in new_fragments:
                fragment.free()
            raise
        except ReorganizationAborted:
            # Roll back: the old fragments were never touched, so undoing
            # the transaction is freeing the partial copies.  The wasted
            # migration work still costs cycles (fault runs must be
            # measurably slower than clean runs).
            if span is not None:
                span.attrs["outcome"] = "aborted"
            migrated = sum(fragment.filled for fragment in new_fragments)
            for fragment in new_fragments:
                fragment.free()
            if ctx is not None and relation.row_count:
                wasted = relation.nsm_bytes * (
                    migrated / (relation.row_count * max(len(new_fragments), 1))
                )
                cost = 2 * ctx.platform.memory_model.sequential(int(wasted))
                ctx.counters.cycles += cost
            if wal is not None:
                from repro.recovery.wal import LogRecordKind

                wal.log_reorg(LogRecordKind.REORG_ABORT, layout.name, ctx)
            raise

        if ctx is not None:
            payload = relation.nsm_bytes
            cost = ctx.platform.memory_model.sequential(payload)  # read old
            cost += ctx.platform.memory_model.sequential(payload)  # write new
            ctx.counters.cycles += cost
            ctx.counters.bytes_written += payload

        old_fragments = list(layout.fragments)
        layout.replace_fragments(new_fragments)
        try:
            layout.validate()
        except LayoutError:
            layout.replace_fragments(old_fragments)
            for fragment in new_fragments:
                fragment.free()
            raise
        for fragment in old_fragments:
            fragment.free()
        if wal is not None:
            from repro.recovery.wal import LogRecordKind

            wal.log_reorg(LogRecordKind.REORG_END, layout.name, ctx)
        if span is not None:
            span.attrs["outcome"] = "completed"
    # The swap changed fragment geometry in place: device replicas
    # staged from the old fragments must not serve reads.
    if ctx is not None:
        ctx.platform.staging.invalidate_all()
