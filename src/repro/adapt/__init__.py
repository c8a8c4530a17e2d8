"""Adaptability: workload statistics, layout advice, re-organization."""

from repro.adapt.advisor import GroupProposal, LayoutAdvisor, LayoutProposal
from repro.adapt.reorganizer import build_fragments_for_proposal, reorganize_layout
from repro.adapt.statistics import AttributeStatistics

__all__ = [
    "AttributeStatistics",
    "GroupProposal",
    "LayoutProposal",
    "LayoutAdvisor",
    "build_fragments_for_proposal",
    "reorganize_layout",
]
