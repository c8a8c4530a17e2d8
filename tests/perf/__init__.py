"""Tests for the perf package: the ablation sweep runner."""
