"""Performance infrastructure: the ablation sweep runner.

:mod:`repro.perf.sweeper` runs the registered ablation sweeps inline,
times them, and is the ``sweeps`` plane of ``python -m repro.verify``.
See docs/PERFORMANCE.md.
"""

from repro.perf.sweeper import SweepResult, run_sweep, run_sweeps

__all__ = ["SweepResult", "run_sweep", "run_sweeps"]
