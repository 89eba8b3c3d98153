"""Experiment harness: build a simulated platform, run a workload, report.

:mod:`repro.harness.runner` assembles machine + network + Lustre + MPI-IO
from an :class:`ExperimentConfig` and runs a workload program on every
rank, returning aggregate bandwidth and the per-category time breakdown.
:mod:`repro.harness.figures` defines one experiment per paper figure;
:mod:`repro.harness.report` renders paper-style text tables.
"""

from repro.harness.runner import ExperimentConfig, RunResult, run_experiment
from repro.harness.parallel import (ExperimentExecutor, ExperimentTask,
                                    RunCache, register_workload)
from repro.harness.fault_sweep import FAULT_CLASSES, fault_sweep
from repro.harness.report import (breakdown_table, format_table, mb_per_s,
                                  run_report)

__all__ = [
    "ExperimentConfig",
    "ExperimentExecutor",
    "ExperimentTask",
    "FAULT_CLASSES",
    "RunCache",
    "RunResult",
    "fault_sweep",
    "register_workload",
    "run_experiment",
    "breakdown_table",
    "format_table",
    "mb_per_s",
    "run_report",
]
