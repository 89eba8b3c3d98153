"""Differential correctness oracle for the ParColl reproduction.

Three layers, described in ``docs/testing.md``:

1. **file-content oracles** (:mod:`repro.validate.oracle`) — a
   sequential golden writer materializes the expected file bytes for
   any workload/file view directly from datatype flattening; a shadow
   file diffs them against the simulated Lustre file after every
   collective write (and on read-back);
2. **runtime invariant checks** (:mod:`repro.validate.invariants`,
   driven by :class:`Validator`) — opt-in via ``MPIIO(validate=True)``,
   the ``--validate`` CLI flag, an
   :class:`~repro.harness.runner.ExperimentConfig`'s ``validate`` field,
   or ``REPRO_VALIDATE=1``;
3. **generator fleet** (:mod:`repro.validate.strategies`,
   :mod:`repro.validate.differential`) — Hypothesis strategies plus a
   seeded differential harness asserting that ext2ph, ParColl, and every
   collective backend family produce byte-identical files against
   the golden oracle, with replay-deterministic virtual-time metrics.
"""

from repro.errors import ValidationError
from repro.validate.oracle import (ORACLE_VERSION, OracleDiff, ShadowFile,
                                   sequential_golden)
from repro.validate.validator import (ValidationReport, Validator,
                                      env_validate_enabled)

__all__ = [
    "ORACLE_VERSION",
    "OracleDiff",
    "ShadowFile",
    "ValidationError",
    "ValidationReport",
    "Validator",
    "env_validate_enabled",
    "sequential_golden",
]
