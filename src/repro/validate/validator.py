"""The runtime validation context threaded through one simulated platform.

One :class:`Validator` is shared by every rank of a simulation (ranks
are generators inside one process, so sharing is free).  The MPI-IO
layer calls its hooks when validation is enabled — via
``MPIIO(validate=True)``, the ``validate`` field of an
:class:`~repro.harness.runner.ExperimentConfig`, the CLI ``--validate``
flag, or the ``REPRO_VALIDATE`` environment variable:

* :meth:`record_write` / :meth:`after_collective_write` maintain the
  per-file :class:`~repro.validate.oracle.ShadowFile` and diff it
  against the simulated Lustre file once the last rank of the
  communicator leaves each collective write (and again at close, which
  also covers independent writes);
* :meth:`check_read` asserts a read returned exactly the oracle bytes;
* the ``check_*`` wrappers dispatch to :mod:`repro.validate.invariants`
  and count every check into the :class:`ValidationReport`.

Checks fail *loudly*: the first violation raises
:class:`~repro.errors.ValidationError` out of the simulation.  The
report records how many checks ran — a run that reports zero checks
validated nothing.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.datatypes.flatten import Segments
from repro.validate import invariants
from repro.validate.oracle import OracleDiff, ShadowFile


def env_validate_enabled(environ: Optional[dict] = None) -> bool:
    """Whether ``REPRO_VALIDATE`` asks for validation (unset/0/'' = no)."""
    raw = (environ if environ is not None else os.environ).get(
        "REPRO_VALIDATE", "")
    return str(raw).strip().lower() not in ("", "0", "false", "no", "off")


@dataclass
class ValidationReport:
    """What one validated run actually checked."""

    #: check name -> number of times it ran (and passed)
    checks: Counter = field(default_factory=Counter)
    #: oracle diffs encountered (non-empty only if a caller collected
    #: instead of raising; the default hooks raise on the first diff)
    violations: list = field(default_factory=list)

    @property
    def total_checks(self) -> int:
        return int(sum(self.checks.values()))

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict[str, Any]:
        return {"checks": dict(self.checks),
                "violations": [v.to_dict() if isinstance(v, OracleDiff)
                               else str(v) for v in self.violations]}

    def summary(self) -> str:
        if not self.checks:
            return "validation: no checks ran"
        parts = ", ".join(f"{name} x{n}"
                          for name, n in sorted(self.checks.items()))
        state = "OK" if self.ok else f"{len(self.violations)} VIOLATION(S)"
        return f"validation {state}: {self.total_checks} checks ({parts})"


class Validator:
    """Shared validation state for one simulated platform."""

    def __init__(self) -> None:
        self.report = ValidationReport()
        self._shadows: dict[str, ShadowFile] = {}
        #: per-file counters of recorded writes started / completed
        self._write_started: Counter = Counter()
        self._write_done: Counter = Counter()

    # ------------------------------------------------------------------
    # file-content oracle hooks (MPIFile level)
    # ------------------------------------------------------------------
    def shadow(self, name: str, verified: bool) -> ShadowFile:
        sh = self._shadows.get(name)
        if sh is None:
            sh = ShadowFile(name, verified)
            self._shadows[name] = sh
        return sh

    def record_write(self, lfile, segs: Segments,
                     data: Optional[np.ndarray]) -> int:
        """Register one rank's contribution before the protocol runs.

        Returns the shadow's happens-before token for this write; the
        completion hooks take it back so the read oracle knows which
        writes have provably landed.
        """
        self._write_started[lfile.name] += 1
        return self.shadow(lfile.name,
                           lfile.store is not None).record(segs, data)

    def after_write(self, lfile, token: Optional[int] = None) -> None:
        """Mark one recorded write (collective or independent) landed.

        Only independent writes pass a ``token``: their data is applied
        by the calling rank itself, so call return implies the bytes are
        in the store.  A collective write's call may return before its
        data lands (eager sends), so its token is only retired at
        quiescent points (:meth:`after_collective_write` coverage
        equality, or the close barrier).
        """
        self._write_done[lfile.name] += 1
        if token is not None:
            sh = self._shadows.get(lfile.name)
            if sh is not None:
                sh.complete(token)

    def after_collective_write(self, lfile, comm_size: int) -> None:
        """Diff shadow vs simulated file at quiescent epoch boundaries.

        Ranks are *not* in lockstep: a fast rank may have entered (and
        recorded) the next collective before the slowest finishes this
        one, and eager sends let a rank's call complete before its data
        reaches the aggregator that writes it.  The mid-file check
        therefore fires only when the run is quiescent by coverage:
        every call that recorded a write has returned, and the file has
        received exactly the bytes the shadow recorded (no write still
        in flight, no overlapping rewrite that would hide one).  The
        close hook still runs the unconditional check after a barrier.
        """
        self.after_write(lfile)
        name = lfile.name
        if (self._write_done[name] % comm_size
                or self._write_done[name] != self._write_started[name]):
            return
        sh = self._shadows.get(name)
        if sh is None:
            return
        cov = sh.covered_bytes
        if sh.total_recorded != cov:
            # rewrites make coverage equality blind to in-flight data
            return
        if lfile.tracker.covered_bytes != cov:
            return  # some recorded bytes have not landed yet
        self.check_file(lfile)

    def check_file(self, lfile) -> None:
        """Byte- (verified) or extent-level (model) oracle comparison.

        Runs only at quiescent points (coverage equality mid-run, or
        after the close barrier), so every recorded write has landed —
        the happens-before tracker retires all pending tokens here.
        """
        sh = self._shadows.get(lfile.name)
        if sh is None:
            return
        sh.complete_all()
        if lfile.store is not None:
            diff = sh.diff_bytes(lfile.store.view())
            self.report.checks["file_oracle_bytes"] += 1
        else:
            offs, lens = lfile.tracker.extents
            diff = sh.diff_extents(offs, lens)
            self.report.checks["file_oracle_extents"] += 1
        if diff is not None:
            self.report.violations.append(diff)
            diff.raise_()

    def check_independent_read(self, lfile, segs: Segments,
                               got: Optional[np.ndarray]) -> None:
        """Read-back oracle for independent ``read_at``.

        Independent reads carry no collective synchronization, so the
        oracle only judges reads that provably happen after every
        overlapping write (the shadow's happens-before tracker: no
        overlapping write pending, no unordered racing writers).  A read
        racing a write may legitimately observe either state and is
        counted as skipped instead.
        """
        if lfile.store is None or got is None:
            return
        sh = self.shadow(lfile.name, True)
        if not sh.checkable_read(segs):
            self.report.checks["read_oracle_skipped"] += 1
            return
        self.check_read(lfile, segs, got)

    def check_read(self, lfile, segs: Segments,
                   got: Optional[np.ndarray]) -> None:
        """Read-back oracle: the returned bytes must match the shadow."""
        if lfile.store is None or got is None:
            return
        sh = self.shadow(lfile.name, True)
        expected = sh.expected_read(segs)
        got = np.asarray(got, dtype=np.uint8).ravel()
        self.report.checks["read_oracle"] += 1
        if got.size != expected.size or not np.array_equal(got, expected):
            bad = np.flatnonzero(expected[:min(expected.size, got.size)]
                                 != got[:min(expected.size, got.size)])
            first = int(bad[0]) if bad.size else min(expected.size, got.size)
            diff = OracleDiff(file=lfile.name, kind="read", offset=first,
                              nbytes=int(bad.size)
                              or abs(expected.size - got.size))
            self.report.violations.append(diff)
            diff.raise_()

    # ------------------------------------------------------------------
    # invariant hooks (protocol level)
    # ------------------------------------------------------------------
    def check_partition_plan(self, plan,
                             extents: Sequence[tuple[int, int, int]]) -> None:
        invariants.check_partition_plan(plan, extents)
        self.report.checks["fa_partition"] += 1

    def check_aggregator_distribution(
            self, groups: Sequence[Sequence[int]],
            assignment: Sequence[Sequence[int]],
            agg_nodes: Sequence[int],
            node_of: Callable[[int], int]) -> None:
        invariants.check_aggregator_distribution(groups, assignment,
                                                 agg_nodes, node_of)
        self.report.checks["aggregator_distribution"] += 1

    def check_iview_roundtrip(self, iview) -> None:
        invariants.check_iview_roundtrip(iview)
        self.report.checks["iview_roundtrip"] += 1

    def check_exchange_plan(self, segs: Segments, plan,
                            ntimes: int) -> None:
        invariants.check_exchange_plan(segs, plan, ntimes)
        self.report.checks["exchange_plan"] += 1

    def check_round_conservation(self, announced: int, received: int,
                                 written: int, rnd: int) -> None:
        invariants.check_round_conservation(announced, received, written,
                                            rnd)
        self.report.checks["round_conservation"] += 1
