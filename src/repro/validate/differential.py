"""The seeded differential harness: protocols x backends vs the oracle.

One :class:`DiffCase` is a randomly drawn but fully reproducible
configuration — an access pattern from the paper's Figure 4 families (or
a ``btio``/``flash_io`` workload program), Lustre striping, a ParColl
grouping, a collective-fidelity backend, and (sometimes) a fault plan.
:func:`run_case` executes it as a small verified-mode simulation per
protocol/backend combination — every protocol in
:data:`repro.mpiio.PROTOCOLS` races — and asserts:

* every combination produces **byte-identical file contents** against
  :func:`~repro.validate.oracle.sequential_golden` (synthetic patterns)
  or against each other (workload programs, whose runs the byte-level
  shadow oracle already checks individually; the runtime
  :class:`~repro.validate.Validator` is live in every combination, so
  all invariant checks and the read-back oracle run for free);
* virtual-time metrics are **replay-deterministic**: running the same
  combination twice yields the same elapsed time, message count, and
  per-category breakdown.

Cases are drawn by :func:`generate_cases` from a seeded PCG64 stream, so
``repro.cli validate differential --cases N --seed S`` is a stable CI
gate — no Hypothesis shrinking, no flakiness, and the JSON report names
the exact failing case for replay.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Optional, Sequence

import numpy as np

from repro.cluster import MachineConfig, NetworkParams
from repro.datatypes import BYTE
from repro.lustre import LustreFS, LustreParams
from repro.mpiio import MPIIO, PROTOCOLS
from repro.simmpi import World
from repro.validate.oracle import OracleDiff, sequential_golden
from repro.workloads.base import deterministic_bytes
from repro.workloads.synthetic import (SyntheticConfig, file_bytes_total,
                                       filetype_for,
                                       rank_offsets_for_interleaved)

#: every fidelity gets coverage, on the world communicator and on
#: derived ones
BACKENDS = (
    "analytic",
    "detailed",
    "macro",
    "scoped:world=analytic,default=macro",
    "scoped:world=macro,default=detailed",
    "scoped:world=analytic,default=detailed",
)

#: the paper's pattern families: (a) serial, (b) tiled, (c) interleaved,
#: plus seeded random disjoint sets
PATTERNS = ("serial", "tiled", "interleaved", "random")

#: case sources: synthetic patterns plus the paper's workload programs
WORKLOADS = ("synthetic", "btio", "flash_io")


@dataclass(frozen=True)
class DiffCase:
    """One reproducible differential-test point."""

    pattern: str
    nprocs: int
    bytes_per_rank: int
    piece_bytes: int
    seed: int
    stripe_size: int
    stripe_count: int
    n_osts: int
    ngroups: int
    data_path: str
    backend: str
    #: FaultPlan.to_dict() mapping, or None for a fault-free platform
    faults: Optional[dict] = None
    #: case source: 'synthetic' runs a Figure 4 pattern (``pattern`` et
    #: al. apply); 'btio'/'flash_io' run the workload program (``pattern``
    #: and ``piece_bytes`` are labels only, ``nprocs`` must be square for
    #: btio)
    workload: str = "synthetic"

    def synthetic(self) -> SyntheticConfig:
        return SyntheticConfig(pattern=self.pattern, nprocs=self.nprocs,
                               bytes_per_rank=self.bytes_per_rank,
                               piece_bytes=self.piece_bytes, seed=self.seed)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def generate_cases(n: int, seed: int = 0) -> list[DiffCase]:
    """Draw ``n`` cases from a seeded stream (same seed = same cases).

    Pattern families and backends cycle deterministically so even small
    ``n`` covers all of (a)/(b)/(c)/random and every backend; the other
    dimensions are sampled.  Roughly one case in five carries a fault
    plan (a straggling OST, a slow node, or lost RPCs under a generous
    retry budget) — faults must never change file bytes.  One case in
    five runs a workload program instead of a synthetic pattern (BT-IO's
    diagonal multi-partitioning, Flash's checkpoint), so the fleet also
    exercises derived-datatype views and multi-dataset files.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    cases = []
    for i in range(n):
        n_osts = int(rng.choice([2, 4]))
        faults = None
        draw = rng.random()
        if draw < 0.08:
            faults = {"events": [{
                "kind": "ost_degrade", "ost": int(rng.integers(n_osts)),
                "factor": float(np.round(rng.uniform(0.25, 0.75), 3)),
                "start": 0.0, "end": None}]}
        elif draw < 0.14:
            faults = {"events": [{
                "kind": "node_slowdown", "node": 0,
                "factor": float(np.round(rng.uniform(0.3, 0.8), 3)),
                "start": 0.0, "end": None}]}
        elif draw < 0.2:
            faults = {"events": [{
                "kind": "flaky_rpc", "ost": int(rng.integers(n_osts)),
                "prob": float(np.round(rng.uniform(0.02, 0.12), 3)),
                "start": 0.0, "end": None}]}
        workload = "synthetic"
        if i % 10 == 4:
            workload = "btio"
        elif i % 10 == 9:
            workload = "flash_io"
        nprocs = int(rng.choice([2, 4, 6, 8]))
        if workload == "btio":
            nprocs = int(rng.choice([4, 9]))  # BT needs a square count
        cases.append(DiffCase(
            workload=workload,
            pattern=PATTERNS[i % len(PATTERNS)],
            nprocs=nprocs,
            bytes_per_rank=int(rng.choice([256, 1024, 2048, 4096])),
            piece_bytes=int(rng.choice([64, 128, 256])),
            seed=int(rng.integers(0, 100_000)),
            stripe_size=int(rng.choice([256, 512, 1024])),
            stripe_count=int(rng.choice([2, n_osts])),
            n_osts=n_osts,
            ngroups=int(rng.choice([2, 3, 4, 8])),
            data_path=("physical", "logical")[int(rng.integers(2))],
            backend=BACKENDS[i % len(BACKENDS)],
            faults=faults,
        ))
    return cases


def golden_bytes(cfg: SyntheticConfig) -> np.ndarray:
    """The oracle file contents for one synthetic pattern."""
    writes = []
    for rank in range(cfg.nprocs):
        ft = filetype_for(cfg, rank)
        offs, lens = ft.segments()
        disp = (rank_offsets_for_interleaved(cfg, rank)
                if cfg.pattern == "interleaved" else 0)
        writes.append(((offs + disp, lens),
                       deterministic_bytes(rank, int(lens.sum()))))
    return sequential_golden(file_bytes_total(cfg), writes)


def _case_program(case: DiffCase, hints: dict, io: MPIIO):
    """``(program(comm), checked_file_name)`` for one case's workload."""
    if case.workload == "btio":
        from repro.workloads.btio import BTIOConfig, btio_program

        q = BTIOConfig.q_of(case.nprocs)
        cfg = BTIOConfig(grid_points=q * 2, nsteps=2, verify_read=True,
                         seed=case.seed, filename="diff", hints=hints)
        return (lambda comm: btio_program(cfg, comm, io)), "diff"
    if case.workload == "flash_io":
        from repro.workloads.flash_io import FlashIOConfig, flash_io_program

        cfg = FlashIOConfig(nxb=2, nyb=2, nzb=2, blocks_per_proc=2,
                            nvars=2, filename="diff", hints=hints)
        return (lambda comm: flash_io_program(cfg, comm, io)), "diff_chk"
    syn = case.synthetic()

    def program(comm):
        ft = filetype_for(syn, comm.rank)
        disp = (rank_offsets_for_interleaved(syn, comm.rank)
                if syn.pattern == "interleaved" else 0)
        f = yield from io.open(comm, "diff", hints=hints)
        f.set_view(disp, BYTE, ft)
        data = deterministic_bytes(comm.rank, ft.size)
        yield from f.write_at_all(0, data)
        got = yield from f.read_at_all(0, ft.size)
        yield from f.close()
        return got

    return program, "diff"


def _run_combo(case: DiffCase, hints: dict, backend: str) -> dict[str, Any]:
    """One verified-mode simulation of ``case`` under ``hints`` on a
    world whose collectives run through ``backend``.

    The correctness oracle is always on, so the run itself raises
    :class:`~repro.errors.ValidationError` on any invariant or oracle
    violation; the returned metrics feed the replay-determinism check.
    """
    from repro.faults import FaultInjector, FaultPlan, RetryPolicy

    injector = None
    retry = None
    plan = FaultPlan.coerce(case.faults)
    if not plan.is_empty:
        injector = FaultInjector(plan, seed=case.seed)
    if any(plan.has_flaky(ost) for ost in range(case.n_osts)):
        # lost RPCs must never exhaust the retry budget in a gate run
        retry = RetryPolicy(max_attempts=12)
    machine = MachineConfig(nprocs=case.nprocs, cores_per_node=2)
    world = World(machine, net_params=NetworkParams(),
                  collective_mode=backend, faults=injector)
    fs = LustreFS(world.engine,
                  LustreParams(n_osts=case.n_osts,
                               default_stripe_count=case.stripe_count,
                               default_stripe_size=case.stripe_size,
                               store_data=True),
                  seed=case.seed, faults=injector, retry=retry)
    if injector is not None:
        injector.validate_platform(fs.params.n_osts, machine.nnodes)
    io = MPIIO(world, fs, validate=True)
    program, fname = _case_program(case, hints, io)
    world.launch(program)
    raw = fs.lookup(fname).contents()
    if case.workload == "synthetic":
        full = np.zeros(file_bytes_total(case.synthetic()), dtype=np.uint8)
        full[: raw.size] = raw
    else:
        full = raw
    return {
        "bytes": full,
        "elapsed": world.engine.now,
        "messages": world.network.messages_sent,
        "events": world.engine.effects_dispatched,
        "report": io.validator.report.to_dict(),
        "checks": io.validator.report.total_checks,
    }


def _byte_diff(name: str, expected: np.ndarray,
               got: np.ndarray) -> Optional[OracleDiff]:
    if expected.size != got.size:
        # workload combos must agree on the written length too
        n = max(expected.size, got.size)
        expected = np.pad(expected, (0, n - expected.size))
        got = np.pad(got, (0, n - got.size))
    bad = np.flatnonzero(expected != got)
    if bad.size == 0:
        return None
    first = int(bad[0])
    lo, hi = max(0, first - 4), min(expected.size, first + 8)
    return OracleDiff(file=name, kind="bytes", offset=first,
                      nbytes=int(bad.size),
                      expected=expected[lo:hi].tolist(),
                      got=got[lo:hi].tolist())


def protocol_combos(case: DiffCase) -> list[tuple[str, dict, str]]:
    """The (label, hints, backend) grid one case races.

    Every protocol in :data:`repro.mpiio.PROTOCOLS` runs on the analytic
    backend; the protocols that actually communicate (parcoll, nodeagg)
    additionally run on the case's drawn backend, and nodeagg runs once
    more composed with FA partitioning.
    """
    parcoll_hints = {"protocol": "parcoll", "parcoll_ngroups": case.ngroups,
                     "parcoll_data_path": case.data_path}
    combos = []
    for name in PROTOCOLS:
        hints = parcoll_hints if name == "parcoll" else {"protocol": name}
        combos.append((f"{name}@analytic", hints, "analytic"))
        if name in ("parcoll", "nodeagg") and case.backend != "analytic":
            combos.append((f"{name}@{case.backend}", hints, case.backend))
    combos.append(("nodeagg+fa@analytic",
                   {"protocol": "nodeagg",
                    "parcoll_ngroups": max(2, case.ngroups)}, "analytic"))
    return combos


def run_case(case: DiffCase) -> dict[str, Any]:
    """Run every protocol/backend combination of one case.

    Returns ``{"case", "ok", "checks", "failures"}`` where failures
    carry enough context (combo label, diff/exception) to replay.
    Synthetic cases diff every combo against the sequential golden;
    workload cases diff combos against the first combo's bytes (each run
    is already byte-checked by its own shadow oracle).
    """
    golden = (golden_bytes(case.synthetic())
              if case.workload == "synthetic" else None)
    combos = protocol_combos(case)
    failures: list[dict[str, Any]] = []
    checks = 0
    replay_probe = None
    for label, hints, backend in combos:
        try:
            out = _run_combo(case, hints, backend)
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            failures.append({"combo": label, "error": f"{type(exc).__name__}: {exc}"})
            continue
        checks += out["checks"]
        if golden is None:
            golden = out["bytes"]
        diff = _byte_diff(label, golden, out["bytes"])
        if diff is not None:
            failures.append({"combo": label, "diff": diff.to_dict()})
        if label.startswith("parcoll@") and "@analytic" not in label:
            replay_probe = (label, hints, backend, out)
    if replay_probe is not None:
        label, hints, backend, first = replay_probe
        try:
            second = _run_combo(case, hints, backend)
        except Exception as exc:  # noqa: BLE001
            failures.append({"combo": f"replay:{label}",
                             "error": f"{type(exc).__name__}: {exc}"})
        else:
            checks += 1
            for metric in ("elapsed", "messages", "events"):
                if first[metric] != second[metric]:
                    failures.append({
                        "combo": f"replay:{label}",
                        "error": (f"non-deterministic {metric}: "
                                  f"{first[metric]!r} != {second[metric]!r}")})
    return {"case": case.to_dict(), "ok": not failures, "checks": checks,
            "failures": failures}


@dataclass
class DifferentialSummary:
    """Aggregated outcome of one harness run (the CI artifact)."""

    seed: int
    cases: int = 0
    passed: int = 0
    checks: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.passed == self.cases

    def to_dict(self) -> dict[str, Any]:
        return {"seed": self.seed, "cases": self.cases, "passed": self.passed,
                "checks": self.checks, "ok": self.ok,
                "failures": self.failures}

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def run_differential(cases: Sequence[DiffCase] | int, seed: int = 0,
                     progress=None) -> DifferentialSummary:
    """Run the harness over ``cases`` (a list, or a count to generate).

    ``progress`` is an optional ``fn(done, total)`` callback.
    """
    if isinstance(cases, int):
        cases = generate_cases(cases, seed=seed)
    summary = DifferentialSummary(seed=seed)
    total = len(cases)
    for i, case in enumerate(cases):
        out = run_case(case)
        summary.cases += 1
        summary.checks += out["checks"]
        if out["ok"]:
            summary.passed += 1
        else:
            summary.failures.append({"case": out["case"],
                                     "failures": out["failures"]})
        if progress is not None:
            progress(i + 1, total)
    return summary
