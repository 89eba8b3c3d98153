"""One measured run of one workload, in a process of its own.

    PYTHONPATH=src python3 bench/child.py <workload> <seed> run|trace|setup

Prints one JSON line with the run's host times, peak RSS, counters and
virtual-time fingerprint, plus the per-layer profile under ``trace``.
``setup_s`` runs from the top of this file through ``import repro``,
workload construction and ``ExperimentConfig.build()``; ``run_s`` is
``World.launch`` alone.  ``setup`` stops after set-up, so set-up can be
sampled more often than the workload is run.  ``bench/run.py`` starts
this file; it is not meant to be run by hand.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def main(argv: list[str]) -> int:
    name, seed, mode = argv[1], int(argv[2]), argv[3]
    import numpy

    import repro
    from repro.perf import collect
    from workloads import BUILDERS, fingerprint

    cfg, program, want_written, want_read = BUILDERS[name](seed)
    world, fs, io = cfg.build()
    setup_s = time.perf_counter() - _T0
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    def rank_main(comm):
        return (yield from program(comm, io))

    prof = None
    if mode == "trace":
        import cProfile

        prof = cProfile.Profile()
    t0 = time.perf_counter()
    if prof is not None:
        prof.enable()
    per_rank = world.launch(rank_main)
    if prof is not None:
        prof.disable()
    run_s = time.perf_counter() - t0

    perf = collect(world, wall_seconds=run_s)
    report = io.validator.report if io.validator is not None else None
    violations = report.to_dict()["violations"] if report is not None else []
    messages = world.network.messages_sent
    counters = {
        "sim.engine.events": perf.effects_dispatched,
        "sim.engine.events_per_s": perf.events_per_sec,
        "sim.engine.heap_bypass_ratio": _ratio(
            perf.heap_bypasses, perf.heap_pushes + perf.heap_bypasses),
        "simmpi.p2p.exact_matches": perf.exact_matches,
        "simmpi.p2p.wildcard_matches": perf.wildcard_matches,
        "cluster.messages": messages,
        "simmpi.macro.rounds": perf.macro_rounds,
        "simmpi.macro.coalesced_ratio": _ratio(perf.messages_coalesced,
                                               messages),
        "mpiio.two_phase.rounds_planned": perf.rounds_planned,
        "mpiio.two_phase.segments_vectorized": perf.segments_vectorized,
        "lustre.bytes_moved": fs.bytes_written + fs.bytes_read,
        "validate.checks": report.total_checks if report is not None else 0,
    }

    errors = [f"oracle violation: {v}" for v in violations]
    written = sum(s.bytes_written for s in per_rank)
    read = sum(s.bytes_read for s in per_rank)
    if (written, read) != (want_written, want_read):
        errors.append(f"moved {written}/{read} bytes written/read, "
                      f"expected {want_written}/{want_read}")
    if cfg.validate and counters["validate.checks"] == 0:
        errors.append("validated run ran no oracle checks")

    out = {
        "workload": name,
        "seed": seed,
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "fingerprint": fingerprint(world, per_rank, cfg, violations),
        "counters": counters,
        "errors": errors,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if prof is not None:
        import pstats

        from layers import attribute

        repro_root = os.path.dirname(os.path.abspath(repro.__file__))
        out["layers"] = attribute(pstats.Stats(prof).stats, repro_root)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
