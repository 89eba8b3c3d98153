"""Command-line interface: regenerate figures and inspect the platform.

Usage::

    python -m repro.cli figure 7 [--scale paper] [-j 4]
    python -m repro.cli figure 9 --collective-mode scoped:world=analytic
    python -m repro.cli figures -j 4        # all of them, 4 workers
    python -m repro.cli backends            # collective-fidelity backends
    python -m repro.cli protocols           # collective-I/O protocols
    python -m repro.cli faults classes      # available fault classes
    python -m repro.cli faults sweep straggler [--severities 0.5,0.9]
    python -m repro.cli faults report       # per-class impact comparison
    python -m repro.cli perf profile tileio_detailed [--full] [--top 25]
    python -m repro.cli perf list           # profileable experiments
    python -m repro.cli cache [--clear]     # inspect / clear the run cache
    python -m repro.cli validate differential [--cases 200] [--seed 0]
    python -m repro.cli list                # what is available

``--jobs/-j N`` evaluates each figure's experiment grid on an N-worker
process pool (default 1 — serial, results are bit-identical either way);
``--no-cache`` bypasses the persistent run cache under
``benchmarks/.runcache/``.  The ``REPRO_JOBS`` / ``REPRO_RUNCACHE``
environment variables set the defaults (see
:mod:`repro.harness.parallel`).

``--collective-mode`` selects the collective-fidelity backend
('analytic', 'detailed', 'macro' or
'scoped[:world=<fidelity>,default=<fidelity>]') for the figures whose
sweeps support it; see :mod:`repro.simmpi.backends`.

``--validate`` runs every experiment point under the
:mod:`repro.validate` correctness oracle (``REPRO_VALIDATE=1`` sets the
default); validated and unvalidated runs never share run-cache entries.
``validate differential`` is the standalone generator-fleet gate.

The same figure definitions back the pytest benchmarks; the CLI is for
interactive exploration without the pytest machinery.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import Callable, Optional

from repro.harness import figures

FIGURES: dict[str, Callable] = {
    "1": figures.fig01_collective_wall,
    "2": figures.fig02_breakdown,
    "5": figures.fig05_aggregator_distribution,
    "6": figures.fig06_ior,
    "7": figures.fig07_tileio_groups,
    "8": figures.fig08_sync_reduction,
    "9": figures.fig09_scalability,
    "10": figures.fig10_btio,
    "11": figures.fig11_flashio,
}

#: figures whose functions accept a ``scale`` keyword
_SCALED = {"1", "2", "6", "7", "8", "9", "10", "11"}


def _make_executor(jobs: Optional[int], no_cache: bool,
                   validate: bool = False):
    """An executor honoring flags first, then the environment."""
    from repro.harness.parallel import ExperimentExecutor

    overrides = {}
    if jobs is not None:
        overrides["jobs"] = jobs
    if no_cache:
        overrides["cache"] = False
    if validate:
        overrides["validate"] = True
    return ExperimentExecutor.from_env(**overrides)


def _run_figure(number: str, scale: str, chart: bool = False,
                collective_mode: str | None = None,
                executor=None) -> int:
    fn = FIGURES.get(number)
    if fn is None:
        print(f"unknown figure {number!r}; available: "
              f"{', '.join(sorted(FIGURES, key=lambda s: int(s)))}",
              file=sys.stderr)
        return 2
    params = inspect.signature(fn).parameters
    kwargs = {"scale": scale} if number in _SCALED else {}
    if executor is not None and "executor" in params:
        kwargs["executor"] = executor
    if collective_mode is not None:
        if "collective_mode" not in params:
            print(f"figure {number} does not support --collective-mode",
                  file=sys.stderr)
            return 2
        from repro.errors import MPIError
        from repro.simmpi.backends import resolve_backend

        try:
            resolve_backend(collective_mode)
        except MPIError as exc:
            print(f"bad --collective-mode: {exc}", file=sys.stderr)
            return 2
        kwargs["collective_mode"] = collective_mode
    result = fn(**kwargs)
    print(result.to_table())
    if chart:
        from repro.harness.plots import figure_chart

        print()
        print(figure_chart(result))
    return 0


def _run_faults(args: argparse.Namespace) -> int:
    from repro.errors import ConfigError
    from repro.harness.fault_sweep import FAULT_CLASSES, fault_sweep

    if args.faults_command == "classes":
        for name in sorted(FAULT_CLASSES):
            fc = FAULT_CLASSES[name]
            sevs = ", ".join(f"{s:g}" for s in fc.severities)
            print(f"{name:>10}: {fc.description}")
            print(f"{'':>10}  severities [{sevs}], probe {fc.probe:g}, "
                  f"collectives {fc.collective_mode}")
        return 0
    executor = _make_executor(args.jobs, args.no_cache, validate=args.validate)
    if args.faults_command == "sweep":
        severities = None
        if args.severities:
            try:
                severities = tuple(float(s)
                                   for s in args.severities.split(","))
            except ValueError:
                print(f"bad --severities {args.severities!r}: expected "
                      "comma-separated numbers", file=sys.stderr)
                return 2
        try:
            result = fault_sweep(args.fault_class, severities=severities,
                                 scale=args.scale,
                                 collective_mode=args.collective_mode,
                                 executor=executor)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(result.to_table())
        if args.chart:
            from repro.harness.plots import figure_chart

            retained = [k for k in result.series if k.endswith(" retained")]
            print()
            print(figure_chart(result, series_names=retained, logx=False))
        return 0
    if args.faults_command == "report":
        from repro.analysis import fault_impact

        print(fault_impact(scale=args.scale, executor=executor).summary())
        return 0
    return 2  # pragma: no cover


def _run_perf(args: argparse.Namespace) -> int:
    from repro.harness.hotpath import CONFIGS, profile_config

    if args.perf_command == "list":
        for name, builder in sorted(CONFIGS.items()):
            doc = (builder.__doc__ or "").strip().splitlines()[0]
            print(f"{name:>16}: {doc}")
        return 0
    if args.perf_command == "profile":
        if args.experiment not in CONFIGS:
            print(f"unknown experiment {args.experiment!r}; available: "
                  f"{', '.join(sorted(CONFIGS))}", file=sys.stderr)
            return 2
        if args.shards < 1:
            print(f"bad --shards {args.shards}: must be >= 1",
                  file=sys.stderr)
            return 2
        table, perf = profile_config(args.experiment, smoke=not args.full,
                                     top=args.top, sort=args.sort,
                                     shards=args.shards)
        scale = "full" if args.full else "smoke"
        sharded = f", {args.shards} shards" if args.shards > 1 else ""
        print(f"profile of {args.experiment} ({scale} scale{sharded}, "
              "cProfile overhead included):")
        print(table)
        print("sim perf counters:")
        for label, value in perf.lines():
            print(f"  {label}: {value}")
        return 0
    return 2  # pragma: no cover


def _run_validate(args: argparse.Namespace) -> int:
    from repro.validate.differential import run_differential

    def progress(done: int, total: int) -> None:
        if done % 25 == 0 or done == total:
            print(f"  {done}/{total} cases", file=sys.stderr)

    summary = run_differential(args.cases, seed=args.seed,
                               progress=progress)
    if args.out:
        summary.write_json(args.out)
        print(f"report written to {args.out}")
    print(f"differential: {summary.passed}/{summary.cases} cases passed, "
          f"{summary.checks} oracle/invariant checks, seed {summary.seed}")
    if not summary.ok:
        for failed in summary.failures[:5]:
            print(f"FAILED case: {failed['case']}", file=sys.stderr)
            for item in failed["failures"]:
                print(f"  {item}", file=sys.stderr)
        if len(summary.failures) > 5:
            print(f"... and {len(summary.failures) - 5} more "
                  "(see the JSON report)", file=sys.stderr)
        return 1
    return 0


def _add_parallel_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-j", "--jobs", type=int, default=None, metavar="N",
                        help="evaluate experiment grids on N worker "
                             "processes (default: $REPRO_JOBS or 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the persistent run cache "
                             "(benchmarks/.runcache/)")
    parser.add_argument("--validate", action="store_true",
                        help="run every experiment point under the "
                             "correctness oracle (default: $REPRO_VALIDATE)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ParColl reproduction: regenerate paper figures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig = sub.add_parser("figure", help="regenerate one figure")
    p_fig.add_argument("number", help="paper figure number (1..11)")
    p_fig.add_argument("--scale", choices=("small", "paper"),
                       default="small")
    p_fig.add_argument("--chart", action="store_true",
                       help="also render a terminal chart of the series")
    p_fig.add_argument("--collective-mode", default=None, metavar="SPEC",
                       help="collective-fidelity backend for the sweep "
                            "(analytic, detailed, macro, scoped[:<spec>])")
    _add_parallel_flags(p_fig)

    p_all = sub.add_parser("figures", help="regenerate every figure")
    p_all.add_argument("--scale", choices=("small", "paper"),
                       default="small")
    _add_parallel_flags(p_all)

    sub.add_parser("backends", help="list collective-fidelity backends")
    sub.add_parser("protocols", help="list collective-I/O protocols")

    p_faults = sub.add_parser(
        "faults", help="fault-injection sweeps and impact reports")
    f_sub = p_faults.add_subparsers(dest="faults_command", required=True)
    f_sweep = f_sub.add_parser(
        "sweep", help="degradation curves for one fault class")
    f_sweep.add_argument("fault_class", nargs="?", default="straggler",
                         help="fault class (see 'faults classes'); "
                              "default straggler")
    f_sweep.add_argument("--scale", choices=("small", "paper"),
                         default="small")
    f_sweep.add_argument("--severities", default=None, metavar="S1,S2,...",
                         help="comma-separated severities in [0,1) "
                              "(default: the class's grid)")
    f_sweep.add_argument("--collective-mode", default=None, metavar="SPEC",
                         help="override the class's collective-fidelity "
                              "backend")
    f_sweep.add_argument("--chart", action="store_true",
                         help="also render a terminal chart of the "
                              "retained-speed curves")
    _add_parallel_flags(f_sweep)
    f_report = f_sub.add_parser(
        "report", help="probe every fault class, compare protocol damage")
    f_report.add_argument("--scale", choices=("small", "paper"),
                          default="small")
    _add_parallel_flags(f_report)
    f_sub.add_parser("classes", help="list fault classes")

    p_perf = sub.add_parser(
        "perf", help="profile the simulation core on a hot-path workload")
    perf_sub = p_perf.add_subparsers(dest="perf_command", required=True)
    p_profile = perf_sub.add_parser(
        "profile", help="run a named experiment under cProfile")
    p_profile.add_argument("experiment",
                           help="hot-path experiment name (see "
                                "'perf list'): tileio_detailed, "
                                "btio_iview, flash_verified")
    p_profile.add_argument("--full", action="store_true",
                           help="full-size config (default: smoke scale)")
    p_profile.add_argument("--top", type=int, default=25, metavar="N",
                           help="show the N hottest functions (default 25)")
    p_profile.add_argument("--sort", default="cumulative",
                           choices=("cumulative", "tottime", "calls"),
                           help="cProfile sort order")
    p_profile.add_argument("--shards", type=int, default=1, metavar="N",
                           help="partition the run across N engine "
                                "shards (parcoll workloads only; others "
                                "fall back to one engine)")
    perf_sub.add_parser("list", help="list profileable experiments")

    p_cache = sub.add_parser("cache",
                             help="inspect or clear the persistent run cache")
    p_cache.add_argument("--clear", action="store_true",
                         help="delete every cached run result")

    p_val = sub.add_parser(
        "validate", help="correctness-oracle harnesses")
    v_sub = p_val.add_subparsers(dest="validate_command", required=True)
    v_diff = v_sub.add_parser(
        "differential",
        help="run generated cases through every protocol/backend "
             "combination against the golden oracle")
    v_diff.add_argument("--cases", type=int, default=200, metavar="N",
                        help="number of generated cases (default 200)")
    v_diff.add_argument("--seed", type=int, default=0,
                        help="case-generator seed (default 0)")
    v_diff.add_argument("--out", default=None, metavar="PATH",
                        help="write the JSON report here (the CI "
                             "oracle-diff artifact)")

    sub.add_parser("list", help="list available figures")

    args = parser.parse_args(argv)
    if args.command == "figure":
        executor = _make_executor(args.jobs, args.no_cache, validate=args.validate)
        return _run_figure(args.number, args.scale, chart=args.chart,
                           collective_mode=args.collective_mode,
                           executor=executor)
    if args.command == "figures":
        executor = _make_executor(args.jobs, args.no_cache, validate=args.validate)
        status = 0
        for number in sorted(FIGURES, key=lambda s: int(s)):
            status |= _run_figure(number, args.scale, executor=executor)
            print()
        return status
    if args.command == "faults":
        return _run_faults(args)
    if args.command == "perf":
        return _run_perf(args)
    if args.command == "backends":
        from repro.simmpi.backends import BACKEND_NAMES, resolve_backend

        for name in BACKEND_NAMES:
            print(f"{name:>10}: {resolve_backend(name).describe()}")
        return 0
    if args.command == "protocols":
        from repro.mpiio.file import PROTOCOLS

        for name in PROTOCOLS:
            print(name)
        return 0
    if args.command == "cache":
        from repro.harness.parallel import RunCache

        cache = RunCache()
        if args.clear:
            print(f"removed {cache.clear()} entries from {cache.root}")
        else:
            print(f"run cache: {cache.root}")
            print(f"entries:   {len(cache)}")
        return 0
    if args.command == "validate":
        return _run_validate(args)
    if args.command == "list":
        for number in sorted(FIGURES, key=lambda s: int(s)):
            doc = (FIGURES[number].__doc__ or "").strip().splitlines()[0]
            print(f"figure {number:>2}: {doc}")
        return 0
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
