"""Shared benchmark plumbing.

Every benchmark regenerates one paper figure via
:mod:`repro.harness.figures`, times the full experiment with
pytest-benchmark (one round — these are simulations, deterministic by
construction), prints the paper-style table, and writes it to
``benchmarks/out/`` so EXPERIMENTS.md can be assembled from a run.

Scale is controlled by ``REPRO_SCALE``: ``small`` (default, finishes in
seconds-to-minutes) or ``paper`` (the paper's process counts, minutes+).
Parallelism is controlled by ``REPRO_JOBS`` (worker-process count; the
figure functions pick it up through their default executor) and the
persistent run cache by ``REPRO_RUNCACHE`` (``0`` disables, a path
relocates it) — see :mod:`repro.harness.parallel`.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import subprocess

OUT_DIR = pathlib.Path(__file__).parent / "out"
RUNCACHE_DIR = pathlib.Path(__file__).parent / ".runcache"


def _git_rev() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=pathlib.Path(__file__).parent,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip() or None


def write_mode_result(path: pathlib.Path, benchmark: str, mode: str,
                      result: dict) -> None:
    """Store one mode's (``smoke``/``full``) result in ``path``.

    The file holds one stamped entry per mode, so a smoke run never
    replaces a full-mode result or the other way round.  A file in the
    older single-result layout (a top-level ``mode`` key) is kept as the
    entry of its own mode.
    """
    doc: dict = {}
    if path.exists():
        doc = json.loads(path.read_text())
        if "mode" in doc:
            doc = {doc["mode"]: doc}
    doc = {"benchmark": benchmark, **doc}
    doc[mode] = {"mode": mode, "git_rev": _git_rev(),
                 "cpus": os.cpu_count(),
                 "python": platform.python_version(),
                 "machine": platform.machine(), **result}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n")


def scale() -> str:
    s = os.environ.get("REPRO_SCALE", "small")
    if s not in ("small", "paper"):
        raise ValueError(f"REPRO_SCALE must be 'small' or 'paper', got {s!r}")
    return s


def jobs() -> int:
    """Worker-process count from ``REPRO_JOBS`` (default 1 = serial)."""
    raw = os.environ.get("REPRO_JOBS", "").strip()
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValueError(f"REPRO_JOBS must be an integer, got {raw!r}")


def executor():
    """The environment-configured experiment executor (REPRO_JOBS /
    REPRO_RUNCACHE); what every figure benchmark evaluates through."""
    from repro.harness.parallel import ExperimentExecutor

    return ExperimentExecutor.from_env()


def procs_for(small: tuple[int, ...], paper: tuple[int, ...]) -> tuple[int, ...]:
    return paper if scale() == "paper" else small


def record(result) -> None:
    """Print the figure table and persist it for EXPERIMENTS.md."""
    text = result.to_table()
    print("\n" + text)
    OUT_DIR.mkdir(exist_ok=True)
    slug = result.figure.lower().replace(" ", "")
    (OUT_DIR / f"{slug}.txt").write_text(text + "\n")


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
