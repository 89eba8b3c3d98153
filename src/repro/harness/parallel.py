"""Parallel experiment execution with a persistent on-disk run cache.

The paper's methodology is one large parameter sweep after another —
process counts, group counts, stripe settings — and every point is an
independent, deterministic simulation.  This module exploits that:

:class:`ExperimentTask`
    a *picklable* descriptor of one experiment point: an
    :class:`~repro.harness.runner.ExperimentConfig` plus the registered
    name of a workload program and its (picklable) workload config.
    Platform and program are constructed *inside the worker*, so
    generator closures never cross a process boundary.
:class:`RunCache`
    a content-addressed on-disk store of :class:`RunResult` objects
    under ``benchmarks/.runcache/``, keyed by a SHA-256 of the
    experiment config, the workload descriptor, and a hash of the
    package source (the *code version*) — so repeated sweeps
    (golden-section probes, report re-assembly, CI re-runs) skip
    already-computed points, and any code change invalidates every
    entry automatically.
:class:`ExperimentExecutor`
    evaluates batches of tasks, optionally over a process pool
    (``jobs=N``), with order-stable result merging and failure
    propagation that surfaces the worker's original traceback.
    ``jobs=1`` (the default) runs inline and preserves serial behavior
    exactly; results are bit-identical either way because every run is
    a deterministic simulation.

``ExperimentExecutor.from_env()`` honors ``REPRO_JOBS`` (worker count)
and ``REPRO_RUNCACHE`` (``0`` disables the cache;  a path overrides the
cache directory), which is how the benchmark harness and the figure
functions pick up parallelism without plumbing flags everywhere.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import pickle
import tempfile
import traceback
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import partial
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.errors import ConfigError
from repro.harness.runner import (ExperimentConfig, Program, RunResult,
                                  run_experiment)

# ---------------------------------------------------------------------------
# workload-factory registry
# ---------------------------------------------------------------------------
#: name -> program function ``fn(workload_config, comm, io)`` (or
#: ``fn(comm, io)`` for configless programs submitted with
#: ``workload_config=None``)
_WORKLOADS: dict[str, Callable] = {}
_BUILTINS_REGISTERED = False


def register_workload(name: str, program_fn: Callable) -> None:
    """Register ``program_fn`` so tasks can name it across processes.

    ``program_fn(workload_config, comm, io)`` must be an importable
    module-level callable (a worker process resolves it by name through
    this registry after importing the module that registers it).
    """
    if not callable(program_fn):
        raise ConfigError(f"workload factory {name!r} must be callable")
    _WORKLOADS[name] = program_fn


def workload_factory(name: str) -> Callable:
    """Resolve a registered workload-factory name."""
    _register_builtins()
    fn = _WORKLOADS.get(name)
    if fn is None:
        raise ConfigError(
            f"unknown workload factory {name!r}; registered: "
            f"{', '.join(sorted(_WORKLOADS)) or '<none>'}"
        )
    return fn


def available_workloads() -> tuple[str, ...]:
    _register_builtins()
    return tuple(sorted(_WORKLOADS))


def _register_builtins() -> None:
    """Register the paper's workload programs on first use.

    Done lazily (not at import) so ``repro.harness`` does not pull every
    workload module in; a worker process triggers the same registration
    when it resolves its first task.
    """
    global _BUILTINS_REGISTERED
    if _BUILTINS_REGISTERED:
        return
    _BUILTINS_REGISTERED = True
    from repro.workloads import (btio_program, flash_io_program, ior_program,
                                 tile_io_program)

    register_workload("tile_io", tile_io_program)
    register_workload("ior", ior_program)
    register_workload("btio", btio_program)
    register_workload("flash_io", flash_io_program)


# ---------------------------------------------------------------------------
# content hashing
# ---------------------------------------------------------------------------
def _canonical(obj: Any) -> Any:
    """A JSON-serializable canonical form of configs for hashing."""
    if is_dataclass(obj) and not isinstance(obj, type):
        body = {f.name: _canonical(getattr(obj, f.name)) for f in fields(obj)}
        return {"__dataclass__": type(obj).__qualname__, **body}
    if isinstance(obj, dict):
        return {"__dict__": sorted(
            (str(k), _canonical(v)) for k, v in obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (type(None), bool, int, float, str)):
        return obj
    if hasattr(obj, "item"):  # numpy scalars
        return obj.item()
    # last resort: a stable repr (configs are dataclasses in practice)
    return repr(obj)


_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """SHA-256 over every ``repro`` source file (path + contents).

    Part of every cache key, so *any* change to the package invalidates
    the whole run cache — coarse, but sound: a simulation result can
    depend on any module.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        import repro

        root = pathlib.Path(repro.__file__).resolve().parent
        h = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
        _CODE_VERSION = h.hexdigest()
    return _CODE_VERSION


# ---------------------------------------------------------------------------
# task descriptor
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ExperimentTask:
    """One picklable experiment point: platform config + workload name.

    ``workload`` names a factory registered with
    :func:`register_workload`; ``workload_config`` is that program's
    (picklable) config dataclass, or ``None`` for programs taking only
    ``(comm, io)``.  The worker rebuilds the program as
    ``partial(factory, workload_config)`` — no closures are shipped.
    """

    config: ExperimentConfig
    workload: str
    workload_config: Any = None

    def program(self) -> Program:
        fn = workload_factory(self.workload)
        if self.workload_config is None:
            return fn
        return partial(fn, self.workload_config)

    def cache_key(self) -> str:
        """Content hash of (config, workload descriptor, code version).

        The config's ``faults`` field is normalized through
        :meth:`~repro.faults.FaultPlan.coerce` first, so the spellings of
        one platform (``None``, an empty :class:`FaultPlan`, an empty
        event mapping) share a key.  A validating config additionally
        hashes the oracle version: bumping ``ORACLE_VERSION`` re-runs
        every *validated* point without touching unvalidated entries,
        and a cached unvalidated result is never returned for a
        ``--validate`` request (``validate`` is itself part of the
        config hash).
        """
        from repro.faults import FaultPlan

        config = _canonical(self.config)
        plan = FaultPlan.coerce(self.config.faults)
        config["faults"] = None if plan.is_empty else _canonical(plan.to_dict())
        payload = {
            "config": config,
            "workload": self.workload,
            "workload_config": _canonical(self.workload_config),
            "code": code_version(),
        }
        if self.config.validate:
            from repro.validate import ORACLE_VERSION

            payload["oracle"] = ORACLE_VERSION
        blob = json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()

    def run(self) -> RunResult:
        """Run this point inline (used by workers and the serial path)."""
        return run_experiment(self.config, self.program())


# ---------------------------------------------------------------------------
# the run cache
# ---------------------------------------------------------------------------
def default_cache_dir() -> pathlib.Path:
    """``$REPRO_RUNCACHE`` if it names a path, else ``benchmarks/.runcache``
    at the repo root (derived from the package location)."""
    env = os.environ.get("REPRO_RUNCACHE", "")
    if env and env not in ("0", "1"):
        return pathlib.Path(env)
    root = pathlib.Path(__file__).resolve().parents[3]
    return root / "benchmarks" / ".runcache"


@dataclass
class CacheStats:
    """Observable counters of one :class:`RunCache` instance.

    ``corrupt`` counts corrupted-entry fallbacks: entries that existed
    on disk but failed to unpickle (truncated write, version skew) and
    were dropped and recomputed.  Every corrupt fallback also counts as
    a miss.  ``run_report(cache=)`` prints these counters.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0

    def to_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def describe(self) -> str:
        return (f"{self.hits} hits, {self.misses} misses, "
                f"{self.stores} stores, {self.corrupt} corrupt drops")


class RunCache:
    """Content-addressed pickle store of :class:`RunResult` objects.

    Entries are immutable: the key already encodes everything the result
    depends on (config, workload, code version), so there is no
    staleness to manage — only garbage to clear (:meth:`clear`, or just
    delete the directory).  Corrupted entries (truncated writes, version
    skew) are treated as misses and deleted; writes are atomic
    (temp file + :func:`os.replace`), so concurrent workers can share
    one cache directory safely.

    ``stats`` holds the instance's :class:`CacheStats` (hit / miss /
    store / corrupt-fallback counters).
    """

    def __init__(self, root: Optional[os.PathLike | str] = None):
        self.root = pathlib.Path(root) if root is not None else default_cache_dir()
        self.stats = CacheStats()
        self._broken = False  # set when the directory is unwritable

    @property
    def hits(self) -> int:
        return self.stats.hits

    @property
    def misses(self) -> int:
        return self.stats.misses

    def _path(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Optional[RunResult]:
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                result = pickle.load(fh)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except Exception:
            # corrupted entry: drop it and recompute
            try:
                path.unlink()
            except OSError:
                pass
            self.stats.corrupt += 1
            self.stats.misses += 1
            return None
        if not isinstance(result, RunResult):
            self.stats.corrupt += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def put(self, key: str, result: RunResult) -> None:
        if self._broken:
            return
        path = self._path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            self.stats.stores += 1
        except OSError:
            # read-only checkout, full disk, ...: degrade to compute-only
            self._broken = True

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.pkl"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self.root.glob("*/*.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


# ---------------------------------------------------------------------------
# failure propagation
# ---------------------------------------------------------------------------
class RemoteTraceback(Exception):
    """Carries a worker's formatted traceback as the ``__cause__`` of the
    re-raised original exception, so the failure site in the worker is
    visible from the parent's stack trace."""

    def __init__(self, tb: str):
        self.tb = tb
        super().__init__(f"\n--- traceback from worker process ---\n{tb}")


def _execute_task(task: ExperimentTask):
    """Pool entry point: run one task, shipping failures as data."""
    try:
        return True, task.run()
    except BaseException as exc:  # noqa: BLE001 - re-raised in the parent
        tb = traceback.format_exc()
        try:
            pickle.dumps(exc)
        except Exception:
            exc = RuntimeError(f"{type(exc).__name__}: {exc}")
        return False, (exc, tb)


def _reraise(exc: BaseException, tb: str) -> None:
    exc.__cause__ = RemoteTraceback(tb)
    raise exc


# ---------------------------------------------------------------------------
# the executor
# ---------------------------------------------------------------------------
class ExperimentExecutor:
    """Evaluate independent experiment points, in parallel and/or cached.

    ``jobs`` is the process-pool width; ``1`` (default) runs every task
    inline in submission order — exactly the pre-existing serial
    behavior.  ``cache`` is ``True`` (default cache directory),
    ``False`` (always recompute), or a ready :class:`RunCache`.

    :meth:`run_many` is deterministic and order-stable: the returned
    list is index-aligned with the submitted tasks regardless of worker
    completion order, and identical tasks inside one batch are computed
    once.
    """

    def __init__(self, jobs: int = 1,
                 cache: bool | RunCache = True,
                 cache_dir: Optional[os.PathLike | str] = None,
                 validate: bool = False):
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        #: force the correctness oracle on for every submitted config
        self.validate = bool(validate)
        if isinstance(cache, RunCache):
            self.cache: Optional[RunCache] = cache
        elif cache:
            self.cache = RunCache(cache_dir)
        else:
            self.cache = None

    @classmethod
    def from_env(cls, **overrides: Any) -> "ExperimentExecutor":
        """Build from ``REPRO_JOBS`` / ``REPRO_RUNCACHE`` / ``REPRO_VALIDATE``.

        ``REPRO_JOBS=N`` sets the pool width (default 1);
        ``REPRO_RUNCACHE=0`` disables the on-disk cache, any other value
        is a cache-directory override (see :func:`default_cache_dir`);
        ``REPRO_VALIDATE=1`` runs every point under the correctness
        oracle (workers inherit the environment, so the per-platform
        default applies there too — setting ``validate`` here keeps the
        cache keys honest about it).
        """
        from repro.validate import env_validate_enabled

        raw = os.environ.get("REPRO_JOBS", "").strip()
        try:
            jobs = max(1, int(raw)) if raw else 1
        except ValueError:
            raise ConfigError(f"REPRO_JOBS must be an integer, got {raw!r}")
        kwargs: dict[str, Any] = {
            "jobs": jobs,
            "cache": os.environ.get("REPRO_RUNCACHE", "").strip() != "0",
            "validate": env_validate_enabled(),
        }
        kwargs.update(overrides)
        return cls(**kwargs)

    # -- single point -----------------------------------------------------
    def run(self, task: ExperimentTask) -> RunResult:
        return self.run_many([task])[0]

    # -- batches ----------------------------------------------------------
    def run_many(self, tasks: Sequence[ExperimentTask] | Iterable[ExperimentTask]
                 ) -> list[RunResult]:
        tasks = list(tasks)
        for t in tasks:
            if not isinstance(t, ExperimentTask):
                raise ConfigError(
                    f"run_many takes ExperimentTask descriptors, got "
                    f"{type(t).__name__} (wrap configs + registered "
                    "workload names; closures cannot cross processes)"
                )
            workload_factory(t.workload)  # fail fast on unknown names
        if self.validate:
            tasks = [t if t.config.validate
                     else replace(t, config=replace(t.config, validate=True))
                     for t in tasks]
        results: list[Optional[RunResult]] = [None] * len(tasks)

        # keys serve both the disk cache and in-batch deduplication
        keys = [t.cache_key() for t in tasks]
        todo: dict[str, int] = {}  # key -> first index computing it
        for i, (t, key) in enumerate(zip(tasks, keys)):
            if key in todo:
                continue
            if self.cache is not None:
                hit = self.cache.get(key)
                if hit is not None:
                    results[i] = hit
                    continue
            todo[key] = i

        if todo:
            computed = self._compute([tasks[i] for i in todo.values()])
            for key, result in zip(todo, computed):
                if self.cache is not None:
                    self.cache.put(key, result)
        else:
            computed = []
        by_key = dict(zip(todo, computed))
        for i, key in enumerate(keys):
            if results[i] is None:
                results[i] = by_key[key]
        return results  # type: ignore[return-value]

    def _compute(self, tasks: list[ExperimentTask]) -> list[RunResult]:
        if self.jobs == 1 or len(tasks) == 1:
            return [t.run() for t in tasks]
        import concurrent.futures as cf

        out: list[Optional[RunResult]] = [None] * len(tasks)
        workers = min(self.jobs, len(tasks))
        with cf.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(_execute_task, t): i
                       for i, t in enumerate(tasks)}
            for fut in cf.as_completed(futures):
                ok, value = fut.result()
                if not ok:
                    exc, tb = value
                    # cancel what has not started; finish the batch fast
                    for pending in futures:
                        pending.cancel()
                    _reraise(exc, tb)
                out[futures[fut]] = value
        return out  # type: ignore[return-value]


def default_executor() -> ExperimentExecutor:
    """The environment-configured executor (fresh each call, so tests and
    benchmarks can flip ``REPRO_JOBS`` between invocations)."""
    return ExperimentExecutor.from_env()
