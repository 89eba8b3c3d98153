"""Performance observability for the simulation core.

The hot-path optimizations (engine scheduling fast paths, indexed MPI
matching, vectorized two-phase rounds) are only trustworthy while they
stay *visible*: every run samples cheap counters into a
:class:`PerfStats` so a regression shows up in ``run_report`` and the
``faults report`` CLI, not just in the dedicated benchmarks.

Counter sources:

* the engine counts effects dispatched and scheduler entries by path
  (binary heap vs the same-time ready deque), and the cyclic-GC passes
  and pause seconds that fell inside its run;
* every mailbox counts matches by path (exact ``(ctx, src, tag)`` bucket
  hit vs ordered wildcard scan);
* the two-phase hot loops count segments that went through the
  vectorized gather/scatter and the all-rounds planner (process-global
  :data:`perf_counters`, reset at each sampling point).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional


@dataclass
class PerfStats:
    """Counters sampled from one simulation run."""

    #: host wall-clock seconds spent inside the run (0 when not timed)
    wall_seconds: float = 0.0
    #: total effects the engine dispatched (virtual-work volume)
    effects_dispatched: int = 0
    #: scheduler entries that went through the binary heap
    heap_pushes: int = 0
    #: scheduler entries that took the same-time ready-deque fast path
    heap_bypasses: int = 0
    #: MPI matches resolved via the exact (ctx, src, tag) dict index
    exact_matches: int = 0
    #: MPI matches that consulted the ordered wildcard path
    wildcard_matches: int = 0
    #: segments the copy kernel (``datatypes.packing.copy_segments``)
    #: moved by row gather rather than by slice loop
    segments_vectorized: int = 0
    #: window pieces produced by the all-rounds two-phase planner
    rounds_planned: int = 0
    #: rounds whose message schedule was coalesced into closed form
    macro_rounds: int = 0
    #: per-message simulation steps replaced by macro schedules
    messages_coalesced: int = 0
    #: cyclic-GC passes per generation (0, 1, 2) during the engine run
    gc_collections: tuple[int, int, int] = (0, 0, 0)
    #: host seconds the cyclic collector paused the engine run for
    gc_pause_s: float = 0.0
    #: shard-observability block of a sharded run (None on unsharded
    #: runs): requested/effective shard counts, fallback reason,
    #: synchronization rounds, per-shard event counts, wall and CPU
    #: times, and the load-imbalance ratio (max shard CPU / mean)
    shard: Optional[dict] = None

    @property
    def events_per_sec(self) -> float:
        """Engine throughput: effects dispatched per host wall second."""
        if self.wall_seconds > 0:
            return self.effects_dispatched / self.wall_seconds
        return 0.0

    def lines(self) -> list[tuple[str, str]]:
        """(label, value) pairs for report rendering."""
        out = []
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name == "wall_seconds":
                if v:
                    out.append(("wall seconds", f"{v:.3f}"))
                continue
            if f.name == "shard":
                continue  # rendered below from the dict
            if f.name == "gc_collections":
                out.append(("gc collections (gen 0/1/2)",
                            "/".join(f"{n:,}" for n in v)))
                continue
            if f.name == "gc_pause_s":
                out.append(("gc pause seconds", f"{v:.3f}"))
                continue
            out.append((f.name.replace("_", " "), f"{v:,}"))
        if self.wall_seconds > 0:
            out.append(("events per sec", f"{self.events_per_sec:,.0f}"))
        if self.shard:
            sh = self.shard
            out.append(("shards (effective/requested)",
                        f"{sh.get('effective', 1)}/{sh.get('shards', 1)}"))
            if sh.get("fallback_reason"):
                out.append(("shard fallback", str(sh["fallback_reason"])))
            if sh.get("sync_rounds"):
                out.append(("shard sync rounds", f"{sh['sync_rounds']:,}"))
            if "max_shard_wall" in sh:
                out.append(("shard wall max/min",
                            f"{sh['max_shard_wall']:.3f}/"
                            f"{sh['min_shard_wall']:.3f}"))
            if "max_shard_cpu" in sh:
                out.append(("shard cpu max (critical path)",
                            f"{sh['max_shard_cpu']:.3f}"))
            if "load_imbalance" in sh:
                out.append(("shard load imbalance",
                            f"{sh['load_imbalance']:.2f}x"))
        return out


class _HotCounters:
    """Process-global counters for hot paths with no natural handle.

    The copy kernel and the two-phase planner are plain functions;
    threading a stats object through every call would cost more than
    the counting.
    ``sample_and_reset`` is called once per run by the harness, so sweep
    workers (separate processes) never mix counts.
    """

    __slots__ = ("segments_vectorized", "rounds_planned", "macro_rounds",
                 "messages_coalesced")

    def __init__(self) -> None:
        self.segments_vectorized = 0
        self.rounds_planned = 0
        self.macro_rounds = 0
        self.messages_coalesced = 0

    def sample_and_reset(self) -> tuple[int, int, int, int]:
        out = (self.segments_vectorized, self.rounds_planned,
               self.macro_rounds, self.messages_coalesced)
        self.segments_vectorized = 0
        self.rounds_planned = 0
        self.macro_rounds = 0
        self.messages_coalesced = 0
        return out


perf_counters = _HotCounters()


def collect(world, wall_seconds: float = 0.0,
            reset_hot: bool = True) -> PerfStats:
    """Sample a :class:`PerfStats` from a completed (or running) world."""
    eng = world.engine
    exact = 0
    wild = 0
    for proc in world.procs:
        mbox = proc.mailbox
        exact += mbox.exact_matches
        wild += mbox.wildcard_matches
    if reset_hot:
        seg_vec, planned, macro, coalesced = perf_counters.sample_and_reset()
    else:
        seg_vec = perf_counters.segments_vectorized
        planned = perf_counters.rounds_planned
        macro = perf_counters.macro_rounds
        coalesced = perf_counters.messages_coalesced
    return PerfStats(
        wall_seconds=wall_seconds,
        effects_dispatched=eng.effects_dispatched,
        heap_pushes=eng.heap_pushes,
        heap_bypasses=eng.heap_bypasses,
        exact_matches=exact,
        wildcard_matches=wild,
        segments_vectorized=seg_vec,
        rounds_planned=planned,
        macro_rounds=macro,
        messages_coalesced=coalesced,
        gc_collections=tuple(eng.gc_collections),
        gc_pause_s=eng.gc_pause_s,
    )


def merge(stats: "list[PerfStats]") -> PerfStats:
    """Sum counters (and wall seconds) over several runs' stats."""
    out = PerfStats()
    for st in stats:
        if st is None:
            continue
        for f in fields(PerfStats):
            if f.name == "shard":
                continue  # not a counter; carried below
            if f.name == "gc_collections":
                out.gc_collections = tuple(
                    a + b for a, b in zip(out.gc_collections,
                                          st.gc_collections))
                continue
            setattr(out, f.name, getattr(out, f.name) + getattr(st, f.name))
        shard = getattr(st, "shard", None)
        if out.shard is None and shard is not None:
            out.shard = shard
    return out


def profile_experiment(run_fn, top: int = 25,
                       sort: str = "cumulative") -> str:
    """Run ``run_fn()`` under cProfile; returns the formatted top-N table."""
    import cProfile
    import io
    import pstats

    prof = cProfile.Profile()
    prof.enable()
    run_fn()
    prof.disable()
    buf = io.StringIO()
    pstats.Stats(prof, stream=buf).sort_stats(sort).print_stats(top)
    return buf.getvalue()
