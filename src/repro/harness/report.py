"""Plain-text report rendering in the paper's units (MB/s, percent)."""

from __future__ import annotations

from typing import Any, Iterable, Sequence


def mb_per_s(bytes_per_s: float) -> float:
    """Bytes/second to the paper's MB/s (10^6, as IOR reports)."""
    return bytes_per_s / 1e6


def pct(fraction: float) -> str:
    return f"{100.0 * fraction:.1f}%"


def format_cell(v: Any) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 100:
            return f"{v:,.0f}"
        if abs(v) >= 1:
            return f"{v:.2f}"
        return f"{v:.4g}"
    return str(v)


def breakdown_table(breakdown: dict, title: str | None = None) -> str:
    """Per-category time table from a :func:`summarize` breakdown.

    Shows the operation count next to the times — 'fault_retry 0.31s'
    is unreadable without knowing it took 14 lost RPCs to get there.
    """
    headers = ["category", "max (s)", "mean (s)", "sum (s)", "count"]
    rows = [
        [cat,
         v.get("max", 0.0), v.get("mean", 0.0), v.get("sum", 0.0),
         int(v.get("count", 0))]
        for cat, v in sorted(breakdown.items())
    ]
    return format_table(headers, rows, title=title)


def run_report(result: Any, title: str | None = None,
               cache: Any = None) -> str:
    """One run's summary: bandwidth, platform counters, full breakdown.

    ``result`` is a :class:`~repro.harness.runner.RunResult`; the
    breakdown table includes per-category operation counts.  ``cache``
    is an optional :class:`~repro.harness.parallel.RunCache` (or its
    ``CacheStats``) whose hit/miss/store/corrupt counters are appended.
    """
    cfg = result.config
    lines = [title or f"run: {cfg.nprocs} procs, backend {result.backend}"]
    lines.append(f"  write bandwidth: {mb_per_s(result.write_bandwidth):,.1f}"
                 f" MB/s   elapsed: {result.elapsed_total:.4g} s")
    lines.append(f"  events: {result.events:,}   "
                 f"messages: {result.messages:,}")
    perf = getattr(result, "perf", None)
    if perf is not None:
        lines.append("  sim perf: " + "   ".join(
            f"{label} {value}" for label, value in perf.lines()))
    if cache is not None:
        stats = getattr(cache, "stats", cache)
        lines.append(f"  run cache: {stats.describe()}")
    validation = getattr(result, "validation", None)
    if validation is not None:
        checks = validation.get("checks", {})
        nviol = len(validation.get("violations", []))
        state = "OK" if not nviol else f"{nviol} VIOLATION(S)"
        lines.append(f"  validation {state}: "
                     f"{sum(checks.values())} checks "
                     f"({', '.join(f'{k} x{v}' for k, v in sorted(checks.items())) or 'none ran'})")
    lines.append(breakdown_table(result.breakdown))
    return "\n".join(lines)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Any]],
                 title: str | None = None) -> str:
    """Fixed-width table with right-aligned numeric columns."""
    srows = [[format_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in srows:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in srows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
