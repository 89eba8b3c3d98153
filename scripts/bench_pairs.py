"""Paired runs of the repo benchmark on two checkouts, in alternating order.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload W --seed S
        [--pairs N]

Runs ``bench/run.py --workload W --seed S --seconds T`` from each
checkout, T being ``run_seconds`` in BENCHMARK.json, one run at a time,
for N pairs (default 10).  Pair i runs the parent first when i
is even and the change first when it is odd, so neither side always
runs first, into the same slow spell of a shared host or after the
other has warmed its caches.  For every end-to-end metric in
BENCHMARK.json it prints each side's median and quartiles, the
change/parent ratio of each pair, the change's wins, and whether a gain
claim holds: the change wins at least 9 of every 10 pairs, and its
median beats the parent's by more than the parent's interquartile
range.  Exits 1 if a run fails or misses its fingerprint.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``, computed as ``bench/run.py`` does."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def claim(parent: list[float], change: list[float], better: str) -> dict:
    """The claim rule on one metric's paired values (pair i = index i).

    ``better`` is ``"lower"`` or ``"higher"``.  The claim holds when the
    change wins at least 9 of every 10 pairs and the medians differ, in
    the change's favour, by more than the parent's interquartile range.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same nonzero number of runs a side")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    gap = sign * (pmed - cmed)
    iqr = pq3 - pq1
    return {"parent": (pq1, pmed, pq3), "change": (cq1, cmed, cq3),
            "ratios": [c / p for p, c in zip(parent, change)],
            "wins": wins, "pairs": len(parent), "gap": gap, "iqr": iqr,
            "holds": 10 * wins >= 9 * len(parent) and gap > iqr}


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py --workload`` invocation's JSON result line."""
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise SystemExit(f"{root}: exit {proc.returncode}: {tail[0]}")
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        raise SystemExit(f"{root}: {res['failed']} failed run(s) or a "
                         "fingerprint mismatch")
    return {k: v["value"] for k, v in res["metrics"].items()}


def main(argv: list[str] | None = None) -> int:
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_side(sides[side], args.workload, args.seed,
                                       spec["run_seconds"]))
        print(f"pair {i + 1}/{args.pairs} ({order[0]} first): "
              + "  ".join(f"{m} {runs['parent'][-1][m]:.4g} -> "
                          f"{runs['change'][-1][m]:.4g}"
                          for m in runs["parent"][-1]), flush=True)

    print(f"\n{args.workload} seed {args.seed}, {args.pairs} pairs, "
          "alternating order")
    for m in spec["end_to_end"]:
        name = m["name"]
        res = claim([r[name] for r in runs["parent"]],
                    [r[name] for r in runs["change"]], m["better"])
        pq1, pmed, pq3 = res["parent"]
        cq1, cmed, cq3 = res["change"]
        print(f"{name} ({m['unit']}, {m['better']} is better)")
        print(f"  parent median {pmed:.4g}  q1 {pq1:.4g}  q3 {pq3:.4g}")
        print(f"  change median {cmed:.4g}  q1 {cq1:.4g}  q3 {cq3:.4g}")
        print("  change/parent per pair: "
              + " ".join(f"{x:.3f}" for x in res["ratios"]))
        print(f"  change wins {res['wins']} of {res['pairs']}; median "
              f"{cmed / pmed - 1:+.1%}; gap {res['gap']:.4g} vs parent "
              f"IQR {res['iqr']:.4g}: claim "
              f"{'holds' if res['holds'] else 'does not hold'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
