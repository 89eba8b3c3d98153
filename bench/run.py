"""The repo benchmark: host time of the simulator on four fixed workloads.

    python3 bench/run.py [--seed S] [--reps N] [--out F]
        every workload, N rounds (default 5), end-to-end metrics
    python3 bench/run.py --trace [--seed S] [--out F]
        every workload once untraced and once under cProfile, per layer
    python3 bench/run.py --workload W --seed S --seconds T --trace 0|1
        one workload; rounds until T seconds have passed (at least 3);
        the last output line is one JSON result object
    python3 bench/run.py --compare A.json B.json
        apply each metric's bound from BENCHMARK.json to two e2e results

Each run is a fresh child process (``bench/child.py``), one at a time: a
closed loop of one.  Rounds interleave the workloads and rotate which
one goes first, so slow spells of a shared host spread over all of
them.  Every run's virtual-time fingerprint must agree with the other
reps and, for the seeds it holds, with ``bench/reference.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"

WORKLOADS = tuple(workloads.WORKLOADS)

#: end-to-end metric -> (unit, the statistic over reps that is its value).
#: A deterministic simulation can only be slowed by host noise, so the
#: fastest rep is the run time that repeats; set-up is short and noisy,
#: so its median is used; memory takes the worst rep.
E2E = {"run_s": ("s", "best"), "setup_s": ("s", "median"),
       "peak_rss_mb": ("MB", "max")}

#: exact counters read from each untraced run -> unit
COUNTERS = {
    "sim.engine.events": "count",
    "sim.engine.events_per_s": "1/s",
    "sim.engine.heap_bypass_ratio": "ratio",
    "simmpi.p2p.exact_matches": "count",
    "simmpi.p2p.wildcard_matches": "count",
    "cluster.messages": "count",
    "simmpi.macro.rounds": "count",
    "simmpi.macro.coalesced_ratio": "ratio",
    "mpiio.two_phase.rounds_planned": "count",
    "mpiio.two_phase.segments_vectorized": "count",
    "lustre.bytes_moved": "B",
    "validate.checks": "count",
}
LAYER_UNITS = {"self_s": "s", "share": "ratio", "calls": "count"}

CHILD_TIMEOUT_S = 120
#: set-up-only children per workload per round, beside the measured run:
#: set-up is a fifth of a second, so one sample per run is too noisy
EXTRA_SETUPS = 2


class ChildFailed(RuntimeError):
    pass


def run_child(name: str, seed: int, mode: str = "run") -> dict:
    """Run one workload once in a fresh process and return its record.

    ``mode`` is ``run``, ``trace`` (under cProfile) or ``setup`` (stop
    after set-up).
    """
    env = {k: v for k, v in os.environ.items() if k != "REPRO_VALIDATE"}
    env["PYTHONPATH"] = str(ROOT / "src")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), name, str(seed), mode],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{name}: no result after {exc.timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise ChildFailed(f"{name}: exit {proc.returncode}: {tail[0]}")
    return json.loads(lines[-1])


def attempt(name: str, seed: int, mode: str = "run") -> dict | ChildFailed:
    """:func:`run_child`, with a failure returned as a value to count."""
    try:
        return run_child(name, seed, mode)
    except ChildFailed as exc:
        return exc


def measure(names, seed: int, min_reps: int,
            seconds: float | None = None) -> dict[str, list]:
    """Interleaved rounds over ``names``; per workload, records or errors.

    Each round runs every workload once plus :data:`EXTRA_SETUPS`
    set-up-only children.  Rounds continue until ``min_reps`` are done
    and, if ``seconds`` is given, until that much time has passed.
    """
    out: dict[str, list] = {n: [] for n in names}
    start = time.monotonic()
    rnd = 0
    while rnd < min_reps or (seconds is not None
                             and time.monotonic() - start < seconds):
        k = rnd % len(names)
        for name in names[k:] + names[:k]:
            out[name].append(attempt(name, seed))
            out[name] += [attempt(name, seed, "setup")
                          for _ in range(EXTRA_SETUPS)]
        rnd += 1
    return out


def timing(values: list[float], stat: str) -> dict:
    """The metric's value plus median, quartiles, max and n of its reps."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    value = {"best": min(values), "median": med, "max": max(values)}[stat]
    return {"value": value, "median": med, "q1": q1, "q3": q3,
            "max": max(values), "n": len(values), "samples": values}


def load_reference() -> dict:
    with open(REFERENCE) as f:
        return json.load(f)


def check(name: str, seed: int, records: list[dict],
          reference: dict) -> list[str]:
    """Why the fingerprints of one workload's runs are wrong, if they are."""
    problems = []
    prints = {r["fingerprint"]["sha256"] for r in records}
    if len(prints) > 1:
        problems.append(f"reps disagree: {len(prints)} fingerprints")
    ref = reference.get(name, {}).get(str(seed))
    if ref is not None and prints and prints != {ref["sha256"]}:
        problems.append(f"fingerprint differs from reference.json seed {seed}")
    return problems


def tally(name: str, seed: int, runs: list, reference: dict) -> dict:
    """Failures, fingerprint and counters of one workload's runs.

    A run fails if it raised, reported an error of its own, or belongs
    to a set whose fingerprints disagree or miss the reference.
    Set-up-only children count as runs, and fail only by raising.
    """
    done = [r for r in runs if isinstance(r, dict)]
    records = [r for r in done if "fingerprint" in r]
    problems = [str(r) for r in runs if not isinstance(r, dict)]
    fp_problems = check(name, seed, records, reference)
    own = [r for r in records if r["errors"]]
    failed = len(runs) - len(done) + len(records if fp_problems else own)
    problems += fp_problems + [e for r in own for e in r["errors"]]
    out = {"attempted": len(runs), "failed": failed,
           "error_rate": failed / len(runs), "problems": problems}
    if records:
        out["fingerprint"] = records[0]["fingerprint"]
        out["counters"] = records[0]["counters"]
        out["numpy"] = records[0]["numpy"]
    return out


def summarize(name: str, seed: int, runs: list, reference: dict) -> dict:
    """One workload's e2e result from its runs (records or failures)."""
    out = tally(name, seed, runs, reference)
    done = [r for r in runs if isinstance(r, dict)]
    records = [r for r in done if "fingerprint" in r]
    if records:
        for metric, (_unit, stat) in E2E.items():
            samples = done if metric == "setup_s" else records
            out[metric] = timing([r[metric] for r in samples], stat)
    return out


def trace_workload(name: str, seed: int, reference: dict) -> dict:
    """One untraced and one cProfile run of a workload."""
    runs = [attempt(name, seed), attempt(name, seed, "trace")]
    plain, traced = runs
    out = tally(name, seed, runs, reference)
    if isinstance(plain, dict) and isinstance(traced, dict):
        out["counters"] = plain["counters"]
        out["layers"] = traced["layers"]
        out["run_s_traced"] = traced["run_s"]
        out["trace.overhead"] = traced["run_s"] / plain["run_s"]
    return out


def stamp(mode: str, seed: int, reps: int | None) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args: str) -> str | None:
        try:
            p = subprocess.run(["git", *args], cwd=ROOT, env=env,
                               capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return p.stdout.strip() if p.returncode == 0 else None

    rev = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if rev else None
    return {"mode": mode, "git_rev": rev,
            "git_dirty": None if status is None else bool(status),
            "cpus": os.cpu_count(), "python": platform.python_version(),
            "seed": seed, "reps": reps,
            "time": time.strftime("%Y-%m-%dT%H:%M:%S%z")}


def write_result(path: str, mode: str, body: dict) -> None:
    """Write ``{mode: body}``; refuse to replace a result of another mode."""
    p = Path(path)
    if p.exists():
        with open(p) as f:
            old = json.load(f)
        if mode not in old:
            raise SystemExit(f"refusing to overwrite {path}: it holds a "
                             f"{'/'.join(old)} result, not {mode}")
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "w") as f:
        json.dump({mode: body}, f, indent=1, sort_keys=True)
        f.write("\n")


def print_e2e(results: dict) -> None:
    print(f"{'workload':23s} {'metric':12s} {'value':>9s} {'median':>9s} "
          f"{'q1':>9s} {'q3':>9s} {'max':>9s} {'n':>3s} unit")
    for name, res in results.items():
        for metric, (unit, stat) in E2E.items():
            if metric in res:
                t = res[metric]
                print(f"{name:23s} {metric:12s} {t['value']:9.4f} "
                      f"{t['median']:9.4f} {t['q1']:9.4f} {t['q3']:9.4f} "
                      f"{t['max']:9.4f} {t['n']:3d} {unit} ({stat})")
        print(f"{name:23s} {'error_rate':12s} {res['error_rate']:9.4f} "
              f"{'':39s} {res['attempted']:3d} ratio")
        print_details(res)


def print_details(res: dict) -> None:
    if "fingerprint" in res:
        fp = res["fingerprint"]
        print(f"  fingerprint {fp['sha256'][:16]}  elapsed_total "
              f"{fp['elapsed_total']}  messages {fp['messages']}")
    for metric, value in res.get("counters", {}).items():
        print(f"  {metric:38s} {value:16.6g} {COUNTERS[metric]}")
    for problem in res["problems"]:
        print(f"  FAILED: {problem}")


def print_trace(results: dict) -> None:
    for name, res in results.items():
        print(f"{name}: trace.overhead "
              f"{res.get('trace.overhead', float('nan')):.2f}x")
        print(f"  {'layer':16s} {'self_s':>9s} {'share':>7s} {'calls':>11s}")
        layers = res.get("layers", {})
        for layer, v in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
            if v["calls"]:
                print(f"  {layer:16s} {v['self_s']:9.4f} {v['share']:7.1%} "
                      f"{v['calls']:11d}")
        print(f"  {'attributed':16s} "
              f"{sum(v['self_s'] for v in layers.values()):9.4f} of "
              f"{res.get('run_s_traced', float('nan')):.4f} s traced wall")
        print_details(res)


def trace_metrics(res: dict) -> dict:
    """The per-layer metrics of one traced workload, by name."""
    out = {}
    for layer, v in res["layers"].items():
        for key, unit in LAYER_UNITS.items():
            out[f"{layer}.{key}"] = (v[key], unit)
    for metric, unit in COUNTERS.items():
        out[metric] = (res["counters"][metric], unit)
    out["trace.overhead"] = (res["trace.overhead"], "ratio")
    return out


def result_line(res: dict, trace: bool) -> str:
    """The one-line JSON result of a single-workload invocation."""
    if trace:
        metrics = trace_metrics(res)
    else:
        metrics = {m: (res[m]["value"], unit) for m, (unit, _s) in E2E.items()}
    return json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}})


def compare(path_a: str, path_b: str) -> int:
    """Print one ok/worse/unresolved row per (metric, workload)."""
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    with open(path_a) as f:
        a = json.load(f)["e2e"]["workloads"]
    with open(path_b) as f:
        b = json.load(f)["e2e"]["workloads"]
    print(f"{'metric':12s} {'workload':23s} {'A':>10s} {'B':>10s} "
          f"{'B/A':>7s} {'A spread':>9s} {'bound':>6s} verdict")
    worse = 0
    for m in spec["end_to_end"]:
        for name in WORKLOADS:
            if name not in a or name not in b:
                continue
            ta, tb = a[name][m["name"]], b[name][m["name"]]
            va, vb = ta["value"], tb["value"]
            spread = (ta["q3"] - ta["q1"]) / ta["median"]
            change = vb / va - 1 if m["better"] == "lower" else 1 - vb / va
            if spread > m["bound"]:
                verdict = "unresolved"
            elif change > m["bound"]:
                verdict = "worse"
            else:
                verdict = "ok"
            worse += verdict == "worse"
            print(f"{m['name']:12s} {name:23s} {va:10.4f} {vb:10.4f} "
                  f"{vb / va:7.3f} {spread:9.1%} {m['bound']:6.0%} {verdict}")
    for name in WORKLOADS:
        if name in b:
            verdict = "ok" if b[name]["error_rate"] == 0 else "worse"
            worse += verdict == "worse"
            print(f"{'error_rate':12s} {name:23s} {a[name]['error_rate']:10.4f} "
                  f"{b[name]['error_rate']:10.4f} {'':7s} {'':9s} "
                  f"{'=0':>6s} {verdict}")
    return 1 if worse else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--reps", type=int,
                    help="rounds (default 5; at least 3 with --seconds)")
    ap.add_argument("--seconds", type=float,
                    help="keep adding rounds until this much time passed")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="per-layer cProfile run instead")
    ap.add_argument("--out", help="write the stamped result to this file")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = load_reference()
    names = (args.workload,) if args.workload else WORKLOADS

    if args.trace:
        mode = "trace"
        results = {n: trace_workload(n, args.seed, reference) for n in names}
        print_trace(results)
    else:
        mode = "e2e"
        reps = args.reps or (3 if args.seconds else 5)
        runs = measure(names, args.seed, reps, args.seconds)
        results = {n: summarize(n, args.seed, runs[n], reference)
                   for n in names}
        print_e2e(results)
    if args.out:
        numpy = next((r["numpy"] for r in results.values() if "numpy" in r),
                     None)
        write_result(args.out, mode, {
            "stamp": {**stamp(mode, args.seed, None if args.trace else reps),
                      "numpy": numpy},
            "workloads": results})
    complete = all("counters" in r and (not args.trace or "layers" in r)
                   for r in results.values())
    if not complete:
        print("no successful run to report for some workload", file=sys.stderr)
        return 1
    if args.workload:
        print(result_line(results[args.workload], bool(args.trace)))
        return 0
    return 0 if all(not r["problems"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
