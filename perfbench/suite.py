#!/usr/bin/env python3
"""Repeat benchmark runs over seeds and print medians, quartiles and spreads.

Usage (from the repository root)::

    python3 perfbench/suite.py --seeds 1-10
    python3 perfbench/suite.py --seeds 1-10 --sets 2 --record
    python3 perfbench/suite.py --workloads aids-zz-mem --seeds 1-5

By default it runs the workloads and run length ``BENCHMARK.json`` declares.

Each run is a separate ``perfbench/run.py`` process; runs go seed by seed,
cycling through the workloads, so slow drift of the host spreads over all
workloads alike.  For every workload and metric the suite prints the median,
the quartiles (``statistics.quantiles(values, n=4)``), the spread (quartile
distance over median) against the metric's bound, and the sample count.
With ``--sets 2`` the whole grid is run twice and the second set's medians
are compared with the first's.  The work-counter fingerprint of each
(workload, seed) must be identical in every run and equal to the one
recorded in ``baseline.json``, traced or not; any difference, failed run or
spread over its bound makes the exit code 1.

``--record`` writes ``perfbench/baseline.json``: the figures, fingerprints,
workload sizes and layer map, with the git commit, CPU count and Python
version they were measured on.  Nothing else writes that file.
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
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"

sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench import metrics  # noqa: E402


def _seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        if "-" in part:
            low, high = part.split("-")
            seeds.extend(range(int(low), int(high) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> Dict[str, object]:
    """One ``run.py`` process; returns its final JSON, fingerprint and duration."""
    started = time.perf_counter()
    completed = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = completed.stdout.strip().splitlines()
    outcome: Dict[str, object] = {
        "exit": completed.returncode,
        "fingerprint": None,
        "duration_s": time.perf_counter() - started,
    }
    for line in lines:
        if line.strip().startswith("fingerprint "):
            outcome["fingerprint"] = json.loads(line.strip()[len("fingerprint ") :])
    try:
        outcome.update(json.loads(lines[-1]))
    except (IndexError, json.JSONDecodeError):
        outcome["stderr"] = completed.stderr[-2000:]
    return outcome


def describe(values: List[float]) -> Dict[str, float]:
    if len(values) >= 2:
        first, _, third = statistics.quantiles(values, n=4)
    else:
        first = third = values[0]
    return {
        "median": statistics.median(values),
        "q1": first,
        "q3": third,
        "spread": metrics.iqr_spread(values),
        "n": len(values),
    }


def main(argv=None) -> int:
    from perfbench.workloads import WORKLOADS

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workloads", default=",".join(w["name"] for w in declared["workloads"])
    )
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    workloads = args.workloads.split(",")
    seeds = _seeds(args.seeds)
    names = list(metrics.PER_LAYER) if args.trace else list(metrics.END_TO_END)
    problems: List[str] = []
    fingerprints: Dict[str, Dict[str, object]] = {w: {} for w in workloads}
    sets: List[Dict[str, Dict[str, Dict[str, float]]]] = []
    durations: List[float] = []

    for set_index in range(args.sets):
        values: Dict[str, Dict[str, List[float]]] = {w: {n: [] for n in names} for w in workloads}
        for seed in seeds:
            for workload in workloads:
                outcome = run_once(workload, seed, args.seconds, args.trace)
                durations.append(outcome["duration_s"])
                tag = f"set {set_index + 1} {workload} seed {seed}"
                if outcome["exit"] != 0 or not outcome.get("correct"):
                    problems.append(f"{tag}: exit {outcome['exit']} {outcome.get('stderr', '')}")
                    print(f"{tag}: FAILED", flush=True)
                    continue
                for name in names:
                    values[workload][name].append(outcome["metrics"][name]["value"])
                known = fingerprints[workload].setdefault(str(seed), outcome["fingerprint"])
                if known != outcome["fingerprint"]:
                    problems.append(f"{tag}: fingerprint {outcome['fingerprint']} != {known}")
                shown = ", ".join(
                    f"{name} {outcome['metrics'][name]['value']:.4g}" for name in names[:4]
                )
                print(f"{tag}: {shown} ({outcome['duration_s']:.0f} s)", flush=True)
        table = {
            w: {n: describe(v) for n, v in per.items() if v} for w, per in values.items()
        }
        sets.append(table)
        print(f"\nset {set_index + 1}: {len(seeds)} seeds, {args.seconds:g} s per run")
        for workload in workloads:
            print(f"  {workload}")
            for name, stats in table[workload].items():
                unit = metrics.END_TO_END[name][0] if name in metrics.END_TO_END else metrics.PER_LAYER[name][0]
                line = (
                    f"    {name:<40} median {stats['median']:>12.5g} {unit:<10}"
                    f" q1 {stats['q1']:>10.5g} q3 {stats['q3']:>10.5g}"
                    f" spread {stats['spread']:.3f} n {stats['n']}"
                )
                if name in metrics.END_TO_END:
                    bound = metrics.END_TO_END[name][2]
                    line += f" (bound {bound})"
                    if name != "setup_s" and stats["spread"] > bound:
                        problems.append(f"set {set_index + 1} {workload} {name}: spread over bound")
                print(line)

    if len(sets) == 2 and not args.trace:
        print("\nsecond set against first (share worse, bound):")
        for workload in workloads:
            for name, (unit, better, bound) in metrics.END_TO_END.items():
                first = sets[0][workload].get(name, {}).get("median")
                second = sets[1][workload].get(name, {}).get("median")
                if not first or second is None:
                    continue
                worse = (second - first) / first if better == "lower" else (first - second) / first
                print(f"  {workload:<16} {name:<20} {worse:+.3f} (bound {bound})")
                if worse > bound:
                    problems.append(f"{workload} {name}: second median worse by {worse:.3f}")

    recorded = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    for section in recorded.values():
        for workload, per_seed in section.get("fingerprints", {}).items():
            for seed, known in per_seed.items():
                seen = fingerprints.get(workload, {}).get(seed)
                if seen is not None and seen != known:
                    problems.append(f"{workload} seed {seed}: fingerprint differs from {BASELINE.name}")

    if args.record:
        record = {
            "git_sha": _git_sha(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "seconds": args.seconds,
            "seeds": seeds,
            "longest_run_s": max(durations),
            "mean_run_s": statistics.mean(durations),
            "trace": args.trace,
            "sets": sets,
            "fingerprints": fingerprints,
            "workloads": {w: WORKLOADS[w].describe() for w in workloads},
            "layer_map": metrics.LAYER_MAP,
        }
        recorded["trace" if args.trace else "end_to_end"] = record
        BASELINE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
        print(f"\nrecorded {BASELINE.relative_to(ROOT)}")

    print(f"\nruns took {statistics.mean(durations):.1f} s on average, {max(durations):.1f} s at most")
    for problem in problems:
        print("PROBLEM " + problem)
    return 1 if problems else 0


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
