#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload aids-b20-sqlite --seed 1 --seconds 40 --trace 0

The library is imported from ``src/`` next to this directory.  Human-readable
lines come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``).  The exit code
is 0 only when every answer matched Method M's; it is 2 when the library
cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"

#: Layer self times add up to the traced query time up to float rounding;
#: a larger relative gap means spans did not nest.
ACCOUNTING_TOLERANCE = 1e-6


def _import_library() -> bool:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return False
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    return True


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def report_lines(result) -> list:
    """The human-readable part of the output."""
    from perfbench import metrics

    lines = [f"workload {result.workload} seed {result.seed} trace {int(result.trace)}"]
    details = result.details
    lines.append(
        "  measured {measured_queries} queries in {measured_wall_s:.3f} s; "
        "{latency_samples} latency samples, {samples_above_p99} above p99".format(**details)
    )
    lines.append(
        f"  correctness: {result.attempted} answers checked against Method M "
        f"({details['distinct_queries_checked']} distinct queries), {result.failed} failed, "
        f"failed_frac {result.failed / result.attempted:.6f}"
    )
    if "pool_queries" in details:
        lines.append(
            f"  decode_avoided {details['decode_avoided']} of {details['pool_queries']} pool queries"
        )
    if "first_error" in details:
        lines.append("  first error: " + details["first_error"].splitlines()[-1])
    lines.append("  end-to-end (untraced requests):")
    for name, (unit, _, _) in metrics.END_TO_END.items():
        lines.append(f"    {name:<24} {result.end_to_end[name]:>14.6f} {unit}")
    lines.append("  fingerprint " + json.dumps(result.fingerprint, sort_keys=True))
    if result.trace:
        lines.append("  per-layer (traced requests):")
        for name, (unit, _) in metrics.PER_LAYER.items():
            lines.append(f"    {name:<40} {result.per_layer[name]:>14.6f} {unit}")
        if result.accounting:
            lines.append("  self time along the query path (ms per traced query):")
            for layer, value in result.accounting.items():
                lines.append(f"    {layer:<40} {value:>14.6f}")
            lines.append(
                f"    {'sum':<40} {sum(result.accounting.values()):>14.6f}"
                f"  (traced GraphCache.query {result.details['traced_query_ms']:.6f})"
            )
    return lines


def main(argv=None) -> int:
    args = _parse(argv)
    if not _import_library():
        return 2
    from perfbench.runner import run, source_digest
    from perfbench.workloads import WORKLOADS

    spec = WORKLOADS.get(args.workload)
    if spec is None:
        print(f"perfbench: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    work_dir = WORK_DIR / f"{spec.name}-{os.getpid()}"
    spans_path = WORK_DIR / "spans" / f"{spec.name}-seed{args.seed}.jsonl" if args.trace else None
    result = run(
        spec,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        work_dir=str(work_dir),
        spans_path=None if spans_path is None else str(spans_path),
        oracle_store=str(
            WORK_DIR / "oracle" / f"{spec.name}-{source_digest(str(ROOT / 'src'), str(ROOT / 'perfbench'))}.json"
        ),
    )
    for line in report_lines(result):
        print(line)
    if result.accounting:
        gap = abs(sum(result.accounting.values()) - result.details["traced_query_ms"])
        if gap > ACCOUNTING_TOLERANCE * max(1.0, result.details["traced_query_ms"]):
            print(f"perfbench: layer self times miss the traced query time by {gap} ms", file=sys.stderr)
            return 1
    print(json.dumps(result.final_line()), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
