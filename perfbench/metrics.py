"""Metric definitions and the arithmetic behind them.

End-to-end metrics are what a user of the cache sees, measured with tracing
off.  Per-layer metrics come from the traced run: from the spans of
:mod:`perfbench.tracing` for the in-process workloads, and from the replies'
``stage_times`` plus parent-side spans for the process pool.  Every
``*_ms_per_query`` / ``*_ms_per_round`` layer time is a *self* time (the
layer's spans minus the traced calls they make into other layers), so along
the query path the layer times and ``pipeline.query_self_ms`` add up to the
traced ``GraphCache.query`` time.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.pipeline import STAGE_NAMES

from .tracing import SpanSummary

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "LAYER_MAP",
    "percentile",
    "iqr_spread",
    "child_pids",
    "cpu_seconds",
    "peak_rss_kib",
    "in_process_layers",
    "PoolLayerSums",
    "pool_layers",
]

#: name -> (unit, better, bound).  ``ok_frac`` is 1 - failed_frac: a metric
#: that is 0 on every correct run cannot carry a relative bound.
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "qps": ("queries/s", "higher", 0.25),
    "latency_p50_ms": ("ms", "lower", 0.25),
    "latency_p99_ms": ("ms", "lower", 0.25),
    "cpu_ms_per_query": ("ms", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.05),
    "ok_frac": ("ratio", "higher", 0.01),
}

#: name -> (unit, better), in report order.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "ftv.build_s": ("s", "lower"),
    "ftv.filter_ms": ("ms", "lower"),
    "ftv.candidates_per_query": ("count", "lower"),
    "verify.ms_per_query": ("ms", "lower"),
    "verify.tests_per_query": ("count", "lower"),
    "verify.nodes_per_test": ("count", "lower"),
    "verify.match_ratio": ("ratio", "higher"),
    "processors.ms_per_query": ("ms", "lower"),
    "query_index.lookup_ms_per_query": ("ms", "lower"),
    "processors.containment_tests_per_query": ("count", "lower"),
    "processors.memo_hit_ratio": ("ratio", "higher"),
    "processors.hit_ratio": ("ratio", "higher"),
    "pruner.ms_per_query": ("ms", "lower"),
    "pruner.candidate_reduction": ("ratio", "higher"),
    "pruner.exact_hit_ratio": ("ratio", "higher"),
    "pruner.subiso_alleviated_per_query": ("count", "higher"),
    "pipeline.query_self_ms": ("ms", "lower"),
    "window.add_ms_per_query": ("ms", "lower"),
    "maintenance.rounds": ("1/kq", "lower"),
    "maintenance.decide_ms_per_round": ("ms", "lower"),
    "maintenance.apply_ms_per_round": ("ms", "lower"),
    "maintenance.admitted_per_round": ("count", "lower"),
    "maintenance.evicted_per_round": ("count", "lower"),
    "query_index.update_ms_per_round": ("ms", "lower"),
    "journal.append_ms_per_round": ("ms", "lower"),
    "journal.bytes_per_round": ("B", "lower"),
    "backend.put_per_query": ("count", "lower"),
    "backend.get_per_query": ("count", "lower"),
    "backend.delete_per_query": ("count", "lower"),
    "backend.ms_per_query": ("ms", "lower"),
    "backend.wait_frac": ("ratio", "lower"),
    "workers.start_s": ("s", "lower"),
    "workers.roundtrip_ms_per_batch": ("ms", "lower"),
    "workers.busy_ms_per_batch": ("ms", "lower"),
    "workers.wait_ms_per_batch": ("ms", "lower"),
    "workers.imbalance": ("ratio", "lower"),
    "workers.decode_avoided_ratio": ("ratio", "higher"),
    "packed.encode_ms_per_query": ("ms", "lower"),
    "packed.bytes_per_query": ("B", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

#: layer -> (its metrics' prefix, end-to-end metrics it should move, workloads
#: where it should show).  Written down before measuring; recorded with the
#: baseline.
LAYER_MAP: Dict[str, Dict[str, object]] = {
    "ftv (repro.ftv)": {
        "metrics": ["ftv.build_s", "ftv.filter_ms", "ftv.candidates_per_query"],
        "moves": ["setup_s", "latency_p50_ms"],
        "on": "all; most on aids-zz-mem",
    },
    "isomorphism (repro.isomorphism via Method.verify)": {
        "metrics": ["verify.ms_per_query", "verify.tests_per_query", "verify.nodes_per_test", "verify.match_ratio"],
        "moves": ["qps", "latency_p99_ms"],
        "on": "aids-zz-mem, pdbs-uu-pool2; no move on aids-b20-sqlite",
    },
    "processors (repro.core.processors, query_index)": {
        "metrics": [
            "processors.ms_per_query",
            "query_index.lookup_ms_per_query",
            "processors.containment_tests_per_query",
            "processors.memo_hit_ratio",
            "processors.hit_ratio",
        ],
        "moves": ["latency_p50_ms"],
        "on": "aids-zz-mem (benefit), pdbs-uu-pool2 (pure overhead)",
    },
    "pruner (repro.core.pruner)": {
        "metrics": [
            "pruner.ms_per_query",
            "pruner.candidate_reduction",
            "pruner.exact_hit_ratio",
            "pruner.subiso_alleviated_per_query",
        ],
        "moves": ["qps"],
        "on": "aids-zz-mem, aids-b20-sqlite",
    },
    "pipeline (repro.core.pipeline, cache)": {
        "metrics": ["pipeline.query_self_ms", "window.add_ms_per_query"],
        "moves": ["latency_p50_ms"],
        "on": "all",
    },
    "policies (repro.core.policies)": {
        "metrics": [
            "maintenance.rounds",
            "maintenance.decide_ms_per_round",
            "maintenance.apply_ms_per_round",
            "maintenance.admitted_per_round",
            "maintenance.evicted_per_round",
            "query_index.update_ms_per_round",
        ],
        "moves": ["latency_p99_ms"],
        "on": "aids-b20-sqlite (the window-completing query pays the round)",
    },
    "journal (repro.core.policies.journal)": {
        "metrics": ["journal.append_ms_per_round", "journal.bytes_per_round"],
        "moves": ["latency_p99_ms", "qps"],
        "on": "aids-b20-sqlite only",
    },
    "backends (repro.core.backends)": {
        "metrics": [
            "backend.put_per_query",
            "backend.get_per_query",
            "backend.delete_per_query",
            "backend.ms_per_query",
            "backend.wait_frac",
        ],
        "moves": ["qps", "cpu_ms_per_query", "latency_p50_ms"],
        "on": "aids-b20-sqlite; about 0 on aids-zz-mem",
    },
    "workers (repro.core.workers)": {
        "metrics": [
            "workers.start_s",
            "workers.roundtrip_ms_per_batch",
            "workers.busy_ms_per_batch",
            "workers.wait_ms_per_batch",
            "workers.imbalance",
            "workers.decode_avoided_ratio",
        ],
        "moves": ["setup_s", "qps", "latency_p50_ms"],
        "on": "pdbs-uu-pool2 only",
    },
    "packed (repro.graphs.packed)": {
        "metrics": ["packed.encode_ms_per_query", "packed.bytes_per_query"],
        "moves": ["latency_p50_ms"],
        "on": "pdbs-uu-pool2 only",
    },
    "trace": {
        "metrics": ["trace.overhead_frac"],
        "moves": [],
        "on": "all (for reporting only)",
    },
}


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #
def percentile(sorted_values: Sequence[float], fraction: float) -> Tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def iqr_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (third - first) / median if median else 0.0


# ---------------------------------------------------------------------- #
# Process accounting (Linux /proc; the pool's workers are our children)
# ---------------------------------------------------------------------- #
_TICKS = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            line = handle.read()
    except OSError:
        return None
    # Fields after the parenthesised command name, starting at "state".
    return line[line.rindex(")") + 2 :].split()


def child_pids(parent: int) -> List[int]:
    """Live child processes of ``parent``."""
    children = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None and int(fields[1]) == parent:
                children.append(int(entry))
    return sorted(children)


def cpu_seconds(pids: Iterable[int]) -> float:
    """User + system CPU of this process plus the given live processes."""
    seconds = time.process_time()
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            seconds += (int(fields[11]) + int(fields[12])) / _TICKS
    return seconds


def peak_rss_kib(pids: Iterable[int]) -> int:
    """Peak resident set of this process plus each given live process."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peak += int(line.split()[1])
        except OSError:
            continue
    return peak


# ---------------------------------------------------------------------- #
# Per-layer metrics of the in-process workloads, from spans
# ---------------------------------------------------------------------- #
def _ms(seconds: float, per: float) -> float:
    return 1000.0 * seconds / per if per else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def in_process_layers(summary: Dict[str, SpanSummary], journal_bytes: int) -> Dict[str, float]:
    """Per-layer metrics from the spans of the traced requests."""
    empty = SpanSummary()
    get = lambda name: summary.get(name, empty)  # noqa: E731
    queries = get("GraphCache.query").calls
    verify = get("Method.verify")
    candidates = get("Method.candidates")
    processors = get("CacheProcessors.process")
    lookups = [get("QueryGraphIndex.candidate_supergraphs"), get("QueryGraphIndex.candidate_subgraphs")]
    prune = get("CandidateSetPruner.prune")
    decide = get("MaintenanceEngine.decide")
    apply = get("MaintenanceEngine.apply")
    index_updates = [get("QueryGraphIndex.add"), get("QueryGraphIndex.remove")]
    append = get("PlanJournal.append")
    backend_ops = {op: get(f"StorageBackend.{op}") for op in ("put", "get", "delete", "apply_delta")}
    rounds = decide.calls
    backend_wall = sum(entry.total_s for entry in backend_ops.values())
    backend_cpu = sum(entry.cpu_s for entry in backend_ops.values())
    tests_and_memo = processors.count(0) + processors.count(1)
    return {
        "ftv.filter_ms": _ms(candidates.self_s, queries),
        "ftv.candidates_per_query": _ratio(candidates.count(0), queries),
        "verify.ms_per_query": _ms(verify.self_s, queries),
        "verify.tests_per_query": _ratio(verify.calls, queries),
        "verify.nodes_per_test": _ratio(verify.count(1), verify.calls),
        "verify.match_ratio": _ratio(verify.count(0), verify.calls),
        "processors.ms_per_query": _ms(processors.self_s, queries),
        "query_index.lookup_ms_per_query": _ms(sum(e.self_s for e in lookups), queries),
        "processors.containment_tests_per_query": _ratio(processors.count(0), queries),
        "processors.memo_hit_ratio": _ratio(processors.count(1), tests_and_memo),
        "processors.hit_ratio": _ratio(processors.count(2), queries),
        "pruner.ms_per_query": _ms(prune.self_s, queries),
        "pruner.candidate_reduction": _ratio(prune.count(0) - prune.count(1), prune.count(0)),
        "pruner.exact_hit_ratio": _ratio(prune.count(2), queries),
        "pruner.subiso_alleviated_per_query": _ratio(prune.count(0) - prune.count(1), queries),
        "pipeline.query_self_ms": _ms(get("GraphCache.query").self_s, queries),
        "window.add_ms_per_query": _ms(get("WindowManager.add_query").self_s, queries),
        "maintenance.rounds": _ratio(1000.0 * rounds, queries),
        "maintenance.decide_ms_per_round": _ms(decide.self_s, rounds),
        "maintenance.apply_ms_per_round": _ms(apply.self_s, rounds),
        "maintenance.admitted_per_round": _ratio(decide.count(0), rounds),
        "maintenance.evicted_per_round": _ratio(decide.count(1), rounds),
        "query_index.update_ms_per_round": _ms(sum(e.self_s for e in index_updates), rounds),
        "journal.append_ms_per_round": _ms(append.self_s, rounds),
        "journal.bytes_per_round": _ratio(journal_bytes, rounds),
        "backend.put_per_query": _ratio(backend_ops["put"].calls, queries),
        "backend.get_per_query": _ratio(backend_ops["get"].calls, queries),
        "backend.delete_per_query": _ratio(backend_ops["delete"].calls, queries),
        "backend.ms_per_query": _ms(sum(e.self_s for e in backend_ops.values()), queries),
        "backend.wait_frac": _ratio(backend_wall - backend_cpu, backend_wall),
    }


# ---------------------------------------------------------------------- #
# Per-layer metrics of the process pool, from replies and parent spans
# ---------------------------------------------------------------------- #
@dataclass
class PoolLayerSums:
    """Worker-side figures summed over the traced pool batches."""

    batches: int = 0
    queries: int = 0
    busy_s: float = 0.0
    imbalance: float = 0.0
    decode_avoided: int = 0
    stage_s: Dict[str, float] = field(default_factory=lambda: dict.fromkeys(STAGE_NAMES, 0.0))
    method_candidates: int = 0
    final_candidates: int = 0
    subiso_tests: int = 0
    matched: int = 0
    containment_tests: int = 0
    memo_hits: int = 0
    hits: int = 0
    exact_hits: int = 0
    rounds: int = 0



def pool_layers(sums: PoolLayerSums, summary: Dict[str, SpanSummary]) -> Dict[str, float]:
    """Per-layer metrics of the pool: worker stage times plus parent spans."""
    queries, batches = sums.queries, sums.batches
    run = summary.get("ProcessPoolCacheService.run")
    to_packed = summary.get("Graph.to_packed")
    to_bytes = summary.get("PackedGraph.to_bytes")
    encode_s = sum(entry.total_s for entry in (to_packed, to_bytes) if entry is not None)
    roundtrip_s = run.total_s if run is not None else 0.0
    return {
        "ftv.filter_ms": _ms(sums.stage_s["mfilter"], queries),
        "ftv.candidates_per_query": _ratio(sums.method_candidates, queries),
        "verify.ms_per_query": _ms(sums.stage_s["verify"], queries),
        "verify.tests_per_query": _ratio(sums.subiso_tests, queries),
        "verify.match_ratio": _ratio(sums.matched, sums.subiso_tests),
        "processors.ms_per_query": _ms(sums.stage_s["processors"], queries),
        "processors.containment_tests_per_query": _ratio(sums.containment_tests, queries),
        "processors.memo_hit_ratio": _ratio(sums.memo_hits, sums.memo_hits + sums.containment_tests),
        "processors.hit_ratio": _ratio(sums.hits, queries),
        "pruner.ms_per_query": _ms(sums.stage_s["prune"], queries),
        "pruner.candidate_reduction": _ratio(
            sums.method_candidates - sums.final_candidates, sums.method_candidates
        ),
        "pruner.exact_hit_ratio": _ratio(sums.exact_hits, queries),
        "pruner.subiso_alleviated_per_query": _ratio(
            sums.method_candidates - sums.final_candidates, queries
        ),
        "pipeline.query_self_ms": _ms(run.self_s if run is not None else 0.0, queries),
        "maintenance.rounds": _ratio(1000.0 * sums.rounds, queries),
        "workers.roundtrip_ms_per_batch": _ms(roundtrip_s, batches),
        "workers.busy_ms_per_batch": _ms(sums.busy_s, batches),
        "workers.wait_ms_per_batch": _ms(roundtrip_s - encode_s - sums.busy_s, batches),
        "workers.imbalance": _ratio(sums.imbalance, batches),
        "workers.decode_avoided_ratio": _ratio(sums.decode_avoided, queries),
        "packed.encode_ms_per_query": _ms(encode_s, queries),
        "packed.bytes_per_query": _ratio(to_bytes.count(0) if to_bytes is not None else 0.0, queries),
    }


#: The spans whose self times make up a traced ``GraphCache.query`` (the
#: accounting check of the traced run), by the layer they are reported under.
QUERY_PATH_LAYERS: Dict[str, str] = {
    "GraphCache.query": "pipeline.query_self_ms",
    "Method.candidates": "ftv.filter_ms",
    "CacheProcessors.process": "processors.ms_per_query",
    "QueryGraphIndex.candidate_supergraphs": "query_index.lookup_ms_per_query",
    "QueryGraphIndex.candidate_subgraphs": "query_index.lookup_ms_per_query",
    "CandidateSetPruner.prune": "pruner.ms_per_query",
    "Method.verify": "verify.ms_per_query",
    "WindowManager.add_query": "window.add_ms_per_query",
    "MaintenanceEngine.decide": "maintenance.decide_ms_per_round",
    "MaintenanceEngine.apply": "maintenance.apply_ms_per_round",
    "QueryGraphIndex.add": "query_index.update_ms_per_round",
    "QueryGraphIndex.remove": "query_index.update_ms_per_round",
    "PlanJournal.append": "journal.append_ms_per_round",
    "StorageBackend.put": "backend.ms_per_query",
    "StorageBackend.get": "backend.ms_per_query",
    "StorageBackend.delete": "backend.ms_per_query",
    "StorageBackend.apply_delta": "backend.ms_per_query",
}
