"""One benchmark run: set up, warm up, measure, check, report.

The run is a single closed-loop client.  After the timed set-ups and an
untimed warm-up prefix, it serves the query stream in chunks: each chunk's
queries are generated (untimed), sent one request at a time (timed per
request and per chunk), and then checked against Method M on its own
(untimed).  Measurement stops once ``seconds`` of serving time have passed,
at least ``min_requests`` requests have been timed (so that p99 has ten
samples above it) and the fingerprint prefix has been served.

With tracing on, odd chunks run with the layer probes installed and even
chunks without, so the traced and untraced rates come from interleaved
stretches of the same stream; their ratio is ``trace.overhead_frac``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.backends import InMemoryBackend, MmapBackend, SQLiteBackend
from repro.core.cache import GraphCache
from repro.core.pipeline import STAGE_NAMES
from repro.core.policies import MaintenanceEngine, PlanJournal, WindowManager
from repro.core.processors import CacheProcessors
from repro.core.pruner import CandidateSetPruner
from repro.core.query_index import IndexView, QueryGraphIndex
from repro.core.workers import ProcessPoolCacheService
from repro.ftv.ggsx import GraphGrepSX
from repro.graphs.graph import Graph
from repro.graphs.packed import PackedGraph
from repro.methods.executor import execute_query

from . import metrics
from .tracing import END, NAME, REQUEST, START, Probe, Tracer, summarize
from .workloads import QueryStream, Server, WorkloadSpec, build_dataset, set_up

__all__ = ["RunResult", "run", "source_digest", "in_process_probes", "pool_probes", "setup_probes"]


# ---------------------------------------------------------------------- #
# Probes: the public layer entry points the traced run wraps
# ---------------------------------------------------------------------- #
def in_process_probes() -> List[Probe]:
    probes = [
        Probe(GraphCache, "query", "GraphCache.query"),
        Probe(GraphGrepSX, "candidates", "Method.candidates", lambda a, r: (len(r),)),
        Probe(
            GraphGrepSX,
            "verify",
            "Method.verify",
            lambda a, r: (1 if r.matched else 0, r.nodes_expanded),
        ),
        Probe(
            CacheProcessors,
            "process",
            "CacheProcessors.process",
            lambda a, r: (r.containment_tests, r.memo_hits, 1 if r.hit else 0),
        ),
        # The processors read one pinned snapshot, so the lookups they make
        # go through IndexView; the spans keep the index's public names.
        Probe(IndexView, "candidate_supergraphs", "QueryGraphIndex.candidate_supergraphs"),
        Probe(IndexView, "candidate_subgraphs", "QueryGraphIndex.candidate_subgraphs"),
        Probe(QueryGraphIndex, "add", "QueryGraphIndex.add"),
        Probe(QueryGraphIndex, "remove", "QueryGraphIndex.remove"),
        Probe(
            CandidateSetPruner,
            "prune",
            "CandidateSetPruner.prune",
            lambda a, r: (len(a[1]), len(r.final_candidates), 1 if r.shortcut == "exact" else 0),
        ),
        Probe(WindowManager, "add_query", "WindowManager.add_query"),
        Probe(
            MaintenanceEngine,
            "decide",
            "MaintenanceEngine.decide",
            lambda a, r: (len(r.admitted_serials), len(r.evicted_serials)),
        ),
        Probe(MaintenanceEngine, "apply", "MaintenanceEngine.apply"),
        Probe(PlanJournal, "append", "PlanJournal.append"),
    ]
    for backend in (InMemoryBackend, SQLiteBackend, MmapBackend):
        for op in ("put", "get", "delete", "apply_delta"):
            probes.append(Probe(backend, op, f"StorageBackend.{op}", cpu=True))
    return probes


def pool_probes() -> List[Probe]:
    return [
        Probe(ProcessPoolCacheService, "run", "ProcessPoolCacheService.run"),
        Probe(Graph, "to_packed", "Graph.to_packed"),
        Probe(PackedGraph, "to_bytes", "PackedGraph.to_bytes", lambda a, r: (len(r),)),
    ]


def setup_probes() -> List[Probe]:
    return [Probe(ProcessPoolCacheService, "start", "ProcessPoolCacheService.start")]


# ---------------------------------------------------------------------- #
# Correctness oracle and work-counter fingerprint
# ---------------------------------------------------------------------- #
class Oracle:
    """Method M on its own (``execute_query``), memoised per exact query graph.

    A separate Method instance over the same dataset, so checking never
    shares matcher state with the system under test.  With a ``store`` path
    the answers persist between runs: the file name carries a digest of the
    library's and the benchmark's sources, so answers are reused only for the
    very code and inputs that produced them, and runs after the first in a checkout skip recomputing
    Method M for queries already checked.
    """

    def __init__(self, method: GraphGrepSX, store: Optional[str] = None) -> None:
        self._method = method
        self._store = store
        self._answers: Dict[str, frozenset] = {}
        self._computed = 0
        self._checked = set()
        if store is not None and os.path.exists(store):
            try:
                with open(store, encoding="utf-8") as handle:
                    saved = json.load(handle)
            except (OSError, ValueError):
                saved = {}
            self._answers = {key: frozenset(ids) for key, ids in saved.items()}

    def answers(self, query: Graph) -> frozenset:
        key = hashlib.sha1(repr(query.structure_key()).encode()).hexdigest()
        self._checked.add(key)
        answer = self._answers.get(key)
        if answer is None:
            answer = execute_query(self._method, query).answer_ids
            self._answers[key] = answer
            self._computed += 1
        return answer

    @property
    def distinct_queries(self) -> int:
        return len(self._checked)

    def save(self) -> None:
        if self._store is None or not self._computed:
            return
        os.makedirs(os.path.dirname(self._store), exist_ok=True)
        partial = f"{self._store}.{os.getpid()}"
        with open(partial, "w", encoding="utf-8") as handle:
            json.dump({key: sorted(ids) for key, ids in self._answers.items()}, handle)
        os.replace(partial, self._store)


def source_digest(*roots: str) -> str:
    """Digest of every Python source file under ``roots`` (names and bytes)."""
    digest = hashlib.sha256()
    for root in roots:
        for directory, subdirectories, files in os.walk(root):
            subdirectories.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(directory, name)
                    digest.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


@dataclass
class Fingerprint:
    """Deterministic work counters over the first ``limit`` queries."""

    limit: int
    queries: int = 0
    subiso_tests: int = 0
    containment_tests: int = 0
    exact_hits: int = 0
    cache_hits: int = 0
    maintenance_rounds: int = 0
    admitted: Optional[int] = None
    evicted: Optional[int] = None
    _digest: "hashlib._Hash" = field(default_factory=hashlib.sha256, repr=False)

    def add(self, result) -> None:
        self.queries += 1
        self.subiso_tests += result.subiso_tests
        self.containment_tests += result.containment_tests
        self.exact_hits += result.shortcut == "exact"
        self.cache_hits += result.cache_hit
        # Under sync maintenance the window-completing query carries the
        # round's (always positive) duration.
        self.maintenance_rounds += result.maintenance_time_s > 0
        self._digest.update(repr(sorted(result.answer_ids)).encode() + b";")

    def as_dict(self) -> Dict[str, object]:
        return {
            "queries": self.queries,
            "subiso_tests": self.subiso_tests,
            "containment_tests": self.containment_tests,
            "exact_hits": self.exact_hits,
            "cache_hits": self.cache_hits,
            "maintenance_rounds": self.maintenance_rounds,
            "admitted": self.admitted,
            "evicted": self.evicted,
            "answers_sha256": self._digest.hexdigest()[:16],
        }


# ---------------------------------------------------------------------- #
# The run
# ---------------------------------------------------------------------- #
@dataclass
class Tally:
    """Answers checked, answers wrong or lost to an exception, first error."""

    attempted: int = 0
    failed: int = 0
    first_error: Optional[str] = None


@dataclass
class Chunk:
    traced: bool
    queries: int
    requests: int
    wall_s: float
    cpu_s: float
    latencies: List[float]


@dataclass
class RunResult:
    workload: str
    seed: int
    trace: bool
    attempted: int
    failed: int
    end_to_end: Dict[str, float]
    per_layer: Dict[str, float]
    fingerprint: Dict[str, object]
    details: Dict[str, object]
    accounting: Dict[str, float] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def final_line(self) -> Dict[str, object]:
        """The JSON object the benchmark prints last."""
        if self.trace:
            chosen = {name: (self.per_layer[name], unit) for name, (unit, _) in metrics.PER_LAYER.items()}
        else:
            chosen = {
                name: (self.end_to_end[name], unit)
                for name, (unit, _, _) in metrics.END_TO_END.items()
            }
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
        }


def run(
    spec: WorkloadSpec,
    seed: int,
    seconds: float,
    trace: bool,
    work_dir: str,
    spans_path: Optional[str] = None,
    oracle_store: Optional[str] = None,
) -> RunResult:
    """Measure ``spec`` once; every file the system writes goes under ``work_dir``.

    ``oracle_store`` names a file that keeps Method M's answers between runs.
    """
    if spec.warmup_queries % spec.batch_size or spec.fingerprint_queries % spec.batch_size:
        raise ValueError("warm-up and fingerprint prefixes must be whole batches")
    os.makedirs(work_dir, exist_ok=True)
    dataset = build_dataset(spec)
    stream = QueryStream(spec, dataset, seed)
    oracle = Oracle(GraphGrepSX(dataset), oracle_store)
    tracer = Tracer() if trace else None

    setup_times: List[float] = []
    server: Optional[Server] = None
    try:
        for attempt in range(spec.setups):
            directory = os.path.join(work_dir, f"setup{attempt}")
            if tracer is not None:
                tracer.install(setup_probes())
            started = time.perf_counter()
            try:
                candidate = set_up(spec, dataset, directory, tracer)
            finally:
                elapsed = time.perf_counter() - started
                if tracer is not None:
                    tracer.uninstall()
            setup_times.append(elapsed)
            if attempt < spec.setups - 1:
                candidate.close()
            else:
                server = candidate
        return _serve(spec, seed, seconds, server, stream, oracle, tracer, setup_times, spans_path)
    finally:
        oracle.save()
        if server is not None:
            server.close()
        shutil.rmtree(work_dir, ignore_errors=True)


def _serve(
    spec: WorkloadSpec,
    seed: int,
    seconds: float,
    server: Server,
    stream: QueryStream,
    oracle: Oracle,
    tracer: Optional[Tracer],
    setup_times: List[float],
    spans_path: Optional[str],
) -> RunResult:
    workers = metrics.child_pids(os.getpid()) if spec.pooled else []
    fingerprint = Fingerprint(limit=spec.fingerprint_queries)
    tally = Tally()
    pool_sums = metrics.PoolLayerSums()
    journal_bytes = 0
    request_ids = itertools.count()
    chunks: List[Chunk] = []
    batch = spec.batch_size

    def serve_chunk(queries: List[Graph], traced: bool, timed: bool) -> None:
        requests = [queries[i : i + batch] for i in range(0, len(queries), batch)]
        outcomes: List[object] = []
        latencies: List[float] = []
        probes = (pool_probes() if spec.pooled else in_process_probes()) if traced else []
        journal_before = _file_size(server.journal_path)
        if traced:
            tracer.install(probes)
        cpu_before = metrics.cpu_seconds(workers)
        chunk_started = time.perf_counter()
        try:
            for request in requests:
                if traced:
                    tracer.request_id = next(request_ids)
                started = time.perf_counter()
                try:
                    outcome = server.request(request)
                except Exception as exc:  # a failed request is counted, not fatal
                    outcome = exc
                latencies.append(time.perf_counter() - started)
                outcomes.append(outcome)
        finally:
            wall = time.perf_counter() - chunk_started
            cpu = metrics.cpu_seconds(workers) - cpu_before
            if traced:
                tracer.uninstall()
        if traced:
            nonlocal journal_bytes
            journal_bytes += _file_size(server.journal_path) - journal_before
        if timed:
            chunks.append(Chunk(traced, len(queries), len(requests), wall, cpu, latencies))
        for request, outcome in zip(requests, outcomes):
            _check(request, outcome, oracle, fingerprint, tally)
            if traced and spec.pooled and not isinstance(outcome, Exception):
                _add_pool_batch(pool_sums, server, request, outcome)

    # Untimed warm-up prefix.
    served = 0
    while served < spec.warmup_queries:
        count = min(spec.chunk_requests * batch, spec.warmup_queries - served)
        serve_chunk(stream.take(count), traced=False, timed=False)
        served += count

    peak_kib = 0
    elapsed = 0.0
    requests_timed = 0
    chunk_index = 0
    while (
        elapsed < seconds
        or requests_timed < spec.min_requests
        or served < spec.fingerprint_queries
        or (tracer is not None and chunk_index < 2)
    ):
        count = spec.chunk_requests * batch
        if served < spec.fingerprint_queries:
            count = min(count, spec.fingerprint_queries - served)
        traced = tracer is not None and chunk_index % 2 == 1
        serve_chunk(stream.take(count), traced=traced, timed=True)
        served += count
        chunk_index += 1
        elapsed += chunks[-1].wall_s
        requests_timed += chunks[-1].requests
        if served == spec.fingerprint_queries:
            # Memory is read at a fixed point of the stream: the cache keeps
            # every result, so a peak read at the end would grow with speed.
            peak_kib = metrics.peak_rss_kib(workers)
            if server.cache is not None:
                reports = server.cache.window_manager.reports
                fingerprint.admitted = sum(len(r.admitted_serials) for r in reports)
                fingerprint.evicted = sum(len(r.evicted_serials) for r in reports)

    decode_counts: Dict[str, int] = {}
    if spec.pooled:
        totals = server.pool.runtime_statistics()
        decode_counts = {"decode_avoided": totals.decode_avoided, "pool_queries": totals.queries_processed}
        # Zero-decode serving is part of the pool's contract: every query
        # that went through a decoded Graph counts as failed.
        tally.failed += abs(totals.queries_processed - totals.decode_avoided)
    end_to_end, details = _end_to_end(chunks, setup_times, peak_kib, tally)
    details.update(decode_counts)
    details["distinct_queries_checked"] = oracle.distinct_queries
    details["queries_served"] = served
    if tally.first_error is not None:
        details["first_error"] = tally.first_error

    per_layer: Dict[str, float] = dict.fromkeys(metrics.PER_LAYER, 0.0)
    accounting: Dict[str, float] = {}
    if tracer is not None:
        traced_chunks = [c for c in chunks if c.traced]
        plain_chunks = [c for c in chunks if not c.traced]
        traced_qps = _rate(traced_chunks)
        plain_qps = _rate(plain_chunks)
        per_layer["trace.overhead_frac"] = 1.0 - traced_qps / plain_qps if plain_qps else 0.0
        summary = summarize([row for row in tracer.spans if row[REQUEST] is not None])
        per_layer["ftv.build_s"] = _median_span(tracer.spans, "GraphGrepSX.build")
        if spec.pooled:
            per_layer["workers.start_s"] = _median_span(tracer.spans, "ProcessPoolCacheService.start")
            per_layer.update(metrics.pool_layers(pool_sums, summary))
        else:
            per_layer.update(metrics.in_process_layers(summary, journal_bytes))
            accounting = _accounting(summary)
            root = summary["GraphCache.query"]
            details["traced_query_ms"] = 1000.0 * root.total_s / root.calls
        if spans_path is not None:
            tracer.write(spans_path)

    return RunResult(
        workload=spec.name,
        seed=seed,
        trace=tracer is not None,
        attempted=tally.attempted,
        failed=tally.failed,
        end_to_end=end_to_end,
        per_layer=per_layer,
        fingerprint=fingerprint.as_dict(),
        details=details,
        accounting=accounting,
    )


def _file_size(path: Optional[str]) -> int:
    if path is None:
        return 0
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _check(request: Sequence[Graph], outcome, oracle: Oracle, fingerprint: Fingerprint, tally) -> None:
    """Compare every answer with Method M's; feed the fingerprint prefix."""
    tally.attempted += len(request)
    if isinstance(outcome, Exception):
        tally.failed += len(request)
        if tally.first_error is None:
            tally.first_error = "".join(traceback.format_exception(outcome)).strip()
            print(tally.first_error, file=sys.stderr)
        return
    for query, result in zip(request, outcome):
        if result.answer_ids != oracle.answers(query):
            tally.failed += 1
        if fingerprint.queries < fingerprint.limit:
            fingerprint.add(result)


def _add_pool_batch(sums: metrics.PoolLayerSums, server: Server, request, results) -> None:
    busy: Dict[int, float] = {}
    served: Dict[int, int] = {}
    for query, result in zip(request, results):
        worker = server.worker_of(query)
        busy[worker] = busy.get(worker, 0.0) + sum(result.stage_times.values())
        served[worker] = served.get(worker, 0) + 1
        for stage in STAGE_NAMES:
            sums.stage_s[stage] += result.stage_times.get(stage, 0.0)
        sums.decode_avoided += result.decode_avoided
        sums.method_candidates += result.method_candidates
        sums.final_candidates += result.final_candidates
        sums.subiso_tests += result.subiso_tests
        # Verified candidates and direct answers are disjoint sets.
        sums.matched += len(result.answer_ids) - result.direct_answers
        sums.containment_tests += result.containment_tests
        sums.memo_hits += result.containment_memo_hits
        sums.hits += result.cache_hit
        sums.exact_hits += result.shortcut == "exact"
        sums.rounds += result.maintenance_time_s > 0
    sums.batches += 1
    sums.queries += len(request)
    sums.busy_s += max(busy.values())
    mean_served = len(request) / server.pool.worker_count
    sums.imbalance += max(served.values()) / mean_served


def _median_span(spans, name: str) -> float:
    durations = [row[END] - row[START] for row in spans if row[NAME] == name]
    return statistics.median(durations) if durations else 0.0


def _rate(chunks: Sequence[Chunk]) -> float:
    wall = sum(chunk.wall_s for chunk in chunks)
    return sum(chunk.queries for chunk in chunks) / wall if wall else 0.0


def _end_to_end(chunks, setup_times, peak_kib, tally) -> Tuple[Dict[str, float], Dict[str, object]]:
    measured = [chunk for chunk in chunks if not chunk.traced]
    queries = sum(chunk.queries for chunk in measured)
    latencies = sorted(value for chunk in measured for value in chunk.latencies)
    p50, _ = metrics.percentile(latencies, 0.50)
    p99, above_p99 = metrics.percentile(latencies, 0.99)
    cpu = sum(chunk.cpu_s for chunk in measured)
    end_to_end = {
        "qps": _rate(measured),
        "latency_p50_ms": 1000.0 * p50,
        "latency_p99_ms": 1000.0 * p99,
        "cpu_ms_per_query": 1000.0 * cpu / queries,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_kib / 1024.0,
        "ok_frac": 1.0 - tally.failed / tally.attempted,
    }
    details = {
        "measured_queries": queries,
        "latency_samples": len(latencies),
        "samples_above_p99": above_p99,
        "measured_wall_s": sum(chunk.wall_s for chunk in measured),
        "setup_samples_s": setup_times,
    }
    return end_to_end, details


def _accounting(summary) -> Dict[str, float]:
    """Self time per query-path layer, in ms per traced query."""
    queries = summary["GraphCache.query"].calls
    by_layer: Dict[str, float] = {}
    for name, layer in metrics.QUERY_PATH_LAYERS.items():
        if name in summary:
            by_layer[layer] = by_layer.get(layer, 0.0) + 1000.0 * summary[name].self_s / queries
    return by_layer
