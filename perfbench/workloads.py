"""The three benchmark workloads: their inputs, set-up and serving client.

Every workload uses generated stand-in data from ``repro.graphs.generators``,
GraphGrepSX as Method M, the HD replacement policy at cache capacity 30 and
window 10, and sync maintenance.  Each is served by a single closed-loop
client: the next request is sent only when the previous one has returned.

The dataset and the query population are generated from fixed seeds, like
the paper's fixed datasets and workload files; ``--seed`` sets the order in
which the queries arrive (see :class:`QueryStream`).  Under Zipf selection
the most popular query comes from dataset graph 0, so a dataset drawn from
``--seed`` makes throughput depend mostly on which graph lands first: five
such seeds on ``aids-zz-mem`` spanned 174-493 q/s, against 331-391 q/s with
the dataset fixed.

``aids-b20-sqlite`` keeps its sqlite database in memory.  With the database
file on disk, fsync waits on a shared 2-CPU host made three runs of one seed
differ by a quarter in throughput (291-380 q/s) and by half in p99
(10.7-15.9 ms); in memory the same three runs agreed within 1%.

``aids-zz-mem`` stays runnable but is not a workload of ``BENCHMARK.json``:
over ten seeds of 30 s runs its throughput, p50, p99 and CPU per query
spread by 0.26-0.38 of their medians, because the host's speed moved by up
to a quarter between runs of one seed, beyond the largest bound (0.25) a
metric may carry.  The layers it stresses (verification, processors, Mfilter)
are measured on the two others: in-process spans on ``aids-b20-sqlite`` and
worker stage times on ``pdbs-uu-pool2``.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.cache import CacheQueryResult, GraphCache
from repro.core.config import GraphCacheConfig
from repro.core.workers import ProcessPoolCacheService
from repro.ftv.ggsx import GraphGrepSX
from repro.graphs.dataset import GraphDataset
from repro.graphs.generators import aids_like, pdbs_like
from repro.graphs.graph import Graph
from repro.workloads.type_a import SMALL_DATASET_QUERY_SIZES, TypeAWorkloadGenerator
from repro.workloads.type_b import QueryPools, TypeBWorkloadGenerator

from .tracing import Tracer

__all__ = ["WorkloadSpec", "WORKLOADS", "QueryStream", "Server", "build_dataset", "set_up"]

CACHE_CAPACITY = 30
WINDOW_SIZE = 10
ALPHA = 1.4
#: Seed of every workload's query population (see :class:`QueryStream`).
POPULATION_SEED = 2017


@dataclass(frozen=True)
class WorkloadSpec:
    """One named workload and the sizes that define it."""

    name: str
    why: str
    dataset: str
    dataset_seed: int
    queries: str
    category: str
    backend: str
    client: str
    flush_policy: str
    journal: bool = False
    workers: int = 0
    batch_size: int = 1
    setups: int = 7
    warmup_queries: int = 400
    fingerprint_queries: int = 4000
    chunk_requests: int = 200
    min_requests: int = 1000
    answer_pool: int = 0
    no_answer_pool: int = 0
    no_answer_fraction: float = 0.0
    dataset_scale: float = 1.0
    layers: Sequence[str] = field(default_factory=tuple)

    @property
    def pooled(self) -> bool:
        return self.workers > 0

    def describe(self) -> Dict[str, object]:
        """The record kept for this workload beside the baseline."""
        return {
            "why": self.why,
            "dataset": f"{self.dataset}_like(scale={self.dataset_scale}, seed={self.dataset_seed})",
            "dataset_graphs": len(build_dataset(self)),
            "query_population": f"blocks of {QueryStream.BLOCK} drawn with seed {POPULATION_SEED}; --seed shuffles each block",
            "queries": self.queries,
            "distinct_query_working_set": (
                self.answer_pool + self.no_answer_pool
                if self.answer_pool
                else "open (Type A draws; see the distinct-query count each run prints)"
            ),
            "cache_capacity": CACHE_CAPACITY,
            "window_size": WINDOW_SIZE,
            "replacement_policy": "hd",
            "maintenance_mode": "sync",
            "method": "ggsx (GraphGrepSX, VF2 verifier)",
            "backend": self.backend,
            "plan_journal": "file, journal_fsync off" if self.journal else "in memory",
            "flush_policy": self.flush_policy,
            "client": self.client,
            "batch_size": self.batch_size,
            "workers": self.workers,
            "setups_per_run": self.setups,
            "warmup_queries": self.warmup_queries,
            "fingerprint_queries": self.fingerprint_queries,
            "min_requests": self.min_requests,
            "layers_exercised": list(self.layers),
        }


WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="aids-zz-mem",
            why=(
                "Paper's headline setting: Type A ZZ on AIDS-like, memory backend, "
                "in-process; hit-heavy, verification-dominated, no storage I/O"
            ),
            dataset="aids",
            dataset_seed=7,
            queries=f"Type A ZZ, alpha={ALPHA}, sizes {list(SMALL_DATASET_QUERY_SIZES)} edges",
            category="ZZ",
            backend="memory",
            client="1 closed-loop client, 1 GraphCache.query per request",
            flush_policy="none (memory backend, in-memory journal)",
            layers=("ftv", "verify", "processors", "query_index", "pruner", "pipeline", "policies"),
        ),
        WorkloadSpec(
            name="aids-b20-sqlite",
            why=(
                "Writes beside reads: Type B 20% no-answer on AIDS-like; sqlite backend "
                "(in-memory database, autocommit) and a plan journal file, fsync off"
            ),
            dataset="aids",
            dataset_seed=7,
            queries=(
                f"Type B, 20% no-answer, alpha={ALPHA}, pools of 60 answer + 20 no-answer "
                f"queries, sizes {list(SMALL_DATASET_QUERY_SIZES)} edges"
            ),
            category="B",
            backend="sqlite",
            client="1 closed-loop client, 1 GraphCache.query per request",
            flush_policy=(
                "sqlite backend with its in-memory database (backend_path=None): "
                "autocommit per statement, no device flush; plan journal appended "
                "to a file once per round with journal_fsync off (OS-buffered)"
            ),
            journal=True,
            answer_pool=60,
            no_answer_pool=20,
            no_answer_fraction=0.2,
            layers=("ftv", "pruner", "pipeline", "policies", "journal", "backends"),
        ),
        WorkloadSpec(
            name="pdbs-uu-pool2",
            why=(
                "Miss-heavy Type A UU on PDBS-like through a 2-worker process pool "
                "(mmap, packed match): seal, fork, routing, packed encoding, pipe IPC"
            ),
            dataset="pdbs",
            dataset_seed=11,
            queries=f"Type A UU, sizes {list(SMALL_DATASET_QUERY_SIZES)} edges",
            category="UU",
            backend="mmap (packed_match=on)",
            client="1 closed-loop client keeping one batch of 2 queries in flight",
            flush_policy="none (mmap arenas sealed at start, in-memory journal)",
            workers=2,
            batch_size=2,
            setups=3,
            chunk_requests=100,
            layers=("ftv", "verify", "processors", "pruner", "pipeline", "workers", "packed"),
        ),
    )
}


def build_dataset(spec: WorkloadSpec) -> GraphDataset:
    factory = {"aids": aids_like, "pdbs": pdbs_like}[spec.dataset]
    return factory(scale=spec.dataset_scale, seed=spec.dataset_seed)


class QueryStream:
    """The workload's query sequence: a fixed population in a seeded order.

    The population is drawn block by block from the workload's generator
    under a fixed seed, so every run serves the same multiset of queries
    (up to where it stops in its last block); ``seed`` shuffles the order
    inside every block.  A shuffled i.i.d. block is still an i.i.d. sample,
    so the stream keeps the generator's distribution, while runs under
    different seeds differ only in arrival order.  With fresh draws per
    seed, the rare expensive queries a run happens to draw moved p99
    latency by a fifth between seeds.
    """

    BLOCK = 1000

    def __init__(self, spec: WorkloadSpec, dataset: GraphDataset, seed: int) -> None:
        if spec.category == "B":
            pools = QueryPools(
                dataset,
                query_sizes=SMALL_DATASET_QUERY_SIZES,
                answer_pool_size=spec.answer_pool,
                no_answer_pool_size=spec.no_answer_pool,
                seed=POPULATION_SEED,
            )
            self._generator = TypeBWorkloadGenerator(
                pools,
                no_answer_probability=spec.no_answer_fraction,
                alpha=ALPHA,
                seed=POPULATION_SEED,
            )
        else:
            self._generator = TypeAWorkloadGenerator(
                dataset,
                category=spec.category,
                query_sizes=SMALL_DATASET_QUERY_SIZES,
                alpha=ALPHA,
                seed=POPULATION_SEED,
            )
        self._order = random.Random(seed)
        self._pending: List[Graph] = []

    def take(self, count: int) -> List[Graph]:
        while len(self._pending) < count:
            block = list(self._generator.generate(self.BLOCK).queries)
            self._order.shuffle(block)
            self._pending.extend(block)
        taken, self._pending = self._pending[:count], self._pending[count:]
        return taken


class Server:
    """The system under test, as one client sees it: requests in, results out."""

    def __init__(
        self,
        cache: Optional[GraphCache] = None,
        pool: Optional[ProcessPoolCacheService] = None,
        journal_path: Optional[str] = None,
    ) -> None:
        self.cache = cache
        self.pool = pool
        self.journal_path = journal_path

    def request(self, queries: Sequence[Graph]) -> List[CacheQueryResult]:
        """One request: a ``GraphCache.query`` call or one pool batch."""
        if self.pool is not None:
            return self.pool.run(queries)
        return [self.cache.query(queries[0])]

    def worker_of(self, query: Graph) -> int:
        """The pool worker that serves ``query`` (the pool's own routing)."""
        return self.pool.shard_of(query) % self.pool.worker_count

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
        if self.cache is not None:
            self.cache.close()


def set_up(
    spec: WorkloadSpec,
    dataset: GraphDataset,
    directory: str,
    tracer: Optional[Tracer] = None,
) -> Server:
    """Build Method M's index and the cache or pool over it (the timed set-up).

    Everything the system writes goes under ``directory``, which must be
    fresh: a sqlite file or sealed arena left there would warm-start.
    """
    os.makedirs(directory, exist_ok=True)
    if tracer is not None:
        with tracer.span("GraphGrepSX.build"):
            method = GraphGrepSX(dataset)
    else:
        method = GraphGrepSX(dataset)
    if spec.pooled:
        config = GraphCacheConfig(
            cache_capacity=CACHE_CAPACITY,
            window_size=WINDOW_SIZE,
            backend="mmap",
            backend_path=os.path.join(directory, "arena"),
            packed_match="on",
        )
        pool = ProcessPoolCacheService(method, config, workers=spec.workers)
        pool.start()
        return Server(pool=pool)
    journal_path = os.path.join(directory, "plans.jsonl") if spec.journal else None
    config = GraphCacheConfig(
        cache_capacity=CACHE_CAPACITY,
        window_size=WINDOW_SIZE,
        backend=spec.backend,
        journal_path=journal_path,
    )
    return Server(cache=GraphCache(method, config), journal_path=journal_path)
