"""Running one approach over one workload.

The runner reproduces the paper's measurement methodology:

* the up-front build (if any) is charged to *indexing time*;
* every query is preceded by dropping the buffer pool (the paper overwrites
  the OS caches before each query) and its cost is charged to *querying
  time*, recorded per query so Figure 5's per-query series can be drawn;
* all times are *simulated seconds* from the disk cost model (the wall
  clock of the simulation itself is also recorded, but carries no meaning
  for the reproduction).

Batched execution adds one axis: with ``batch_size > 1`` the workload is
cut into chunks and each chunk is executed through the approach's
``query_batch`` method when it has one (Space Odyssey's batched engine);
approaches without batch support fall back to per-query execution within
the chunk.  The buffer pool is then dropped once per *batch* rather than
once per query — amortising the cache drop is part of what batching buys —
and a batch's simulated time is attributed evenly to its queries so the
aggregate figures stay comparable.

Workload generation for benchmarks and tests goes through
:func:`generate_workload`, which takes an **explicit seed** so that any
run — differential test, cost regression, micro-benchmark — is
reproducible run-to-run without depending on a scale preset's implicit
seed arithmetic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.baselines.interface import MultiDatasetIndex, result_keys
from repro.data.dataset import DatasetCatalog
from repro.geometry.box import Box
from repro.storage.cost_model import IOStats
from repro.storage.disk import Disk
from repro.workload.builder import Workload, WorkloadBuilder
from repro.workload.combinations import CombinationGenerator
from repro.workload.query import RangeQuery
from repro.workload.ranges import ClusteredRangeGenerator, UniformRangeGenerator


@dataclass(frozen=True, slots=True)
class QueryTiming:
    """Timing and result size of one query."""

    qid: int
    simulated_seconds: float
    n_results: int
    n_datasets: int


@dataclass
class ApproachResult:
    """Everything measured while running one approach over one workload."""

    approach: str
    indexing_seconds: float = 0.0
    querying_seconds: float = 0.0
    query_timings: list[QueryTiming] = field(default_factory=list)
    indexing_io: IOStats | None = None
    querying_io: IOStats | None = None
    wall_seconds: float = 0.0
    total_results: int = 0
    validation_failures: int = 0

    @property
    def total_seconds(self) -> float:
        """Total simulated processing time (indexing + querying)."""
        return self.indexing_seconds + self.querying_seconds

    @property
    def n_queries(self) -> int:
        """Number of queries executed."""
        return len(self.query_timings)

    def per_query_seconds(self) -> list[float]:
        """The per-query simulated times in sequence order."""
        return [timing.simulated_seconds for timing in self.query_timings]

    def queries_answered_within(self, budget_seconds: float) -> int:
        """How many queries complete within a simulated time budget.

        Used for the paper's "by the time Grid has finished indexing,
        Space Odyssey has already answered half the queries" claim: the
        budget is the competitor's indexing time and the count includes the
        adaptive approach's own indexing work (its indexing_seconds are 0).
        """
        spent = self.indexing_seconds
        answered = 0
        for timing in self.query_timings:
            spent += timing.simulated_seconds
            if spent > budget_seconds:
                break
            answered += 1
        return answered


def run_approach(
    approach: MultiDatasetIndex,
    workload: Workload | Iterable[RangeQuery],
    disk: Disk,
    *,
    clear_cache_before_queries: bool = True,
    validate_against: MultiDatasetIndex | None = None,
    batch_size: int = 1,
    workers: int = 1,
) -> ApproachResult:
    """Build (if needed) and run every query of the workload.

    Parameters
    ----------
    approach:
        The approach under test.
    workload:
        The query sequence.
    disk:
        The simulated disk all structures live on (its statistics are used
        to attribute costs).
    clear_cache_before_queries:
        Drop the buffer pool before every query (or, with ``batch_size >
        1``, before every batch), as the paper does.  Leave enabled for
        experiments; tests may disable it to exercise caching.
    validate_against:
        Optional oracle; when given, each query's answer is compared and
        mismatches counted (the oracle's own I/O is excluded from timing by
        snapshotting around it).
    batch_size:
        Execute the workload in chunks of this many queries.  Chunks go
        through the approach's ``query_batch`` method when it exists;
        otherwise queries of a chunk run one at a time.  A batch's
        simulated time is split evenly over its queries in
        :attr:`ApproachResult.query_timings`.
    workers:
        Thread count for batched chunks: values above 1 are forwarded to
        ``query_batch(chunk, workers=...)`` (Space Odyssey's parallel
        executor) and require ``batch_size > 1``.  Results, reports and
        adaptive state are identical to ``workers=1``, but the simulated
        I/O *timings* may vary slightly run-to-run: threads fetch pages
        in scheduler-dependent order, which shifts head-position
        classification and cache hit patterns (see
        :mod:`repro.core.batch`).  For strictly deterministic
        simulated figures — the paper-reproduction numbers — keep
        ``workers=1``.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers > 1 and batch_size == 1:
        raise ValueError("workers > 1 requires batch_size > 1 (nothing to fan out)")
    result = ApproachResult(approach=approach.name)
    wall_start = time.perf_counter()

    before_build = disk.stats_snapshot()
    approach.build()
    after_build = disk.stats_snapshot()
    build_delta = after_build.delta_since(before_build)
    result.indexing_seconds = build_delta.simulated_seconds
    result.indexing_io = build_delta

    queries = list(workload)
    batched = batch_size > 1 and callable(getattr(approach, "query_batch", None))
    querying_start = disk.stats_snapshot()
    for start in range(0, len(queries), batch_size):
        chunk = queries[start : start + batch_size]
        if clear_cache_before_queries:
            disk.clear_cache()
            disk.reset_head()
        if batched:
            before = disk.stats_snapshot()
            batch_result = (
                approach.query_batch(chunk, workers=workers)
                if workers > 1
                else approach.query_batch(chunk)
            )
            delta = disk.stats_snapshot().delta_since(before)
            share = delta.simulated_seconds / len(chunk)
            answers = list(batch_result.results)
            for query, answer in zip(chunk, answers):
                result.query_timings.append(
                    QueryTiming(
                        qid=query.qid,
                        simulated_seconds=share,
                        n_results=len(answer),
                        n_datasets=query.n_datasets,
                    )
                )
        else:
            answers = []
            for query in chunk:
                before = disk.stats_snapshot()
                answers.append(approach.query(query.box, query.dataset_ids))
                delta = disk.stats_snapshot().delta_since(before)
                result.query_timings.append(
                    QueryTiming(
                        qid=query.qid,
                        simulated_seconds=delta.simulated_seconds,
                        n_results=len(answers[-1]),
                        n_datasets=query.n_datasets,
                    )
                )
        for answer in answers:
            result.total_results += len(answer)
        if validate_against is not None:
            for query, answer in zip(chunk, answers):
                oracle_before = disk.stats_snapshot()
                expected = validate_against.query(query.box, query.dataset_ids)
                oracle_delta = disk.stats_snapshot().delta_since(oracle_before)
                # Remove the oracle's I/O from the approach's accounting by
                # rebasing the querying snapshot.
                querying_start = _shift_snapshot(querying_start, oracle_delta)
                if result_keys(answer) != result_keys(expected):
                    result.validation_failures += 1
    querying_delta = disk.stats_snapshot().delta_since(querying_start)
    result.querying_io = querying_delta
    result.querying_seconds = sum(t.simulated_seconds for t in result.query_timings)
    result.wall_seconds = time.perf_counter() - wall_start
    return result


def _shift_snapshot(snapshot: IOStats, delta: IOStats) -> IOStats:
    """Advance a snapshot by ``delta`` so foreign I/O is excluded from totals."""
    return IOStats(
        pages_read=snapshot.pages_read + delta.pages_read,
        pages_written=snapshot.pages_written + delta.pages_written,
        seeks=snapshot.seeks + delta.seeks,
        cache_hits=snapshot.cache_hits + delta.cache_hits,
        io_seconds=snapshot.io_seconds + delta.io_seconds,
        cpu_seconds=snapshot.cpu_seconds + delta.cpu_seconds,
        reads_by_kind={
            key: snapshot.reads_by_kind.get(key, 0) + delta.reads_by_kind.get(key, 0)
            for key in delta.reads_by_kind
        },
    )


def brute_force_oracle(catalog: DatasetCatalog) -> MultiDatasetIndex:
    """Convenience constructor for the validation oracle."""
    from repro.baselines.interface import BruteForceScan

    return BruteForceScan(catalog)


def generate_workload(
    universe: Box,
    dataset_ids: Sequence[int],
    n_queries: int,
    *,
    seed: int,
    volume_fraction: float = 1e-4,
    datasets_per_query: int = 3,
    ranges: str = "uniform",
    ids_distribution: str = "uniform",
    cluster_centers: Sequence[Sequence[float]] | None = None,
    description: str = "",
) -> Workload:
    """A reproducible workload from one explicit seed.

    Both generators are seeded deterministically from ``seed`` (the range
    generator with ``seed`` itself, the combination generator with ``seed +
    1``), so two calls with the same arguments produce identical query
    sequences run-to-run and machine-to-machine — which is what the
    differential-oracle tests, the cost regressions and the batch
    micro-benchmarks rely on.
    """
    if ranges == "uniform":
        range_generator: UniformRangeGenerator | ClusteredRangeGenerator = (
            UniformRangeGenerator(
                universe=universe, volume_fraction=volume_fraction, seed=seed
            )
        )
    elif ranges == "clustered":
        range_generator = ClusteredRangeGenerator(
            universe=universe,
            volume_fraction=volume_fraction,
            seed=seed,
            cluster_centers=cluster_centers,
        )
    else:
        raise ValueError(f"unknown range distribution {ranges!r}")
    combination_generator = CombinationGenerator(
        dataset_ids=list(dataset_ids),
        datasets_per_query=datasets_per_query,
        distribution=ids_distribution,
        seed=seed + 1,
    )
    return WorkloadBuilder(range_generator, combination_generator).build(
        n_queries,
        description=description
        or f"ranges={ranges}, ids={ids_distribution}, seed={seed}",
    )
