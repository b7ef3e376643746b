"""The one execution pipeline: every query runs here, ``query()`` as a batch of one.

The paper's Query Processor (Section 3.2.3) is a per-query pipeline:
initialise, find the overlapping leaves, route, read and filter, refine,
record statistics, merge.  This module is that pipeline, written once for
a *batch* of queries.  :meth:`SpaceOdyssey.query
<repro.core.odyssey.SpaceOdyssey.query>` runs it on a batch of one, and
every ``query_batch`` mode is the same pipeline with two parameters:

* the **read state** the read phase resolves against — the live trees,
  merge directory and merge files (:class:`LiveReadState`), or a pinned
  immutable :class:`~repro.core.epoch.EngineEpoch`
  (:class:`PinnedReadState`);
* the **fan-out** of the read phase's two data-parallel steps (overlap
  resolution per combination group, read + filter per query) — a serial
  loop (:class:`FanOut`), a thread pool (:class:`ThreadFanOut`) or worker
  processes over staged pages (:class:`~repro.core.parallel.ProcessFanOut`).

Execution model
---------------
:meth:`BatchExecutor.prepare` is the read phase:

1. **Validation and initialisation** — every dataset id is validated
   before any work; every requested dataset whose partition tree does not
   exist yet is initialised up front, in the order sequential execution
   would have first touched it.  Initialisation only depends on the raw
   dataset, so doing it early changes no observable state.
2. **Overlap resolution** — queries are grouped by requested dataset
   combination and, per (group, dataset), the extended windows of the
   whole group are resolved in one call to the vectorized
   :func:`~repro.geometry.vectorized.intersect_matrix` kernel over the
   tree's cached per-partition MBR arrays.
3. **Routing and planning** — routing is decided once per combination
   (the merge directory cannot change before the writer phase), and every
   query gets a read plan in on-disk order: merge-file segments first,
   sorted by segment start, then individual partition runs, sorted by
   dataset and run start.  Empty runs and segments are skipped.
4. **Retrieval and filtering** — plans are read through one shared
   :class:`BatchReadSet` layered on the buffer pool: each distinct stored
   group is fetched and decoded once per batch (into columnar NumPy
   arrays), and filtering against the original window is one vectorized
   mask per group; ``SpatialObject`` instances exist only for hits.

:meth:`BatchExecutor.commit` is the writer phase and the engine's only
commit point.  Under the gate it charges simulated CPU for the records
each query examined, in submission order; replays statistics, refinement
and merging per query in submission order against the evolving trees;
publishes the next epoch; and journals the queries.
:meth:`BatchExecutor.run` is ``commit(prepare(batch))``; with the live
read state the gate is held across both.

Why the answers equal sequential execution
------------------------------------------
The read phase reads against the *start-of-batch* trees while sequential
execution reads against trees that refine mid-sequence.  Reading a
partition that sequential execution would have read as several refined
children is safe: the parent's object set is the union of its children's,
and the query-window extension guarantees every true hit lies in a
partition overlapping the extended window at any refinement level.  The
filter step therefore yields byte-identical hits; only
``QueryReport.objects_examined`` (and the simulated CPU charge for it) may
differ from running the queries one at a time.  The replay reproduces the
sequential evolution of the adaptive state exactly, because refinement
decisions depend only on (tree state, query window).  A batch never
reads *more* pages than the equivalent one-at-a-time run
(``tests/test_batch_cost.py`` enforces this).  For a batch of one there is
no difference at all: start-of-batch state is the state the query sees.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.core.merge import RoutingDecision, choose_route
from repro.core.partition import PartitionNode
from repro.core.query_processor import QueryProcessor, QueryReport
from repro.data.columnar import DecodedGroup
from repro.data.spatial_object import SpatialObject
from repro.geometry.box import Box
from repro.geometry.vectorized import box_to_arrays, intersect_mask
from repro.obs.trace import maybe_span
from repro.storage.buffer import BufferCounters
from repro.storage.pagedfile import PagedFile, StoredRun
from repro.workload.query import RangeQuery

#: One step of a query's read plan: ``(dataset_id, file, stored run)``.
PlanEntry = tuple[int, PagedFile, StoredRun]


@dataclass(frozen=True, slots=True)
class BatchQuery:
    """One normalised query of a batch: its position, window and combination.

    ``datasets`` is ``requested`` in ascending order — the order every
    per-dataset step of the pipeline visits.
    """

    index: int
    box: Box
    requested: frozenset[int]
    datasets: tuple[int, ...]


class QueryBatch:
    """A validated, ordered collection of range queries to execute together.

    Accepts :class:`~repro.workload.query.RangeQuery` instances or
    ``(box, dataset_ids)`` pairs (so a
    :class:`~repro.workload.builder.Workload` can be passed directly).
    Queries keep their submission order; :meth:`groups` exposes them
    grouped by requested dataset combination, which is the unit the
    pipeline amortises routing and overlap resolution over.
    """

    def __init__(self, queries: Iterable[RangeQuery | tuple | list]) -> None:
        normalized: list[BatchQuery] = []
        for index, query in enumerate(queries):
            if isinstance(query, RangeQuery):
                box, dataset_ids = query.box, query.dataset_ids
            elif isinstance(query, (tuple, list)) and len(query) == 2:
                box, dataset_ids = query
            else:
                raise TypeError(
                    f"batch entry {index} must be a RangeQuery or a "
                    f"(box, dataset_ids) pair, got {query!r}"
                )
            if not isinstance(box, Box):
                raise TypeError(f"batch entry {index} has no query Box")
            requested = frozenset(dataset_ids)
            if not requested:
                raise ValueError(f"batch entry {index} requests no datasets")
            normalized.append(
                BatchQuery(index, box, requested, tuple(sorted(requested)))
            )
        self._queries = tuple(normalized)
        self._groups: dict[frozenset[int], list[BatchQuery]] | None = None

    @property
    def queries(self) -> tuple[BatchQuery, ...]:
        """The normalised queries in submission order."""
        return self._queries

    def __len__(self) -> int:
        return len(self._queries)

    def __iter__(self) -> Iterator[BatchQuery]:
        return iter(self._queries)

    def combinations(self) -> set[frozenset[int]]:
        """The distinct dataset combinations appearing in the batch."""
        return {query.requested for query in self._queries}

    def groups(self) -> dict[frozenset[int], list[BatchQuery]]:
        """Queries grouped by requested combination, preserving order."""
        if self._groups is None:
            grouped: dict[frozenset[int], list[BatchQuery]] = {}
            for query in self._queries:
                grouped.setdefault(query.requested, []).append(query)
            self._groups = grouped
        return self._groups


@dataclass
class BatchResult:
    """Everything a batch execution produced.

    ``results[i]`` and ``reports[i]`` belong to the i-th submitted query.
    ``group_reads`` counts every stored-group retrieval the batch's read
    plans needed; ``group_reads_deduped`` is how many of those were served
    from the shared read set instead of touching the disk again.
    """

    results: list[list[SpatialObject]]
    reports: list[QueryReport]
    group_reads: int = 0
    group_reads_deduped: int = 0

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[list[SpatialObject]]:
        return iter(self.results)

    def __getitem__(self, index: int) -> list[SpatialObject]:
        return self.results[index]

    def hit_counts(self) -> list[int]:
        """Number of hits per query, in submission order."""
        return [len(hits) for hits in self.results]

    def total_results(self) -> int:
        """Total hits across the batch."""
        return sum(len(hits) for hits in self.results)


@dataclass
class PreparedBatch:
    """What the read phase of one batch produced, awaiting its writer phase.

    Made by :meth:`BatchExecutor.prepare` (or
    :meth:`SpaceOdyssey.prepare_batch
    <repro.core.odyssey.SpaceOdyssey.prepare_batch>`); committed exactly
    once, and only by the engine that prepared it.  Every read is already
    materialised into ``results``; a pinned epoch is already unpinned.
    ``epoch_id`` is the pinned epoch's id, or ``None`` for a live read.
    ``cache_deltas`` and ``retries`` hold each query's buffer-pool counter
    deltas and transparent I/O retries from tree initialisation and the
    read phase (the writer phase adds its own).
    """

    processor: QueryProcessor
    batch: QueryBatch
    epoch_id: int | None = None
    first_touch: dict[int, int] = field(default_factory=dict)
    extended: dict[tuple[int, int], Box] = field(default_factory=dict)
    needed0: dict[tuple[int, int], list[PartitionNode]] = field(default_factory=dict)
    versions0: dict[int, int] = field(default_factory=dict)
    results: list[list[SpatialObject]] = field(default_factory=list)
    examined: list[int] = field(default_factory=list)
    cache_deltas: list[BufferCounters] = field(default_factory=list)
    retries: list[int] = field(default_factory=list)
    group_reads: int = 0
    dedup_hits: int = 0
    committed: bool = False


class BatchReadSet:
    """The shared read set of one batch, layered on the buffer pool.

    Keys are ``(file name, page extents, record count)`` — the identity of
    a stored group.  The first request for a group goes through the
    columnar storage surface
    (:meth:`~repro.storage.pagedfile.PagedFile.read_group_array`, or
    :meth:`~repro.storage.pagedfile.PagedFile.read_group_array_at` with
    the pinned epoch's page ``lookup``, so pages overwritten or deleted
    since the pin are served from retained pre-images).  Cost accounting,
    the buffer pool and the decoded-array cache therefore behave exactly
    as for any other read; later requests for the same group are free.

    Safe for concurrent readers: the dedup dictionary is guarded by one
    lock and decoding by a per-group lock, so two readers racing for one
    group decode it once while different groups decode in parallel.
    ``group_reads`` is the number of :meth:`read` calls and
    ``dedup_hits`` that count minus the number of distinct groups,
    whatever the interleaving.  The set lives for one batch: all its
    reads complete before any write of the writer phase.
    """

    def __init__(self, dimension: int, lookup=None) -> None:
        self._dimension = dimension
        self._lookup = lookup
        self._groups: dict[tuple, DecodedGroup] = {}
        self._lock = threading.Lock()
        self._group_locks: dict[tuple, threading.Lock] = {}
        self.group_reads = 0
        self.dedup_hits = 0

    def read(self, file: PagedFile[SpatialObject], run: StoredRun) -> DecodedGroup:
        """The decoded records of one stored group (decoded exactly once)."""
        key = (file.name, run.extents, run.n_records)
        with self._lock:
            self.group_reads += 1
            group = self._groups.get(key)
            if group is not None:
                self.dedup_hits += 1
                return group
            group_lock = self._group_locks.setdefault(key, threading.Lock())
        with group_lock:
            group = self._groups.get(key)
            if group is None:
                if self._lookup is None:
                    records = file.read_group_array(run)
                else:
                    records = file.read_group_array_at(run, self._lookup)
                group = DecodedGroup.from_records(records, self._dimension)
                with self._lock:
                    self._groups[key] = group
                return group
        with self._lock:
            self.dedup_hits += 1
        return group


# ---------------------------------------------------------------------- #
# Read state: what the read phase resolves against
# ---------------------------------------------------------------------- #
# ``trees`` maps dataset id to an object with ``version``, ``max_extent``,
# ``universe`` and ``file`` (a live PartitionTree or a frozen
# TreeEpochSnapshot); the hooks cover what differs between the two.


class LiveReadState:
    """The live trees, merge directory and merge files (read under the gate)."""

    lookup = None

    def __init__(self, processor: QueryProcessor) -> None:
        self.trees = processor.live_trees
        self.directory = processor.directory
        self._merger = processor.merger

    def leaf_run(self, dataset_id: int, leaf: PartitionNode) -> StoredRun | None:
        return leaf.run

    def merge_file(self, info) -> PagedFile[SpatialObject]:
        return self._merger.merge_file(info.combination)

    def overlapping(self, dataset_id: int, windows: list[Box]) -> list[list[PartitionNode]]:
        return self.trees[dataset_id].leaves_overlapping_batch(windows)

    def leaf_snapshot(self, dataset_id: int):
        return self.trees[dataset_id].leaf_snapshot()


class PinnedReadState:
    """A pinned :class:`~repro.core.epoch.EngineEpoch` (read without the gate).

    Leaf runs, merge-file handles, the merge directory and the leaf-MBR
    arrays all come from the epoch's frozen captures, and page reads
    resolve through its retained pre-images, so concurrent adaptation
    never tears what this state sees.
    """

    def __init__(self, epoch) -> None:
        self.trees = epoch.trees
        self.directory = epoch.directory
        self.lookup = epoch.lookup_page
        self._merge_files = epoch.merge_files

    def leaf_run(self, dataset_id: int, leaf: PartitionNode) -> StoredRun | None:
        return self.trees[dataset_id].run_of(leaf)

    def merge_file(self, info) -> PagedFile[SpatialObject]:
        return self._merge_files[info.combination]

    def overlapping(self, dataset_id: int, windows: list[Box]) -> list[list[PartitionNode]]:
        return self.trees[dataset_id].overlapping_batch(windows)

    def leaf_snapshot(self, dataset_id: int):
        return self.trees[dataset_id].snapshot


# ---------------------------------------------------------------------- #
# Fan-out: how the read phase's data-parallel steps run
# ---------------------------------------------------------------------- #

#: One query's read-phase outcome: hits, buffer-pool deltas, I/O retries.
QueryReads = tuple[list[SpatialObject], BufferCounters, int]


class FanOut:
    """The serial fan-out: overlap resolution and read + filter as loops.

    Subclasses change only how the two steps are spread: ``_map`` over a
    pool (:class:`ThreadFanOut`), or both steps shipped to worker
    processes (:class:`~repro.core.parallel.ProcessFanOut`).  A fan-out
    is a context manager so a pool spans both steps of one batch.
    """

    name = "serial"

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers

    def __enter__(self) -> "FanOut":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def _map(self, function, items) -> list:
        return [function(item) for item in items]

    def resolve(
        self,
        state,
        groups: dict[frozenset[int], list[BatchQuery]],
        extended: dict[tuple[int, int], Box],
        tracer=None,
        parent=None,
    ) -> dict[tuple[int, int], list[PartitionNode]]:
        """Per-(query, dataset) overlapping leaves, one kernel call per
        (group, dataset); groups merge in submission order."""

        def resolve_group(item) -> dict[tuple[int, int], list[PartitionNode]]:
            combination, group = item
            local: dict[tuple[int, int], list[PartitionNode]] = {}
            for dataset_id in sorted(combination):
                windows = [extended[(query.index, dataset_id)] for query in group]
                per_query = state.overlapping(dataset_id, windows)
                for query, leaves in zip(group, per_query):
                    local[(query.index, dataset_id)] = leaves
            return local

        needed0: dict[tuple[int, int], list[PartitionNode]] = {}
        for local in self._map(resolve_group, groups.items()):
            needed0.update(local)
        return needed0

    def read_filter(
        self,
        state,
        disk,
        dimension: int,
        queries: Sequence[BatchQuery],
        plans: list[list[PlanEntry]],
        tracer=None,
        parent=None,
    ) -> tuple[list[QueryReads], int, int]:
        """Every query's reads and filter through one shared read set.

        Returns the per-query outcomes in submission order plus the read
        set's ``(group_reads, dedup_hits)``.  With a tracer, each query
        records a ``query.filter`` span parented explicitly on ``parent``
        (pool threads have empty span stacks).
        """
        read_set = BatchReadSet(dimension, state.lookup)
        pool = disk.buffer_pool
        stats = disk.stats

        def work(query: BatchQuery) -> QueryReads:
            with maybe_span(
                tracer, "query.filter", parent=parent, query=query.index
            ) as span:
                cache_start = pool.counters()
                retries_start = stats.retries
                q_lo, q_hi = box_to_arrays(query.box)
                hits: list[SpatialObject] = []
                for dataset_id, file, run in plans[query.index]:
                    group = read_set.read(file, run)
                    mask = (group.dataset_ids == dataset_id) & intersect_mask(
                        q_lo, q_hi, group.lo, group.hi
                    )
                    hits.extend(group.materialize(mask))
                if span is not None:
                    span.attributes["hits"] = len(hits)
                return (
                    hits,
                    pool.counters().delta_since(cache_start),
                    stats.retries - retries_start,
                )

        outcomes = self._map(work, queries)
        return outcomes, read_set.group_reads, read_set.dedup_hits


class ThreadFanOut(FanOut):
    """Both read-phase steps across one thread pool per batch.

    NumPy releases the GIL inside its kernels and the byte copies under
    the disk lock are short, so decode + filter of independent queries
    overlap on multi-core hosts.
    """

    name = "thread"

    def __enter__(self) -> "ThreadFanOut":
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-batch"
        )
        return self

    def __exit__(self, *exc_info) -> None:
        self._pool.shutdown()

    def _map(self, function, items) -> list:
        return list(self._pool.map(function, items))


#: The fan-out of every batch of fewer than two queries.
SERIAL = FanOut()


class BatchExecutor:
    """Runs :class:`QueryBatch`\\ es through the one pipeline.

    ``fan_out`` spreads the read phase (serial by default); ``snapshot``
    reads a pinned epoch without the gate instead of the live state under
    it.  See the module docstring for the execution model.
    """

    def __init__(
        self,
        processor: QueryProcessor,
        fan_out: FanOut = SERIAL,
        snapshot: bool = False,
    ) -> None:
        self._processor = processor
        self._fan_out = fan_out
        self._snapshot = snapshot

    def run(self, batch: QueryBatch) -> BatchResult:
        """Execute the batch: ``commit(prepare(batch))``."""
        processor = self._processor
        with maybe_span(
            processor.tracer,
            "batch",
            queries=len(batch),
            executor="epoch" if self._snapshot else self._fan_out.name,
            workers=self._fan_out.workers,
        ):
            if self._snapshot:
                return self.commit(self.prepare(batch))
            with processor.gate:
                return self.commit(self.prepare(batch))

    # ------------------------------------------------------------------ #
    # The read phase
    # ------------------------------------------------------------------ #

    def prepare(self, batch: QueryBatch) -> PreparedBatch:
        """Validate, initialise, resolve, route, read and filter.

        With the live read state the caller holds the gate (``run`` does,
        through ``commit``).  With ``snapshot`` the gate is taken only if
        a requested dataset has no partition tree yet (initialisation
        writes the partition file); the epoch published after that is
        pinned and read lock-free.
        """
        processor = self._processor
        prepared = PreparedBatch(processor, batch)
        queries = batch.queries
        if not queries:
            return prepared
        catalog = processor.catalog
        for query in queries:
            for dataset_id in query.requested:
                catalog.get(dataset_id)  # validates every id before any work
        prepared.cache_deltas = [BufferCounters()] * len(queries)  # immutable
        prepared.retries = [0] * len(queries)
        tracer = processor.tracer
        if not self._snapshot:
            self._initialize_trees(prepared)
            self._read(prepared, LiveReadState(processor))
            return prepared
        manager = processor.epochs
        with maybe_span(tracer, "epoch.prepare", queries=len(queries)) as span:
            epoch = manager.pin()
            if any(d not in epoch.trees for q in queries for d in q.requested):
                manager.unpin(epoch)
                with processor.gate:
                    self._initialize_trees(prepared)
                    processor.publish_epoch()
                epoch = manager.pin()
            if span is not None:
                span.attributes["epoch"] = epoch.epoch_id
            prepared.epoch_id = epoch.epoch_id
            try:
                self._read(prepared, PinnedReadState(epoch))
            finally:
                manager.unpin(epoch)
        return prepared

    def _initialize_trees(self, prepared: PreparedBatch) -> None:
        """Initialise missing trees in sequential first-touch order.

        Records ``dataset_id -> index of the query that first touched
        it`` so the writer phase attributes each initialisation (and its
        cache deltas and retries) to the right :class:`QueryReport`.
        """
        processor = self._processor
        trees = processor.live_trees
        first_touch = prepared.first_touch
        for query in prepared.batch.queries:
            for dataset_id in query.datasets:
                if dataset_id not in trees and dataset_id not in first_touch:
                    first_touch[dataset_id] = query.index
        if not first_touch:
            return
        pool = processor.disk.buffer_pool
        stats = processor.disk.stats
        adaptor = processor.adaptor
        with maybe_span(processor.tracer, "batch.init_trees"):
            for dataset_id, index in first_touch.items():  # first-touch order
                cache_start = pool.counters()
                retries_start = stats.retries
                tree = adaptor.create_tree(processor.catalog.get(dataset_id))
                adaptor.initialize(tree)
                trees[dataset_id] = tree
                prepared.cache_deltas[index] += pool.counters().delta_since(
                    cache_start
                )
                prepared.retries[index] += stats.retries - retries_start

    def _read(self, prepared: PreparedBatch, state) -> None:
        """Overlaps, routing, plans, then read + filter, into ``prepared``."""
        batch = prepared.batch
        queries = batch.queries
        groups = batch.groups()
        trees = state.trees
        extended = prepared.extended
        for query in queries:
            for dataset_id in query.datasets:
                tree = trees[dataset_id]
                extended[(query.index, dataset_id)] = query.box.expand(
                    tree.max_extent
                ).clamp(tree.universe)
        for combination in groups:
            for dataset_id in combination:
                prepared.versions0[dataset_id] = trees[dataset_id].version
                # Build the leaf-MBR arrays before any fan-out (building
                # them mutates the live tree's cache).
                state.leaf_snapshot(dataset_id)
        decisions = {
            combination: choose_route(state.directory, combination)
            for combination in groups
        }
        fan_out = self._fan_out if len(queries) > 1 else SERIAL
        try:
            outcomes = self._fan_out_reads(fan_out, prepared, state, decisions)
        except BrokenProcessPool:
            # A worker process died.  Nothing adaptive has been touched
            # and the read phase is idempotent: rerun it on threads.
            outcomes = self._fan_out_reads(
                fan_out.fallback(), prepared, state, decisions
            )
        results, cache_deltas, retries = zip(*outcomes)
        prepared.results = list(results)
        prepared.cache_deltas = [
            init + read for init, read in zip(prepared.cache_deltas, cache_deltas)
        ]
        prepared.retries = [init + read for init, read in zip(prepared.retries, retries)]

    def _fan_out_reads(
        self,
        fan_out: FanOut,
        prepared: PreparedBatch,
        state,
        decisions: dict[frozenset[int], RoutingDecision],
    ) -> list[QueryReads]:
        processor = self._processor
        tracer = processor.tracer
        queries = prepared.batch.queries
        with fan_out:
            with maybe_span(tracer, "batch.overlap") as span:
                prepared.needed0 = fan_out.resolve(
                    state, prepared.batch.groups(), prepared.extended, tracer, span
                )
            plans = [
                self._query_plan(state, query, prepared.needed0, decisions)
                for query in queries
            ]
            prepared.examined = [
                sum(run.n_records for _, _, run in plan) for plan in plans
            ]
            with maybe_span(tracer, "batch.read_filter") as span:
                outcomes, prepared.group_reads, prepared.dedup_hits = (
                    fan_out.read_filter(
                        state,
                        processor.disk,
                        processor.catalog.dimension,
                        queries,
                        plans,
                        tracer,
                        span,
                    )
                )
        return outcomes

    @staticmethod
    def _run_start(run: StoredRun | None) -> int:
        """Sort key: where a stored run starts on disk (0 when empty)."""
        if run is None or not run.extents:
            return 0
        return run.extents[0].start

    @classmethod
    def _query_plan(
        cls,
        state,
        query: BatchQuery,
        needed0: dict[tuple[int, int], list[PartitionNode]],
        decisions: dict[frozenset[int], RoutingDecision],
    ) -> list[PlanEntry]:
        """One query's read plan, in collect order.

        Merge-file segments first (sorted by segment start), then
        individual partition runs (sorted by dataset, then run start);
        empty runs and segments hold nothing to read and are left out.
        A deterministic function of ``(query, needed0, decisions)`` and
        the read state, so every fan-out reads the same groups and
        collects hits in the same order.
        """
        decision = decisions[query.requested]
        info = decision.merge_info
        segments: list[tuple[int, StoredRun]] = []
        individual: list[tuple[int, StoredRun]] = []
        for dataset_id in query.datasets:
            merged = info is not None and dataset_id in decision.covered_datasets
            for leaf in needed0[(query.index, dataset_id)]:
                if merged and info.has_segment(leaf.key, dataset_id):
                    run, target = info.segment(leaf.key, dataset_id), segments
                else:
                    run, target = state.leaf_run(dataset_id, leaf), individual
                if run is not None and run.n_records:
                    target.append((dataset_id, run))
        trees = state.trees
        plan: list[PlanEntry] = []
        if segments:
            merge_file = state.merge_file(info)
            segments.sort(key=lambda item: cls._run_start(item[1]))
            plan.extend((dataset_id, merge_file, run) for dataset_id, run in segments)
        individual.sort(key=lambda item: (item[0], cls._run_start(item[1])))
        plan.extend(
            (dataset_id, trees[dataset_id].file, run) for dataset_id, run in individual
        )
        return plan

    # ------------------------------------------------------------------ #
    # The writer phase — the engine's only commit point
    # ------------------------------------------------------------------ #

    def commit(self, prepared: PreparedBatch) -> BatchResult:
        """Charge CPU, replay the adaptive pipeline, publish and journal.

        Runs under the gate, so concurrent batches' writer phases apply
        in gate-acquisition order and the adaptive state evolves exactly
        as sequential execution.  A prepared batch commits once, on the
        engine that prepared it; anything else raises ``ValueError``
        before any state changes.
        """
        processor = self._processor
        queries = prepared.batch.queries
        with maybe_span(
            processor.tracer,
            "batch.commit" if prepared.epoch_id is None else "epoch.commit",
            queries=len(queries),
            epoch=prepared.epoch_id,
        ):
            with processor.gate:
                if prepared.processor is not processor:
                    raise ValueError(
                        "a prepared batch can only be committed by the engine "
                        "that prepared it"
                    )
                if prepared.committed:
                    raise ValueError("this prepared batch was already committed")
                prepared.committed = True
                if not queries:
                    return BatchResult(results=[], reports=[])
                disk = processor.disk
                for count in prepared.examined:
                    disk.charge_cpu_records(count)
                with maybe_span(processor.tracer, "batch.replay"):
                    reports = self._replay_updates(prepared)
                processor.publish_and_journal(
                    [(query.box, query.requested) for query in queries]
                )
        return BatchResult(
            results=prepared.results,
            reports=reports,
            group_reads=prepared.group_reads,
            group_reads_deduped=prepared.dedup_hits,
        )

    def _replay_updates(self, prepared: PreparedBatch) -> list[QueryReport]:
        """Apply statistics, refinement and merging in sequential order.

        Works on the *current* trees: the leaves each query retrieved are
        re-resolved whenever a tree was refined since overlap resolution,
        which makes every hit count, refinement decision, statistics update
        and merge trigger identical to sequential execution.
        """
        processor = self._processor
        adaptor = processor.adaptor
        statistics = processor.statistics
        directory = processor.directory
        merger = processor.merger
        trees = processor.live_trees
        pool = processor.disk.buffer_pool
        stats = processor.disk.stats
        first_touch = prepared.first_touch
        needed0 = prepared.needed0
        versions0 = prepared.versions0
        reports: list[QueryReport] = []
        for query in prepared.batch.queries:
            index = query.index
            requested = query.requested
            datasets = query.datasets
            cache_start = pool.counters()
            retries_start = stats.retries
            report = QueryReport(
                query_index=processor.queries_executed, requested=datasets
            )
            statistics.tick()
            if first_touch:
                report.initialized_datasets = [
                    dataset_id
                    for dataset_id in datasets
                    if first_touch.get(dataset_id) == index
                ]
            needed: dict[int, list[PartitionNode]] = {}
            for dataset_id in datasets:
                tree = trees[dataset_id]
                if tree.version == versions0[dataset_id]:
                    needed[dataset_id] = needed0[(index, dataset_id)]
                else:
                    # The tree was refined mid-replay; the scalar walk gives
                    # the same leaves in the same order without forcing a
                    # snapshot rebuild that the next refinement would
                    # invalidate again.
                    needed[dataset_id] = tree.leaves_overlapping(
                        prepared.extended[(index, dataset_id)]
                    )
            decision = choose_route(directory, requested)
            report.route = decision.kind.value
            info = decision.merge_info
            if info is not None:
                merger.mark_used(info.combination)
            accessed_keys: dict[int, set] = {}
            for dataset_id in datasets:
                keys = set()
                merged = info is not None and dataset_id in decision.covered_datasets
                for leaf in needed[dataset_id]:
                    keys.add(leaf.key)
                    leaf.hit_count += 1
                    if merged and info.has_segment(leaf.key, dataset_id):
                        report.partitions_from_merge += 1
                report.partitions_read += len(needed[dataset_id])
                accessed_keys[dataset_id] = keys
            report.objects_examined = prepared.examined[index]
            report.results = len(prepared.results[index])
            for dataset_id in datasets:
                tree = trees[dataset_id]
                for leaf in needed[dataset_id]:
                    if adaptor.maybe_refine(tree, leaf, query.box).refined:
                        report.refinements += 1
            statistics.record_query(
                requested, accessed_keys, query_volume=query.box.volume()
            )
            merge_outcome = merger.maybe_merge(requested, trees)
            report.merged = merge_outcome.merged
            report.merge_new_partitions = merge_outcome.new_partitions
            report.evicted_merge_files = len(merge_outcome.evicted_combinations)
            report.cache = prepared.cache_deltas[index] + pool.counters().delta_since(
                cache_start
            )
            report.retries = (
                prepared.retries[index] + stats.retries - retries_start
            )
            processor.note_executed(report)
            reports.append(report)
        return reports
