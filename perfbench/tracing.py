"""Span tracing for the benchmark's traced run, from the benchmark's own files.

:func:`traced` wraps the public functions of each engine layer for the
duration of a ``with`` block and restores them afterwards.  Every wrapped
call becomes a span (name, start, end, parent span, query id) kept in
memory; the spans are written out when the run ends.  A span's self time
is its duration minus the time its child spans cover.  The traced unit's
timed wall time that no root span covers is reported as ``unattributed``
(answer checks between timed segments are not part of it).

The wrappers observe only: they call the original function with the
original arguments and return its result unchanged.
"""

from __future__ import annotations

import gzip
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

#: (span name, owner, attribute).  ``owner`` is a dotted module path, or
#: ``module:Class`` for a method.  Several targets may share one span name.
SPAN_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("storage.disk.read_run", "repro.storage.disk:Disk", "read_run"),
    ("storage.disk.read_run", "repro.storage.disk:Disk", "read_run_at"),
    ("storage.disk.write", "repro.storage.disk:Disk", "write_page"),
    ("storage.disk.write", "repro.storage.disk:Disk", "append_run"),
    ("storage.pagedfile.read_group_array", "repro.storage.pagedfile:PagedFile", "read_group_array"),
    ("storage.pagedfile.read_group_array", "repro.storage.pagedfile:PagedFile", "read_group_array_at"),
    ("storage.pagedfile.write_groups_array", "repro.storage.pagedfile:PagedFile", "write_groups_array"),
    ("storage.codec.decode_page_array", "repro.storage.codec", "decode_page_array"),
    ("storage.backend.FileSystemBackend.read", "repro.storage.backend:FileSystemBackend", "read"),
    ("storage.backend.FileSystemBackend.write", "repro.storage.backend:FileSystemBackend", "write"),
    ("storage.backend.FileSystemBackend.append", "repro.storage.backend:FileSystemBackend", "append"),
    ("storage.journal.commit", "repro.storage.journal:ManifestJournal", "commit"),
    ("storage.journal.rewrite", "repro.storage.journal:ManifestJournal", "rewrite"),
    ("core.recovery.DurabilityLog.record", "repro.core.recovery:DurabilityLog", "record"),
    ("core.recovery.recover", "repro.core.recovery", "recover"),
    ("core.adaptor.initialize", "repro.core.adaptor:Adaptor", "initialize"),
    ("core.adaptor.refine", "repro.core.adaptor:Adaptor", "refine"),
    ("core.merger.maybe_merge", "repro.core.merger:Merger", "maybe_merge"),
    ("core.partition.leaves_overlapping", "repro.core.partition:PartitionTree", "leaves_overlapping"),
    ("core.partition.leaves_overlapping", "repro.core.partition:PartitionTree", "leaves_overlapping_vectorized"),
    ("core.partition.leaves_overlapping", "repro.core.partition:PartitionTree", "leaves_overlapping_batch"),
    ("core.partition.leaves_overlapping", "repro.core.partition:TreeEpochSnapshot", "overlapping_batch"),
    ("core.partition.epoch_snapshot", "repro.core.partition:PartitionTree", "epoch_snapshot"),
    ("core.epoch.EpochManager.publish", "repro.core.epoch:EpochManager", "publish"),
    ("core.statistics.record_query", "repro.core.statistics:StatisticsCollector", "record_query"),
    ("core.query_processor.QueryProcessor.execute", "repro.core.query_processor:QueryProcessor", "execute"),
    ("core.batch.BatchExecutor.run", "repro.core.batch:BatchExecutor", "run"),
    ("data.columnar.DecodedGroup.materialize", "repro.data.columnar:DecodedGroup", "materialize"),
    ("geometry.vectorized.intersect_mask", "repro.geometry.vectorized", "intersect_mask"),
    ("serve.service.prepare_batch", "repro.core.odyssey:SpaceOdyssey", "prepare_batch"),
    ("serve.service.commit_batch", "repro.core.odyssey:SpaceOdyssey", "commit_batch"),
)

SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys(name for name, _, _ in SPAN_TARGETS))


_JOURNAL_SPANS = ("storage.journal.commit", "storage.journal.rewrite")


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


@dataclass(frozen=True, slots=True)
class Span:
    index: int
    name: str
    start: float
    end: float
    parent: int
    qid: int
    thread: int
    child_s: float

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.end - self.start - self.child_s


class SpanRecorder:
    """Collects spans and boundary counts from any number of threads."""

    def __init__(self, min_merge_combination: int) -> None:
        self.min_merge_combination = min_merge_combination
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._counters: list[Counter] = []
        self._lock = threading.Lock()
        self._root_seq: dict[str, itertools.count] = defaultdict(itertools.count)
        #: Query count of each prepared batch, in dispatch order.
        self.batch_sizes: list[int] = []

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.qid = None
            local.counts = Counter()
            with self._lock:
                self._counters.append(local.counts)
        return local

    def _before(self, name: str, args, counts: Counter):
        if name in _JOURNAL_SPANS:
            return _file_size(args[0].path), counts["journal.rewrites"]
        return None

    def _after(self, name: str, args, result, counts: Counter, token) -> None:
        """Counts taken at a span's boundary, where the work happens."""
        if name in _JOURNAL_SPANS:
            size_before, rewrites_before = token
            size = _file_size(args[0].path)
            if name == "storage.journal.rewrite":
                # The whole journal is written again (compaction or recovery).
                counts["journal.rewrites"] += 1
                counts["journal.bytes_written"] += size
            elif counts["journal.rewrites"] == rewrites_before:
                counts["journal.bytes_written"] += size - size_before
        elif name == "core.partition.leaves_overlapping":
            batched = result and isinstance(result[0], list)
            counts["leaves"] += sum(map(len, result)) if batched else len(result)
        elif name == "core.merger.maybe_merge":
            counts["maybe_merge.eligible"] += len(args[1]) >= self.min_merge_combination
            counts["maybe_merge.merged"] += result.merged
        elif name == "data.columnar.DecodedGroup.materialize":
            counts["materialized"] += len(result)
        elif name == "core.epoch.EpochManager.publish":
            counts["retained_pages.peak"] = max(
                counts["retained_pages.peak"], args[0].gauges()["retained_pages"]
            )
        elif name == "serve.service.prepare_batch":
            self.batch_sizes.append(len(args[1]))

    def set_qid(self, qid: int) -> None:
        """Tag the spans this thread records next with a query id."""
        self._state().qid = qid

    def counts(self) -> Counter:
        """Boundary counts summed over every thread."""
        total: Counter = Counter()
        with self._lock:
            for counts in self._counters:
                total.update(counts)
        total["retained_pages.peak"] = max(
            (c["retained_pages.peak"] for c in self._counters), default=0
        )
        return total

    def wrap(self, name: str, function):
        """``function`` wrapped so every call records one span."""
        recorder = self
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        def traced_call(*args, **kwargs):
            state = recorder._state()
            stack = state.stack
            index = next(ids)
            if stack:
                parent, qid = stack[-1][0], stack[-1][2]
            else:
                parent = -1
                qid = state.qid if state.qid is not None else next(recorder._root_seq[name])
            frame = [index, 0.0, qid]
            token = recorder._before(name, args, state.counts)
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append(
                    Span(index, name, start, end, parent, qid, threading.get_ident(), frame[1])
                )
            recorder._after(name, args, result, state.counts, token)
            return result

        traced_call.__wrapped__ = function
        return traced_call

    def count_calls(self, key: str, function):
        """``function`` wrapped to count calls only (no span)."""
        recorder = self

        def counted_call(*args, **kwargs):
            recorder._state().counts[key] += 1
            return function(*args, **kwargs)

        counted_call.__wrapped__ = function
        return counted_call

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #

    def by_name(self) -> dict[str, tuple[int, float]]:
        """``name -> (calls, self seconds)`` over every recorded span."""
        table: dict[str, list] = {name: [0, 0.0] for name in SPAN_NAMES}
        for span in self.spans:
            entry = table.setdefault(span.name, [0, 0.0])
            entry[0] += 1
            entry[1] += span.self_seconds
        return {name: (calls, seconds) for name, (calls, seconds) in table.items()}

    def covered_seconds(self, start: float, end: float) -> float:
        """Length of ``[start, end]`` covered by at least one root span."""
        intervals = sorted(
            (max(s.start, start), min(s.end, end))
            for s in self.spans
            if s.parent == -1 and s.end > start and s.start < end
        )
        covered = 0.0
        cursor = start
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return covered

    def nested_seconds(self, outer: str, inner: str) -> float:
        """Time of ``inner`` spans that run inside an ``outer`` span."""
        windows = [(s.thread, s.start, s.end) for s in self.spans if s.name == outer]
        return sum(
            s.seconds
            for s in self.spans
            if s.name == inner
            and any(t == s.thread and lo <= s.start and s.end <= hi for t, lo, hi in windows)
        )

    def write(self, path) -> None:
        """Write every span as gzip-compressed JSON lines."""
        origin = min((s.start for s in self.spans), default=0.0)
        with gzip.open(path, "wt") as handle:
            for span in sorted(self.spans, key=lambda s: s.index):
                handle.write(
                    json.dumps(
                        {
                            "id": span.index,
                            "name": span.name,
                            "start_us": round((span.start - origin) * 1e6, 1),
                            "end_us": round((span.end - origin) * 1e6, 1),
                            "parent": span.parent,
                            "qid": span.qid,
                            "thread": span.thread,
                        }
                    )
                    + "\n"
                )


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    __import__(module_name)
    module = sys.modules[module_name]
    return getattr(module, class_name) if class_name else module


@contextmanager
def traced(recorder: SpanRecorder):
    """Install the span wrappers (and the Box construction counter)."""
    patches: list[tuple[object, str, object]] = []

    def patch(owner, attribute: str, replacement) -> None:
        patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    for name, owner_path, attribute in SPAN_TARGETS:
        owner = _resolve(owner_path)
        original = owner.__dict__[attribute]
        if isinstance(owner, type):
            patch(owner, attribute, recorder.wrap(name, original))
            continue
        # A module function: also rebind every ``from ... import`` copy.
        wrapped = recorder.wrap(name, original)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("repro") and getattr(module, attribute, None) is original:
                patch(module, attribute, wrapped)
    box = _resolve("repro.geometry.box:Box")
    patch(box, "__post_init__", recorder.count_calls("box.constructions", box.__post_init__))
    try:
        yield recorder
    finally:
        for owner, attribute, original in reversed(patches):
            setattr(owner, attribute, original)


# ---------------------------------------------------------------------- #
# Per-layer metrics
# ---------------------------------------------------------------------- #

#: Counts and ratios reported next to every span family's ``.calls``/``.ms``:
#: (name, unit, better).
_DERIVED: tuple[tuple[str, str, str], ...] = (
    ("storage.disk.pages_read", "count", "lower"),
    ("storage.disk.pages_written", "count", "lower"),
    ("storage.disk.seeks", "count", "lower"),
    ("storage.disk.sim_io_s", "s", "lower"),
    ("storage.disk.sim_cpu_s", "s", "lower"),
    ("storage.buffer.hit_ratio", "ratio", "higher"),
    ("storage.buffer.evictions", "count", "lower"),
    ("storage.buffer.decoded_hit_ratio", "ratio", "higher"),
    ("storage.pagedfile.pages_decoded_per_hit", "ratio", "lower"),
    ("storage.journal.bytes_written", "bytes", "lower"),
    ("core.recovery.replay.ms", "ms", "lower"),
    ("core.merger.maybe_merge.share", "ratio", "lower"),
    ("core.merger.merges_performed", "count", "lower"),
    ("core.merger.partitions_merged", "count", "lower"),
    ("core.merger.evictions", "count", "lower"),
    ("core.merger.merge_yield", "ratio", "higher"),
    ("core.partition.leaves_per_query", "ratio", "lower"),
    ("core.epoch.retained_pages", "count", "lower"),
    ("core.query_processor.examined_per_hit", "ratio", "lower"),
    ("core.query_processor.merge_route_share", "ratio", "higher"),
    ("data.columnar.hits", "count", "higher"),
    ("geometry.box.constructions_per_hit", "ratio", "lower"),
    ("serve.service.batches", "count", "lower"),
    ("serve.service.mean_batch_size", "count", "higher"),
    ("serve.service.size_flushes", "count", "higher"),
    ("serve.service.deadline_flushes", "count", "lower"),
    ("serve.service.fallbacks", "count", "lower"),
    ("serve.service.retries", "count", "lower"),
    ("serve.service.queue_wait_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_ms", "ms", "lower"),
    ("trace.spans", "count", "lower"),
)

#: Every per-layer metric in report order: ``(name, unit, better)``.
PER_LAYER: tuple[tuple[str, str, str], ...] = tuple(
    entry
    for name in SPAN_NAMES
    for entry in ((f"{name}.calls", "count", "lower"), (f"{name}.ms", "ms", "lower"))
) + _DERIVED


@dataclass(frozen=True)
class TracedUnit:
    """What the workload observed around one traced unit of work."""

    region: tuple[float, float]  # perf_counter start/end of the traced unit
    wall_s: float  # the unit's wall_s (as the untraced run defines it)
    untraced_wall_s: float  # the same unit of work, untraced
    io: object  # IOStats delta
    buffer: object  # BufferCounters delta
    hits: int
    queries: int
    examined: int
    merge_routed: int
    merger: tuple[int, int, int]  # merges, partitions merged, evictions
    service: object = None  # ServiceStats of the served window, if any
    queue_wait_ms: float = 0.0
    recovery: SpanRecorder | None = None  # spans of the recover after the unit


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(recorder: SpanRecorder, unit: TracedUnit) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric for one traced unit."""
    metrics: dict[str, float] = {}
    for name, (calls, seconds) in recorder.by_name().items():
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.ms"] = seconds * 1e3
    counts = recorder.counts()
    io, buffer = unit.io, unit.buffer
    start, end = unit.region
    service = unit.service
    metrics.update(
        {
            "storage.disk.pages_read": io.pages_read,
            "storage.disk.pages_written": io.pages_written,
            "storage.disk.seeks": io.seeks,
            "storage.disk.sim_io_s": io.io_seconds,
            "storage.disk.sim_cpu_s": io.cpu_seconds,
            "storage.buffer.hit_ratio": _ratio(buffer.hits, buffer.hits + buffer.misses),
            "storage.buffer.evictions": buffer.evictions,
            "storage.buffer.decoded_hit_ratio": _ratio(
                buffer.decoded_hits, buffer.decoded_hits + buffer.decoded_misses
            ),
            "storage.pagedfile.pages_decoded_per_hit": _ratio(
                metrics["storage.codec.decode_page_array.calls"], unit.hits
            ),
            "storage.journal.bytes_written": counts["journal.bytes_written"],
            "core.recovery.replay.ms": 0.0,
            "core.merger.maybe_merge.share": _ratio(
                metrics["core.merger.maybe_merge.ms"], unit.wall_s * 1e3
            ),
            "core.merger.merges_performed": unit.merger[0],
            "core.merger.partitions_merged": unit.merger[1],
            "core.merger.evictions": unit.merger[2],
            "core.merger.merge_yield": _ratio(
                counts["maybe_merge.merged"], counts["maybe_merge.eligible"]
            ),
            "core.partition.leaves_per_query": _ratio(counts["leaves"], unit.queries),
            "core.epoch.retained_pages": counts["retained_pages.peak"],
            "core.query_processor.examined_per_hit": _ratio(unit.examined, unit.hits),
            "core.query_processor.merge_route_share": _ratio(
                unit.merge_routed, unit.queries
            ),
            "data.columnar.hits": counts["materialized"],
            "geometry.box.constructions_per_hit": _ratio(
                counts["box.constructions"], unit.hits
            ),
            "serve.service.batches": service.batches if service else 0,
            "serve.service.mean_batch_size": (service.mean_batch_size or 0.0)
            if service
            else 0.0,
            "serve.service.size_flushes": service.size_flushes if service else 0,
            "serve.service.deadline_flushes": service.deadline_flushes if service else 0,
            "serve.service.fallbacks": service.fallbacks if service else 0,
            "serve.service.retries": service.retries if service else 0,
            "serve.service.queue_wait_ms": unit.queue_wait_ms,
            "trace.overhead_ratio": _ratio(unit.wall_s, unit.untraced_wall_s),
            "trace.unattributed_ms": 1e3
            * (unit.wall_s - recorder.covered_seconds(start, end)),
            "trace.spans": len(recorder.spans),
        }
    )
    if unit.recovery is not None:
        # Recovery is traced on its own, so the unit's figures stay the
        # stream's; ``recover.ms`` is inclusive, ``replay.ms`` the queries
        # replayed inside it.
        recover = [s for s in unit.recovery.spans if s.name == "core.recovery.recover"]
        metrics["core.recovery.recover.calls"] = len(recover)
        metrics["core.recovery.recover.ms"] = 1e3 * sum(s.seconds for s in recover)
        metrics["core.recovery.replay.ms"] = 1e3 * unit.recovery.nested_seconds(
            "core.recovery.recover", "core.query_processor.QueryProcessor.execute"
        )
    return {name: metrics[name] for name, _, _ in PER_LAYER}
