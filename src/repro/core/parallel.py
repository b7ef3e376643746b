"""Process fan-out: the read phase of a batch in worker processes.

:class:`ProcessFanOut` is the third fan-out of the one pipeline in
:mod:`repro.core.batch` (after the serial loop and the thread pool).  It
runs the read phase's two data-parallel steps in a pool of worker
*processes*, so page decode and filtering scale past the GIL.  Nothing
mutable crosses the process boundary:

* **overlap resolution** ships each combination group's leaf-MBR corner
  matrices and extended windows; workers run the same
  ``intersect_matrix`` kernel and return leaf *indices*, which the parent
  maps back to ``PartitionNode`` objects through the leaf snapshot it
  shipped;
* **read + filter** stages page bytes first: the parent reads every
  distinct stored group of the batch's read plans once, in first-use
  order, through the normal charged :meth:`Disk.read_run
  <repro.storage.disk.Disk.read_run>` path — so I/O accounting, the
  buffer pool, retries and fault absorption happen parent-side exactly as
  for the serial fan-out, and workers only ever see healed bytes — into
  one ``multiprocessing.shared_memory`` block.  Workers attach to it,
  decode and filter each query's plan, and return plain hit objects.

Everything else — validation, initialisation, routing, planning and the
whole writer phase — runs in the parent, in the one pipeline, so the
process fan-out is bit-identical to the serial batch in results (hit
order included), reports, adaptive state, on-disk bytes and charged page
reads.  Pools are cached per worker count and reaped at exit; if a
worker dies mid-batch (``BrokenProcessPool``) the batch's read phase
reruns on threads (:meth:`ProcessFanOut.fallback`).
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.core.batch import BatchQuery, FanOut, PlanEntry, QueryReads, ThreadFanOut
from repro.core.partition import PartitionNode
from repro.data.columnar import DecodedGroup
from repro.data.spatial_object import SpatialObject, spatial_object_dtype
from repro.geometry.box import Box
from repro.geometry.vectorized import (
    box_to_arrays,
    boxes_to_arrays,
    intersect_mask,
    intersect_matrix,
)
from repro.storage.codec import decode_page_array

_pool_lock = threading.Lock()
_pools: dict[int, ProcessPoolExecutor] = {}


def _process_pool(workers: int) -> ProcessPoolExecutor:
    """A lazily created, reused worker pool per worker count.

    Pools are expensive to start (a fork or spawn per worker), so they are
    shared across batches and engines for the life of the process.  That
    is safe because workers are stateless: every task carries its own
    immutable inputs.
    """
    with _pool_lock:
        pool = _pools.get(workers)
        if pool is None:
            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn"
            )
            pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
            _pools[workers] = pool
        return pool


def _discard_pool(workers: int) -> None:
    """Drop a (presumably broken) pool so the next batch starts a fresh one."""
    with _pool_lock:
        pool = _pools.pop(workers, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def _shutdown_pools() -> None:
    with _pool_lock:
        pools = list(_pools.values())
        _pools.clear()
    for pool in pools:
        pool.shutdown(wait=False, cancel_futures=True)


atexit.register(_shutdown_pools)


def _attach_shared_memory(name: str) -> shared_memory.SharedMemory:
    """Attach to the parent's staging block without tracking it.

    The parent owns the block's lifecycle (it unlinks after the batch);
    ``track=False`` (Python 3.13+) keeps the worker's resource tracker out
    of it.  Older interpreters attach plainly and then withdraw the
    registration the attach just made, so the tracker never warns about a
    "leaked" segment the parent already unlinked.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13 signature
        handle = shared_memory.SharedMemory(name=name)
        try:
            resource_tracker.unregister(handle._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker quirks are non-fatal
            pass
        return handle


def _resolve_overlap_group(payload, trace: bool = False):
    """Worker half of overlap resolution for one combination group.

    ``payload`` is a list of ``(dataset_id, lo, hi, q_lo, q_hi,
    query_indices)`` tuples — the per-dataset leaf-MBR corner matrices of
    the prebuilt snapshot plus the group's extended windows.  Returns
    ``{(query index, dataset_id): [leaf indices]}``; indices select rows
    of the snapshot the parent shipped, which it maps back to
    ``PartitionNode`` objects (exactly the kernel + gather that
    ``PartitionTree.leaves_overlapping_batch`` runs in-process).

    With ``trace=True`` (parent has a tracer attached) the return value
    becomes ``(out, (start_wall, duration_s, pid))`` — plain timing data
    the parent grafts into its trace.  The computation itself is
    identical either way.
    """
    start_wall = time.time()
    start_perf = time.perf_counter()
    out = {}
    for dataset_id, lo, hi, q_lo, q_hi, query_indices in payload:
        matrix = intersect_matrix(q_lo, q_hi, lo, hi)
        for query_index, row in zip(query_indices, matrix):
            out[(query_index, dataset_id)] = np.nonzero(row)[0].tolist()
    if trace:
        return out, (start_wall, time.perf_counter() - start_perf, os.getpid())
    return out


def _decode_worker_group(task, offsets, n_records, buffer) -> DecodedGroup:
    """Decode one staged group inside a worker (zero-copy over the block)."""
    dtype = task["dtype"]
    page_size = task["page_size"]
    parts = []
    for offset in offsets:
        decoded = decode_page_array(dtype, buffer[offset : offset + page_size])
        if len(decoded):
            parts.append(decoded)
    if not parts:
        records = np.empty(0, dtype=dtype)
    elif len(parts) == 1:
        records = parts[0]
    else:
        records = np.concatenate(parts)
    records.setflags(write=False)
    if len(records) < n_records:
        raise ValueError(
            f"staged group is corrupt: expected {n_records} records, "
            f"decoded {len(records)}"
        )
    return DecodedGroup.from_records(records[:n_records], task["dimension"])


def _filter_staged_query(task, buffer) -> list[SpatialObject]:
    """Decode + filter one query's plan over the staged pages (worker side)."""
    q_lo = task["q_lo"]
    q_hi = task["q_hi"]
    groups: dict = {}
    hits: list[SpatialObject] = []
    for dataset_id, source in task["plan"]:
        group = groups.get(source)
        if group is None:
            group = _decode_worker_group(task, *source, buffer)
            groups[source] = group
        mask = (group.dataset_ids == dataset_id) & intersect_mask(
            q_lo, q_hi, group.lo, group.hi
        )
        hits.extend(group.materialize(mask))
    return hits


def _filter_query_task(task):
    """Pool entry point: run one query's filter, then release the block.

    The decode/filter work runs in an inner call so every NumPy view over
    the shared block dies with that frame *before* the block is closed
    (closing a shared-memory segment with live exported buffers raises
    ``BufferError``).  The returned hits are plain Python objects with no
    ties to the block.  A query with an empty plan has nothing staged and
    never attaches.

    When the task carries ``trace=True`` the return value becomes
    ``(hits, (start_wall, duration_s, pid))`` so the parent can graft the
    worker-side timing into its trace; the filter work is identical.
    """
    start_wall = time.time()
    start_perf = time.perf_counter()
    if task["plan"]:
        handle = _attach_shared_memory(task["shm_name"])
        try:
            hits = _filter_staged_query(task, handle.buf)
        finally:
            try:
                handle.close()
            except (BufferError, OSError, ValueError):  # pragma: no cover
                pass
    else:
        hits = []
    if task["trace"]:
        return hits, (start_wall, time.perf_counter() - start_perf, os.getpid())
    return hits


class ProcessFanOut(FanOut):
    """The read phase's two steps in ``workers`` worker processes.

    Serves the live read state (snapshot reads are thread-only: the
    epoch object graph is not shipped across processes).  See the module
    docstring for what crosses the process boundary.
    """

    name = "process"

    def __enter__(self) -> "ProcessFanOut":
        self._pool = _process_pool(self.workers)
        return self

    def fallback(self) -> ThreadFanOut:
        """Drop the broken pool; the batch reruns its read phase on threads."""
        _discard_pool(self.workers)
        return ThreadFanOut(self.workers)

    def resolve(
        self,
        state,
        groups: dict[frozenset[int], list[BatchQuery]],
        extended: dict[tuple[int, int], Box],
        tracer=None,
        parent=None,
    ) -> dict[tuple[int, int], list[PartitionNode]]:
        """Overlap resolution in workers, one task per combination group."""
        futures = []
        for combination, group in groups.items():
            payload = []
            for dataset_id in sorted(combination):
                snapshot = state.leaf_snapshot(dataset_id)
                windows = [extended[(query.index, dataset_id)] for query in group]
                q_lo, q_hi = boxes_to_arrays(windows)
                payload.append(
                    (
                        dataset_id,
                        snapshot.lo,
                        snapshot.hi,
                        q_lo,
                        q_hi,
                        [query.index for query in group],
                    )
                )
            futures.append(
                self._pool.submit(_resolve_overlap_group, payload, tracer is not None)
            )
        needed0: dict[tuple[int, int], list[PartitionNode]] = {}
        for future in futures:  # merged in submission (group) order
            resolved = future.result()
            if tracer is not None:
                # Graft the worker-side timing shipped back as plain data.
                resolved, (start_wall, duration_s, pid) = resolved
                tracer.record_completed(
                    "batch.overlap.worker",
                    parent=parent,
                    start_wall=start_wall,
                    duration_s=duration_s,
                    pid=pid,
                )
            for (query_index, dataset_id), indices in resolved.items():
                leaves = state.leaf_snapshot(dataset_id).leaves
                needed0[(query_index, dataset_id)] = [leaves[j] for j in indices]
        return needed0

    def read_filter(
        self,
        state,
        disk,
        dimension: int,
        queries,
        plans: list[list[PlanEntry]],
        tracer=None,
        parent=None,
    ) -> tuple[list[QueryReads], int, int]:
        """Stage every distinct group's pages once, filter per query in workers."""
        page_size = disk.page_size
        pool = disk.buffer_pool
        stats = disk.stats
        # Stage distinct groups in first-use order (deterministic, and the
        # order the serial read set reads them in).  Each query's cache
        # deltas and retries are those of the groups it staged first.
        sources: dict[tuple, tuple[tuple[int, ...], int]] = {}
        chunks: list[bytes] = []
        staged: list[tuple] = []
        for query in queries:
            cache_start = pool.counters()
            retries_start = stats.retries
            for _, file, run in plans[query.index]:
                key = (file.name, run.extents, run.n_records)
                if key in sources:
                    continue
                offsets = []
                for extent in run.extents:
                    for page in disk.read_run(file.name, extent.start, extent.count):
                        offsets.append(len(chunks) * page_size)
                        chunks.append(page)
                sources[key] = (tuple(offsets), run.n_records)
            staged.append(
                (pool.counters().delta_since(cache_start), stats.retries - retries_start)
            )
        group_reads = sum(len(plan) for plan in plans)

        block = None
        if chunks:
            block = shared_memory.SharedMemory(create=True, size=len(chunks) * page_size)
            for position, chunk in enumerate(chunks):
                start = position * page_size
                block.buf[start : start + len(chunk)] = chunk
        del chunks

        outcomes: list[QueryReads] = []
        try:
            futures = []
            for query in queries:
                q_lo, q_hi = box_to_arrays(query.box)
                task = {
                    "q_lo": q_lo,
                    "q_hi": q_hi,
                    "dtype": spatial_object_dtype(dimension),
                    "dimension": dimension,
                    "page_size": page_size,
                    "shm_name": None if block is None else block.name,
                    "trace": tracer is not None,
                    "plan": [
                        (dataset_id, sources[(file.name, run.extents, run.n_records)])
                        for dataset_id, file, run in plans[query.index]
                    ],
                }
                futures.append(self._pool.submit(_filter_query_task, task))
            for query, future, (cache_delta, retries) in zip(queries, futures, staged):
                hits = future.result()
                if tracer is not None:
                    # Graft the worker-side timing shipped back as data.
                    hits, (start_wall, duration_s, pid) = hits
                    tracer.record_completed(
                        "query.filter",
                        parent=parent,
                        start_wall=start_wall,
                        duration_s=duration_s,
                        query=query.index,
                        hits=len(hits),
                        pid=pid,
                    )
                outcomes.append((hits, cache_delta, retries))
        finally:
            if block is not None:
                block.close()
                block.unlink()
        return outcomes, group_reads, group_reads - len(sources)
