"""The simulated disk facade.

Every index structure in the library performs its page I/O through a
:class:`Disk`.  The disk combines three responsibilities:

* delegate the actual bytes to a :class:`~repro.storage.backend.StorageBackend`;
* classify every access as sequential or random by tracking the head
  position (last file and page touched) and charge the
  :class:`~repro.storage.cost_model.DiskModel` accordingly, accumulating the
  result in :class:`~repro.storage.cost_model.IOStats`;
* serve reads from an LRU :class:`~repro.storage.buffer.BufferPool` with a
  bounded page budget — cached reads are free, mirroring OS page caching,
  and :meth:`Disk.clear_cache` mirrors the paper's explicit cache dropping
  before every query.

Reads served by the cache do **not** move the simulated head, exactly as a
cached read would not move a real disk arm.

Thread safety
-------------
Every page access and every cost charge runs under one internal lock, so
concurrent readers (the thread fan-out of the batch pipeline in
:mod:`repro.core.batch`) can never corrupt the head position, the
:class:`~repro.storage.cost_model.IOStats` accumulators or the buffer
pool's byte layer.  The lock covers only the cheap bookkeeping + page-copy
work; page *decoding* and filtering happen outside it (in
:class:`~repro.storage.pagedfile.PagedFile`), which is where parallel
wall-clock time is actually spent.  With ``buffer_shards > 1`` the pool is
a lock-striped :class:`~repro.storage.buffer.ShardedBufferPool`, so the
decoded-array layer — accessed outside the disk lock — stripes its
contention across shards too.

Snapshot sinks (MVCC pre-images)
--------------------------------
The epoch layer (:mod:`repro.core.epoch`) registers a *snapshot sink* via
:meth:`Disk.add_snapshot_sink`.  Before a page is overwritten in place
(:meth:`write_page` on an existing page) or a file is deleted
(:meth:`delete_file`), the disk hands each sink the page's *pre-image*
bytes — still under the disk lock, so retention is atomic with the
destructive write.  Appends never destroy data and are not retained.
Pre-image capture is pure bookkeeping: it reads the backend directly and
charges nothing, so it cannot perturb the simulated I/O trace, and
snapshot readers replay those retained bytes through
:meth:`read_run_at` — same lock, same charging rules as :meth:`read_run`
for the pages that still come from the live file.
"""

from __future__ import annotations

import threading
from typing import Iterable, Iterator, Sequence

from repro.storage.backend import InMemoryBackend, StorageBackend, StorageError
from repro.storage.buffer import BufferPool, ShardedBufferPool
from repro.storage.cost_model import AccessKind, DiskModel, IOStats


class Disk:
    """Paged storage with cost accounting and a bounded buffer pool.

    Parameters
    ----------
    backend:
        Where page bytes live.  Defaults to a fresh in-memory backend.
    model:
        The analytical timing model.  Defaults to paper-like SAS-disk
        parameters.
    buffer_pages:
        Capacity of the LRU buffer pool in pages.  ``0`` disables caching.
    buffer_shards:
        Number of lock-striped buffer-pool shards.  ``1`` (the default)
        keeps the single global-LRU :class:`BufferPool` — bit-identical to
        the pre-sharding behaviour; larger values use a
        :class:`~repro.storage.buffer.ShardedBufferPool` so concurrent
        readers stripe their cache contention.
    """

    def __init__(
        self,
        backend: StorageBackend | None = None,
        model: DiskModel | None = None,
        buffer_pages: int = 0,
        buffer_shards: int = 1,
    ) -> None:
        self._model = model or DiskModel()
        self._backend = backend or InMemoryBackend(page_size=self._model.page_size)
        if self._backend.page_size != self._model.page_size:
            raise ValueError(
                "backend and model disagree on page size: "
                f"{self._backend.page_size} vs {self._model.page_size}"
            )
        if buffer_shards < 1:
            raise ValueError("buffer_shards must be >= 1")
        self._buffer: BufferPool | ShardedBufferPool = (
            ShardedBufferPool(buffer_pages, buffer_shards)
            if buffer_shards > 1
            else BufferPool(buffer_pages)
        )
        self._stats = IOStats()
        self._head: tuple[str, int] | None = None
        self._lock = threading.RLock()
        self._snapshot_sinks: list = []
        self._tracer = None
        # A retry-capable backend (repro.storage.retry.RetryingBackend)
        # exposes add_retry_listener; fold its activity into IOStats so
        # retries are visible wherever I/O accounting already flows.
        register = getattr(self._backend, "add_retry_listener", None)
        if register is not None:
            register(self._on_retry_event)

    def _on_retry_event(self, event: str) -> None:
        with self._lock:  # RLock: safe when the op already holds it
            self._stats.record_retry_event(event)
        if self._tracer is not None:
            self._tracer.event("disk.retry", event=event)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def model(self) -> DiskModel:
        """The timing model in use."""
        return self._model

    @property
    def backend(self) -> StorageBackend:
        """The page store holding this disk's bytes."""
        return self._backend

    @property
    def page_size(self) -> int:
        """Page size in bytes."""
        return self._model.page_size

    @property
    def stats(self) -> IOStats:
        """The cumulative I/O statistics — a **live view**.

        This is the disk's own mutable accumulator, shared with every
        concurrent operation; two attribute reads may observe different
        in-flight states.  Use :meth:`stats_snapshot` for an atomic,
        immutable copy.
        """
        return self._stats

    def stats_snapshot(self) -> IOStats:
        """An atomic immutable copy of the I/O statistics.

        Taken under the disk lock, so no concurrent page access can be
        half-accounted in the copy.
        """
        with self._lock:
            return self._stats.snapshot()

    def attach_tracer(self, tracer) -> None:
        """Attach (or with ``None``, detach) a :class:`~repro.obs.trace.
        Tracer` recording page-I/O and retry events.  Observation only:
        tracing changes no charging, no caching and no head movement.
        """
        self._tracer = tracer

    @property
    def buffer_pool(self) -> BufferPool | ShardedBufferPool:
        """The LRU buffer pool (sharded when ``buffer_shards > 1``)."""
        return self._buffer

    def clear_cache(self) -> None:
        """Drop all cached pages (paper methodology: before every query)."""
        with self._lock:
            self._buffer.clear()

    def reset_head(self) -> None:
        """Forget the head position so the next access is charged a seek."""
        with self._lock:
            self._head = None

    # ------------------------------------------------------------------ #
    # Snapshot sinks (MVCC pre-image retention)
    # ------------------------------------------------------------------ #

    def add_snapshot_sink(self, sink) -> None:
        """Register an object whose ``retain(name, page_no, data)`` is
        called — under the disk lock — with the pre-image of every page
        about to be destroyed by an in-place overwrite or a file delete.
        """
        with self._lock:
            self._snapshot_sinks.append(sink)

    def _retain_pre_image(self, name: str, page_no: int) -> None:
        """Hand the current bytes of one page to every snapshot sink.

        Called under the disk lock, immediately before the page is
        destroyed.  The backend read is uncharged: retention is snapshot
        bookkeeping, not simulated I/O.
        """
        data = self._backend.read(name, page_no)
        for sink in self._snapshot_sinks:
            sink.retain(name, page_no, data)

    # ------------------------------------------------------------------ #
    # File lifecycle
    # ------------------------------------------------------------------ #

    def create_file(self, name: str) -> None:
        """Create an empty file."""
        self._backend.create(name)

    def delete_file(self, name: str) -> None:
        """Delete a file, dropping any cached pages it had."""
        with self._lock:
            if self._snapshot_sinks:
                for page_no in range(self._backend.num_pages(name)):
                    self._retain_pre_image(name, page_no)
            self._backend.delete(name)
            self._buffer.invalidate_file(name)
            if self._head is not None and self._head[0] == name:
                self._head = None

    def file_exists(self, name: str) -> bool:
        """Whether the file exists."""
        return self._backend.exists(name)

    def list_files(self) -> list[str]:
        """Names of all files."""
        return self._backend.list_files()

    def num_pages(self, name: str) -> int:
        """Number of pages in a file."""
        return self._backend.num_pages(name)

    def file_size_bytes(self, name: str) -> int:
        """Size of a file in bytes."""
        return self.num_pages(name) * self.page_size

    # ------------------------------------------------------------------ #
    # Page I/O
    # ------------------------------------------------------------------ #

    def read_page(self, name: str, page_no: int) -> bytes:
        """Read one page, charging a seek if the head is elsewhere."""
        with self._lock:
            cached = self._buffer.get(name, page_no)
            if cached is not None:
                self._stats.record_cache_hit()
                return cached
            kind = self._classify(name, page_no)
            try:
                data = self._backend.read(name, page_no)
            except StorageError:
                # Nothing was read: make sure no layer of the pool keeps
                # an entry for a page we just failed to materialise.
                self._buffer.invalidate_page(name, page_no)
                raise
            self._charge_read(kind, 1)
            self._advance_head(name, page_no)
            self._buffer.put(name, page_no, data)
            return data

    def read_run(self, name: str, start: int, count: int) -> list[bytes]:
        """Read ``count`` consecutive pages starting at ``start``.

        The run is charged as one positioning operation plus sequential
        transfers for the uncached pages; cached pages inside the run are
        free and do not break the sequential charging of the rest (the real
        disk would stream through them anyway).
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        with self._lock:
            pages: list[bytes] = []
            uncached = 0
            first_uncached: int | None = None
            for offset in range(count):
                page_no = start + offset
                cached = self._buffer.get(name, page_no)
                if cached is not None:
                    self._stats.record_cache_hit()
                    pages.append(cached)
                    continue
                try:
                    data = self._backend.read(name, page_no)
                except StorageError:
                    self._buffer.invalidate_page(name, page_no)
                    raise
                if first_uncached is None:
                    first_uncached = page_no
                uncached += 1
                pages.append(data)
                self._buffer.put(name, page_no, data)
            if uncached:
                assert first_uncached is not None
                kind = self._classify(name, first_uncached)
                self._charge_read(kind, uncached)
                self._advance_head(name, start + count - 1)
            if self._tracer is not None:
                self._tracer.event(
                    "disk.read_run", file=name, pages=count, uncached=uncached
                )
            return pages

    def read_run_at(self, name: str, start: int, count: int, lookup) -> list[bytes]:
        """Read a run as of a pinned snapshot.

        ``lookup(name, page_no)`` consults the snapshot's retained
        pre-image overlay: when it returns bytes, the page was overwritten
        or deleted after the snapshot was taken and the pre-image is used
        verbatim; when it returns ``None`` the live page is read with
        exactly :meth:`read_run`'s charging (cache hits recorded, one
        positioning plus sequential transfers for the uncached pages).
        Overlay-served pages are snapshot bookkeeping — free, uncharged
        and not counted as cache hits — because the live I/O trace must
        not be perturbed by a reader pinned to the past.  The whole run,
        overlay consultation included, happens under the disk lock so a
        concurrent overwrite can never interleave with it (no torn runs).
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        with self._lock:
            pages: list[bytes] = []
            uncached = 0
            first_uncached: int | None = None
            for offset in range(count):
                page_no = start + offset
                retained = lookup(name, page_no)
                if retained is not None:
                    pages.append(retained)
                    continue
                cached = self._buffer.get(name, page_no)
                if cached is not None:
                    self._stats.record_cache_hit()
                    pages.append(cached)
                    continue
                try:
                    data = self._backend.read(name, page_no)
                except StorageError:
                    self._buffer.invalidate_page(name, page_no)
                    raise
                if first_uncached is None:
                    first_uncached = page_no
                uncached += 1
                pages.append(data)
                self._buffer.put(name, page_no, data)
            if uncached:
                assert first_uncached is not None
                kind = self._classify(name, first_uncached)
                self._charge_read(kind, uncached)
                self._advance_head(name, start + count - 1)
            if self._tracer is not None:
                self._tracer.event(
                    "disk.read_run_at", file=name, pages=count, uncached=uncached
                )
            return pages

    def write_page(self, name: str, page_no: int, data: bytes) -> None:
        """Overwrite one page in place (write-through to the backend)."""
        with self._lock:
            if self._snapshot_sinks and page_no < self._backend.num_pages(name):
                self._retain_pre_image(name, page_no)
            kind = self._classify(name, page_no)
            # Drop the cached pre-write bytes first: if the write (or the
            # re-read below) fails, the pool must fall back to the
            # backend instead of serving the page's old contents.
            self._buffer.invalidate_page(name, page_no)
            self._backend.write(name, page_no, data)
            self._charge_write(kind, 1)
            self._advance_head(name, page_no)
            self._recache(name, page_no)
            if self._tracer is not None:
                self._tracer.event("disk.write_page", file=name, page=page_no)

    def append_page(self, name: str, data: bytes) -> int:
        """Append one page to the end of the file and return its number."""
        with self._lock:
            next_page = self._backend.num_pages(name)
            kind = self._classify(name, next_page)
            page_no = self._backend.append(name, data)
            self._charge_write(kind, 1)
            self._advance_head(name, page_no)
            self._recache(name, page_no)
            return page_no

    def append_run(self, name: str, pages: Sequence[bytes]) -> int:
        """Append several pages; returns the page number of the first one."""
        with self._lock:
            if not pages:
                return self._backend.num_pages(name)
            first = self._backend.num_pages(name)
            kind = self._classify(name, first)
            for data in pages:
                page_no = self._backend.append(name, data)
                self._recache(name, page_no)
            self._charge_write(kind, len(pages))
            self._advance_head(name, first + len(pages) - 1)
            if self._tracer is not None:
                self._tracer.event(
                    "disk.append_run", file=name, pages=len(pages), first_page=first
                )
            return first

    def _recache(self, name: str, page_no: int) -> None:
        """Refresh the pool with a page's post-write backend bytes.

        Caching is an optimisation on top of a write that already
        succeeded: if the uncharged re-read fails (a transient fault that
        survived the backend's own retries), the page is simply left
        uncached — with no stale entry on either pool layer — and the
        next read will fetch and charge it normally.
        """
        try:
            self._buffer.put(name, page_no, self._backend.read(name, page_no))
        except StorageError:
            self._buffer.invalidate_page(name, page_no)

    def scan_pages(self, name: str) -> Iterator[bytes]:
        """Yield every page of a file in order (charged as one sequential run)."""
        total = self.num_pages(name)
        chunk = 256
        for start in range(0, total, chunk):
            count = min(chunk, total - start)
            yield from self.read_run(name, start, count)

    # ------------------------------------------------------------------ #
    # CPU accounting
    # ------------------------------------------------------------------ #

    def charge_cpu_records(self, records: int) -> None:
        """Charge simulated CPU time for processing ``records`` records."""
        with self._lock:
            self._stats.record_cpu(self._model.cpu_time_s(records))

    def charge_cpu_seconds(self, seconds: float) -> None:
        """Charge an explicit amount of simulated CPU time."""
        with self._lock:
            self._stats.record_cpu(seconds)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _classify(self, name: str, page_no: int) -> AccessKind:
        if self._head is None:
            return AccessKind.RANDOM
        head_file, head_page = self._head
        if head_file == name and page_no == head_page + 1:
            return AccessKind.SEQUENTIAL
        return AccessKind.RANDOM

    def _advance_head(self, name: str, page_no: int) -> None:
        self._head = (name, page_no)

    def _charge_read(self, kind: AccessKind, pages: int) -> None:
        seconds = self._model.access_time_s(kind, pages)
        self._stats.record_read(kind, pages, seconds)

    def _charge_write(self, kind: AccessKind, pages: int) -> None:
        seconds = self._model.access_time_s(kind, pages)
        self._stats.record_write(kind, pages, seconds)
