"""LRU buffer pool.

The paper restricts every approach to the same main-memory footprint and
explicitly drops OS caches before each query, so the buffer pool here serves
two purposes: it models the bounded memory budget during index construction
(e.g. the Grid baseline buffers cells in memory and flushes when full) and it
gives the benchmark harness an explicit :meth:`BufferPool.clear` hook that
mirrors the paper's cache-dropping methodology.

The pool is write-through: pages written through the
:class:`~repro.storage.disk.Disk` are immediately persisted to the backend,
so eviction never loses data.

Decoded-array layer
-------------------
On top of the byte cache the pool keeps a *decoded-array* layer: the
structured-array decoding of a cached page, keyed exactly like the bytes.
It is strictly a CPU-work cache — a decoded entry exists only while its
byte page is resident, so it never changes which disk accesses happen or
how they are charged; it only lets hot partitions skip re-running
``np.frombuffer`` page decoding.  Entries are dropped together with their
byte page (eviction, overwrite, file invalidation, :meth:`clear`).

Each decoded entry additionally remembers the *exact bytes object* it was
decoded from, and a lookup only hits when the caller presents that same
object (``is`` identity, not equality).  This closes a concurrency window:
a reader that fetched page bytes, lost the CPU while the page was
overwritten and re-decoded by another thread, and then asked the decoded
layer, must not be served the decoding of the *newer* bytes.  Identity
also keeps epoch-snapshot readers honest — pre-images retained by the
MVCC layer (:mod:`repro.core.epoch`) are distinct bytes objects, so they
can never alias a decoding of the live page.

Lock ordering
-------------
The pool sits strictly *below* the :class:`~repro.storage.disk.Disk` in
the lock hierarchy: the disk calls into the pool (``invalidate_file``
runs under the disk lock, byte-layer get/put run under it too) but no
pool method ever calls back into the disk, so disk-lock → shard-lock is
the only nesting that occurs and a cycle is impossible.  Within the
sharded pool, the multi-shard operations (``invalidate_file``, ``clear``,
``__len__``, ``shard_counters``) all acquire shard locks one at a time in
ascending index order and never hold two shard locks at once — so they
cannot deadlock against each other or against single-shard operations.

Sharding
--------
:class:`ShardedBufferPool` splits the page budget over N independent
:class:`BufferPool` shards, each guarded by its own lock, with pages routed
to shards by a deterministic hash of ``(file_name, page_no)``.  It exists
for the thread fan-out of the batch pipeline (:mod:`repro.core.batch`): with
lock striping, concurrent readers touching different pages never contend
on one global cache lock.  Routing uses ``zlib.crc32`` rather than Python's
``hash`` so shard assignment — and therefore eviction behaviour and the
simulated I/O trace — is reproducible run-to-run regardless of
``PYTHONHASHSEED``.  Note that per-shard LRU is not globally identical to
one big LRU: a sharded pool of the same total capacity may evict different
pages than ``BufferPool`` would, so differential tests always compare
engines running the *same* pool configuration.
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import dataclass, fields
from collections import OrderedDict
from typing import Any


@dataclass(frozen=True, slots=True)
class BufferCounters:
    """A point-in-time snapshot of the pool's hit/miss/eviction counters.

    ``decoded_*`` describe the decoded-array layer; the plain fields
    describe the byte cache.  Snapshots are cumulative since pool
    construction; use :meth:`delta_since` for per-query attribution.

    Decoded entries leave the cache by exactly two counted paths:
    ``decoded_evictions`` (dropped with an LRU-evicted byte page) and
    ``decoded_invalidations`` (dropped because their file was deleted,
    e.g. a merge file being replaced).  :meth:`BufferPool.clear` — the
    paper's explicit cache-dropping protocol — is deliberately uncounted
    on both layers, exactly like byte-page drops on ``clear``.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    decoded_hits: int = 0
    decoded_misses: int = 0
    decoded_evictions: int = 0
    decoded_invalidations: int = 0

    def delta_since(self, earlier: "BufferCounters") -> "BufferCounters":
        """Counter increments between ``earlier`` and this snapshot."""
        return BufferCounters(
            *[getattr(self, name) - getattr(earlier, name) for name in _COUNTER_FIELDS]
        )

    def __add__(self, other: "BufferCounters") -> "BufferCounters":
        return BufferCounters(
            *[getattr(self, name) + getattr(other, name) for name in _COUNTER_FIELDS]
        )


#: Field names of :class:`BufferCounters`, in declaration order (computed
#: once: per-query attribution does this arithmetic several times a query).
_COUNTER_FIELDS = tuple(f.name for f in fields(BufferCounters))


class BufferPool:
    """A bounded, least-recently-used cache of page bytes.

    Keys are ``(file_name, page_no)`` pairs.  A ``capacity_pages`` of zero
    disables caching entirely (every read goes to the simulated disk).
    """

    def __init__(self, capacity_pages: int) -> None:
        if capacity_pages < 0:
            raise ValueError("capacity_pages must be non-negative")
        self._capacity = capacity_pages
        self._pages: OrderedDict[tuple[str, int], bytes] = OrderedDict()
        # Decoded layer: key -> (source bytes object, decoded value).  The
        # bytes object is kept so lookups can verify identity (see module
        # docstring) — it is the same object as self._pages[key] at insert
        # time, so this holds no extra page memory.
        self._decoded: dict[tuple[str, int], tuple[bytes, Any]] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._decoded_hits = 0
        self._decoded_misses = 0
        self._decoded_evictions = 0
        self._decoded_invalidations = 0

    # -- core operations -------------------------------------------------- #

    def get(self, file_name: str, page_no: int) -> bytes | None:
        """Return the cached page or ``None``; refreshes LRU position on hit."""
        key = (file_name, page_no)
        data = self._pages.get(key)
        if data is None:
            self._misses += 1
            return None
        self._pages.move_to_end(key)
        self._hits += 1
        return data

    def put(self, file_name: str, page_no: int, data: bytes) -> None:
        """Insert or refresh a page, evicting the least recently used if full."""
        if self._capacity == 0:
            return
        key = (file_name, page_no)
        if key in self._pages:
            self._pages.move_to_end(key)
        # Any overwrite OR insert invalidates a decoding of older bytes.
        # For fresh inserts the pop is normally a no-op ("decoded only
        # while resident"), but under concurrency a put_decoded can race
        # with eviction or file invalidation and orphan an entry; popping
        # here guarantees such an orphan can never serve a stale decode
        # after the page is re-cached (possibly with new bytes).
        self._decoded.pop(key, None)
        self._pages[key] = data
        while len(self._pages) > self._capacity:
            victim, _ = self._pages.popitem(last=False)
            self._evictions += 1
            if self._decoded.pop(victim, None) is not None:
                self._decoded_evictions += 1

    def get_decoded(self, file_name: str, page_no: int, page_bytes: bytes) -> Any | None:
        """The cached decoding of exactly ``page_bytes``, or ``None``.

        The caller passes the bytes object it is about to decode; the
        lookup hits only when the cached entry was decoded from that same
        object (identity comparison), so a decoding of different bytes —
        a concurrent overwrite, or an MVCC pre-image — can never be
        served by mistake.
        """
        entry = self._decoded.get((file_name, page_no))
        if entry is None or entry[0] is not page_bytes:
            self._decoded_misses += 1
            return None
        self._decoded_hits += 1
        return entry[1]

    def put_decoded(
        self, file_name: str, page_no: int, page_bytes: bytes, value: Any
    ) -> None:
        """Attach the decoding of ``page_bytes`` to its byte-cached page.

        Silently ignored unless the resident byte page *is* ``page_bytes``
        (identity, covering the not-resident and capacity-zero cases): the
        decoded layer never outlives — or mismatches — the bytes it was
        decoded from, so every byte-invalidation path also covers it.
        """
        key = (file_name, page_no)
        if self._pages.get(key) is page_bytes:
            self._decoded[key] = (page_bytes, value)

    def invalidate_file(self, file_name: str) -> None:
        """Drop every cached page belonging to one file (used on delete).

        Decoded-array entries dropped here count as
        ``decoded_invalidations`` (the eviction path counts its drops as
        ``decoded_evictions``), so every decoded drop outside
        :meth:`clear` is accounted for by exactly one counter.
        """
        stale = [key for key in self._pages if key[0] == file_name]
        for key in stale:
            del self._pages[key]
            if self._decoded.pop(key, None) is not None:
                self._decoded_invalidations += 1

    def invalidate_page(self, file_name: str, page_no: int) -> None:
        """Drop one page from both layers (used when its bytes become
        unreliable: an in-place overwrite is about to change them, or a
        re-read after a write failed).  Decoded drops count as
        ``decoded_invalidations``, same as :meth:`invalidate_file`.
        """
        key = (file_name, page_no)
        self._pages.pop(key, None)
        if self._decoded.pop(key, None) is not None:
            self._decoded_invalidations += 1

    def clear(self) -> None:
        """Drop every cached page (the paper's per-query cache clearing)."""
        self._pages.clear()
        self._decoded.clear()

    # -- introspection ---------------------------------------------------- #

    @property
    def capacity_pages(self) -> int:
        """Maximum number of pages the pool may hold."""
        return self._capacity

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, key: tuple[str, int]) -> bool:
        return key in self._pages

    @property
    def hits(self) -> int:
        """Number of successful lookups since construction."""
        return self._hits

    @property
    def misses(self) -> int:
        """Number of failed lookups since construction."""
        return self._misses

    @property
    def evictions(self) -> int:
        """Number of pages evicted due to capacity pressure."""
        return self._evictions

    @property
    def decoded_hits(self) -> int:
        """Decoded-array lookups served from the cache."""
        return self._decoded_hits

    @property
    def decoded_misses(self) -> int:
        """Decoded-array lookups that had to decode page bytes."""
        return self._decoded_misses

    @property
    def decoded_evictions(self) -> int:
        """Decoded arrays dropped because their byte page was evicted."""
        return self._decoded_evictions

    @property
    def decoded_invalidations(self) -> int:
        """Decoded arrays dropped because their file was invalidated."""
        return self._decoded_invalidations

    def counters(self) -> BufferCounters:
        """A snapshot of all counters (byte layer and decoded layer)."""
        return BufferCounters(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            decoded_hits=self._decoded_hits,
            decoded_misses=self._decoded_misses,
            decoded_evictions=self._decoded_evictions,
            decoded_invalidations=self._decoded_invalidations,
        )


class ShardedBufferPool:
    """N lock-striped :class:`BufferPool` shards behind the pool interface.

    The page budget is distributed as evenly as possible over the shards
    (the first ``capacity_pages % n_shards`` shards get one extra page);
    every page deterministically belongs to one shard, so all
    invalidation, counting and LRU bookkeeping for it happens under that
    shard's lock only.  The facade exposes the same surface as
    :class:`BufferPool` — byte layer, decoded-array layer, aggregated
    counters — so the :class:`~repro.storage.disk.Disk` and
    :class:`~repro.storage.pagedfile.PagedFile` use either interchangeably.

    The effective shard count is clamped to ``min(n_shards,
    capacity_pages)`` (and to one shard for the capacity-zero pool):
    splitting fewer pages than shards would leave the tail shards with
    capacity 0, and a zero-capacity :class:`BufferPool` never caches —
    pages routed there would silently miss forever.  Clamping guarantees
    every shard holds at least one page, trading a little lock striping
    for never disabling caching by accident; :attr:`n_shards` reports the
    effective count.
    """

    def __init__(self, capacity_pages: int, n_shards: int = 8) -> None:
        if capacity_pages < 0:
            raise ValueError("capacity_pages must be non-negative")
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self._capacity = capacity_pages
        n_shards = max(1, min(n_shards, capacity_pages))
        base, extra = divmod(capacity_pages, n_shards)
        self._shards = [
            BufferPool(base + (1 if index < extra else 0)) for index in range(n_shards)
        ]
        self._locks = [threading.Lock() for _ in range(n_shards)]

    # -- routing ----------------------------------------------------------- #

    def shard_of(self, file_name: str, page_no: int) -> int:
        """The shard index one page belongs to (deterministic run-to-run)."""
        return (zlib.crc32(file_name.encode()) + page_no * 2654435761) % len(
            self._shards
        )

    # -- core operations --------------------------------------------------- #

    def get(self, file_name: str, page_no: int) -> bytes | None:
        """Return the cached page or ``None``; refreshes LRU position on hit."""
        index = self.shard_of(file_name, page_no)
        with self._locks[index]:
            return self._shards[index].get(file_name, page_no)

    def put(self, file_name: str, page_no: int, data: bytes) -> None:
        """Insert or refresh a page in its shard, evicting LRU pages if full."""
        index = self.shard_of(file_name, page_no)
        with self._locks[index]:
            self._shards[index].put(file_name, page_no, data)

    def get_decoded(self, file_name: str, page_no: int, page_bytes: bytes) -> Any | None:
        """The cached decoding of exactly ``page_bytes``, or ``None``."""
        index = self.shard_of(file_name, page_no)
        with self._locks[index]:
            return self._shards[index].get_decoded(file_name, page_no, page_bytes)

    def put_decoded(
        self, file_name: str, page_no: int, page_bytes: bytes, value: Any
    ) -> None:
        """Attach the decoding of ``page_bytes`` to its shard's byte page."""
        index = self.shard_of(file_name, page_no)
        with self._locks[index]:
            self._shards[index].put_decoded(file_name, page_no, page_bytes, value)

    def invalidate_file(self, file_name: str) -> None:
        """Drop every cached page of one file, across all shards.

        Shard locks are taken one at a time in ascending index order —
        never two at once — matching ``clear``/``__len__``/
        ``shard_counters`` (see the module docstring's lock-ordering
        section), so concurrent readers iterating the same shards cannot
        deadlock against an invalidation.
        """
        for lock, shard in zip(self._locks, self._shards):
            with lock:
                shard.invalidate_file(file_name)

    def invalidate_page(self, file_name: str, page_no: int) -> None:
        """Drop one page from both layers of its shard."""
        index = self.shard_of(file_name, page_no)
        with self._locks[index]:
            self._shards[index].invalidate_page(file_name, page_no)

    def clear(self) -> None:
        """Drop every cached page in every shard."""
        for lock, shard in zip(self._locks, self._shards):
            with lock:
                shard.clear()

    # -- introspection ----------------------------------------------------- #

    @property
    def capacity_pages(self) -> int:
        """Total page budget across all shards."""
        return self._capacity

    @property
    def n_shards(self) -> int:
        """Number of lock-striped shards."""
        return len(self._shards)

    def __len__(self) -> int:
        # Like every other facade method, read shard state only under the
        # shard's lock — an unlocked read races with concurrent mutation.
        # Locks are acquired one at a time in ascending index order (the
        # same discipline as invalidate_file/clear/shard_counters), and
        # never nested, so introspection can run concurrently with an
        # invalidation without any deadlock surface.
        total = 0
        for lock, shard in zip(self._locks, self._shards):
            with lock:
                total += len(shard)
        return total

    def __contains__(self, key: tuple[str, int]) -> bool:
        # Single-shard lookup under that shard's lock only; nests under
        # nothing and holds nothing while returning.
        file_name, page_no = key
        index = self.shard_of(file_name, page_no)
        with self._locks[index]:
            return key in self._shards[index]

    @property
    def hits(self) -> int:
        """Successful byte-layer lookups, summed over shards."""
        return sum(shard.hits for shard in self._shards)

    @property
    def misses(self) -> int:
        """Failed byte-layer lookups, summed over shards."""
        return sum(shard.misses for shard in self._shards)

    @property
    def evictions(self) -> int:
        """Pages evicted under capacity pressure, summed over shards."""
        return sum(shard.evictions for shard in self._shards)

    @property
    def decoded_hits(self) -> int:
        """Decoded-array lookups served from the cache, summed over shards."""
        return sum(shard.decoded_hits for shard in self._shards)

    @property
    def decoded_misses(self) -> int:
        """Decoded-array lookups that had to decode, summed over shards."""
        return sum(shard.decoded_misses for shard in self._shards)

    @property
    def decoded_evictions(self) -> int:
        """Decoded arrays dropped with their byte page, summed over shards."""
        return sum(shard.decoded_evictions for shard in self._shards)

    @property
    def decoded_invalidations(self) -> int:
        """Decoded arrays dropped by file invalidation, summed over shards."""
        return sum(shard.decoded_invalidations for shard in self._shards)

    def shard_counters(self) -> list[BufferCounters]:
        """Per-shard counter snapshots (each taken under its shard's lock)."""
        snapshots = []
        for lock, shard in zip(self._locks, self._shards):
            with lock:
                snapshots.append(shard.counters())
        return snapshots

    def counters(self) -> BufferCounters:
        """An aggregated snapshot of all shards' counters."""
        total = BufferCounters()
        for snapshot in self.shard_counters():
            total = total + snapshot
        return total
