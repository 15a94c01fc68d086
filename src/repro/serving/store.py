"""Append-only sharded storage for published sketch batches.

:class:`ShardedSketchStore` is the serving layer's data plane: released
rows accumulate into fixed-capacity *shards*, each a preallocated
``(capacity, k)`` buffer that fills in place.  Appending ``n`` rows
therefore copies exactly ``n`` rows — never the whole store, unlike a
flat index that re-``concatenate``s every chunk per insert.  Buffers
grow geometrically (doubling) up to the shard capacity, so small stores
stay small while the amortised cost per appended row is O(1).

The buffer element type is a :class:`~repro.serving.storage.StorageSpec`
chosen at construction (``storage="f8" | "f4" | "f2" | "int8"``, default
from ``REPRO_STORE_DTYPE``): full-precision float64, half-size float32,
quarter-size float16, or eighth-size scalar-quantised int8 with one
scale per shard.  Quantisation happens once, at append time; queries
scan the *decoded* rows (float32 for the low-precision specs — ``f4``
serves its stored bytes zero-copy, ``f2``/``int8`` decode lazily into a
cached float32 scan copy) through the unchanged :class:`ShardView`
interface, so the whole query
plane runs identically, trading a documented error envelope
(:mod:`repro.theory.quantisation`) for 2–8x smaller buffers and files.
An int8 shard never rescales published rows: an appended chunk that
would clip seals the shard and opens a fresh one with its own scale,
keeping snapshots immutable (rewrites use one store-wide scale
instead, see :meth:`ShardedSketchStore.compact`).

Every shard caches the squared norms of its filled rows (maintained
incrementally at append time) plus their min/max, which the query
plane's norm-bound prefilter uses to skip shards that provably cannot
contain a hit.

Stores persist as a directory — a ``manifest.json`` plus one versioned
binary blob per shard (:mod:`repro.serving.serialization`) — and load
back bit-exactly, **including label types** (integer labels come back
as integers).  :meth:`ShardedSketchStore.save` is atomic: it writes
into a temporary sibling directory and swaps it into place, so a crash
mid-save never corrupts an existing store and re-saving a smaller store
over a larger one leaves no stale shard files behind.

``load(path, mmap=True)`` attaches each shard as a lazy memory map
instead of reading it into RAM: nothing is touched until a query needs
the shard, whole shards the prefilter skips are never read, and pages
the OS maps in can be evicted again — stores larger than RAM stay
queryable.

Maintenance is LSM-style.  Published rows are immutable, so deletion is
*tombstoned*: :meth:`ShardedSketchStore.delete` marks rows by label,
tombstoned rows are skipped by every query and by :meth:`merge`, and
they are physically dropped (rows *and* labels) when :meth:`compact`
rewrites the shards.  **DP semantics of deletion** (documented once,
here): deleting a release never refunds privacy budget.  The noise was
sampled and the sketch *published* when the row was released — removing
it from this store afterwards is post-processing of an already-spent
budget, the same argument that makes result caching free
(:mod:`repro.serving.cache`), so the accountant's spend is deliberately
never decremented.  A tombstone is an availability control, not a
privacy rewind: anyone who saw the published sketch still holds it.

Every rewrite of the shard layout runs through **one streaming engine**
(the end of this module) with two pairs of front-ends: in memory,
:meth:`ShardedSketchStore.compact` and :meth:`ShardedSketchStore.merge`;
disk to disk, :func:`repro.serving.maintenance.compact_store` and
:func:`repro.serving.maintenance.merge_stores`.  The engine reads
``(ShardView, live labels)`` pairs in bounded row blocks
(:meth:`ShardView.iter_codes` — peak memory is O(block), not O(store)),
passes same-spec float codes through and re-encodes everything else,
and writes capacity-sized shards into memory or a staging directory,
so both fronts produce the same shards, labels and scales, and the
same routing tables up to the last bits of the centroids of shards
longer than one block (a staged shard's centroid is summed block by
block, a resident one's in one pass).  Every manifest carries a
**generation** counter that a compaction bumps.  The disk front
streams generation ``N+1`` into a sibling ``gen-NNNNN`` directory and
atomically replaces the manifest, so a long-running server can watch
the manifest and hot-swap to the new layout without a restart.

Concurrency contract (shared with :class:`~repro.serving.service.DistanceService`):
one writer at a time; any number of concurrent readers, each of which
sees a *consistent prefix* of the store as of its :meth:`snapshot`.
Rows and their cached norms are published before the shard's size, so a
snapshot never exposes partially written rows.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import operator
import os
import shutil
from pathlib import Path

import numpy as np

from repro.core import estimators
from repro.core.sketch import PrivateSketch, SketchBatch
from repro.serving.routing import (
    DEFAULT_TRAIN_SAMPLE,
    ShardRouting,
    assign_rows,
    build_shard_routing,
    default_cluster_count,
    kmeans_centroids,
)
from repro.serving.serialization import (
    DEFAULT_BLOCK_ROWS,
    ROUTING_BLOB_NAME,
    BatchInfo,
    SerializationError,
    StreamingBatchWriter,
    iter_batch_rows,
    map_values,
    read_batch_info,
    read_batch_raw,
    read_routing_blob,
    write_batch,
    write_routing_blob,
)
from repro.serving.storage import INT8_CODE_MAX, StorageSpec

#: Default rows per shard; 2^16 rows of a k=256 sketch is ~128 MiB.
DEFAULT_SHARD_CAPACITY = 65536

_MANIFEST_NAME = "manifest.json"
#: Version 2 adds the optional ``routing`` entry (centroid shard
#: routing); version-1 manifests — every pre-routing store — still load.
_MANIFEST_VERSION = 2
_SUPPORTED_MANIFEST_VERSIONS = (1, 2)
_SHARD_PATTERN = "shard-{:05d}.skb"


class _Shard:
    """One preallocated block of sketch rows plus its cached norms.

    The buffer holds rows in the store's storage dtype; ``scale`` is
    the int8 quantisation step (``None`` for the float specs), fixed by
    the first chunk the shard admits and never changed afterwards —
    published rows are immutable, so snapshots stay consistent.  Norms
    are always cached in float64, computed from the *decoded* rows (the
    exact values queries scan), so the prefilter bounds exactly what
    the distance kernel sees.
    """

    __slots__ = (
        "capacity",
        "size",
        "storage",
        "scale",
        "_buffer",
        "_decoded",
        "_sq_norms",
        "_min_sq",
        "_max_sq",
    )

    def __init__(
        self,
        capacity: int,
        output_dim: int,
        storage: StorageSpec,
        initial_rows: int = 0,
    ) -> None:
        self.capacity = capacity
        self.size = 0
        self.storage = storage
        self.scale: float | None = None
        allocate = min(capacity, max(initial_rows, 1))
        self._buffer = np.empty((allocate, output_dim), dtype=storage.dtype)
        self._decoded: np.ndarray | None = None  # f2/int8 scan cache
        self._sq_norms = np.empty(allocate, dtype=np.float64)
        self._min_sq = np.inf
        self._max_sq = -np.inf

    @property
    def free(self) -> int:
        return self.capacity - self.size

    def admit(self, rows: np.ndarray) -> int:
        """How many leading ``rows`` this shard will take (0 = sealed).

        Float specs admit up to :attr:`free` rows.  An int8 shard with
        rows already published additionally requires the chunk to fit
        its fixed scale — a chunk that would clip returns 0, telling the
        store to seal this shard and open a fresh one whose scale the
        chunk then sets.  A fresh shard always admits at least one row,
        so the store's fill loop always progresses.
        """
        take = min(self.free, rows.shape[0])
        if take and self.storage.quantised and self.scale is not None:
            peak = float(np.max(np.abs(rows[:take])))
            if peak > INT8_CODE_MAX * self.scale:
                return 0
        return take

    def append(self, rows: np.ndarray) -> None:
        """Encode float64 ``rows`` into the buffer (see :meth:`append_codes`).

        An int8 shard's step is fixed here by the first chunk it takes.
        """
        if self.storage.quantised and self.scale is None:
            peak = float(np.max(np.abs(rows))) if rows.size else 0.0
            if not np.isfinite(peak):
                raise ValueError("int8 storage requires finite sketch values")
            self.scale = StorageSpec.int8_step(peak)
        self.append_codes(
            rows if self.storage.name == "f8" else self.storage.encode(rows, self.scale)
        )

    def adopt(self, raw: np.ndarray, scale: float | None) -> None:
        """Fill an empty shard with raw storage codes from a stored blob.

        The eager-load path: codes land in the buffer verbatim (no
        decode/re-encode round trip, so quantised reloads are
        bit-identical), and a fresh f2/int8 decode primes the scan cache.
        """
        self.scale = scale
        scan = self.append_codes(raw)
        if self.storage.name not in ("f8", "f4"):
            scan.flags.writeable = False
            self._decoded = scan

    def append_codes(self, codes: np.ndarray) -> np.ndarray:
        """Copy raw storage ``codes`` into the buffer, extending the norm caches.

        The one code-append tail behind :meth:`append`, :meth:`adopt`
        and the rewrite engine; returns the chunk decoded to the scan
        dtype.  The size is published *last*, after the rows, their
        norms and the norm bounds — a concurrent reader that sees the
        new size therefore sees fully written rows and bounds covering
        them.
        """
        end = self.size + codes.shape[0]
        if end > self._buffer.shape[0]:  # grow geometrically within capacity
            new_rows = min(self.capacity, max(end, 2 * self._buffer.shape[0]))
            grown = np.empty((new_rows, self._buffer.shape[1]), dtype=self._buffer.dtype)
            grown[: self.size] = self._buffer[: self.size]
            norms = np.empty(new_rows, dtype=np.float64)
            norms[: self.size] = self._sq_norms[: self.size]
            self._buffer, self._sq_norms = grown, norms
        self._buffer[self.size : end] = codes
        scan = self.storage.decode(self._buffer[self.size : end], self.scale)
        if end > self.size:
            decoded = np.asarray(scan, dtype=np.float64)
            chunk_norms = np.einsum("ij,ij->i", decoded, decoded)
            self._sq_norms[self.size : end] = chunk_norms
            self._min_sq = min(self._min_sq, float(chunk_norms.min()))
            self._max_sq = max(self._max_sq, float(chunk_norms.max()))
        self.size = end
        return scan

    @property
    def values(self) -> np.ndarray:
        """The filled rows, decoded to the scan dtype (read-only).

        ``f8``/``f4`` are zero-copy views of the buffer; ``f2``/``int8``
        decode into a cached float32 array so repeated queries do not
        re-convert the shard (the cache is keyed by its row count, so
        appends naturally invalidate it, and a stale reference handed
        to an earlier snapshot stays valid — rows are immutable).
        """
        view = self._buffer[: self.size]
        if self.storage.name in ("f8", "f4"):
            view.flags.writeable = False
            return view
        cached = self._decoded
        if cached is None or cached.shape[0] != self.size:
            cached = self.storage.decode(view, self.scale)
            cached.flags.writeable = False
            self._decoded = cached
        return cached

    @property
    def codes(self) -> np.ndarray:
        """The filled rows in raw storage form (read-only, no decode)."""
        view = self._buffer[: self.size]
        view.flags.writeable = False
        return view

    def iter_codes(self, block_rows: int = DEFAULT_BLOCK_ROWS):
        """The filled rows as bounded blocks of raw codes (zero copy)."""
        codes = self.codes
        for start in range(0, self.size, block_rows):
            yield codes[start : start + block_rows]

    @property
    def nbytes(self) -> int:
        """Bytes of stored values (filled rows only; norm and decode
        caches are excluded — this is the persisted/mapped footprint)."""
        return self.size * self._buffer.shape[1] * self.storage.itemsize

    @property
    def sq_norms(self) -> np.ndarray:
        """Cached ``||row||^2`` for every filled row (read-only view)."""
        view = self._sq_norms[: self.size]
        view.flags.writeable = False
        return view

    def norm_bounds(self) -> tuple[float, float]:
        """``(min, max)`` of the cached squared norms (infinite if empty)."""
        return self._min_sq, self._max_sq


class _MappedShard:
    """A shard whose rows live in a stored blob, mapped on first touch.

    Nothing is read at construction — the shard knows its row count,
    labels and squared-norm bounds from the blob header alone, so the
    norm-bound prefilter can rule the shard out without touching the
    file.  The first access to :attr:`values` memory-maps the raw
    float64 segment (read-only, pages loaded on demand by the OS); the
    first access to :attr:`sq_norms` streams one pass over the rows to
    build the norm cache (and, for format-1 blobs whose headers carry
    no bounds, fills :meth:`norm_bounds` as a side effect).  Mapped
    shards are sealed: :attr:`free` is always zero, so appends to the
    owning store land in fresh in-memory shards.
    """

    __slots__ = ("size", "_info", "_values", "_sq_norms", "_bounds")

    def __init__(self, info: BatchInfo) -> None:
        self.size = info.n_rows
        self._info = info
        self._values: np.ndarray | None = None
        self._sq_norms: np.ndarray | None = None
        self._bounds: tuple[float, float] | None = info.sq_norm_bounds

    @property
    def capacity(self) -> int:
        return self.size

    @property
    def free(self) -> int:
        return 0

    def admit(self, rows: np.ndarray) -> int:
        return 0  # mapped shards are sealed

    @property
    def storage(self) -> StorageSpec:
        return self._info.storage_spec

    @property
    def scale(self) -> float | None:
        return self._info.scale

    @property
    def nbytes(self) -> int:
        return self._info.values_nbytes

    @property
    def labels_elided(self) -> bool:
        """Whether the blob stores no labels (they are the default positions)."""
        return not self._info.labels

    @property
    def materialized(self) -> bool:
        """Whether the values have been mapped yet (for tests/metrics)."""
        return self._values is not None

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            # f8/f4 stay lazy memory maps (decode is a no-op); f2/int8
            # decode into a resident float32 array on first touch
            decoded = self.storage.decode(map_values(self._info), self.scale)
            decoded.flags.writeable = False
            self._values = decoded
        return self._values

    @property
    def codes(self) -> np.ndarray:
        """Raw storage values, memory-mapped (the save/compact path)."""
        return map_values(self._info)

    def iter_codes(self, block_rows: int = DEFAULT_BLOCK_ROWS):
        """Raw codes in bounded blocks via buffered reads, not ``mmap``.

        The maintenance path: plain block-sized reads keep peak memory
        *and address space* O(block) — a memory map would charge the
        whole file against ``RLIMIT_AS`` at map time — and the stored
        values digest is verified as the stream drains, so a corrupt
        shard aborts a rewrite instead of propagating into it.
        """
        yield from iter_batch_rows(self._info, block_rows)

    @property
    def sq_norms(self) -> np.ndarray:
        if self._sq_norms is None:
            values = np.asarray(self.values, dtype=np.float64)
            norms = np.einsum("ij,ij->i", values, values)
            if self._bounds is None:
                self._bounds = (
                    (float(norms.min()), float(norms.max()))
                    if norms.size
                    else (np.inf, -np.inf)
                )
            self._sq_norms = norms
        return self._sq_norms

    def norm_bounds(self) -> tuple[float, float]:
        if self._bounds is None:
            self.sq_norms  # format-1 fallback: one pass, cached thereafter
        return self._bounds


class ShardView:
    """An immutable view of one shard's filled prefix at snapshot time.

    ``start`` is the shard's global row offset; ``size`` the number of
    rows frozen by the snapshot.  Values and norms are exposed lazily so
    that a view of a memory-mapped shard the prefilter skips never
    touches the file.

    ``dead`` is the sorted array of *local* row indices tombstoned at
    snapshot time (``None`` when the shard has none — the overwhelmingly
    common case, kept allocation-free).  Values and norms still cover
    every physical row: scanning the full block and discarding dead
    entries afterwards is what keeps the surviving rows' estimates
    bit-identical before and after the tombstones are physically
    compacted away.
    """

    __slots__ = ("start", "size", "dead", "_shard")

    def __init__(self, start: int, size: int, shard, dead=None) -> None:
        self.start = start
        self.size = size
        self.dead = dead
        self._shard = shard

    @property
    def live_size(self) -> int:
        """Rows the snapshot actually serves (``size`` minus tombstones)."""
        return self.size if self.dead is None else self.size - len(self.dead)

    def live_local(self) -> np.ndarray:
        """Sorted *local* indices of the view's untombstoned rows."""
        if self.dead is None:
            return np.arange(self.size, dtype=np.intp)
        return np.delete(np.arange(self.size, dtype=np.intp), self.dead)

    @property
    def values(self) -> np.ndarray:
        return self._shard.values[: self.size]

    @property
    def codes(self) -> np.ndarray:
        """The view's rows in raw storage form (no decode; save path)."""
        return self._shard.codes[: self.size]

    def iter_codes(self, block_rows: int = DEFAULT_BLOCK_ROWS):
        """The view's raw codes in bounded row blocks (tombstones included).

        In-memory shards yield zero-copy buffer slices; memory-mapped
        shards stream block-sized buffered reads so a disk-to-disk
        rewrite never holds (or even maps) more than one block.  Blocks
        cover every physical row of the view — callers dropping
        tombstones filter against :attr:`dead` as they go.
        """
        remaining = self.size
        for block in self._shard.iter_codes(block_rows):
            if remaining <= 0:
                return
            take = min(block.shape[0], remaining)
            yield block[:take]
            remaining -= take

    @property
    def storage(self) -> StorageSpec:
        return self._shard.storage

    @property
    def scale(self) -> float | None:
        """The shard's int8 quantisation step (``None`` for float specs)."""
        return self._shard.scale

    @property
    def sq_norms(self) -> np.ndarray:
        return self._shard.sq_norms[: self.size]

    def norm_bounds(self) -> tuple[float, float]:
        """Conservative ``(min, max)`` squared-norm bounds for the view.

        The underlying shard may have grown past the snapshot; its
        bounds then cover a superset of these rows, which only widens
        the interval — still valid for prefiltering.
        """
        return self._shard.norm_bounds()


class ShardedSketchStore:
    """Append-only store of compatible released sketches, in shards.

    All rows must come from one public configuration (same config
    digest, same noise metadata); the first added release pins the
    metadata and later additions are checked against it with the same
    compatibility rule as the estimators.  ``expected_digest`` pins the
    configuration *before* any release arrives: a store constructed
    with it rejects the very first foreign batch instead of silently
    adopting its configuration — this is how
    :meth:`~repro.core.protocol.SketchingSession.serve` and
    :meth:`~repro.serving.service.DistanceService.from_batches` make
    every construction path fail fast on mismatched digests.

    Labels default to the row's global position, matching
    :class:`~repro.core.knn.PrivateNeighborIndex`, and survive a
    save/load round trip with their types intact.

    ``storage`` selects the shard element type
    (:class:`~repro.serving.storage.StorageSpec` or its name; the
    default comes from ``REPRO_STORE_DTYPE``, falling back to ``"f8"``).
    Low-precision stores quantise rows once at append time and serve
    the decoded values through the same :class:`ShardView` interface —
    the query plane runs unchanged, within the documented error
    envelope of :mod:`repro.theory.quantisation`.  Loading a saved
    store always uses the storage recorded in its manifest.
    """

    def __init__(
        self,
        shard_capacity: int = DEFAULT_SHARD_CAPACITY,
        expected_digest: str | None = None,
        storage: StorageSpec | str | None = None,
    ) -> None:
        if shard_capacity < 1:
            raise ValueError(f"shard_capacity must be >= 1, got {shard_capacity}")
        self.shard_capacity = int(shard_capacity)
        self.expected_digest = expected_digest
        self.storage = (
            StorageSpec.from_env() if storage is None else StorageSpec.parse(storage)
        )
        self._shards: list = []
        self._labels: list[object] = []
        self._template: SketchBatch | None = None  # zero-row metadata carrier
        self._tombstones: set[int] = set()  # global row indices, see delete()
        #: Bumped every time maintenance rewrites the shard layout;
        #: persisted in the manifest so servers can watch for swaps.
        self.generation: int = 0
        #: Centroid routing table for the *current* shard layout, or
        #: ``None``; appends and deletes invalidate it (see `routing`).
        self._routing: ShardRouting | None = None

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return sum(shard.size for shard in self._shards)

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def labels(self) -> list:
        return list(self._labels)

    def label(self, i: int):
        """The label of stored row ``i`` (no copy of the label list)."""
        return self._labels[i]

    @property
    def metadata(self) -> SketchBatch | None:
        """A zero-row batch carrying the store's shared metadata."""
        return self._template

    @property
    def routing(self) -> ShardRouting | None:
        """The centroid routing table, iff it matches the current layout.

        Returns ``None`` whenever routing is absent *or stale*: an
        append or delete since the last clustered
        :meth:`compact`/:func:`~repro.serving.maintenance.compact_store`
        invalidates the table (the per-shard balls no longer cover the
        rows), and this property is the one place that staleness rule
        is enforced — callers can never observe a table that does not
        describe exactly the shards they would scan.  Rebuild with
        ``compact(routing=True)`` or the maintenance layer's
        ``rebuild_routing``.
        """
        routing = self._routing
        if routing is None or self._tombstones:
            return None
        if not routing.matches(self.shard_sizes()):
            return None
        return routing

    @property
    def nbytes(self) -> int:
        """Bytes of stored values across all shards (filled rows only).

        Counts the storage representation — codes for quantised shards,
        the mapped file bytes for memory-mapped ones — not the norm
        caches or any decode-on-scan scratch.  This is the number that
        shrinks 2–8x when a store is compacted to a lower precision.
        """
        return sum(shard.nbytes for shard in self._shards)

    def describe(self) -> dict:
        """A JSON-friendly summary of the store's shape and storage.

        The same dictionary the HTTP frontend's ``GET /meta`` embeds,
        so operators see identical numbers locally and remotely.
        """
        return {
            "rows": len(self),
            "live_rows": self.live_row_count,
            "tombstones": len(self._tombstones),
            "generation": self.generation,
            "shards": self.n_shards,
            "shard_capacity": self.shard_capacity,
            "storage": self.storage.name,
            "nbytes": self.nbytes,
            "config_digest": (
                None if self._template is None else self._template.config_digest
            ),
            "routing": (
                None
                if self.routing is None
                else {
                    "shards": self.routing.n_shards,
                    "n_clusters": self.routing.n_clusters,
                    "generation": self.routing.generation,
                }
            ),
        }

    # -- appending -----------------------------------------------------------

    def add(self, sketch: PrivateSketch, label=None) -> None:
        """Append one published sketch (label defaults to its position)."""
        self._append(
            sketch,
            np.asarray(sketch.values, dtype=np.float64)[np.newaxis, :],
            [len(self._labels) if label is None else label],
        )

    def add_batch(self, batch: SketchBatch, labels=None) -> None:
        """Append every row of a published batch in one pass."""
        if labels is None:
            start = len(self._labels)
            labels = batch.labels or range(start, start + len(batch))
        elif len(labels) != len(batch):
            raise ValueError(f"got {len(labels)} labels for {len(batch)} rows")
        self._append(batch, np.asarray(batch.values, dtype=np.float64), list(labels))

    def _check_expected_digest(self, release) -> None:
        if (
            self.expected_digest is not None
            and release.config_digest != self.expected_digest
        ):
            raise ValueError(
                f"batch {release.config_digest} comes from a different "
                f"configuration than this store expects ({self.expected_digest})"
            )

    def _append(self, release, rows: np.ndarray, labels: list) -> None:
        if self._template is None:
            self._check_expected_digest(release)
            self._template = _as_template(release)
        else:
            estimators.check_compatible(self._template, release)
        # appended rows are not covered by any existing centroid ball:
        # drop the table *before* the rows land, so a concurrent reader
        # can never pair fresh rows with stale routing geometry (the
        # snapshot-sizes check in the service is the second line of
        # defence)
        self._routing = None
        self._labels.extend(labels)
        self._fill(rows)

    def _fill(self, rows: np.ndarray) -> None:
        """Copy ``rows`` into the tail shards, opening new ones as needed.

        The tail shard says how much of the chunk it will
        :meth:`~_Shard.admit`; zero means it is full — or an int8 shard
        whose fixed scale the chunk would clip — and a fresh shard opens
        (a fresh shard always admits, so the loop always progresses).
        """
        offset = 0
        while offset < rows.shape[0]:
            remaining = rows[offset:]
            take = self._shards[-1].admit(remaining) if self._shards else 0
            if take == 0:
                self._shards.append(
                    _Shard(
                        self.shard_capacity,
                        self._template.output_dim,
                        self.storage,
                        initial_rows=min(remaining.shape[0], self.shard_capacity),
                    )
                )
                take = self._shards[-1].admit(remaining)
            self._shards[-1].append(rows[offset : offset + take])
            offset += take

    # -- shard access --------------------------------------------------------

    def shard_values(self, i: int) -> np.ndarray:
        """Filled rows of shard ``i`` as a zero-copy read-only view."""
        return self._shards[i].values

    def shard_sq_norms(self, i: int) -> np.ndarray:
        """Cached squared norms of shard ``i`` (zero-copy, read-only)."""
        return self._shards[i].sq_norms

    def shard_sizes(self) -> list[int]:
        return [shard.size for shard in self._shards]

    @property
    def resident_shards(self) -> int:
        """Shards whose rows are resident in memory.

        In-memory shards always count; memory-mapped shards count only
        once a query has touched them.  ``resident_shards < n_shards``
        on an mmap-loaded store is the observable signature of lazy
        loading (and of the prefilter skipping shards outright).
        """
        return sum(
            1 for shard in self._shards if getattr(shard, "materialized", True)
        )

    def snapshot(self) -> list[ShardView]:
        """A consistent point-in-time view of the store, one entry per shard.

        Shard sizes are read once; rows appended afterwards are
        invisible to the snapshot, and rows inside it are fully written
        (sizes are published after their rows).  Queries built on a
        snapshot therefore see a consistent prefix of the store even
        while a writer keeps appending.
        """
        views = []
        start = 0
        dead_global = (
            np.fromiter(sorted(self._tombstones), dtype=np.intp)
            if self._tombstones
            else None
        )
        for shard in list(self._shards):
            size = shard.size
            if size:
                dead = None
                if dead_global is not None:
                    lo, hi = np.searchsorted(dead_global, (start, start + size))
                    if hi > lo:
                        dead = dead_global[lo:hi] - start
                # fully tombstoned views stay in the snapshot (persistence
                # relies on views tiling the physical layout); queries skip
                # them by their zero live_size without touching the shard
                views.append(ShardView(start, size, shard, dead=dead))
            start += size
        return views

    def shard_batch(self, i: int) -> SketchBatch:
        """Shard ``i`` as a :class:`SketchBatch` sharing the buffer."""
        start = sum(s.size for s in self._shards[:i])
        return _with_values(
            self._template,
            self._shards[i].values,
            tuple(self._labels[start : start + self._shards[i].size]),
        )

    def to_batch(self) -> SketchBatch:
        """Materialise the whole store as one batch (copies all rows)."""
        if self._template is None:
            raise ValueError("the store is empty")
        values = (
            np.concatenate([shard.values for shard in self._shards])
            if self._shards
            else np.empty((0, self._template.output_dim))
        )
        return _with_values(self._template, values, tuple(self._labels))

    # -- deletion ------------------------------------------------------------

    @property
    def tombstones(self) -> tuple[int, ...]:
        """Sorted global row indices marked deleted (empty when none)."""
        return tuple(sorted(self._tombstones))

    @property
    def live_row_count(self) -> int:
        """Rows queries actually serve: ``len(self)`` minus tombstones."""
        return len(self) - len(self._tombstones)

    def delete(self, labels) -> int:
        """Tombstone every row whose label is in ``labels``; count new ones.

        Rows are never mutated in place — published rows are immutable,
        and the snapshot contract depends on it — so deletion marks the
        rows' global indices as tombstones instead.  Tombstoned rows are
        skipped by every query and by :meth:`merge`, persist through
        :meth:`save`/:meth:`load` (the manifest records them), and are
        physically dropped, labels included, when :meth:`compact` or
        :func:`repro.serving.maintenance.compact_store` next rewrites
        the shards.  Deleting an already tombstoned row is a no-op; the
        return value counts rows *newly* tombstoned.  Unknown labels
        raise ``KeyError`` naming them — a deployment deleting a label
        that was never stored (or already compacted away) should find
        out, not silently succeed.

        Deletion does **not** refund privacy budget — see the module
        docstring for the DP semantics (post-processing of an
        already-spent budget; the accountant is never decremented).
        """
        if isinstance(labels, (str, bytes)) or not hasattr(labels, "__iter__"):
            labels = (labels,)  # one label, not an iterable of them
        wanted = set(labels)
        if not wanted:
            return 0
        matches: dict[object, list[int]] = {}
        for i, label in enumerate(self._labels):
            if label in wanted:
                matches.setdefault(label, []).append(i)
        missing = wanted - matches.keys()
        if missing:
            raise KeyError(
                f"labels not in this store: {sorted(missing, key=repr)!r}"
            )
        rows = {i for positions in matches.values() for i in positions}
        added = rows - self._tombstones
        self._tombstones |= added
        if added:
            # tombstoned shards still satisfy the centroid bounds (they
            # only shrink the live set), but the routing contract is
            # "fresh layout or nothing": mark the table stale so the
            # next compaction rebuilds it over the survivors
            self._routing = None
        return len(added)

    # -- maintenance ---------------------------------------------------------

    def compact(
        self,
        storage: StorageSpec | str | None = None,
        *,
        routing: bool | int | None = None,
        routing_seed: int = 0,
    ) -> "ShardedSketchStore":
        """Rewrite the shards so every shard except the last is full.

        Partial shards accumulate when batches straddle shard
        boundaries across mmap-loads and appends; compaction repacks
        the rows (in order — labels are unchanged) into capacity-sized
        shards.  Memory-mapped shards are materialised in the process:
        the compacted store lives in memory; :meth:`save` it to persist
        the compact layout.  Returns ``self`` for chaining.

        ``storage`` re-encodes the rows into a different
        :class:`~repro.serving.storage.StorageSpec` along the way — the
        build-full-precision-then-shrink workflow is
        ``store.compact(storage="f4").save(path)``.  Repacking float
        shards into the same spec is value-preserving (query results
        are unchanged); changing precision re-rounds the rows within
        the documented envelope.  An ``int8`` rewrite re-encodes every
        row with **one store-wide step** (an extra streaming pass finds
        the live rows' peak), so it never tears shards apart the way
        appends, which fix a step per shard, can.

        Tombstoned rows are physically dropped here, labels included
        (their budget stays spent — see the module docstring), and the
        store's :attr:`generation` is bumped.  Rows stream through in
        bounded blocks into new shards that replace the old ones only
        once the rewrite has succeeded: a rewrite that fails (say, on a
        corrupt memory-mapped shard) leaves the store exactly as it
        was.  This is the in-memory front of the same engine as
        :func:`repro.serving.maintenance.compact_store`, which rewrites
        a saved store disk-to-disk without loading it; both produce the
        same shards, labels, scales and routing tables (up to the last
        bits of the centroid of a shard longer than one block, which
        the disk front sums block by block).

        ``routing`` builds a centroid routing table along the way
        (:mod:`repro.serving.routing`): ``True`` clusters the rows into
        :func:`~repro.serving.routing.default_cluster_count` k-means
        clusters (one per would-be-full shard), an integer picks the
        cluster count explicitly.  Rows are rewritten
        cluster-by-cluster with a sealed shard boundary between
        clusters, so every shard holds rows of exactly one cluster and
        gets a tight ``(centroid, radius)`` ball; labels travel with
        their rows (the clustered order is a permutation of the
        original).  Clustered rewrites make one streaming pass per
        cluster, still O(block) memory.  ``routing_seed`` makes the
        clustering reproducible.  The default ``None`` keeps the
        historical order-preserving rewrite (and drops any existing
        routing table — the layout changed).
        """
        spec = self.storage if storage is None else StorageSpec.parse(storage)
        pairs = self._pairs()
        generation = self.generation + 1
        roller, table = _rewrite(
            pairs,
            self._template,
            spec,
            self.shard_capacity,
            clusters=_cluster_count(
                routing, sum(view.live_size for view, _ in pairs), self.shard_capacity
            ),
            seed=routing_seed,
            generation=generation,
        )
        self.storage = spec
        self._shards, self._labels = roller.shards, roller.labels
        self._tombstones = set()
        self._routing = table
        self.generation = generation
        return self

    def _pairs(self) -> list:
        """The rewrite engine's source: ``(view, live labels)`` per snapshot view."""
        pairs = []
        for view in self.snapshot():
            labels = self._labels[view.start : view.start + view.size]
            if view.dead is not None:
                labels = [labels[i] for i in view.live_local()]
            pairs.append((view, labels))
        return pairs

    @classmethod
    def merge(
        cls,
        *stores: "ShardedSketchStore",
        shard_capacity: int | None = None,
        storage: StorageSpec | str | None = None,
    ) -> "ShardedSketchStore":
        """Fuse compatible stores into one new, compacted store.

        Rows keep their per-store order, stores are concatenated in
        argument order, and labels travel with their rows.  All stores
        must share one public configuration (the usual compatibility
        rule) **and one storage spec** — mixing precisions would
        silently blend error envelopes, so it is rejected with the
        specs named; pass ``storage=...`` explicitly to re-encode
        everything into one spec instead.  Empty stores are skipped,
        and tombstoned rows are dropped on the way through (the merged
        store starts with a clean tombstone set; budgets stay spent —
        see the module docstring).  Rows stream through the same engine
        as :meth:`compact`, in bounded blocks: merging mmap-loaded
        stores reads nothing larger than one block at a time, so
        on-disk stores far bigger than RAM fuse fine (see also
        :func:`repro.serving.maintenance.merge_stores` for the
        directory-to-directory form, which writes the same shards).
        """
        template, spec, capacity, pairs = _merge_sources(
            stores, storage, shard_capacity
        )
        merged = cls(shard_capacity=capacity, storage=spec)
        roller, _ = _rewrite(pairs, template, spec, capacity)
        merged._template = template
        merged._shards, merged._labels = roller.shards, roller.labels
        return merged

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | os.PathLike) -> None:
        """Persist the store into directory ``path``, atomically.

        One versioned binary blob per shard plus a manifest, written
        into a temporary sibling directory that is swapped into place
        only once complete — a crash mid-save leaves an existing store
        untouched, and overwriting a store that previously had more
        shards leaves no stale shard files behind.  Labels are stored
        with their types (typed JSON encoding in the shard headers);
        default positional labels are elided and regenerated on load.
        Quantised shards persist their exact storage codes and per-shard
        scales, so save/load/mmap round trips are bit-identical at every
        precision.

        The guarantee is *no corruption*, not full atomicity: a plain
        ``os.replace`` cannot exchange two directories, so there is a
        tiny window (between the two renames in the swap) in which a
        hard crash leaves ``path`` absent while the previous store sits
        intact at a hidden ``.<name>.retired-<pid>`` sibling — recover
        it with a rename; nothing is ever partially overwritten.

        Saving over a directory counts as *writing that directory's
        store*: other handles that mmap-loaded it and have not yet
        touched all their shards would map the replacement's bytes at
        stale offsets.  Re-``load`` such readers after the save.
        (Saving a store over its *own* source directory is safe — the
        write materialises every one of its shards first.)

        A store with zero rows cannot be saved — there would be no
        shard to carry the metadata, so the round trip could not be
        faithful.
        """
        if not len(self):
            raise ValueError("cannot save an empty store")
        root = Path(path)
        staging = _fresh_dir(root.with_name(f".{root.name}.saving-{os.getpid()}"))
        try:
            views = self.snapshot()
            offset = 0
            for i, view in enumerate(views):
                labels = tuple(self._labels[offset : offset + view.size])
                if _is_positional(labels, offset):
                    # default positional labels regenerate on load from the
                    # row offsets alone; dropping them keeps big-store
                    # headers small (and load-time parsing cheap)
                    labels = ()
                offset += view.size
                # the shard's exact storage codes are written verbatim, so
                # quantised stores round-trip bit-identically; the batch
                # carries the decoded rows for the header's norm bounds
                write_batch(
                    staging / _SHARD_PATTERN.format(i),
                    _with_values(self._template, view.values, labels),
                    storage=view.storage,
                    encoded=view.codes,
                    scale=view.scale,
                )
            manifest = {
                "manifest_version": _MANIFEST_VERSION,
                "shard_capacity": self.shard_capacity,
                "n_shards": len(views),
                "n_rows": offset,
                "storage": self.storage.name,
                "config_digest": self._template.config_digest,
                "generation": self.generation,
            }
            if self._tombstones:
                manifest["tombstones"] = sorted(self._tombstones)
            routing = self.routing  # the property: fresh-layout or None
            if routing is not None:
                manifest["routing"] = _write_routing(staging, routing)
            (staging / _MANIFEST_NAME).write_text(
                json.dumps(manifest, indent=2, sort_keys=True)
            )
            _swap_into_place(staging, root)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise

    @classmethod
    def load(cls, path: str | os.PathLike, *, mmap: bool = False) -> "ShardedSketchStore":
        """Rebuild a store saved by :meth:`save` (values are bit-exact).

        With ``mmap=True`` each shard attaches as a lazy memory map:
        nothing is read until a query touches the shard, per-shard norm
        caches are computed on first touch, and the OS pages rows in
        and out on demand — stores larger than RAM stay queryable.  The
        trade-off: the per-shard values digests are only verified on
        eager loads.  All container formats are readable — the current
        version 3 (any storage spec), PR-3's version 2 and PR-2's
        version 1 (format-1 labels come back as the strings that format
        recorded).  The storage spec always comes from the manifest,
        never from ``REPRO_STORE_DTYPE``.
        """
        root = Path(path)
        manifest = read_manifest(root)
        try:
            return cls._load_shards(root, manifest, mmap)
        except KeyError as exc:
            raise SerializationError(
                f"manifest at {root / _MANIFEST_NAME} is missing required "
                f"field {exc}"
            ) from exc

    @classmethod
    def _load_shards(cls, root: Path, manifest: dict, mmap: bool) -> "ShardedSketchStore":
        # the manifest decides the storage spec (pre-quantisation
        # manifests carry no key and mean f8); the environment default
        # never applies to a load — a saved f8 store stays f8 even under
        # REPRO_STORE_DTYPE=f4, and vice versa
        store = cls(
            shard_capacity=manifest["shard_capacity"],
            storage=manifest.get("storage", "f8"),
        )
        # flat pre-generation layouts carry no shards_dir; generational
        # manifests point at the gen-NNNNN sibling the shards live in
        shard_dir = root / manifest.get("shards_dir", "")
        for i in range(manifest["n_shards"]):
            shard_path = shard_dir / _SHARD_PATTERN.format(i)
            if mmap:
                store._attach_mapped(read_batch_info(shard_path))
            else:
                store._attach_eager(*read_batch_raw(shard_path))
        store.generation = int(manifest.get("generation", 0))
        tombstones = manifest.get("tombstones", ())
        if tombstones:
            bad = [t for t in tombstones if not 0 <= int(t) < len(store)]
            if bad:
                raise SerializationError(
                    f"manifest at {root} tombstones rows {bad} outside the "
                    f"store's {len(store)} rows"
                )
            store._tombstones = {int(t) for t in tombstones}
        if len(store) != manifest["n_rows"]:
            raise SerializationError(
                f"store at {root} holds {len(store)} rows, manifest says "
                f"{manifest['n_rows']}"
            )
        if (
            store.metadata is not None
            and store.metadata.config_digest != manifest["config_digest"]
        ):
            raise SerializationError(
                f"shards at {root} come from configuration "
                f"{store.metadata.config_digest}, manifest pins "
                f"{manifest['config_digest']} — directory contents were swapped"
            )
        routing_entry = manifest.get("routing")
        if routing_entry is not None:
            payload, centroids, radii = read_routing_blob(
                shard_dir / routing_entry.get("file", ROUTING_BLOB_NAME),
                routing_entry.get("sha256"),
            )
            routing = ShardRouting.from_payload(payload, centroids, radii)
            if not routing.matches(store.shard_sizes()):
                raise SerializationError(
                    f"routing blob at {root} describes shard sizes "
                    f"{routing.shard_sizes}, the store has "
                    f"{tuple(store.shard_sizes())} — the table is stale"
                )
            store._routing = routing
        return store

    def _pin_stored_shard(self, info: BatchInfo) -> None:
        """Shared load-path validation: metadata and storage must match."""
        if info.storage != self.storage.name:
            raise SerializationError(
                f"shard at {info.path} stores {info.storage} values, the store's "
                f"manifest pins {self.storage.name} — directory contents were "
                f"swapped"
            )
        if self._template is None:
            self._check_expected_digest(info.meta)
            self._template = info.meta
        else:
            estimators.check_compatible(self._template, info.meta)

    def _attach_mapped(self, info: BatchInfo) -> None:
        """Attach one stored shard as a lazy memory-mapped shard."""
        self._pin_stored_shard(info)
        if info.n_rows:
            start = len(self._labels)
            self._labels.extend(
                info.labels or range(start, start + info.n_rows)
            )
            self._shards.append(_MappedShard(info))

    def _attach_eager(self, info: BatchInfo, raw: np.ndarray) -> None:
        """Attach one stored shard's raw codes as an in-memory shard.

        The codes land in the buffer verbatim — no decode/re-encode
        round trip, so quantised stores reload bit-identically — and
        the tail shard stays appendable up to the store's capacity.
        """
        self._pin_stored_shard(info)
        if info.n_rows:
            start = len(self._labels)
            self._labels.extend(info.labels or range(start, start + info.n_rows))
            shard = _Shard(
                max(self.shard_capacity, info.n_rows),
                info.meta.output_dim,
                self.storage,
                initial_rows=info.n_rows,
            )
            shard.adopt(raw, info.scale)
            self._shards.append(shard)


def read_manifest(path: str | os.PathLike) -> dict:
    """Read and validate a store directory's ``manifest.json``.

    The shared parsing step of :meth:`ShardedSketchStore.load`, the
    maintenance layer and the server's generation watcher — all three
    must agree on what a well-formed manifest is.  Raises
    ``FileNotFoundError`` when no manifest exists and
    :class:`SerializationError` for junk or an unsupported version.
    """
    manifest_path = Path(path) / _MANIFEST_NAME
    if not manifest_path.exists():
        raise FileNotFoundError(f"no store manifest at {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise SerializationError(
            f"manifest at {manifest_path} is not valid JSON: {exc}"
        ) from exc
    if manifest.get("manifest_version") not in _SUPPORTED_MANIFEST_VERSIONS:
        raise SerializationError(
            f"unsupported manifest version {manifest.get('manifest_version')!r}"
        )
    return manifest


# -- the streaming rewrite engine ---------------------------------------------
#
# ShardedSketchStore.compact/merge and maintenance.compact_store/
# merge_stores are four fronts of one engine.  Its source is a list of
# (ShardView, live labels) pairs — a store's snapshot, or an mmap-loaded
# store's for the disk fronts — streamed in bounded blocks by
# _live_blocks; _encode is its encoding rule; a _ShardRoller is its sink.


def _rewrite(
    pairs,
    template,
    spec: StorageSpec,
    capacity: int,
    *,
    staging: Path | None = None,
    block_rows: int = DEFAULT_BLOCK_ROWS,
    clusters: int | None = None,
    seed: int = 0,
    generation: int = 0,
):
    """Stream every live row of ``pairs`` into capacity-sized ``spec`` shards.

    Rows keep their order, or — with ``clusters`` — are k-means
    clustered over a stride sample and written cluster by cluster (one
    streaming pass per cluster) with a sealed shard boundary between
    clusters.  Peak memory is O(``block_rows``) on top of the labels.
    The sink lives in memory, or in ``staging`` when given.  Returns
    ``(roller, routing)``: the sink holding the output shards and, for
    a clustered rewrite, the routing table built over them.
    """
    scale = _int8_step(pairs, block_rows) if spec.quantised else None
    # on disk, labels equal to the default positions are elided (they
    # regenerate on load) unless clustering permutes the rows
    write_labels = staging is not None and (
        clusters is not None or not _positional(pairs)
    )
    roller = _ShardRoller(template, spec, scale, capacity, staging, write_labels)
    try:
        if clusters is None:
            for view, codes, labels in _live_blocks(pairs, block_rows):
                roller.append(_encode(spec, scale, view, codes), labels)
        else:
            centroids = kmeans_centroids(
                _sample_live(pairs, block_rows), clusters, seed=seed
            )
            # the assignment is recomputed per block (deterministic, so
            # every pass agrees) instead of being materialised
            for j in range(centroids.shape[0]):
                for view, codes, labels in _live_blocks(pairs, block_rows):
                    decoded = _decode(view, codes)
                    member = assign_rows(decoded, centroids) == j
                    if member.any():
                        roller.append(
                            _encode(spec, scale, view, codes[member], decoded[member]),
                            [labels[i] for i in np.flatnonzero(member)],
                        )
                roller.seal()  # shard boundaries align with clusters
        roller.finish()
    except BaseException:
        roller.abort()
        raise
    if clusters is None:
        return roller, None
    # the balls cover exactly the values queries will scan: staged shards
    # are read back block by block like any stored blob, and a resident
    # shard is read as one block
    blocks = (
        [_Blocks(shard, shard.size) for shard in roller.shards]
        if staging is None
        else [
            _Blocks(_MappedShard(read_batch_info(path)), block_rows)
            for path in roller.shards
        ]
    )
    routing = build_shard_routing(
        blocks,
        generation=generation,
        n_clusters=int(centroids.shape[0]),
        seed=seed,
    )
    return roller, routing


def _live_blocks(pairs, block_rows: int):
    """The live rows of ``pairs`` as ``(view, codes, labels)`` blocks, in order.

    Raw storage codes from :meth:`ShardView.iter_codes` (buffered,
    digest-verified reads for a memory-mapped shard, so a corrupt
    source aborts the rewrite) with tombstoned rows dropped, each with
    the labels of its rows; blocks left empty are skipped.
    """
    for view, labels in pairs:
        offset = done = 0
        for codes in view.iter_codes(block_rows):
            n = codes.shape[0]
            if view.dead is not None:
                codes = codes[_block_live(offset, n, view.dead)]
            offset += n
            if codes.shape[0]:
                yield view, codes, labels[done : done + codes.shape[0]]
                done += codes.shape[0]


def _block_live(offset: int, n: int, dead: np.ndarray) -> np.ndarray:
    """Local indices (within ``[offset, offset+n)``) of untombstoned rows.

    ``dead`` is the view's sorted local tombstone array; membership is
    resolved by binary search, O(n log d) rather than O(n * d).
    """
    local = np.arange(offset, offset + n)
    hit = np.searchsorted(dead, local)
    dead_here = (hit < dead.size) & (dead[np.minimum(hit, dead.size - 1)] == local)
    return np.flatnonzero(~dead_here)


def _positional(pairs) -> bool:
    """Whether the live labels of ``pairs`` are exactly the default positions.

    Checked view by view, so it stops at the first view that is not.
    A memory-mapped shard whose blob elided its labels holds the default
    positions by construction, which spares a packed store the per-label
    check.
    """
    position = 0
    for view, labels in pairs:
        elided = (
            view.dead is None
            and view.start == position
            and getattr(view._shard, "labels_elided", False)
        )
        if not (elided or _is_positional(labels, position)):
            return False
        position += len(labels)
    return True


def _decode(shard, codes: np.ndarray) -> np.ndarray:
    """``codes`` of ``shard`` (anything with ``storage``/``scale``) as float64."""
    return np.asarray(shard.storage.decode(codes, shard.scale), dtype=np.float64)


def _encode(spec, scale, view, codes, decoded=None) -> np.ndarray:
    """The engine's encoding rule, for one block of ``view``'s ``codes``.

    Same-spec float codes pass through verbatim (surviving rows stay
    bit-identical); anything else — another spec, or int8 with the
    rewrite's store-wide step — is decoded to float64 and re-encoded.
    """
    if view.storage.name == spec.name and not spec.quantised:
        return codes
    return spec.encode(_decode(view, codes) if decoded is None else decoded, scale)


def _int8_step(pairs, block_rows: int) -> float:
    """The one int8 step of a rewrite: it covers every live row.

    Appends fix a step per shard as rows arrive; a rewrite spends one
    extra streaming pass finding the live rows' peak instead, so no
    output shard ever has to be sealed early on a chunk that would
    clip.  The step is still recorded per shard, so readers do not care.
    """
    peak = 0.0
    for view, codes, _ in _live_blocks(pairs, block_rows):
        block_peak = float(np.max(np.abs(_decode(view, codes))))
        if not np.isfinite(block_peak):
            raise ValueError("int8 storage requires finite sketch values")
        peak = max(peak, block_peak)
    return StorageSpec.int8_step(peak)


def _sample_live(
    pairs, block_rows: int, target: int = DEFAULT_TRAIN_SAMPLE
) -> np.ndarray:
    """A deterministic stride sample of the live rows, for k-means.

    Every ``step``-th live row (step chosen so roughly ``target`` rows
    come back) — spread across the whole store, no randomness, so
    repeated compactions of the same rows train on the same sample.
    """
    total = sum(view.live_size for view, _ in pairs)
    step = max(1, total // max(target, 1))
    sample, seen = [], 0
    for view, codes, _ in _live_blocks(pairs, block_rows):
        picked = codes[np.arange(seen, seen + codes.shape[0]) % step == 0]
        if picked.shape[0]:
            sample.append(_decode(view, picked))
        seen += codes.shape[0]
    return np.concatenate(sample)


def _cluster_count(routing, live_rows: int, capacity: int) -> int | None:
    """Resolve the ``routing`` argument of a compaction to a cluster count."""
    if routing is None or routing is False:
        return None
    if live_rows == 0:
        raise ValueError("cannot build routing over an empty store")
    if routing is True:
        return default_cluster_count(live_rows, capacity)
    clusters = int(routing)
    if clusters < 1:
        raise ValueError(f"routing cluster count must be >= 1, got {clusters}")
    return clusters


def _merge_sources(stores, storage, shard_capacity):
    """Validate a merge: ``(template, spec, capacity, pairs)``.

    The shared front half of :meth:`ShardedSketchStore.merge` and
    :func:`repro.serving.maintenance.merge_stores`.  Stores without
    metadata are skipped; the rest must agree on their configuration
    and — unless ``storage`` re-encodes them — on their storage spec.
    """
    if not stores:
        raise ValueError("merge needs at least one store")
    sources = [store for store in stores if store._template is not None]
    specs = sorted({store.storage.name for store in sources})
    if storage is None:
        if len(specs) > 1:
            raise ValueError(
                f"cannot merge stores with different storage specs "
                f"({', '.join(specs)}): their error envelopes differ; pass "
                f"storage=... to re-encode the merged store into one spec"
            )
        storage = specs[0] if specs else stores[0].storage
    capacity = (
        max(store.shard_capacity for store in stores)
        if shard_capacity is None
        else shard_capacity
    )
    template, pairs = None, []
    for store in sources:
        if template is None:
            template = store._template
        else:
            estimators.check_compatible(template, store._template)
        pairs.extend(store._pairs())
    return template, StorageSpec.parse(storage), capacity, pairs


class _Blocks:
    """A shard's rows as re-iterable float64 blocks (what queries scan)."""

    def __init__(self, shard, block_rows: int) -> None:
        self._shard, self._block_rows = shard, block_rows

    def __iter__(self):
        for codes in self._shard.iter_codes(self._block_rows):
            yield _decode(self._shard, codes)


class _ShardRoller:
    """The rewrite engine's sink: encoded blocks in, capacity-sized shards out.

    Splits incoming blocks at shard boundaries; :meth:`seal` closes the
    open shard early (a cluster boundary).  Without a ``staging``
    directory the output shards are in-memory :class:`_Shard` buffers,
    collected with their labels in :attr:`shards` and :attr:`labels`
    for the caller to swap in once the rewrite has succeeded.  With
    one, each shard streams through a :class:`StreamingBatchWriter`
    into ``shard-NNNNN.skb`` there (labels only when ``write_labels``),
    and :meth:`abort` removes the partial file: the staging directory
    is all-or-nothing.
    """

    def __init__(
        self, template, spec, scale, capacity, staging=None, write_labels=False
    ) -> None:
        self._template = template
        self._spec, self._scale, self.capacity = spec, scale, capacity
        self._staging = staging
        self._write_labels = write_labels
        self.shards: list = []  # _Shard buffers, or staged shard paths
        self.labels: list = []  # in memory only
        self.n_rows = 0
        self._open = None  # the shard being filled: a _Shard or a writer
        self._open_rows = 0

    def append(self, codes: np.ndarray, labels) -> None:
        start = 0
        while start < codes.shape[0]:
            if self._open is None:
                self._open = self._new_shard(codes.shape[0] - start)
            take = min(self.capacity - self._open_rows, codes.shape[0] - start)
            chunk = codes[start : start + take]
            chunk_labels = labels[start : start + take]
            if self._staging is None:
                self._open.append_codes(chunk)
                self.labels.extend(chunk_labels)
            else:
                self._open.append(chunk, chunk_labels if self._write_labels else ())
            start += take
            self._open_rows += take
            self.n_rows += take
            if self._open_rows == self.capacity:
                self.seal()

    def _new_shard(self, rows: int):
        self._open_rows = 0
        if self._staging is None:
            shard = _Shard(
                self.capacity,
                self._template.output_dim,
                self._spec,
                initial_rows=min(rows, self.capacity),
            )
            shard.scale = self._scale
            self.shards.append(shard)
            return shard
        path = self._staging / _SHARD_PATTERN.format(len(self.shards))
        self.shards.append(path)
        return StreamingBatchWriter(
            path, self._template, storage=self._spec, scale=self._scale
        )

    def seal(self) -> None:
        """Close the open shard, so the next append opens a fresh one."""
        if self._open is None:
            return
        if self._staging is None:
            self._open.capacity = self._open.size  # admits no appends either
        else:
            self._open.commit()
        self._open = None

    def finish(self) -> None:
        """Complete the output after the last append.

        An in-memory tail shard stays open, so later appends fill it.
        On disk the tail is committed — as a zero-row shard if nothing
        was written, since every store needs one shard to carry its
        metadata.
        """
        if self._staging is None:
            return
        if self._open is None and not self.shards:
            self._open = self._new_shard(0)
        self.seal()

    def abort(self) -> None:
        if self._staging is not None and self._open is not None:
            self._open.abort()
        self._open = None


def _write_routing(directory: Path, routing: ShardRouting) -> dict:
    """Write ``routing``'s blob into ``directory``; its manifest entry."""
    return {
        "file": ROUTING_BLOB_NAME,
        "sha256": write_routing_blob(
            directory / ROUTING_BLOB_NAME,
            routing.to_payload(),
            routing.centroids,
            routing.radii,
        ),
        "n_clusters": routing.n_clusters,
        "generation": routing.generation,
    }


def _is_positional(labels, start: int) -> bool:
    """Whether the sequence ``labels`` is exactly the default global positions.

    Such labels are not persisted: the loader regenerates them from row
    offsets (``info.labels or range(...)``), so the round trip is
    unchanged while 100k-row headers stay kilobytes instead of
    megabytes.  The type check keeps e.g. ``np.int64`` labels stored —
    they only *equal* the defaults, and must round-trip as written.
    It runs first, over the whole sequence, so the value comparison
    only ever sees plain ints (both passes stay at C speed).
    """
    return set(map(type, labels)) <= {int} and not any(
        map(operator.ne, labels, itertools.count(start))
    )


def _fresh_dir(path: Path) -> Path:
    """An empty staging directory at ``path`` (a stale one is removed)."""
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def _swap_into_place(staging: Path, root: Path) -> None:
    """Atomically replace ``root`` with the fully written ``staging`` dir."""
    if root.exists():
        retired = root.with_name(f".{root.name}.retired-{os.getpid()}")
        if retired.exists():
            shutil.rmtree(retired)
        os.replace(root, retired)
        try:
            os.replace(staging, root)
        except BaseException:
            os.replace(retired, root)  # roll the old store back
            raise
        shutil.rmtree(retired)
    else:
        os.replace(staging, root)


def _as_template(release) -> SketchBatch:
    """A zero-row batch carrying ``release``'s shared metadata."""
    if not isinstance(release, SketchBatch):
        release = SketchBatch.from_sketches([release])
    empty = np.empty((0, release.output_dim))
    return dataclasses.replace(release, values=empty, labels=())


def _with_values(template: SketchBatch, values: np.ndarray, labels: tuple) -> SketchBatch:
    return dataclasses.replace(template, values=values, labels=labels)
