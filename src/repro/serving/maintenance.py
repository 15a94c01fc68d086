"""LSM-style background maintenance for on-disk sketch stores.

Two disk-to-disk rewrites — :func:`compact_store` and
:func:`merge_stores` — are the disk front-ends of the one streaming
rewrite engine in :mod:`repro.serving.store`, whose in-memory
front-ends are :meth:`ShardedSketchStore.compact` and
:meth:`ShardedSketchStore.merge`.  They mmap-load the source stores
but read their shards only in bounded, digest-verified blocks, so peak
memory is O(one block) beyond the labels no matter how large the store
is: nothing is ever loaded, or even memory-mapped, in full.  Both drop
tombstoned rows physically (budgets stay spent — the DP semantics of
deletion are documented once, in :mod:`repro.serving.store`), and both
write exactly the shards the in-memory front would build.

:func:`compact_store` is *generational*: generation ``N+1`` is written
into a sibling ``gen-NNNNN`` directory inside the store root, published
by atomically replacing ``manifest.json`` once every shard is fully
written and digest-verified, and older generations are pruned — except
the immediately previous one, which in-flight readers may still be
lazily attaching.  A crash at any point leaves the old generation
loadable: staging directories and published-but-unreferenced generation
directories are orphans the next ``compact_store`` removes (the
manifest is the single source of truth for which generation is live).

:class:`MaintenancePolicy` turns the quickstart's manual
build-then-shrink workflow into an automatic rule — a hot full-precision
write tier is compacted (tombstones dropped, partial shards repacked)
and demoted to a cold quantised read tier once row/byte thresholds are
crossed — and :class:`StoreMaintainer` runs that policy from a
background thread.  A :class:`~repro.serving.server.SketchQueryServer`
watching the manifest picks each new generation up without a restart.

Like every operation downstream of release, maintenance is pure
post-processing: no rewrite, re-encode, demotion or deletion here
touches the privacy accountant.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import threading
import time
from pathlib import Path

# re-exported: maintenance.kmeans_centroids stays a valid attribute for
# code that wraps the k-means step by name (the engine in store.py calls
# it as store.kmeans_centroids)
from repro.serving.routing import kmeans_centroids  # noqa: F401
from repro.serving.serialization import DEFAULT_BLOCK_ROWS
from repro.serving.storage import StorageSpec
from repro.serving.store import (
    _MANIFEST_NAME,
    _MANIFEST_VERSION,
    _SHARD_PATTERN,
    ShardedSketchStore,
    _cluster_count,
    _fresh_dir,
    _merge_sources,
    _rewrite,
    _swap_into_place,
    _write_routing,
    read_manifest,
)

_GENERATION_PATTERN = "gen-{:05d}"


def _generation_dirs(root: Path) -> list[Path]:
    return sorted(p for p in root.glob("gen-*") if p.is_dir())


def _clean_orphans(root: Path, live_dir: str) -> list[str]:
    """Remove crash leftovers: staging dirs and unreferenced generations.

    The manifest is the source of truth — any ``gen-*`` directory it
    does not reference was published (or half-written) by a run that
    died before (or while) replacing the manifest, and is unreachable.
    Returns the removed names, for observability and the crash tests.
    """
    removed = []
    for orphan in root.glob(".gen-*.staging-*"):
        shutil.rmtree(orphan, ignore_errors=True)
        removed.append(orphan.name)
    for gen_dir in _generation_dirs(root):
        if gen_dir.name != live_dir:
            shutil.rmtree(gen_dir, ignore_errors=True)
            removed.append(gen_dir.name)
    return removed


def compact_store(
    path: str | os.PathLike,
    *,
    storage: StorageSpec | str | None = None,
    block_rows: int = DEFAULT_BLOCK_ROWS,
    routing: bool | int | None = None,
    routing_seed: int = 0,
) -> dict:
    """Rewrite an on-disk store as its next generation, disk-to-disk.

    Streams every live row of the store at ``path`` into capacity-sized
    shards inside a new ``gen-NNNNN`` sibling directory — tombstoned
    rows are physically dropped, ``storage=...`` re-encodes along the
    way (the hot-f8-to-cold-f4/int8 demotion) — then atomically
    publishes the new generation by replacing ``manifest.json``.  Peak
    memory is O(``block_rows``) on top of the labels: the store is
    mmap-loaded but its shards are only ever read in bounded buffered
    blocks (never mapped), written shards stream through a temp file,
    and each source shard's digest is verified before the generation
    can publish.  This is the disk front of the rewrite engine behind
    :meth:`ShardedSketchStore.compact`: the same rows, labels and int8
    step whichever front runs (routing centroids of shards longer than
    one block are summed block by block here, in one pass in memory).

    Readers are never broken: a store loaded (even ``mmap=True``, even
    mid-query) before the publish keeps serving its old generation —
    the previous generation's files are retained for exactly this
    reason, while generations older than that, and any crash orphans
    (staging dirs, published-but-unreferenced generations), are pruned.
    A long-running :class:`~repro.serving.server.SketchQueryServer`
    notices the manifest's new generation and hot-swaps.

    ``routing=True`` makes the rewrite *clustered*: rows are k-means
    clustered (``routing=N`` picks the cluster count; ``True`` means
    :func:`~repro.serving.routing.default_cluster_count`) and written
    cluster-by-cluster with sealed shard boundaries between clusters,
    and the generation is published with a centroid routing table the
    query plane uses for sub-linear shard selection (see
    :mod:`repro.serving.routing`).  Still O(block) memory: one extra
    streaming pass per cluster plus two per staged shard.  The default
    ``None`` keeps the order-preserving rewrite — which also drops any
    existing routing entry, since the layout it described is gone.

    Returns a summary dict (``generation``, ``rows``,
    ``tombstones_dropped``, ``shards``, ``storage``, ``routing``,
    ``pruned``).
    """
    root = Path(path)
    previous = read_manifest(root).get("shards_dir", "")
    pruned = _clean_orphans(root, previous)
    source = ShardedSketchStore.load(root, mmap=True)
    spec = source.storage if storage is None else StorageSpec.parse(storage)
    clusters = _cluster_count(routing, source.live_row_count, source.shard_capacity)
    generation = source.generation + 1
    gen_name = _GENERATION_PATTERN.format(generation)
    staging = _fresh_dir(root / f".{gen_name}.staging-{os.getpid()}")
    try:
        roller, table = _rewrite(
            source._pairs(),
            source.metadata,
            spec,
            source.shard_capacity,
            staging=staging,
            block_rows=block_rows,
            clusters=clusters,
            seed=routing_seed,
            generation=generation,
        )
        extra = {} if table is None else {"routing": _write_routing(staging, table)}
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    os.replace(staging, root / gen_name)
    _publish_manifest(
        root,
        _manifest(
            source.metadata, spec, roller, generation, shards_dir=gen_name, **extra
        ),
    )
    # prune everything older than {new, previous}: readers attached to
    # the just-replaced generation may still be lazily mapping its files
    for gen_dir in _generation_dirs(root):
        if gen_dir.name not in (gen_name, previous):
            shutil.rmtree(gen_dir, ignore_errors=True)
            pruned.append(gen_dir.name)
    if previous:
        # the previous generation was itself a gen dir, so any flat
        # shard files at the root are at least two generations stale
        for stale in root.glob("shard-*.skb"):
            stale.unlink()
            pruned.append(stale.name)
    return {
        "path": os.fspath(root),
        "generation": generation,
        "rows": roller.n_rows,
        "tombstones_dropped": len(source.tombstones),
        "shards": len(roller.shards),
        "storage": spec.name,
        "routing": clusters,
        "pruned": pruned,
    }


def _manifest(template, spec, roller, generation: int, **extra) -> dict:
    """The manifest of a rewrite's output shards."""
    return {
        "manifest_version": _MANIFEST_VERSION,
        "shard_capacity": roller.capacity,
        "n_shards": len(roller.shards),
        "n_rows": roller.n_rows,
        "storage": spec.name,
        "config_digest": template.config_digest,
        "generation": generation,
        **extra,
    }


def _publish_manifest(root: Path, manifest: dict) -> None:
    """Atomically replace the store's manifest (tmp file + rename)."""
    tmp = root / f".{_MANIFEST_NAME}.tmp-{os.getpid()}"
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    os.replace(tmp, root / _MANIFEST_NAME)


def merge_stores(
    *sources: str | os.PathLike,
    dest: str | os.PathLike,
    storage: StorageSpec | str | None = None,
    shard_capacity: int | None = None,
    block_rows: int = DEFAULT_BLOCK_ROWS,
) -> dict:
    """Fuse on-disk stores into a new store directory, disk-to-disk.

    The directory-to-directory front of :meth:`ShardedSketchStore.merge`,
    over the same rewrite engine: rows keep their per-store order,
    stores concatenate in argument order, tombstoned rows are dropped on
    the way through, and nothing larger than one block of rows is ever
    held in memory (the sources are mmap-loaded, but read in buffered
    blocks).  The same storage rule applies — mixing specs is rejected
    with the specs named unless ``storage=...`` re-encodes everything —
    and all sources must share one public configuration.  ``dest`` is
    written with the save path's staging-then-swap idiom, so a crash
    never leaves a partial store there.
    """
    if not sources:
        raise ValueError("merge_stores needs at least one source store")
    roots = [Path(source) for source in sources]
    template, spec, capacity, pairs = _merge_sources(
        [ShardedSketchStore.load(root, mmap=True) for root in roots],
        storage,
        shard_capacity,
    )
    dest_root = Path(dest)
    staging = _fresh_dir(
        dest_root.with_name(f".{dest_root.name}.saving-{os.getpid()}")
    )
    try:
        roller, _ = _rewrite(
            pairs, template, spec, capacity, staging=staging, block_rows=block_rows
        )
        _publish_manifest(staging, _manifest(template, spec, roller, 0))
        _swap_into_place(staging, dest_root)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    return {
        "path": os.fspath(dest_root),
        "rows": roller.n_rows,
        "shards": len(roller.shards),
        "storage": spec.name,
        "sources": [os.fspath(root) for root in roots],
    }


@dataclasses.dataclass(frozen=True)
class MaintenancePolicy:
    """When, and into what, an on-disk store should be compacted.

    The tiering rule: stores are *written* hot (full-precision ``f8``
    appends, tombstones accumulating) and *read* cold (compact,
    optionally quantised, tombstone-free).  :meth:`plan` looks at a
    store's manifest plus its on-disk byte size and answers with the
    ``compact_store`` keyword arguments that would restore health, or
    ``None`` when the store is already healthy:

    * ``min_tombstones`` — compact once at least this many rows are
      tombstoned (they cost scan time and disk until dropped).
    * ``max_partial_shards`` — compact when the shard count exceeds the
      minimum needed for the row count by more than this (partial
      shards accumulate as appended batches straddle capacity).
    * ``cold_rows`` / ``cold_bytes`` — demote a hot-tier store to
      ``cold_storage`` once it holds at least this many rows / bytes
      (``None`` disables the threshold; demotion triggers only from
      the hot spec, so an already-cold store is not re-encoded again).
    * ``routed`` — make every compaction a *clustered* rewrite
      (``compact_store(..., routing=True)``), so the store always
      carries a fresh centroid routing table.  A store whose manifest
      already has routing is re-clustered on compaction regardless, so
      maintenance never silently strips an operator-built table.

    A manifest that carries routing is exempt from the partial-shard
    trigger: a clustered layout legitimately ends every cluster on a
    partial shard, and "repacking" those would just tear the clustering
    down and rebuild it forever.

    Pure function of observable state — the policy itself never touches
    the store, so it is trivially testable and safe to evaluate from
    any thread.
    """

    cold_storage: str = "f4"
    hot_storage: str = "f8"
    min_tombstones: int = 1
    max_partial_shards: int = 1
    cold_rows: int | None = None
    cold_bytes: int | None = None
    routed: bool = False

    def plan(self, manifest: dict, *, nbytes: int | None = None) -> dict | None:
        """The ``compact_store`` kwargs this store needs, or ``None``."""
        rows = manifest["n_rows"]
        tombstones = len(manifest.get("tombstones", ()))
        capacity = manifest["shard_capacity"]
        current = manifest.get("storage", "f8")
        has_routing = bool(manifest.get("routing"))
        reasons = []
        if tombstones >= self.min_tombstones > 0:
            reasons.append(f"{tombstones} tombstoned rows")
        min_shards = max(1, -(-(rows - tombstones) // capacity))
        if (
            manifest["n_shards"] > min_shards + self.max_partial_shards - 1
            and not has_routing
        ):
            reasons.append(
                f"{manifest['n_shards']} shards for {rows} rows "
                f"(minimum {min_shards})"
            )
        demote = current == self.hot_storage and (
            (self.cold_rows is not None and rows >= self.cold_rows)
            or (
                self.cold_bytes is not None
                and nbytes is not None
                and nbytes >= self.cold_bytes
            )
        )
        if demote:
            reasons.append(f"demote {current} -> {self.cold_storage}")
        if not reasons:
            return None
        return {
            "storage": self.cold_storage if demote else None,
            "routing": True if (self.routed or has_routing) else None,
            "reason": "; ".join(reasons),
        }


def _store_nbytes(root: Path, manifest: dict) -> int:
    shard_dir = root / manifest.get("shards_dir", "")
    return sum(
        (shard_dir / _SHARD_PATTERN.format(i)).stat().st_size
        for i in range(manifest["n_shards"])
    )


class StoreMaintainer:
    """Runs a :class:`MaintenancePolicy` over a store dir, in background.

    Between queries — the thread sleeps ``interval`` seconds, wakes,
    reads the manifest, asks the policy, and calls
    :func:`compact_store` when the policy says so.  Everything happens
    disk-to-disk in this process; serving processes watching the
    manifest (``SketchQueryServer(watch_interval=...)``) pick the new
    generation up live.  One maintainer per store directory — the
    generational publish is not multi-writer safe (the usual one-writer
    contract of the store).

    Errors are recorded on :attr:`last_error` and the loop keeps going:
    a transient failure (say, disk full) must not kill maintenance
    forever.  :attr:`history` keeps each completed action's summary.
    Use as a context manager, or :meth:`close` explicitly.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        policy: MaintenancePolicy | None = None,
        *,
        interval: float = 5.0,
        block_rows: int = DEFAULT_BLOCK_ROWS,
    ) -> None:
        self.path = Path(path)
        self.policy = MaintenancePolicy() if policy is None else policy
        self.interval = float(interval)
        self.block_rows = block_rows
        self.history: list[dict] = []
        self.last_error: Exception | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def run_once(self) -> dict | None:
        """One policy evaluation; compacts if needed, returns the summary."""
        manifest = read_manifest(self.path)
        action = self.policy.plan(
            manifest, nbytes=_store_nbytes(self.path, manifest)
        )
        if action is None:
            return None
        summary = compact_store(
            self.path,
            storage=action["storage"],
            routing=action.get("routing"),
            block_rows=self.block_rows,
        )
        summary["reason"] = action["reason"]
        summary["at"] = time.time()
        self.history.append(summary)
        return summary

    def rebuild_routing(
        self, clusters: bool | int = True, *, seed: int = 0
    ) -> dict:
        """Force a clustered rewrite now, refreshing the routing table.

        The recovery path after appends or deletes have invalidated a
        store's routing (the query plane falls back to unrouted scans
        until the table matches the layout again): one
        :func:`compact_store` call with ``routing=clusters``, recorded
        in :attr:`history` like any policy-driven action.
        """
        summary = compact_store(
            self.path,
            routing=clusters,
            routing_seed=seed,
            block_rows=self.block_rows,
        )
        summary["reason"] = "rebuild routing"
        summary["at"] = time.time()
        self.history.append(summary)
        return summary

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.run_once()
                self.last_error = None
            except Exception as exc:  # keep maintaining despite transient errors
                self.last_error = exc

    def start(self) -> "StoreMaintainer":
        if self._thread is not None:
            raise RuntimeError("maintainer already started")
        self._thread = threading.Thread(
            target=self._loop, name="repro-maintainer", daemon=True
        )
        self._thread.start()
        return self

    def close(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None

    def __enter__(self) -> "StoreMaintainer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
