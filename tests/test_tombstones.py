"""Tombstone deletion: invisibility, bit-identity, persistence, physical drop.

``ShardedSketchStore.delete`` marks rows dead without touching the
published values (PR 7's LSM tentpole).  The contracts under test:

* deleted rows vanish from every query kind, and the *survivors'*
  estimates are bit-identical to what they were before the deletion —
  distance blocks still run over the full shard, dead entries are
  discarded after the GEMM, so no float changes;
* tombstones persist through ``save``/``load`` via the manifest;
* ``compact()`` physically drops the rows (labels included), clears
  the tombstone set and bumps the generation;
* ``merge()`` skips tombstoned rows on the way through.

Deletion never refunds privacy budget — the DP argument lives in the
:mod:`repro.serving.store` module docstring; here we only check the
accounting surface (``live_row_count``, ``describe``) tells the truth.
"""

import json

import numpy as np
import pytest

from repro.core.sketch import PrivateSketcher, SketchConfig
from repro.serving import (
    CrossQuery,
    DistanceService,
    NormsQuery,
    PairwiseQuery,
    RadiusQuery,
    ShardedSketchStore,
    TopKQuery,
)
from repro.serving.serialization import SerializationError
from tests.helpers import scan_jitter_atol

_CONFIG = SketchConfig(input_dim=64, epsilon=8.0, output_dim=32, sparsity=4, seed=7)


def _sketcher():
    return PrivateSketcher(_CONFIG)


def _batch(sk, n, seed, labels=()):
    rng = np.random.default_rng(seed)
    return sk.sketch_batch(rng.standard_normal((n, 64)), noise_rng=seed, labels=labels)


def _store(n=14, shard_capacity=4, seed=1):
    sk = _sketcher()
    store = ShardedSketchStore(shard_capacity=shard_capacity)
    store.add_batch(_batch(sk, n, seed, labels=tuple(f"row-{i}" for i in range(n))))
    return store, sk


def _stacked(store):
    return np.concatenate([store.shard_values(i) for i in range(store.n_shards)])


class TestDeleteSemantics:
    def test_a_single_string_label_is_one_label_not_an_iterable(self):
        store, _ = _store()
        assert store.delete("row-3") == 1
        assert store.tombstones == (3,)

    def test_an_iterable_tombstones_every_named_row(self):
        store, _ = _store()
        assert store.delete(["row-1", "row-5", "row-13"]) == 3
        assert store.tombstones == (1, 5, 13)

    def test_unknown_labels_raise_keyerror_naming_them(self):
        store, _ = _store()
        with pytest.raises(KeyError, match="row-99"):
            store.delete(["row-2", "row-99"])
        # the failed call tombstoned nothing: missing labels are
        # detected before any mutation
        assert store.tombstones == ()

    def test_redeleting_is_a_noop_counting_only_new_rows(self):
        store, _ = _store()
        assert store.delete("row-4") == 1
        assert store.delete(["row-4", "row-6"]) == 1
        assert store.tombstones == (4, 6)

    def test_duplicate_labels_tombstone_all_their_rows(self):
        sk = _sketcher()
        store = ShardedSketchStore(shard_capacity=4)
        store.add_batch(_batch(sk, 3, 9, labels=("dup", "dup", "solo")))
        assert store.delete("dup") == 2
        assert store.tombstones == (0, 1)

    def test_empty_iterable_deletes_nothing(self):
        store, _ = _store()
        assert store.delete([]) == 0
        assert store.tombstones == ()

    def test_accounting_surface_reports_live_rows(self):
        store, _ = _store(n=10)
        store.delete(["row-0", "row-9"])
        assert len(store) == 10  # physical rows, unchanged
        assert store.live_row_count == 8
        assert store.describe()["tombstones"] == 2


class TestQueryInvisibility:
    """Survivor estimates are bit-identical before and after delete."""

    DEAD = ["row-2", "row-5", "row-13"]

    @pytest.fixture()
    def setup(self):
        store, sk = _store(n=14)
        service = DistanceService(store)
        queries = _batch(sk, 3, 2)
        return store, service, queries

    def _live(self, store):
        return np.delete(np.arange(len(store)), list(store.tombstones))

    def test_cross_matrix_drops_exactly_the_dead_columns(self, setup):
        store, service, queries = setup
        before = service.execute(CrossQuery(queries=queries)).payload
        store.delete(self.DEAD)
        after = service.execute(CrossQuery(queries=queries)).payload
        np.testing.assert_array_equal(after, before[:, self._live(store)])

    def test_norms_drop_exactly_the_dead_entries(self, setup):
        store, service, _ = setup
        before = service.execute(NormsQuery()).payload
        store.delete(self.DEAD)
        after = service.execute(NormsQuery()).payload
        np.testing.assert_array_equal(after, before[self._live(store)])

    def test_top_k_is_the_old_ranking_minus_the_dead(self, setup):
        store, service, queries = setup
        before = service.execute(TopKQuery(queries=queries, k=len(store))).payload
        store.delete(self.DEAD)
        live = store.live_row_count
        after = service.execute(TopKQuery(queries=queries, k=live)).payload
        dead = set(self.DEAD)
        for old, new in zip(before, after):
            survivors = [pair for pair in old if pair[0] not in dead]
            assert new == survivors  # labels AND estimates, bit-exact

    def test_radius_is_the_old_hit_list_minus_the_dead(self, setup):
        store, service, queries = setup
        radius_sq = 1e9  # everything is a hit; ordering carries the signal
        before = service.execute(
            RadiusQuery(query=queries[0], radius_sq=radius_sq)
        ).payload
        store.delete(self.DEAD)
        after = service.execute(
            RadiusQuery(query=queries[0], radius_sq=radius_sq)
        ).payload
        dead = set(self.DEAD)
        assert after == [pair for pair in before if pair[0] not in dead]

    def test_pairwise_renumbers_over_the_live_sequence(self, setup):
        # pairwise *gathers* the addressed rows into a fresh matrix, so
        # the post-delete GEMM runs at a different shape — that is scan
        # jitter (ulp-level), not the masked-scan bit-identity the
        # other kinds get
        store, service, _ = setup
        n = len(store)
        before = service.execute(PairwiseQuery(indices=range(n))).payload
        store.delete(self.DEAD)
        live = self._live(store)
        after = service.execute(
            PairwiseQuery(indices=range(store.live_row_count))
        ).payload
        rows = _stacked(store)[live]
        atol = scan_jitter_atol(store, rows, rows)
        np.testing.assert_allclose(
            after, before[np.ix_(live, live)], atol=atol, rtol=0.0
        )

    def test_pairwise_indices_range_shrinks_to_live_rows(self, setup):
        store, service, _ = setup
        store.delete(self.DEAD)
        with pytest.raises(IndexError, match="out of range"):
            service.execute(PairwiseQuery(indices=[store.live_row_count]))


class TestPersistence:
    def test_tombstones_survive_save_load(self, tmp_path):
        store, _ = _store()
        store.delete(["row-3", "row-7"])
        store.save(tmp_path / "store")
        manifest = json.loads((tmp_path / "store" / "manifest.json").read_text())
        assert manifest["tombstones"] == [3, 7]
        for mmap in (False, True):
            loaded = ShardedSketchStore.load(tmp_path / "store", mmap=mmap)
            assert loaded.tombstones == (3, 7)
            assert loaded.live_row_count == store.live_row_count
            assert loaded.labels == store.labels

    def test_a_clean_store_writes_no_tombstone_key(self, tmp_path):
        store, _ = _store()
        store.save(tmp_path / "store")
        manifest = json.loads((tmp_path / "store" / "manifest.json").read_text())
        assert "tombstones" not in manifest

    def test_out_of_range_manifest_tombstones_are_rejected(self, tmp_path):
        store, _ = _store()
        store.save(tmp_path / "store")
        path = tmp_path / "store" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["tombstones"] = [999]
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="tombstones"):
            ShardedSketchStore.load(tmp_path / "store")

    def test_saved_tombstones_are_invisible_after_reload(self, tmp_path):
        store, sk = _store()
        queries = _batch(sk, 2, 3)
        before = DistanceService(store).execute(CrossQuery(queries=queries)).payload
        store.delete(["row-0", "row-11"])
        store.save(tmp_path / "store")
        loaded = ShardedSketchStore.load(tmp_path / "store", mmap=True)
        after = DistanceService(loaded).execute(CrossQuery(queries=queries)).payload
        live = np.delete(np.arange(len(store)), [0, 11])
        np.testing.assert_array_equal(after, before[:, live])


class TestCompactDropsTombstones:
    def test_compact_drops_rows_labels_and_clears_tombstones(self):
        store, _ = _store(n=14)
        survivors = _stacked(store)
        store.delete(["row-2", "row-5", "row-13"])
        survivors = np.delete(survivors, [2, 5, 13], axis=0)
        assert store.generation == 0
        store.compact()
        assert store.generation == 1
        assert store.tombstones == ()
        assert len(store) == store.live_row_count == 11
        assert "row-2" not in store.labels and "row-13" not in store.labels
        np.testing.assert_array_equal(_stacked(store), survivors)

    def test_survivor_results_match_across_the_compaction(self):
        # physical repacking shifts shard membership, so the GEMM edge
        # kernels may differ by an ulp — scan_jitter_atol, not exact
        store, sk = _store(n=14)
        service = DistanceService(store)
        queries = _batch(sk, 3, 4)
        store.delete(["row-2", "row-5", "row-13"])
        before = service.execute(CrossQuery(queries=queries)).payload
        stored = _stacked(store)
        store.compact()
        after = service.execute(CrossQuery(queries=queries)).payload
        atol = scan_jitter_atol(store, queries.values, stored)
        np.testing.assert_allclose(after, before, atol=atol, rtol=0.0)
        ranked = service.execute(TopKQuery(queries=queries, k=3)).payload
        assert all(len(r) == 3 for r in ranked)

    @pytest.mark.parametrize("kwargs", [{}, {"storage": "int8", "routing": True}])
    def test_a_failed_compact_leaves_the_store_unchanged(self, tmp_path, kwargs):
        store, sk = _store(n=40, shard_capacity=8)
        store.delete(["row-3", "row-21"])
        store.save(tmp_path / "s")
        shard = tmp_path / "s" / "shard-00002.skb"
        blob = bytearray(shard.read_bytes())
        blob[-1] ^= 0xFF  # a values byte: only the streamed digest notices
        shard.write_bytes(bytes(blob))
        loaded = ShardedSketchStore.load(tmp_path / "s", mmap=True)
        service = DistanceService(loaded)
        queries = _batch(sk, 3, 4)
        before = service.execute(CrossQuery(queries=queries)).payload
        storage, labels = loaded.storage, loaded.labels
        with pytest.raises(SerializationError, match="digest"):
            loaded.compact(**kwargs)
        assert len(loaded) == 40 and loaded.live_row_count == 38
        assert loaded.tombstones == (3, 21)
        assert loaded.generation == 0
        assert loaded.storage == storage and loaded.labels == labels
        after = service.execute(CrossQuery(queries=queries)).payload
        np.testing.assert_array_equal(after, before)

    def test_merge_skips_tombstoned_rows(self):
        sk = _sketcher()
        a = ShardedSketchStore(shard_capacity=4)
        a.add_batch(_batch(sk, 6, 1, labels=tuple(f"a-{i}" for i in range(6))))
        b = ShardedSketchStore(shard_capacity=4)
        b.add_batch(_batch(sk, 5, 2, labels=tuple(f"b-{i}" for i in range(5))))
        expect = np.concatenate(
            [
                np.delete(_stacked(a), [1, 4], axis=0),
                np.delete(_stacked(b), [0], axis=0),
            ]
        )
        a.delete(["a-1", "a-4"])
        b.delete("b-0")
        merged = ShardedSketchStore.merge(a, b)
        assert merged.tombstones == ()
        assert len(merged) == 8
        assert list(merged.labels) == [
            "a-0", "a-2", "a-3", "a-5", "b-1", "b-2", "b-3", "b-4",
        ]
        np.testing.assert_array_equal(_stacked(merged), expect)
