"""The ``release_maintain`` workload: the data owner's and operator's write side.

Runs in the benchmark process.  Each pass releases 2^17 rows at d=1024
from a fixed mixture into two stores in 8192-row ``sketch_batch``
chunks, saves both, merges them with ``merge_stores``, tombstones every
20th label, compacts to f4, compacts again with ``routing=True``, and
ends with a local check: every 4th exact-routed top-10 answer must equal
an unrouted scan bit for bit, and ``nprobe`` answers are scored against
the exact ones.
"""

from __future__ import annotations

import dataclasses
import resource
import shutil
import statistics
import time
import traceback
from pathlib import Path

from e2ebench import common, stats, tracing

DIM = 1024
ROWS = 2**17
#: check queries per pass, each timed exact-routed and with nprobe: three
#: passes give 4800 latencies, so the p99 has 48 samples beyond it
QUERIES = 800
CHECK_EVERY = 4  # every 4th query is also compared with an unrouted scan
NPROBE = 4
#: 8192-row shards: ``routing=True`` then builds 16 clusters over the
#: 32-centre mixture, so ``nprobe`` has shards to choose among
CAPACITY = 8192
#: query time varies about 10% from pass to pass within a run; a third
#: pass narrows the run-to-run spread of every timing
MIN_PASSES = 3
#: ``dist_rel_err`` scores the pairs whose row lies in every 4th chunk.
#: Rows are drawn independently, so this is an unbiased quarter of the
#: pairs, and the benchmark regenerates 4 chunks a pass instead of 16.
ERR_CHUNK_EVERY = 4
#: set-up is repeated until this much time is spent (a deployment takes
#: about 0.15 s) and at least ``MIN_SETUPS`` times; ``setup_s`` is the median
SETUP_BUDGET_S = 2.0
MIN_SETUPS = 5
CENTRES_SEED = 1024
T_SETUP, T_PASS, T_QUERY = 21, 100, 5000  # input-set tags


@dataclasses.dataclass
class Totals(common.WriteTotals):
    """The write-side counters plus the check step's queries.

    ``attempted`` counts every program call of the window: release
    chunks, merges, compactions and check queries.
    """

    latencies: list = dataclasses.field(default_factory=list)  # ms; a failed call is inf
    query_cpu_s: float = 0.0
    recalls: list = dataclasses.field(default_factory=list)
    answered: list = dataclasses.field(default_factory=list)  # (source, raw, ranking)
    attempted: int = 0
    failed: int = 0
    store_bytes_per_row: float = 0.0


class ReleaseMaintain:
    def __init__(self, seed: int, seconds: float, trace: bool, work: Path, tracer) -> None:
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.work, self.tracer = work, tracer
        self.centres = common.mixture_centres(DIM, CENTRES_SEED)

    def setup_once(self, rep: int) -> float:
        """Sketcher, a one-chunk release, save, mmap load, first correct answer."""
        from repro.serving import DistanceService, ShardedSketchStore
        from repro.serving.queries import TopKQuery

        source = common.RowSource(self.seed, T_SETUP, DIM, common.CHUNK, self.centres)
        store_dir = self.work / f"setup{rep}"
        t0 = time.perf_counter()
        sk = common.sketcher(DIM)
        store = ShardedSketchStore()
        _, generation = source.release(sk, store, range(source.n_chunks))
        store.save(store_dir)
        served = DistanceService(ShardedSketchStore.load(store_dir, mmap=True))
        stream = common.QueryStream(sk, self.tracer, self.seed, T_SETUP, DIM, self.centres, block=1)
        query = TopKQuery(stream.get(0)[0], k=10)
        payload = served.execute(query).payload
        setup = time.perf_counter() - t0 - generation
        with self.tracer.paused():
            reference = DistanceService(store).execute(query).payload
        if payload != reference:
            raise common.Failure("first answer differs between the saved and the in-memory store")
        shutil.rmtree(store_dir)
        self.sk = sk
        return setup

    def one_pass(self, p: int, totals: Totals, chunks=None, queries: int = QUERIES) -> None:
        root = self.work / f"pass{p}"
        try:
            self._pass(p, root, totals, chunks, queries)
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def _pass(self, p: int, root: Path, totals: Totals, chunks, queries: int) -> None:
        from repro.serving import DistanceService, ExecutionPolicy, ShardedSketchStore, maintenance
        from repro.serving.queries import RoutingSpec, TopKQuery

        source = common.RowSource(self.seed, T_PASS + p, DIM, ROWS, self.centres)
        chunks = range(source.n_chunks) if chunks is None else chunks
        stores = [ShardedSketchStore(shard_capacity=CAPACITY), ShardedSketchStore(shard_capacity=CAPACITY)]
        for c in chunks:
            totals.release(source, self.sk, stores[c % 2], chunks=[c])
            totals.attempted += 1
        halves = [root / "a", root / "b"]
        for store, path in zip(stores, halves):
            store.save(path)
        del stores
        merged = root / "merged"
        written = totals.rewrite(merged, 8, maintenance.merge_stores, *halves, dest=merged)
        totals.attempted += 1
        if written != len(chunks) * common.CHUNK:
            raise common.Failure(f"merge_stores wrote {written} rows, expected {len(chunks) * common.CHUNK}")
        store = ShardedSketchStore.load(merged)
        doomed = [label for label in store.labels if label % 20 == 0]
        store.delete(doomed)
        store.save(merged)
        del store
        live = written - len(doomed)
        for kwargs in ({"storage": "f4"}, {"routing": True}):
            rows = totals.rewrite(merged, 4, maintenance.compact_store, merged, **kwargs)
            totals.attempted += 1
            if rows != live:
                raise common.Failure(f"compact_store({kwargs}) kept {rows} rows, expected {live}")
        totals.store_bytes_per_row = common.served_bytes(merged) / live
        common.settle_disk(root)
        served = DistanceService(ShardedSketchStore.load(merged, mmap=True))
        unrouted = DistanceService(
            served.store, policy=dataclasses.replace(ExecutionPolicy.from_env(), routing=False)
        )
        stream = common.QueryStream(self.sk, self.tracer, self.seed, T_QUERY + p, DIM, self.centres)
        with self.tracer.paused():
            # map every page of the fresh generation before anything is timed
            unrouted.execute(TopKQuery(stream.get(queries)[0], k=10))
        for q in range(queries):
            sketch, raw = stream.get(q)
            exact = self._query(totals, served, TopKQuery(sketch, k=10))
            probed = self._query(totals, served, TopKQuery(sketch, k=10, routing=RoutingSpec(nprobe=NPROBE)))
            if exact is None or probed is None:
                continue
            if q % CHECK_EVERY == 0:
                with self.tracer.paused():
                    scanned = unrouted.execute(TopKQuery(sketch, k=10)).payload
                if exact != scanned:
                    raise common.Failure("exact-routed top-10 differs from the unrouted scan")
            truth = {label for label, _ in exact[0]}
            totals.recalls.append(len(truth & {label for label, _ in probed[0]}) / len(truth))
            totals.answered.append((source, raw, exact[0]))

    @staticmethod
    def _query(totals: Totals, service, query):
        """One timed check-step ``execute``; its payload, or ``None`` if it raised."""
        totals.attempted += 1
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            payload = service.execute(query).payload
        except Exception as exc:  # noqa: BLE001 - a failed call is data
            common.log(f"check query failed: {exc!r}")
            traceback.print_exc()
            totals.latencies.append(float("inf"))
            totals.failed += 1
            return None
        totals.latencies.append((time.perf_counter() - t0) * 1e3)
        totals.query_cpu_s += time.process_time() - c0
        return payload

    def _passes(self, first: int, count: int | None, totals: Totals) -> None:
        """Run passes into ``totals``: ``count`` of them, or until the window is used.

        A pass in which a program call raises (anything but a failed
        check) counts that call as attempted and failed, and ends early.
        """
        start = time.perf_counter()
        done = 0
        while True:
            try:
                self.one_pass(first + done, totals)
            except common.Failure:
                raise
            except Exception as exc:  # noqa: BLE001 - a failed call is data
                common.log(f"pass {first + done} failed: {exc!r}")
                traceback.print_exc()
                totals.attempted += 1
                totals.failed += 1
            done += 1
            if count is not None:
                if done == count:
                    return
            elif done >= MIN_PASSES and (time.perf_counter() - start) * (done + 1) / done > self.seconds:
                return

    def run(self) -> dict:
        self.tracer.enabled = self.trace
        setups = [self.setup_once(0)]
        start = time.perf_counter()
        while not self.trace and (len(setups) < MIN_SETUPS or time.perf_counter() - start < SETUP_BUDGET_S):
            setups.append(self.setup_once(len(setups)))
        self.tracer.enabled = False
        # warm-up: one small pass through every step
        self.one_pass(-1, Totals(), chunks=range(2), queries=4)
        if self.trace:
            return self._traced()
        totals = Totals()
        self._passes(0, None, totals)
        self.attempted, self.failed = totals.attempted, totals.failed
        lat = totals.latencies
        answered = [x for x in lat if x != float("inf")]
        # before the benchmark regenerates rows for its own error check
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {
            "setup_s": statistics.median(setups),
            "qps": len(answered) / (sum(answered) / 1e3),
            "p50_ms": stats.nearest_rank(lat, 50),
            "p99_ms": stats.tail_percentile(lat, 99),
            "ok_frac": stats.ok_frac(totals.attempted - totals.failed, totals.attempted),
            "cpu_ms_per_query": totals.query_cpu_s * 1e3 / len(answered),
            "recall_at_10": statistics.mean(totals.recalls),
            "dist_rel_err": self._rel_err(totals),
            "release_rows_per_s": totals.release_rows / totals.release_s,
            "compact_rows_per_s": totals.compact_rows / totals.compact_s,
            "peak_rss_mb": peak_rss_mb,
            "store_bytes_per_row": totals.store_bytes_per_row,
            "samples": len(lat),
        }

    @staticmethod
    def _rel_err(totals: Totals) -> float:
        """Median relative error over the exact top-10 answers of the window.

        Only pairs whose row lies in every ``ERR_CHUNK_EVERY``-th chunk count.
        """
        errs = []
        by_source: dict = {}
        for source, raw, ranking in totals.answered:
            kept = [(label, est) for label, est in ranking if label // common.CHUNK % ERR_CHUNK_EVERY == 0]
            by_source.setdefault(id(source), (source, []))[1].append((raw, kept))
        for source, items in by_source.values():
            rows = source.rows_for([label for _, ranking in items for label, _ in ranking])
            errs.extend(e for raw, ranking in items for e in common.rel_errors(raw, ranking, rows))
        return statistics.median(errs)

    def _traced(self) -> dict:
        plain = Totals()
        t0 = time.perf_counter()
        self._passes(0, 1, plain)
        plain_s = time.perf_counter() - t0
        self.tracer.enabled = True
        traced = Totals()
        t0 = time.perf_counter()
        self._passes(1, 1, traced)
        traced_s = time.perf_counter() - t0
        self.tracer.enabled = False
        self.attempted = plain.attempted + traced.attempted
        self.failed = plain.failed + traced.failed
        counters = {
            "server.threads": 0,
            "cache.hit_ratio": 0.0,
            "client.connections_per_request": 0.0,
            "client.retries": 0,
            "maintenance.bytes_written_per_live_byte": traced.bytes_written / traced.live_bytes,
            # the same work both times, so throughput compares as time
            "trace.overhead_pct": 100.0 * (1.0 - plain_s / traced_s),
        }
        return tracing.layer_metrics(tracing.SpanSet([("bench", self.tracer.spans)]), "front", counters)
