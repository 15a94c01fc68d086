"""The two serving workloads: closed-loop analysts against launched servers.

``topk_flat`` serves one flat 2^18-row store from one stock server;
``routed_fleet`` serves a router front over two cached, routed backends.
Both deploy ``SETUP_REPS`` times (median set-up time), warm up, then
measure one long window with ``ANALYSTS`` closed-loop client threads,
each holding one keep-alive connection to the front server.  After the
window a seeded sample of the served answers is replayed locally and
must match bit for bit.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

import numpy as np

from e2ebench import common, procs, stats, tracing

#: deployments per run; set-up time is their median (two keep the run short)
SETUP_REPS = 2
WARMUP_S = 1.0
ANALYSTS = min(2, os.cpu_count() or 1)
SERVE_PY = common.ROOT / "e2ebench" / "serve.py"
REPLAY = 64
RECALL_SAMPLE = 100
#: a p99 with at least ten samples beyond it needs 1000 samples
MIN_REQUESTS = 1000
#: a window stops growing towards ``min_requests`` here, so a slow
#: machine cannot stretch a run without bound
MAX_WINDOW_S = 55.0

FLAT_ROWS = 2**18
FLAT_DIM = 256
FLEET_ROWS = 2**16
#: shard capacities: 32 shards of 2048 rows let backend ``a``'s routing
#: table match its 32 mixture centres; uniform ``b`` gains nothing from
#: more clusters, so it keeps 16
FLEET_CAPACITY = {"a": 2048, "b": 4096}
FLEET_CACHE = 4096
HOT_POOL = 64
NPROBE = 4
FLEET_CENTRES_SEED = 32  # the fixed mixture of backend ``a``

# input-set tags (second word of every seed sequence)
T_FLAT, T_FLEET_A, T_FLEET_B = 1, 2, 3
T_QUERY, T_WARM, T_HOT, T_CAL, T_MIX, T_SAMPLE = 11, 12, 13, 14, 15, 16


@dataclasses.dataclass
class Request:
    kind: str
    query: object
    raw: np.ndarray
    start: float
    end: float
    ok: bool
    payload: object = None


def launch(mode: str, args: list[str], role: str, trace_dir: Path | None) -> procs.Launched:
    """Start one server: ``store`` (stock command line) or ``router`` (front).

    Untraced stores run the stock ``python -m repro.serving.server``;
    traced ones, and the router front, run ``serve.py``.
    """
    trace_out = None if trace_dir is None else str(trace_dir / f"{role}.json")
    if trace_out is None and mode == "store":
        argv = ["-m", "repro.serving.server", *args]
    else:
        argv = [str(SERVE_PY), mode]
        if trace_out is not None:
            argv += ["--trace-out", trace_out, "--role", role]
        argv += ["--", *args] if mode == "store" else args
    return procs.Launched([sys.executable, *argv], env=common.child_env(), cwd=str(common.ROOT), trace_out=trace_out)


def store_server(store_dir: Path, role: str, trace_dir, cache: int = 0) -> procs.Launched:
    args = ["--store", str(store_dir), "--port", "0"]
    if cache:
        args += ["--cache", str(cache)]
    return launch("store", args, role, trace_dir)


def router_server(urls, trace_dir) -> procs.Launched:
    return launch("router", [arg for url in urls for arg in ("--backend", url)], "front", trace_dir)


def closed_loop(clients, job, seconds: float, min_requests: int = 0) -> tuple[list[Request], float]:
    """One closed-loop analyst thread per client; returns (requests, wall seconds).

    The window lasts ``seconds``, and longer if needed until
    ``min_requests`` requests were sent, but never past ``MAX_WINDOW_S``.
    ``job(n)`` returns ``(kind, query, raw)`` for the ``n``-th request of
    the loop; a thread sends its next request only after its previous
    one was answered.
    """
    lock = threading.Lock()
    counter = iter(range(10**9))
    records: list[Request] = []
    start = time.perf_counter()
    deadline, cutoff = start + seconds, start + MAX_WINDOW_S

    def analyst(client) -> None:
        while True:
            with lock:
                n = next(counter)
                kind, query, raw = job(n)
            now = time.perf_counter()
            if now >= deadline and (n >= min_requests or now >= cutoff):
                return
            t0 = time.perf_counter()
            try:
                payload = client.execute(query).payload
            except Exception as exc:  # noqa: BLE001 - a failed request is data
                common.log(f"request failed: {exc!r}")
                records.append(Request(kind, query, raw, t0, time.perf_counter(), False))
                continue
            records.append(Request(kind, query, raw, t0, time.perf_counter(), True, payload))

    threads = [threading.Thread(target=analyst, args=(c,)) for c in clients]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    end = max((r.end for r in records), default=time.perf_counter())
    return records, end - start


def latency_metrics(records: list[Request], wall: float) -> dict:
    ok = sum(r.ok for r in records)
    lat = [(r.end - r.start) * 1e3 if r.ok else float("inf") for r in records]
    return {
        "qps": ok / wall,
        "p50_ms": stats.nearest_rank(lat, 50),
        "p99_ms": stats.tail_percentile(lat, 99),
        "ok_frac": stats.ok_frac(ok, len(records)),
        "samples": len(records),
    }


def _sample(records, n: int, seed: int, tag: int) -> list:
    if len(records) <= n:
        return list(records)
    picks = np.random.default_rng([seed, T_SAMPLE, tag]).choice(len(records), n, replace=False)
    return [records[i] for i in sorted(picks)]


class ServingWorkload:
    """Deploy, warm up, measure one window, check, and report."""

    min_requests = MIN_REQUESTS

    def __init__(self, seed: int, seconds: float, trace: bool, work: Path, tracer) -> None:
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.work = work
        self.tracer = tracer
        self.trace_dir = work / "spans" if trace else None
        if self.trace_dir is not None:
            self.trace_dir.mkdir(parents=True)
        self.servers: list[procs.Launched] = []
        self.setups: list[float] = []
        self.totals = common.WriteTotals()
        self.attempted = self.failed = 0

    # -- subclass hooks ---------------------------------------------------------
    def deploy(self, rep: int) -> float: ...
    def job(self, n: int, stream): ...
    def check(self, records: list[Request]) -> dict: ...
    def store_bytes_per_row(self) -> float: ...

    def prewarm(self, client) -> None:
        """Requests that must precede the warm-up window (none by default)."""

    # -- shared machinery -----------------------------------------------------------
    def stop_servers(self) -> list:
        dumps = [s.stop() for s in self.servers]
        self.servers = []
        return [d for d in dumps if d is not None]

    def compact(self, store_dir: Path, **kwargs) -> None:
        """One f8-to-f8 ``compact_store`` rewrite of ``store_dir``, timed."""
        from repro.serving import maintenance

        self.totals.rewrite(store_dir, 8, maintenance.compact_store, store_dir, **kwargs)

    def run(self) -> dict:
        reps = 1 if self.trace else SETUP_REPS
        self.tracer.enabled = self.trace
        for rep in range(reps):
            if rep:
                self.stop_servers()
                shutil.rmtree(self.work / f"rep{rep - 1}")
            self.setups.append(self.deploy(rep))
        self.tracer.enabled = False
        common.settle_disk(self.work)
        front = self.servers[-1]
        sampler = procs.TreeSampler([s.pid for s in self.servers]).start()
        from repro.serving import DistanceClient

        clients = [DistanceClient(front.url, pool_size=1) for _ in range(ANALYSTS)]
        self.prewarm(clients[0])
        warm = common.QueryStream(self.sk, self.tracer, self.seed, T_WARM, self.dim, self.query_centres)
        closed_loop(clients, lambda n: self.job(n, warm), WARMUP_S)
        if self.trace:
            return self._traced_window(sampler, clients)
        fresh = common.QueryStream(self.sk, self.tracer, self.seed, T_QUERY, self.dim, self.query_centres)
        cpu0 = sampler.cpu_seconds()
        records, wall = closed_loop(clients, lambda n: self.job(n, fresh), self.seconds, self.min_requests)
        cpu = sampler.cpu_seconds() - cpu0
        rss = sampler.vmhwm_mb()
        sampler.stop()
        self.stop_servers()
        metrics = latency_metrics(records, wall)
        self.attempted, self.failed = len(records), len(records) - sum(r.ok for r in records)
        metrics.update(self.check(records))
        answered = sum(r.ok for r in records)
        metrics.update(
            {
                "setup_s": statistics.median(self.setups),
                "cpu_ms_per_query": cpu * 1e3 / answered if answered else float("inf"),
                "release_rows_per_s": self.totals.release_rows / self.totals.release_s,
                "compact_rows_per_s": self.totals.compact_rows / self.totals.compact_s,
                "peak_rss_mb": rss,
                "store_bytes_per_row": self.store_bytes_per_row(),
            }
        )
        return metrics

    def _traced_window(self, sampler, clients) -> dict:
        half = self.seconds / 2.0
        fresh = common.QueryStream(self.sk, self.tracer, self.seed, T_QUERY, self.dim, self.query_centres)
        plain, plain_wall = closed_loop(clients, lambda n: self.job(n, fresh), half)
        cache0 = self.cache_counts()
        for server in self.servers:
            server.enable_tracing()
        self.tracer.enabled = True
        traced_stream = common.QueryStream(
            self.sk, self.tracer, self.seed, T_QUERY + 100, self.dim, self.query_centres
        )
        traced, traced_wall = closed_loop(clients, lambda n: self.job(n, traced_stream), half)
        self.tracer.enabled = False
        cache1 = self.cache_counts()
        sampler.stop()
        dumps = self.stop_servers()
        records = plain + traced
        self.attempted, self.failed = len(records), len(records) - sum(r.ok for r in records)
        self.check(records)
        hits = cache1[0] - cache0[0]
        lookups = hits + cache1[1] - cache0[1]
        qps_plain = sum(r.ok for r in plain) / plain_wall
        qps_traced = sum(r.ok for r in traced) / traced_wall
        counters = {
            "server.threads": sampler.peak_threads,
            "cache.hit_ratio": hits / lookups if lookups else 0.0,
            "client.connections_per_request": sum(c.connections_opened for c in clients)
            / max(1, sum(c.requests_sent for c in clients)),
            "client.retries": sum(c.retries_used for c in clients),
            "maintenance.bytes_written_per_live_byte": self.totals.bytes_written / self.totals.live_bytes,
            "trace.overhead_pct": 100.0 * (1.0 - qps_traced / qps_plain),
        }
        spanset = tracing.SpanSet([("bench", self.tracer.spans), *dumps])
        return tracing.layer_metrics(spanset, "front", counters)

    def cache_counts(self) -> tuple[int, int]:
        """(hits, misses) summed over every cached server's ``/healthz``."""
        from repro.serving import DistanceClient

        hits = misses = 0
        for server in self.servers:
            with DistanceClient(server.url) as client:
                cache = client.health().get("cache")
            if cache:
                hits += cache["hits"]
                misses += cache["misses"]
        return hits, misses

    def first_answer(self, url: str, query) -> object:
        """Poll the front until it answers ``query``; returns the payload."""
        from repro.serving import DistanceClient

        with DistanceClient(url, retries=0) as client:
            deadline = time.monotonic() + 60
            while True:
                try:
                    return client.execute(query).payload
                except ConnectionError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.01)

    def rel_err(self, records, rows_for) -> float:
        """Median relative error over every fresh top-k answer of the window."""
        fresh = [r for r in records if r.ok and r.kind not in ("radius", "hot")]
        rows = rows_for([label for r in fresh for label, _ in r.payload[0]])
        return statistics.median(e for r in fresh for e in common.rel_errors(r.raw, r.payload[0], rows))


class TopKFlat(ServingWorkload):
    """2^18 Gaussian rows, f8, one stock server; 90% top-10, 10% radius queries."""

    #: throughput here swings by tens of percent within seconds (the
    #: server's BLAS threads contend with its two request threads), so
    #: the window runs until 2000 requests to average over the swings
    #: (2700 measured no steadier and cost 10 s a run)
    min_requests = 2000

    dim = FLAT_DIM
    query_centres = None

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.sk = common.sketcher(FLAT_DIM)
        self.source = common.RowSource(self.seed, T_FLAT, FLAT_DIM, FLAT_ROWS)
        self.mix = np.random.default_rng([self.seed, T_MIX]).random(10**6)
        self.first_query = common.QueryStream(self.sk, self.tracer, self.seed, T_CAL, FLAT_DIM).get(0)[0]
        self.radius_sq = None

    def deploy(self, rep: int) -> float:
        from repro.serving import ShardedSketchStore
        from repro.serving.queries import TopKQuery

        store_dir = self.work / f"rep{rep}" / "store"
        t0 = time.perf_counter()
        store = ShardedSketchStore(storage="f8")
        generation = self.totals.release(self.source, self.sk, store, positional=True)
        store.save(store_dir)
        del store
        # the operator packs the saved store once: a same-spec f8 rewrite
        self.compact(store_dir)
        self.servers.append(store_server(store_dir, "front", self.trace_dir))
        payload = self.first_answer(self.servers[-1].url, TopKQuery(self.first_query, k=10))
        setup = time.perf_counter() - t0 - generation
        self.store_dir = store_dir
        with self.tracer.paused():
            self.local = self._local_service(store_dir)
            local = self.local.execute(TopKQuery(self.first_query, k=10)).payload
            common.require_equal("first answer", payload, local)
            if self.radius_sq is None:
                self.radius_sq = self._calibrate_radius()
        return setup

    @staticmethod
    def _local_service(store_dir):
        from repro.serving import DistanceService, ShardedSketchStore

        return DistanceService(ShardedSketchStore.load(store_dir, mmap=True))

    def _calibrate_radius(self) -> float:
        """A radius that holds about 100 rows: the median 100th-nearest estimate."""
        from repro.serving.queries import TopKQuery

        cal = common.QueryStream(self.sk, self.tracer, self.seed, T_CAL, FLAT_DIM, block=8)
        kth = [self.local.execute(TopKQuery(cal.get(i)[0], k=100)).payload[0][-1][1] for i in range(8)]
        return float(statistics.median(kth))

    def job(self, n: int, stream):
        from repro.serving.queries import RadiusQuery, TopKQuery

        sketch, raw = stream.get(n)
        if self.mix[n] < 0.1:
            return "radius", RadiusQuery(sketch, radius_sq=self.radius_sq), raw
        return "top_k", TopKQuery(sketch, k=10), raw

    def check(self, records) -> dict:
        served = [r for r in records if r.ok]
        recalls = []
        for r in _sample(served, REPLAY, self.seed, 1):
            local = self.local.execute(r.query).payload
            common.require_equal(f"replay {r.kind}", r.payload, local)
            if r.kind == "top_k":
                got = {label for label, _ in r.payload[0]}
                recalls.append(len(got & {label for label, _ in local[0]}) / len(local[0]))
        return {
            "recall_at_10": statistics.mean(recalls),
            "dist_rel_err": self.rel_err(served, self.source.rows_for),
        }

    def store_bytes_per_row(self) -> float:
        return common.served_bytes(self.store_dir) / FLAT_ROWS


class RoutedFleet(ServingWorkload):
    """Router front over two cached, routed backends: clustered ``a``, uniform ``b``."""

    dim = FLAT_DIM

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.sk = common.sketcher(FLAT_DIM)
        self.query_centres = common.mixture_centres(FLAT_DIM, FLEET_CENTRES_SEED)
        self.source_a = common.RowSource(self.seed, T_FLEET_A, FLAT_DIM, FLEET_ROWS, self.query_centres)
        self.source_b = common.RowSource(
            self.seed, T_FLEET_B, FLAT_DIM, FLEET_ROWS, first_label=FLEET_ROWS
        )
        rng = np.random.default_rng([self.seed, T_MIX])
        self.mix = rng.random(10**6)
        self.hot_pick = rng.integers(0, HOT_POOL, 10**6)
        self.hot = common.QueryStream(
            self.sk, self.tracer, self.seed, T_HOT, FLAT_DIM, self.query_centres, block=HOT_POOL
        )
        self.hot.get(HOT_POOL - 1)

    def deploy(self, rep: int) -> float:
        from repro.serving import ShardedSketchStore
        from repro.serving.queries import TopKQuery

        dirs = [self.work / f"rep{rep}" / name for name in ("a", "b")]
        t0 = time.perf_counter()
        generation = 0.0
        for source, store_dir, positional in zip((self.source_a, self.source_b), dirs, (True, False)):
            store = ShardedSketchStore(shard_capacity=FLEET_CAPACITY[store_dir.name], storage="f8")
            generation += self.totals.release(source, self.sk, store, positional=positional)
            store.save(store_dir)
            del store
            self.compact(store_dir, routing=True)
        backends = [
            store_server(d, f"backend-{d.name}", self.trace_dir, cache=FLEET_CACHE) for d in dirs
        ]
        self.servers.extend(backends)
        self.servers.append(router_server([b.url for b in backends], self.trace_dir))
        first = TopKQuery(self.hot.get(0)[0], k=10)
        payload = self.first_answer(self.servers[-1].url, first)
        setup = time.perf_counter() - t0 - generation
        self.dirs = dirs
        with self.tracer.paused():
            self.local, self.unrouted = self._local_routers(dirs)
            local = self.local.execute(first).payload
            common.require_equal("first answer", payload, local)
        return setup

    @staticmethod
    def _local_routers(dirs):
        from repro.serving import DistanceService, ExecutionPolicy, RouterService, ShardedSketchStore

        unrouted_policy = dataclasses.replace(ExecutionPolicy.from_env(), routing=False)
        stores = [ShardedSketchStore.load(d, mmap=True) for d in dirs]
        return (
            RouterService([DistanceService(s) for s in stores]),
            RouterService([DistanceService(s, policy=unrouted_policy) for s in stores]),
        )

    def prewarm(self, client) -> None:
        from repro.serving.queries import TopKQuery

        for h in range(HOT_POOL):
            client.execute(TopKQuery(self.hot.get(h)[0], k=10))

    def job(self, n: int, stream):
        from repro.serving.queries import RoutingSpec, TopKQuery

        u = self.mix[n]
        if u < 0.5:
            sketch, raw = self.hot.get(int(self.hot_pick[n]))
            return "hot", TopKQuery(sketch, k=10), raw
        sketch, raw = stream.get(n)
        if u < 0.85:
            return "exact", TopKQuery(sketch, k=10), raw
        return "nprobe", TopKQuery(sketch, k=10, routing=RoutingSpec(nprobe=NPROBE)), raw

    def check(self, records) -> dict:
        from repro.serving.queries import TopKQuery

        served = [r for r in records if r.ok]
        for r in _sample(served, REPLAY, self.seed, 1):
            common.require_equal(f"replay {r.kind}", r.payload, self.local.execute(r.query).payload)
        exact = [r for r in served if r.kind != "nprobe"]
        for r in _sample(exact, REPLAY, self.seed, 3):
            common.require_equal("exact-routed vs unrouted", r.payload, self.unrouted.execute(r.query).payload)
        recalls = []
        for r in _sample([r for r in served if r.kind == "nprobe"], RECALL_SAMPLE, self.seed, 4):
            truth = self.local.execute(TopKQuery(r.query.queries, k=10)).payload[0]
            got = {label for label, _ in r.payload[0]}
            recalls.append(len(got & {label for label, _ in truth}) / len(truth))
        return {
            "recall_at_10": statistics.mean(recalls),
            "dist_rel_err": self.rel_err(served, self._rows_for),
        }

    def _rows_for(self, labels) -> dict:
        labels = list(labels)
        rows = self.source_a.rows_for([x for x in labels if x < FLEET_ROWS])
        rows.update(self.source_b.rows_for([x for x in labels if x >= FLEET_ROWS]))
        return rows

    def store_bytes_per_row(self) -> float:
        return sum(common.served_bytes(d) for d in self.dirs) / (2 * FLEET_ROWS)
