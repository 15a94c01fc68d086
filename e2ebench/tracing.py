"""Spans around the program's public layer functions, recorded from outside.

:func:`install` replaces each layer's entry point (a module function or
a class method) with a wrapper that records a span — name, start, end,
its own id and the id of the span that caused it — whenever the
:class:`Tracer` is enabled.  Nothing inside ``src/`` records spans; the
wrappers live here and are installed only by traced runs.  Parent links
follow the calling thread, and are carried into the worker threads of
``run_ordered`` fan-outs (the router's scatter legs, a parallel scan).

Spans stay in memory; server processes write theirs to a JSON file when
they are stopped, and :func:`layer_metrics` turns the spans of every
process into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time

from e2ebench import stats

MS = 1e3


class Tracer:
    """In-memory span recorder; records only while :attr:`enabled` is true."""

    def __init__(self, role: str) -> None:
        self.role = role
        self.enabled = False
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    @contextlib.contextmanager
    def paused(self):
        """Record nothing this thread (or its fan-out workers) calls inside the block.

        The benchmark's own work — making queries, its checks — runs
        here; other threads keep recording.
        """
        was, self._local.paused = self._paused(), True
        try:
            yield
        finally:
            self._local.paused = was

    def _paused(self) -> bool:
        return getattr(self._local, "paused", False)

    def recording(self) -> bool:
        return self.enabled and not self._paused()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(self, owner, attr: str, name: str, extra=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.recording():
                return original(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            fields = extra(args, kwargs, result) if extra is not None else None
            tracer.spans.append((name, start, end, span_id, parent, fields))
            return result

        setattr(owner, attr, traced)

    def propagate(self, module, attr: str = "run_ordered") -> None:
        """Carry the caller's current span and pause into ``run_ordered`` worker threads."""
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def fan_out(fn, items, *args, **kwargs):
            if not tracer.enabled:
                return original(fn, items, *args, **kwargs)
            parent, paused = tracer.current(), tracer._paused()

            def under_parent(item):
                stack = tracer._stack()
                stack.append(parent)
                was, tracer._local.paused = tracer._paused(), paused
                try:
                    return fn(item)
                finally:
                    tracer._local.paused = was
                    stack.pop()

            return original(under_parent, items, *args, **kwargs)

        setattr(module, attr, fan_out)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"role": self.role, "spans": list(self.spans)}, handle)


def _stats_fields(args, kwargs, result):
    s = result.stats
    return {
        "rows_scanned": s.rows_scanned,
        "rows_total": s.rows_total,
        "shards_pruned": s.shards_pruned,
        "shards_routed": s.shards_routed,
        "shards_total": s.shards_visited + s.shards_pruned,
    }


def _gemm_fields(args, kwargs, result):
    a, b = args[0], args[2]
    return {"bytes": stats.gemm_bytes(a.shape[0], b.shape[0], a.shape[1], b.dtype.itemsize)}


def _size_field(args, kwargs, result):
    return {"bytes": len(result)}


def _maintenance_fields(args, kwargs, result):
    if kwargs.get("routing"):
        return {"op": "compact_routed"}
    return {"op": "compact_f4" if kwargs.get("storage") == "f4" else "compact"}


def install(tracer: Tracer) -> None:
    """Wrap the public entry point of every layer the benchmark reports."""
    from repro.core import estimators
    from repro.core.sketch import PrivateSketcher
    from repro.dp import noise
    from repro.serving import (
        cache,
        client,
        maintenance,
        router,
        routing,
        server,
        service,
        store,
        wire,
    )
    from repro.transforms.base import LinearTransform

    wrap = tracer.wrap
    wrap(estimators, "cross_sq_distances_from_parts", "estimators.gemm", _gemm_fields)
    wrap(service.DistanceService, "execute", "service.execute", _stats_fields)
    wrap(store.ShardedSketchStore, "snapshot", "store.snapshot")
    wrap(store.ShardedSketchStore, "add_batch", "store.add_batch")
    wrap(store.ShardedSketchStore, "save", "store.save")
    wrap(routing.ShardRouting, "lower_bounds", "routing.bound")
    wrap(routing.ShardRouting, "probe_shards", "routing.bound")
    wrap(maintenance, "kmeans_centroids", "routing.kmeans")
    wrap(store, "kmeans_centroids", "routing.kmeans")
    # the stock handler class: do_POST is the whole server-side request
    wrap(server._QueryHandler, "do_POST", "server.handle")
    wrap(wire, "encode_query", "wire.encode_query", _size_field)
    wrap(wire, "decode_query", "wire.decode_query")
    wrap(wire, "encode_result", "wire.encode_result", _size_field)
    wrap(wire, "decode_result", "wire.decode_result")
    wrap(cache.ReleaseCache, "get", "cache.get")
    wrap(router.RouterService, "execute", "router.execute")
    wrap(client.DistanceClient, "execute", "client.execute")
    wrap(PrivateSketcher, "sketch_batch", "sketch.sketch_batch")
    wrap(LinearTransform, "apply_batch", "transforms.apply_batch")
    for cls in vars(noise).values():
        if isinstance(cls, type) and "sample_rows" in vars(cls):
            wrap(cls, "sample_rows", "noise.sample_rows")
    wrap(maintenance, "merge_stores", "maintenance.merge")
    wrap(maintenance, "compact_store", "maintenance.compact", _maintenance_fields)
    tracer.propagate(router)
    tracer.propagate(service)


# -- turning spans into per-layer metrics ------------------------------------

#: Every per-layer metric, with its unit, in the order it is printed.
PER_LAYER_UNITS = {
    "estimators.gemm_ms": "ms",
    "estimators.gemm_calls_per_query": "count",
    "estimators.gemm_mb_per_query": "MB",
    "service.execute_ms": "ms",
    "service.self_ms": "ms",
    "service.rows_scanned_frac": "fraction",
    "service.shards_pruned_frac": "fraction",
    "service.shards_routed_frac": "fraction",
    "store.snapshot_ms": "ms",
    "store.add_batch_ms": "ms",
    "store.save_s": "s",
    "routing.bound_ms": "ms",
    "routing.kmeans_s": "s",
    "server.handle_ms": "ms",
    "server.self_ms": "ms",
    "server.wait_ms": "ms",
    "server.threads": "count",
    "wire.encode_query_ms": "ms",
    "wire.decode_query_ms": "ms",
    "wire.encode_result_ms": "ms",
    "wire.decode_result_ms": "ms",
    "wire.request_bytes": "B",
    "wire.result_bytes": "B",
    "cache.hit_ratio": "fraction",
    "cache.get_ms": "ms",
    "router.execute_ms": "ms",
    "router.self_ms": "ms",
    "router.backend_calls_per_query": "count",
    "router.slowest_leg_share": "fraction",
    "client.execute_ms": "ms",
    "client.connections_per_request": "count",
    "client.retries": "count",
    "sketch.sketch_batch_ms": "ms",
    "transforms.apply_batch_ms": "ms",
    "noise.sample_rows_ms": "ms",
    "maintenance.merge_s": "s",
    "maintenance.compact_f4_s": "s",
    "maintenance.compact_routed_s": "s",
    "maintenance.bytes_written_per_live_byte": "ratio",
    "trace.overhead_pct": "%",
}


class SpanSet:
    """Spans of several processes, indexed by name and by (process, parent)."""

    def __init__(self, dumps) -> None:
        # dumps: iterable of (role, spans); span ids are unique per process only
        self.by_name: dict[str, list] = {}
        self.children: dict[tuple, list] = {}
        for proc, (role, spans) in enumerate(dumps):
            for name, start, end, span_id, parent, fields in spans:
                span = (role, proc, start, end, span_id, fields or {})
                self.by_name.setdefault(name, []).append(span)
                if parent is not None:
                    self.children.setdefault((proc, parent), []).append((name, start, end))

    def spans(self, name: str, role: str | None = None) -> list:
        found = self.by_name.get(name, [])
        return [s for s in found if role is None or s[0] == role]

    def mean_s(self, name: str, role: str | None = None) -> float:
        return stats.mean(s[3] - s[2] for s in self.spans(name, role))

    def mean_self_s(self, name: str, role: str | None = None) -> float:
        return stats.mean(
            stats.self_time(start, end, [(c[1], c[2]) for c in self.children.get((proc, sid), [])])
            for _, proc, start, end, sid, _ in self.spans(name, role)
        )

    def kids(self, span, name: str) -> list:
        _, proc, _, _, sid, _ = span
        return [c for c in self.children.get((proc, sid), []) if c[0] == name]

    def field_sum(self, name: str, key: str) -> float:
        return sum(s[5].get(key, 0) for s in self.spans(name))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spanset: SpanSet, front_role: str, counters: dict) -> dict:
    """Per-layer metric values from the traced window's spans plus ``counters``.

    ``front_role`` names the process the analysts' clients talk to (its
    ``do_POST`` spans are the ``server.*`` metrics); ``counters`` holds
    values read outside the spans (``/proc`` threads, ``/healthz`` cache
    counters, client connection counters, bytes written, overhead).  A
    layer the workload never called reports 0.
    """
    s = spanset
    executes = s.spans("service.execute")
    n_exec = len(executes)
    routers = s.spans("router.execute", front_role)
    legs = [(router, s.kids(router, "client.execute")) for router in routers]
    client_ms = s.mean_s("client.execute", "bench") * MS
    handle_ms = s.mean_s("server.handle", front_role) * MS
    maint = s.spans("maintenance.compact")
    values = {
        "estimators.gemm_ms": s.mean_s("estimators.gemm") * MS,
        "estimators.gemm_calls_per_query": _ratio(len(s.spans("estimators.gemm")), n_exec),
        "estimators.gemm_mb_per_query": _ratio(s.field_sum("estimators.gemm", "bytes"), n_exec) / 1e6,
        "service.execute_ms": s.mean_s("service.execute") * MS,
        "service.self_ms": s.mean_self_s("service.execute") * MS,
        "service.rows_scanned_frac": _ratio(
            s.field_sum("service.execute", "rows_scanned"), s.field_sum("service.execute", "rows_total")
        ),
        "service.shards_pruned_frac": _ratio(
            s.field_sum("service.execute", "shards_pruned"), s.field_sum("service.execute", "shards_total")
        ),
        "service.shards_routed_frac": _ratio(
            s.field_sum("service.execute", "shards_routed"), s.field_sum("service.execute", "shards_total")
        ),
        "store.snapshot_ms": s.mean_s("store.snapshot") * MS,
        "store.add_batch_ms": s.mean_s("store.add_batch") * MS,
        "store.save_s": s.mean_s("store.save"),
        "routing.bound_ms": s.mean_s("routing.bound") * MS,
        "routing.kmeans_s": s.mean_s("routing.kmeans"),
        "server.handle_ms": handle_ms,
        "server.self_ms": s.mean_self_s("server.handle", front_role) * MS,
        "server.wait_ms": client_ms - handle_ms if client_ms and handle_ms else 0.0,
        "wire.encode_query_ms": s.mean_s("wire.encode_query") * MS,
        "wire.decode_query_ms": s.mean_s("wire.decode_query") * MS,
        "wire.encode_result_ms": s.mean_s("wire.encode_result") * MS,
        "wire.decode_result_ms": s.mean_s("wire.decode_result") * MS,
        "wire.request_bytes": stats.mean(x[5]["bytes"] for x in s.spans("wire.encode_query")),
        "wire.result_bytes": stats.mean(x[5]["bytes"] for x in s.spans("wire.encode_result")),
        "cache.get_ms": s.mean_s("cache.get") * MS,
        "router.execute_ms": s.mean_s("router.execute", front_role) * MS,
        "router.self_ms": s.mean_self_s("router.execute", front_role) * MS,
        "router.backend_calls_per_query": _ratio(sum(len(k) for _, k in legs), len(routers)),
        "router.slowest_leg_share": stats.mean(
            max(c[2] - c[1] for c in kids) / (r[3] - r[2]) for r, kids in legs if kids
        ),
        "client.execute_ms": client_ms,
        "sketch.sketch_batch_ms": s.mean_s("sketch.sketch_batch") * MS,
        "transforms.apply_batch_ms": s.mean_s("transforms.apply_batch") * MS,
        "noise.sample_rows_ms": s.mean_s("noise.sample_rows") * MS,
        "maintenance.merge_s": s.mean_s("maintenance.merge"),
        "maintenance.compact_f4_s": stats.mean(
            x[3] - x[2] for x in maint if x[5].get("op") == "compact_f4"
        ),
        "maintenance.compact_routed_s": stats.mean(
            x[3] - x[2] for x in maint if x[5].get("op") == "compact_routed"
        ),
    }
    values.update(counters)
    missing = set(PER_LAYER_UNITS) - set(values)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
