"""Execution policies for the shard-parallel query plane.

A :class:`~repro.serving.service.DistanceService` turns every query
into independent per-shard distance blocks; :class:`ExecutionPolicy`
decides how those blocks are scheduled.  ``workers=1`` (the default)
streams them serially; ``workers=N`` dispatches them onto a thread pool
of ``N`` workers.  Threads — not processes — are the right tool here:
each block is dominated by one BLAS matrix multiplication, which
releases the GIL, so shard blocks genuinely overlap while the Python
merge stays trivially small.

Results are **bit-identical** across policies: every shard block is the
same deterministic arithmetic whatever thread runs it, and the merge
consumes the blocks in shard order regardless of completion order.

**BLAS threads compose multiplicatively with the pool.**  Most BLAS
builds default to one internal thread per core; fanning shard blocks
across ``N`` pool workers — or across the unbounded request threads of
a :class:`~repro.serving.server.SketchQueryServer` — then runs
``N × cores`` compute threads, and the oversubscribed kernel threads
spend their time context-switching instead of multiplying.
:func:`pin_blas_threads` pins the BLAS libraries to one thread each so
the threads *above* BLAS are the only parallelism lever, exactly the
threadpoolctl recipe — via threadpoolctl itself when installed, else a
ctypes probe of the loaded BLAS plus the standard ``*_NUM_THREADS``
environment guard for libraries yet to load.  It runs once per process:
every ``SketchQueryServer`` calls it at construction (so every server
process, ``--processes`` worker and router front starts pinned), and a
service calls it when it first builds its pool.  Operators who want a
different split (say 2 BLAS threads under a 2-worker pool on a 16-core
box) set ``REPRO_SERVING_BLAS_THREADS``; an ``OPENBLAS_NUM_THREADS``-
style variable already set when the process starts is left in charge.
:func:`blas_threads` reads back the count the loaded libraries use.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass


def run_ordered(fn, items: list, *, executor: ThreadPoolExecutor | None = None) -> list:
    """Apply ``fn`` to every item, results in input order.

    The one ordered-reduction primitive of the serving tier: the local
    :class:`~repro.serving.service.DistanceService` maps it over shard
    views, and the :class:`~repro.serving.router.RouterService` maps it
    over network backends — same contract both times.  With no
    ``executor`` (or fewer than two items) it streams on the calling
    thread; otherwise items run concurrently on the pool while results
    still come back in input order, so downstream merges are
    schedule-independent.  An exception from any item propagates to the
    caller unchanged.
    """
    if executor is None or len(items) <= 1:
        return [fn(item) for item in items]
    return list(executor.map(fn, items))

_WORKERS_ENV = "REPRO_SERVING_WORKERS"
_PREFILTER_ENV = "REPRO_SERVING_PREFILTER"
_ROUTING_ENV = "REPRO_SERVING_ROUTING"
_BLAS_THREADS_ENV = "REPRO_SERVING_BLAS_THREADS"
_TRUE_VALUES = ("1", "true", "on", "yes")
_FALSE_VALUES = ("0", "false", "off", "no")

#: The thread-count knobs every mainstream BLAS/OpenMP build reads at
#: library load time — the environment half of the guard, covering any
#: compute library imported after the pin.
_BLAS_ENV_VARS = (
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "OMP_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: ``(set, get)`` thread-count entry points of the BLAS builds numpy
#: links against, for the ctypes half of the guard (the env vars cannot
#: reach a library that already read them at load time).
_BLAS_THREAD_SYMBOLS = (
    ("openblas_set_num_threads", "openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    # the symbol names in the OpenBLAS builds vendored inside numpy/scipy
    # manylinux wheels, which prefix everything with scipy_
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("MKL_Set_Num_Threads", "MKL_Get_Max_Threads"),
    ("bli_thread_set_num_threads", "bli_thread_get_num_threads"),
)

_pin_lock = threading.Lock()
_pin_decided = False  # the first pin_blas_threads() call settles the process
_pinned: int | None = None
_threadpoolctl_limits = None  # keeps a threadpoolctl pin alive process-wide


def _blas_threads_from_env() -> int | None:
    raw = os.environ.get(_BLAS_THREADS_ENV, "").strip()
    if not raw:
        return None
    try:
        threads = int(raw)
    except ValueError:
        raise ValueError(
            f"{_BLAS_THREADS_ENV}={raw!r} is not a valid BLAS thread count: "
            "expected a positive integer such as 1 (unset it for the "
            "default: 1 BLAS thread per serving process)"
        ) from None
    if threads < 1:
        raise ValueError(
            f"{_BLAS_THREADS_ENV}={raw!r} is not a valid BLAS thread count: "
            "must be >= 1 (unset it for the default)"
        )
    return threads


def _loaded_blas_libraries():
    """Handles for BLAS shared objects already mapped into this process.

    A minimal stand-in for threadpoolctl's prefix scan: read the mapped
    files from ``/proc/self/maps`` and keep the ones that look like a
    BLAS build.  Platforms without /proc simply yield nothing — the
    environment guard still covers subprocesses and later imports.
    """
    try:
        with open("/proc/self/maps") as maps:
            mapped = {
                line.split(None, 5)[-1].strip()
                for line in maps
                if line.rstrip().endswith(".so") or ".so." in line
            }
    except OSError:
        return
    markers = ("openblas", "libblas", "libcblas", "mkl_rt", "libblis")
    for path in sorted(mapped):
        name = os.path.basename(path).lower()
        if any(marker in name for marker in markers):
            try:
                yield ctypes.CDLL(path)
            except OSError:
                continue


def _threadpoolctl():
    try:
        import threadpoolctl
    except ImportError:
        return None
    return threadpoolctl


def _pin_loaded_blas(threads: int) -> None:
    """Best-effort runtime pin of every BLAS already in the process."""
    global _threadpoolctl_limits
    threadpoolctl = _threadpoolctl()
    if threadpoolctl is not None:
        # holding the controller applies the limit for the life of the
        # process (releasing it would restore the oversubscribed default)
        _threadpoolctl_limits = threadpoolctl.threadpool_limits(
            limits=threads, user_api="blas"
        )
        return
    for lib in _loaded_blas_libraries():
        for setter_name, _ in _BLAS_THREAD_SYMBOLS:
            setter = getattr(lib, setter_name, None)
            if setter is not None:
                try:
                    setter(threads)
                except (ctypes.ArgumentError, OSError):  # pragma: no cover
                    continue


def blas_threads() -> int | None:
    """BLAS threads in effect, read back from the loaded libraries.

    Not the requested pin but what the libraries report, so an operator
    sees the split that is really running.  When several BLAS builds are
    loaded (numpy's and scipy's vendored OpenBLAS, say) the largest
    count is reported; ``None`` when no loaded library can be read.
    """
    threadpoolctl = _threadpoolctl()
    if threadpoolctl is not None:
        counts = [
            info["num_threads"]
            for info in threadpoolctl.threadpool_info()
            if info.get("user_api") == "blas"
        ]
    else:
        counts = []
        for lib in _loaded_blas_libraries():
            for _, getter_name in _BLAS_THREAD_SYMBOLS:
                getter = getattr(lib, getter_name, None)
                if getter is not None:
                    counts.append(int(getter()))
                    break
    return max(counts, default=None)


def pin_blas_threads(threads: int | None = None) -> int | None:
    """Pin BLAS-internal threading so the threads above it are the only lever.

    Called by every :class:`~repro.serving.server.SketchQueryServer` at
    construction and by :class:`~repro.serving.service.DistanceService`
    when a parallel policy first builds its pool; only the first call
    in a process acts.  ``threads=None`` means the default of 1 BLAS
    thread; ``REPRO_SERVING_BLAS_THREADS`` overrides both the argument
    and the default (and is validated loudly, like every other serving
    knob).  Explicit settings are respected: when the override is unset
    and any ``OPENBLAS_NUM_THREADS``-style variable was already set
    before the first pin, nothing is pinned — the library read that
    value when it loaded.  Returns the pinned count, or ``None`` when an
    explicit setting was left in charge; repeat calls return the first
    call's answer (one process, one BLAS configuration).
    """
    global _pin_decided, _pinned
    override = _blas_threads_from_env()
    with _pin_lock:
        if _pin_decided:
            return _pinned
        _pin_decided = True
        if override is None and any(
            os.environ.get(var, "").strip() for var in _BLAS_ENV_VARS
        ):
            return None
        requested = override if override is not None else (threads or 1)
        value = str(requested)
        for var in _BLAS_ENV_VARS:
            os.environ[var] = value
        _pin_loaded_blas(requested)
        _pinned = requested
        return requested


def _workers_from_env() -> int:
    raw = os.environ.get(_WORKERS_ENV, "").strip()
    if not raw:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        raise ValueError(
            f"{_WORKERS_ENV}={raw!r} is not a valid worker count: expected a "
            "positive integer such as 4 (unset it for serial execution)"
        ) from None
    if workers < 1:
        raise ValueError(
            f"{_WORKERS_ENV}={raw!r} is not a valid worker count: must be "
            ">= 1 (unset it for serial execution)"
        )
    return workers


def _switch_from_env(var: str) -> bool:
    raw = os.environ.get(var, "").strip().lower()
    if not raw:  # unset or empty means the default, same as the workers var
        return True
    if raw in _TRUE_VALUES:
        return True
    if raw in _FALSE_VALUES:
        return False
    raise ValueError(
        f"{var}={raw!r} is not a valid switch: use one of "
        f"{'/'.join(_TRUE_VALUES)} or {'/'.join(_FALSE_VALUES)}"
    )


def _prefilter_from_env() -> bool:
    return _switch_from_env(_PREFILTER_ENV)


def _routing_from_env() -> bool:
    return _switch_from_env(_ROUTING_ENV)


@dataclass(frozen=True, repr=False)
class ExecutionPolicy:
    """How a :class:`DistanceService` schedules per-shard query work.

    Parameters
    ----------
    workers:
        ``1`` streams shards serially on the calling thread; ``N > 1``
        fans shard blocks out across a pool of ``N`` threads.
    prefilter:
        Enable the norm-bound shard prefilter (skip shards whose
        best-case distance provably cannot produce a result).  Exact —
        filtered and unfiltered queries return identical answers; see
        :mod:`repro.serving.service` for the guarantee.
    routing:
        Enable the exact centroid-routing stage ahead of the prefilter
        on stores that carry a routing table
        (:mod:`repro.serving.routing`).  Also exact — the centroid-ball
        bound only skips provably hopeless shards, so results never
        depend on it.  Per-query ``RoutingSpec(nprobe=N)`` approximate
        routing is requested on the query itself and is *not* gated by
        this switch (an explicit spec is an explicit recall trade).
    """

    workers: int = 1
    prefilter: bool = True
    routing: bool = True

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    def __repr__(self) -> str:
        mode = "serial" if self.workers == 1 else f"workers={self.workers}"
        return (
            f"ExecutionPolicy({mode}, prefilter={'on' if self.prefilter else 'off'}, "
            f"routing={'on' if self.routing else 'off'})"
        )

    @property
    def parallel(self) -> bool:
        return self.workers > 1

    @classmethod
    def from_env(cls) -> "ExecutionPolicy":
        """The default policy, overridable via the environment.

        ``REPRO_SERVING_WORKERS`` sets the worker count — CI uses it to
        run the whole serving test suite under a 4-worker pool without
        touching the tests — ``REPRO_SERVING_PREFILTER=0`` disables
        the prefilter and ``REPRO_SERVING_ROUTING=0`` the exact routing
        stage (A/B levers for debugging; both are exact, so results
        never depend on them).  Malformed values raise ``ValueError``
        naming the variable, the offending value and the accepted
        forms — a typo in a deployment manifest should fail loudly at
        service construction, not silently fall back.
        """
        return cls(
            workers=_workers_from_env(),
            prefilter=_prefilter_from_env(),
            routing=_routing_from_env(),
        )
