"""Shared pieces: environment, run metadata, seeded inputs, store helpers.

Inputs are a pure function of the run seed: row chunk ``c`` of input
set ``tag`` comes from ``default_rng([seed, tag, c])`` and its release
noise from ``default_rng([seed, tag, c, 1])``, so any row can be
regenerated later to compute true distances.  Mixture centres (and the
public sketch seed) are fixed per workload and never depend on the run
seed.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

CHUNK = 8192
PUBLIC_SEED = 20210611  # the public transform seed every party shares
EPSILON = 4.0
K = 64
SPARSITY = 4
N_CENTRES = 32
CENTRE_SPREAD = 2.0


def child_env() -> dict:
    """Environment for launched servers: the stripped one plus import paths."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    env["PYTHONUNBUFFERED"] = "1"
    return env


def _commit() -> str:
    """The checkout's commit, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head[:12]
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()[:12]
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0][:12]
    except OSError:  # not a git checkout
        pass
    return "unknown"


def _blas() -> str:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def metadata(stripped: list[str]) -> dict:
    return {
        "nproc": os.cpu_count(),
        "blas": _blas(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(),
        "stripped_env": stripped,
    }


def sketcher(input_dim: int):
    """The release configuration: SJLT k=64 s=4, pure Laplace at epsilon=4."""
    from repro.core.sketch import PrivateSketcher, SketchConfig

    return PrivateSketcher(
        SketchConfig(
            input_dim=input_dim,
            epsilon=EPSILON,
            delta=0.0,
            transform="sjlt",
            noise="laplace",
            output_dim=K,
            sparsity=SPARSITY,
            seed=PUBLIC_SEED,
        )
    )


def mixture_centres(dim: int, fixed_seed: int) -> np.ndarray:
    """A fixed Gaussian mixture's centres; independent of the run seed."""
    return np.random.default_rng(fixed_seed).standard_normal((N_CENTRES, dim)) * CENTRE_SPREAD


class RowSource:
    """Seeded rows of one input set, generated (and regenerated) by chunk.

    Row ``label`` lives in chunk ``(label - first_label) // CHUNK``.
    ``centres=None`` draws standard Gaussian rows; otherwise each row is
    a uniformly chosen centre plus standard Gaussian noise.
    """

    def __init__(self, seed: int, tag: int, dim: int, n_rows: int, centres=None, first_label: int = 0):
        self.seed, self.tag, self.dim, self.n_rows = seed, tag, dim, n_rows
        self.centres = centres
        self.first_label = first_label

    def chunk(self, c: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, self.tag, c])
        rows = rng.standard_normal((CHUNK, self.dim))
        if self.centres is not None:
            rows += self.centres[rng.integers(0, len(self.centres), CHUNK)]
        return rows

    def noise_rng(self, c: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.tag, c, 1])

    def labels(self, c: int) -> range:
        start = self.first_label + c * CHUNK
        return range(start, start + CHUNK)

    @property
    def n_chunks(self) -> int:
        return self.n_rows // CHUNK

    def release(self, sk, store, chunks, positional: bool = False) -> tuple[float, float]:
        """Release ``chunks`` into ``store`` via ``sketch_batch`` + ``add_batch``.

        Returns ``(program_seconds, generation_seconds)``: time inside the
        two program calls, and time the benchmark spent making rows.
        """
        program = generation = 0.0
        for c in chunks:
            t0 = time.perf_counter()
            rows = self.chunk(c)
            t1 = time.perf_counter()
            batch = sk.sketch_batch(rows, noise_rng=self.noise_rng(c))
            store.add_batch(batch, labels=None if positional else self.labels(c))
            t2 = time.perf_counter()
            generation += t1 - t0
            program += t2 - t1
        return program, generation

    def rows_for(self, labels) -> dict:
        """``label -> row`` for the given labels, regenerating their chunks."""
        wanted: dict[int, list[int]] = {}
        for label in set(int(x) for x in labels):
            wanted.setdefault((label - self.first_label) // CHUNK, []).append(label)
        out = {}
        for c, members in wanted.items():
            rows = self.chunk(c)
            for label in members:
                out[label] = rows[label - self.first_label - c * CHUNK].copy()
        return out


class QueryStream:
    """Fresh seeded query sketches, made in blocks on demand (callers serialise).

    Queries are drawn like the rows: standard Gaussian, plus a uniformly
    chosen mixture centre when ``centres`` is given.  Making them is the
    benchmark's work, not the workload's, so ``tracer`` records none of
    the ``sketch_batch`` calls it takes.
    """

    def __init__(self, sk, tracer, seed: int, tag: int, dim: int, centres=None, block: int = 256):
        self.sk, self.tracer, self.seed, self.tag, self.dim = sk, tracer, seed, tag, dim
        self.centres, self.block = centres, block
        self.raw: list[np.ndarray] = []
        self.sketches: list = []

    def get(self, j: int):
        while j >= len(self.sketches):
            b = len(self.sketches) // self.block
            rng = np.random.default_rng([self.seed, self.tag, b])
            raw = rng.standard_normal((self.block, self.dim))
            if self.centres is not None:
                raw += self.centres[rng.integers(0, len(self.centres), self.block)]
            with self.tracer.paused():
                batch = self.sk.sketch_batch(raw, noise_rng=np.random.default_rng([self.seed, self.tag, b, 1]))
            self.raw.extend(raw)
            self.sketches.extend(batch.row(i) for i in range(self.block))
        return self.sketches[j], self.raw[j]


@dataclasses.dataclass
class WriteTotals:
    """Release and rewrite counters, summed over every such call of a run."""

    release_rows: float = 0.0
    release_s: float = 0.0
    compact_rows: float = 0.0
    compact_s: float = 0.0
    bytes_written: float = 0.0
    live_bytes: float = 0.0

    def release(self, source: RowSource, sk, store, chunks=None, positional: bool = False) -> float:
        """``source.release`` into ``store``; returns the row-generation seconds."""
        chunks = range(source.n_chunks) if chunks is None else chunks
        program, generation = source.release(sk, store, chunks, positional)
        self.release_s += program
        self.release_rows += len(chunks) * CHUNK
        return generation

    def rewrite(self, out_dir: Path, itemsize: int, fn, *args, **kwargs) -> int:
        """Time one ``merge_stores`` / ``compact_store`` call writing ``out_dir``.

        ``itemsize`` is the storage width of the rows written; returns
        the live rows written.
        """
        t0 = time.perf_counter()
        rows = fn(*args, **kwargs)["rows"]
        self.compact_s += time.perf_counter() - t0
        self.compact_rows += rows
        self.bytes_written += served_bytes(out_dir)
        self.live_bytes += rows * K * itemsize
        return rows


def served_bytes(root: Path) -> int:
    """Bytes on disk of the store generation the manifest at ``root`` serves."""
    manifest_path = root / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    shards_dir = manifest.get("shards_dir")
    base = root / shards_dir if shards_dir else root
    files = [p for p in base.iterdir() if p.is_file() and p.name != "manifest.json"]
    return manifest_path.stat().st_size + sum(p.stat().st_size for p in files)


class Failure(RuntimeError):
    """A correctness check failed: the run must exit nonzero."""


def require_equal(what: str, served, local) -> None:
    """Exact equality of two payloads (lists of ``(label, estimate)`` tuples)."""
    if served != local:
        raise Failure(f"{what}: served payload differs from the local answer")


def settle_disk(root: Path) -> None:
    """fsync every file under ``root`` before a timed phase.

    The program never fsyncs its stores, so the kernel writes them back,
    and commits the journal (with the discards of deleted generations),
    whenever its timers fire; flushing first keeps that I/O out of the
    measurement.
    """
    for path in root.rglob("*"):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def rel_errors(query_raw: np.ndarray, ranking, rows: dict) -> list[float]:
    """``|estimate - true| / true`` for each ``(label, estimate)`` of one ranking."""
    out = []
    for label, est in ranking:
        diff = rows[int(label)] - query_raw
        true = float(diff @ diff)
        if true > 0:
            out.append(abs(float(est) - true) / true)
    return out


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)
