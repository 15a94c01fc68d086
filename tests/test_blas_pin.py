"""The server-start BLAS pin, observed from outside a fresh server process.

BLAS threading is process-wide state, so every case launches its own
``python -m repro.serving.server`` with a stripped environment (no
inherited ``REPRO_*`` or ``*_NUM_THREADS``) plus the one setting under
test, and reads the split back from ``GET /healthz``.  The served
answers must stay bit-identical to a local ``execute()`` in a process
that never pins — threading changes who multiplies, not what.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.sketch import PrivateSketcher, SketchConfig
from repro.serving import CrossQuery, DistanceClient, ShardedSketchStore, TopKQuery, wire
from repro.serving.execution import _BLAS_ENV_VARS

_CONFIG = SketchConfig(input_dim=96, epsilon=6.0, output_dim=64, sparsity=4, seed=5)
_SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))

# a local execute() in a fresh interpreter that never pins: the library
# runs on its own default thread count (one per core)
_UNPINNED_REFERENCE = """
import sys
from repro.serving import DistanceService, ExecutionPolicy, ShardedSketchStore, wire
store = ShardedSketchStore.load(sys.argv[1], mmap=True)
queries = wire.decode_queries(sys.stdin.buffer.read())
results = DistanceService(store, ExecutionPolicy(workers=1)).execute_many(queries)
sys.stdout.buffer.write(wire.encode_results(results, queries))
"""

# OpenBLAS caps an environment-set count at the cores it can use
_needs_two_cores = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2 if hasattr(os, "sched_getaffinity")
    else (os.cpu_count() or 1) < 2,
    reason="a 2-thread BLAS needs 2 usable cores",
)


def _environment(**settings) -> dict:
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key not in _BLAS_ENV_VARS
    }
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update(settings)
    return env


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A saved store, the queries, and the unpinned reference answers.

    Big enough (4096 rows, 24 query rows) that the distance GEMM crosses
    OpenBLAS's multithreading threshold in the unpinned reference.
    """
    sketcher = PrivateSketcher(_CONFIG)
    rng = np.random.default_rng(17)
    store = ShardedSketchStore(shard_capacity=1024, storage="f8")
    store.add_batch(sketcher.sketch_batch(rng.standard_normal((4096, 96)), noise_rng=1))
    store_dir = tmp_path_factory.mktemp("blas-pin") / "store"
    store.save(store_dir)
    batch = sketcher.sketch_batch(rng.standard_normal((24, 96)), noise_rng=2)
    queries = [TopKQuery(queries=batch, k=10), CrossQuery(queries=batch)]
    reference = subprocess.run(
        [sys.executable, "-c", _UNPINNED_REFERENCE, str(store_dir)],
        input=wire.encode_queries(queries),
        env=_environment(),
        capture_output=True,
        check=True,
        timeout=120,
    )
    return store_dir, queries, wire.decode_results(reference.stdout)


@pytest.mark.parametrize(
    "settings, expected",
    [
        pytest.param({}, 1, id="default-pins-one"),
        pytest.param(
            {"REPRO_SERVING_BLAS_THREADS": "2"},
            2,
            id="override",
            marks=_needs_two_cores,
        ),
        pytest.param(
            {"OPENBLAS_NUM_THREADS": "2"},
            2,
            id="explicit-openblas-respected",
            marks=_needs_two_cores,
        ),
    ],
)
def test_server_reports_its_blas_split_and_answers_bit_identically(
    served, settings, expected
):
    store_dir, queries, reference = served
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.serving.server", "--store", str(store_dir), "--port", "0"],
        env=_environment(**settings),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        banner = process.stdout.readline()
        assert " at http://" in banner, f"unexpected server banner: {banner!r}"
        with DistanceClient(banner.rsplit(" at ", 1)[1].strip(), timeout=30.0) as client:
            health = client.health()
            assert health["blas_threads"] == expected
            assert health["shard_workers"] == 1
            top, cross = client.execute_many(queries)
    finally:
        process.terminate()
        process.wait(timeout=10)
    assert top.payload == reference[0].payload  # labels and estimates: exact
    assert cross.payload.tobytes() == reference[1].payload.tobytes()
