"""Benchmark entry point.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Prints run metadata, then as its last
stdout line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics untraced, the per-layer metrics
traced).  Exits nonzero, without a result line, when the program under
test is missing, and with ``"correct": false`` when a check fails or the
run breaks outside a counted call.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("topk_flat", "routed_fleet", "release_maintain")

#: Inherited variables that would move the program off its defaults.
STRIPPED_PREFIXES = ("REPRO_",)
STRIPPED_NAMES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: unit of every end-to-end metric, in print order
END_TO_END_UNITS = {
    "setup_s": "s",
    "qps": "1/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "ok_frac": "fraction",
    "cpu_ms_per_query": "ms",
    "recall_at_10": "fraction",
    "dist_rel_err": "fraction",
    "release_rows_per_s": "rows/s",
    "compact_rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
    "store_bytes_per_row": "B",
}


def strip_environment(environ=os.environ) -> list[str]:
    """Remove inherited tuning variables in place; returns the names removed."""
    removed = sorted(
        name for name in environ if name.startswith(STRIPPED_PREFIXES) or name in STRIPPED_NAMES
    )
    for name in removed:
        del environ[name]
    return removed


def parse_args(argv=None):
    parser = argparse.ArgumentParser(prog="e2ebench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program to measure (missing {ROOT / 'src' / 'repro'})", file=sys.stderr)
        return 2
    # strip before numpy loads its BLAS: the program must run on its defaults
    stripped = strip_environment()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from e2ebench import common, maintain, serving, tracing

    for key, value in common.metadata(stripped).items():
        print(f"# {key}: {value}", flush=True)
    print(f"# workload: {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")

    # a terminated run still stops the servers it launched (the finally below)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    tracer = tracing.Tracer("bench")
    if args.trace:
        tracing.install(tracer)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    workload_cls = {
        "topk_flat": serving.TopKFlat,
        "routed_fleet": serving.RoutedFleet,
        "release_maintain": maintain.ReleaseMaintain,
    }[args.workload]
    workload = None
    try:
        workload = workload_cls(args.seed, args.seconds, bool(args.trace), work, tracer)
        raw = workload.run()
        correct = True
    except common.Failure as exc:
        print(f"# CHECK FAILED: {exc}", flush=True)
        raw, correct = {}, False
    except Exception:  # noqa: BLE001 - the program broke outside a counted call
        traceback.print_exc()
        print("# RUN FAILED: see the traceback on stderr", flush=True)
        raw, correct = {}, False
    finally:
        if isinstance(workload, serving.ServingWorkload):
            workload.stop_servers()
        shutil.rmtree(work, ignore_errors=True)
    if not correct:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    if args.trace:
        metrics = raw
    else:
        print(f"# latency samples: {raw.pop('samples')}")
        metrics = {name: {"value": float(raw[name]), "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    attempted = max(1, workload.attempted)
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": workload.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
