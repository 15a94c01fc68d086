"""Steadiness tool: one workload over several seeds, spread per metric.

    python3 e2ebench/steady.py --workload topk_flat --seeds 1-10 [--seconds S]

Runs ``run.py`` once per seed (sequentially, untraced) and prints, for
each end-to-end metric, the median over the runs, the distance between
the first and third quartile as a share of the median, and that spread
as a share of the metric's bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from e2ebench import stats  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [
        sys.executable, str(ROOT / "e2ebench" / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed} failed (exit {out.returncode}):\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"seed {seed}: correctness check failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="e2ebench/steady.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        runs.append(run_once(args.workload, seed, seconds))
        print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()), flush=True)
    print(f"\n{args.workload}: {len(runs)} runs of {seconds:g} s")
    print(f"{'metric':<22}{'median':>14}{'IQR/median':>12}{'of bound':>10}")
    for name in runs[0]:
        values = [r[name] for r in runs]
        median = statistics.median(values)
        spread = stats.quartile_spread(values) if len(values) > 1 and median else 0.0
        bound = bounds.get(name)
        share = f"{spread / bound:.2f}" if bound else "-"
        print(f"{name:<22}{median:>14.6g}{spread:>12.4f}{share:>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
