"""End-to-end and per-layer benchmark of the sketch release and query system.

Run ``python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; see ``e2ebench/README.md``.
"""
