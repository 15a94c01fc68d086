"""Server processes the benchmark launches from its own files.

``serve.py store --trace-out F -- ARGS`` runs the stock
``repro.serving.server`` command line (``ARGS``) with the span wrappers
of :mod:`e2ebench.tracing` installed; untraced runs launch the stock
``python -m repro.serving.server`` instead and never use this mode.

``serve.py router --backend URL ... [--trace-out F]`` serves a
:class:`~repro.serving.router.RouterService` over ``DistanceClient``
backends through a ``SketchQueryServer``: the program has no router
command line, so the benchmark supplies this front.

With ``--trace-out``, tracing starts disabled; ``SIGUSR1`` enables it
(and creates ``F.on`` as the acknowledgement), and ``SIGTERM`` writes
the spans to ``F`` and exits.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from e2ebench import tracing  # noqa: E402


def _arm(trace_out: str, role: str) -> None:
    tracer = tracing.Tracer(role)
    tracing.install(tracer)

    def enable(signum, frame):
        tracer.enabled = True
        Path(trace_out + ".on").touch()

    def finish(signum, frame):
        tracer.enabled = False
        tracer.dump(trace_out)
        os._exit(0)

    signal.signal(signal.SIGUSR1, enable)
    signal.signal(signal.SIGTERM, finish)


def main() -> None:
    parser = argparse.ArgumentParser(prog="e2ebench/serve.py")
    parser.add_argument("mode", choices=("store", "router"))
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--role", default=None)
    parser.add_argument("--backend", action="append", default=[])
    args, server_args = parser.parse_known_args()
    if args.trace_out:
        _arm(args.trace_out, args.role or args.mode)
    if args.mode == "store":
        from repro.serving.server import main as server_main

        server_main([a for a in server_args if a != "--"])
        return
    from repro.serving import DistanceClient, RouterService
    from repro.serving.server import SketchQueryServer

    router = RouterService([DistanceClient(url) for url in args.backend], close_backends=True)
    server = SketchQueryServer(router, port=0)
    print(f"serving router over {len(args.backend)} backends at {server.url}", flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main()
