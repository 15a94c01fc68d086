"""Launching, sampling and stopping the program's server processes via ``/proc``.

The sampler reads only ``/proc``: it never signals or instruments the
processes it watches.  Each launched server gets its own session, so
shutdown can signal its whole process group and then wait until every
process of its tree has gone.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import threading
import time

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_URL = re.compile(r" at (http://\S+)\s*$")
#: seconds between the sampler's thread counts, and between its rescans
#: of all of /proc for the tree (rescanning every poll would load the
#: CPU being measured)
SAMPLE_INTERVAL_S = 0.1
RESCAN_S = 2.0
#: seconds a server may take to print its banner, and to act on a signal
BANNER_TIMEOUT_S = 120.0
SIGNAL_TIMEOUT_S = 20.0


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="ascii", errors="replace") as handle:
            return handle.read()
    except OSError:  # the process exited between listing and reading
        return None


def _stat_fields(pid: int) -> list[str] | None:
    raw = _read(f"/proc/{pid}/stat")
    if raw is None:
        return None
    # the command name is parenthesised and may contain spaces
    return raw[raw.rindex(")") + 2 :].split()


def descendants(root: int) -> list[int]:
    """``root`` and every live process below it, from the ``/proc`` ppid links."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(entry))
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        if os.path.exists(f"/proc/{pid}"):
            tree.append(pid)
            frontier.extend(children.get(pid, ()))
    return tree


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of one process (0 once it has gone)."""
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    # fields[11], fields[12] are utime and stime (stat fields 14 and 15)
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def status_value(pid: int, key: str) -> int:
    """An integer field of ``/proc/PID/status`` (kB for memory fields), 0 if absent."""
    raw = _read(f"/proc/{pid}/status")
    if raw is None:
        return 0
    for line in raw.splitlines():
        if line.startswith(key + ":"):
            return int(line.split()[1])
    return 0


class TreeSampler:
    """Samples the process trees under ``roots``: CPU, live threads, VmHWM.

    A background thread polls every ``SAMPLE_INTERVAL_S`` for the peak
    number of live threads across all trees; CPU time and the memory
    high-water mark are kernel counters, read on demand.
    """

    def __init__(self, roots) -> None:
        self.roots = list(roots)
        self.peak_threads = 0
        self._tree: list[int] = []
        self._scanned = float("-inf")
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="e2ebench-sampler", daemon=True)

    def pids(self) -> list[int]:
        return [pid for root in self.roots for pid in descendants(root)]

    def cpu_seconds(self) -> float:
        return sum(cpu_seconds(pid) for pid in self.pids())

    def threads(self) -> int:
        now = time.monotonic()
        if now - self._scanned > RESCAN_S:
            self._tree, self._scanned = self.pids(), now
        return sum(status_value(pid, "Threads") for pid in self._tree)

    def vmhwm_mb(self) -> float:
        return sum(status_value(pid, "VmHWM") for pid in self.pids()) / 1024.0

    def _loop(self) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            self.peak_threads = max(self.peak_threads, self.threads())

    def start(self) -> "TreeSampler":
        self.peak_threads = self.threads()
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)


class Launched:
    """One server process started in its own session; parses its URL banner.

    ``trace_out`` names the span file a traced server (``serve.py
    --trace-out``) writes when it is stopped; :meth:`stop` returns its
    contents.
    """

    def __init__(self, argv: list[str], *, env: dict, cwd: str, trace_out: str | None = None) -> None:
        self.argv = argv
        self.trace_out = trace_out
        self.proc = subprocess.Popen(
            argv,
            env=env,
            cwd=cwd,
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            text=True,
            start_new_session=True,
        )
        self.url = self._await_banner()
        # keep draining stdout so a chatty child can never block on a full pipe
        threading.Thread(target=self._drain, daemon=True).start()

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _await_banner(self) -> str:
        found: list[str] = []

        def read() -> None:
            for line in self.proc.stdout:
                match = _URL.search(line)
                if match:
                    found.append(match.group(1))
                    return

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(BANNER_TIMEOUT_S)
        if not found:
            self.stop()
            raise RuntimeError(f"no serving banner from {' '.join(self.argv)}")
        return found[0]

    def _drain(self) -> None:
        for _ in self.proc.stdout:
            pass

    def enable_tracing(self) -> None:
        """SIGUSR1 a traced server and wait for its ``.on`` acknowledgement."""
        if self.proc.poll() is None:
            os.kill(self.proc.pid, signal.SIGUSR1)
        deadline = time.monotonic() + SIGNAL_TIMEOUT_S
        while not os.path.exists(self.trace_out + ".on"):
            if time.monotonic() > deadline:
                raise RuntimeError(f"no tracing acknowledgement from {' '.join(self.argv)}")
            time.sleep(0.01)

    def stop(self):
        """SIGTERM the process group, then wait for every process of the tree.

        Returns the parsed span file of a traced server, else ``None``.
        """
        tree = descendants(self.proc.pid) if self.proc.poll() is None else []
        try:
            os.killpg(self.proc.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        try:
            self.proc.wait(SIGNAL_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait(SIGNAL_TIMEOUT_S)
        deadline = time.monotonic() + SIGNAL_TIMEOUT_S
        while any(os.path.exists(f"/proc/{pid}") and _is_running(pid) for pid in tree):
            if time.monotonic() > deadline:
                for pid in tree:
                    _kill(pid)
                break
            time.sleep(0.02)
        if self.trace_out and os.path.exists(self.trace_out):
            with open(self.trace_out, encoding="utf-8") as handle:
                dump = json.load(handle)
            return dump["role"], dump["spans"]
        return None


def _is_running(pid: int) -> bool:
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
