"""``service-sessions``: the 26 traces streamed to ``repro serve``.

The server runs as its own process with its defaults (an acceptor and
two worker processes).  The load is a closed loop: each of
:data:`CLIENTS` threads opens a session, streams one trace with
``AnalysisClient``, waits for REPORT and only then starts the next, as
``repro client report`` does.  One operation is one session, from
connect to REPORT.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from time import perf_counter

from corpus import Cell
from measure import (
    MIN_SAMPLES, OpLog, children_of, cpu_s, overhead_pct, proc_peak_rss_mb,
    quiet_reference, run_until,
)
from repro.service import AnalysisClient

#: Closed-loop clients, one per core of the two-core host it was sized on.
CLIENTS = 2
#: The server accepts before its workers answer; the first session can
#: take most of a second, so readiness waits generously.
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


class Server:
    """One ``python -m repro serve`` process tree, started and stopped
    by the benchmark."""

    def __init__(self, root: Path, socket_path: str, *, admin: bool = False) -> None:
        self.root = root
        self.socket_path = socket_path
        self.admin_port: int | None = None
        self._admin = admin
        self._proc: subprocess.Popen | None = None
        self._workers: list[int] = []

    def start(self) -> None:
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        cmd = [sys.executable, "-m", "repro", "serve", "--socket", self.socket_path]
        if self._admin:
            cmd += ["--admin-port", "0"]
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self._proc = subprocess.Popen(
            cmd, cwd=self.root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE if self._admin else subprocess.DEVNULL,
            text=True,
        )
        if self._admin:
            banner = self._proc.stdout.readline()
            self.admin_port = int(banner.rsplit("admin http://", 1)[1].split(":")[1].split(")")[0])

    def wait_ready(self) -> None:
        """Wait until the socket accepts a connection (a file that
        exists may not be listening yet)."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        while True:
            if self._proc.poll() is not None:
                raise RuntimeError(f"server exited with {self._proc.returncode}")
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.connect(self.socket_path)
                return
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)
            finally:
                probe.close()

    @property
    def pids(self) -> list[int]:
        """The acceptor and its worker processes."""
        self._workers = children_of(self._proc.pid) or self._workers
        return [self._proc.pid, *self._workers]

    def peak_rss_mb(self) -> float:
        return sum(proc_peak_rss_mb(pid) for pid in self.pids)

    def scrape(self, path: str) -> dict:
        url = f"http://127.0.0.1:{self.admin_port}{path}"
        with urllib.request.urlopen(url, timeout=10) as resp:
            return json.loads(resp.read())

    def stop(self) -> None:
        """TERM the acceptor (it drains its workers) and wait for the
        whole tree; whatever outlives the timeout is killed."""
        if self._proc is None:
            return
        workers = self.pids if self._proc.poll() is None else self._workers
        self._proc.terminate()
        try:
            self._proc.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.communicate()
        deadline = time.monotonic() + STOP_TIMEOUT_S
        for pid in workers:
            while _alive(pid):
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                time.sleep(0.02)
        self._proc = None


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def session(socket_path: str, cell: Cell, calls: dict | None = None) -> tuple[float, str | None]:
    """One session; returns its latency and an error (``None`` when the
    REPORT equals the cell's reference byte for byte).  ``calls``
    receives each client call's duration in milliseconds."""
    start = perf_counter()
    try:
        with AnalysisClient(socket_path=socket_path) as client:
            t_conn = perf_counter()
            client.hello(cell.profile)
            t_hello = perf_counter()
            client.stream_file(cell.trace)
            t_stream = perf_counter()
            report = client.finish()
            end = perf_counter()
    except Exception as exc:  # noqa: BLE001 - a broken session is a failed op
        return perf_counter() - start, f"{cell.name}: {exc!r}"
    if calls is not None:
        calls["connect_ms"].append((t_conn - start) * 1e3)
        calls["hello_ms"].append((t_hello - t_conn) * 1e3)
        calls["stream_ms"].append((t_stream - t_hello) * 1e3)
        calls["finish_ms"].append((end - t_stream) * 1e3)
    if report != cell.report.encode("utf-8"):
        return end - start, f"{cell.name}: REPORT differs from offline report"
    return end - start, None


def warm_up(socket_path: str, corpus: list[Cell]) -> list[str]:
    """One session per profile; returns the errors."""
    first = {}
    for cell in corpus:
        first.setdefault(cell.profile, cell)
    return [err for cell in first.values() if (err := session(socket_path, cell)[1])]


def closed_loop(
    socket_path: str, corpus: list[Cell], seconds: float,
    calls: dict | None = None, min_ops: int = MIN_SAMPLES,
) -> OpLog:
    """:data:`CLIENTS` closed-loop clients until ``seconds`` have passed
    and ``min_ops`` sessions were attempted.

    The loop runs in rounds of one corpus pass, client ``i`` taking
    every :data:`CLIENTS`-th cell from the ``i``-th.  Between rounds,
    while no session runs, the reference loop is timed on every CPU; a
    round's operations are scaled by the timings on either side of it.
    """
    log = OpLog()
    lock = threading.Lock()
    more = run_until(seconds, lambda: log.attempted, min_ops)
    cpus = os.sched_getaffinity(0)
    state = {"go": True, "refs": [], "start": 0.0}

    def between_rounds() -> None:
        end = perf_counter()
        refs = quiet_reference(cpus)
        if state["refs"]:
            log.close_group(end - state["start"], statistics.median(state["refs"] + refs))
        state["refs"] = refs
        state["go"] = more()
        state["start"] = perf_counter()

    barrier = threading.Barrier(CLIENTS, action=between_rounds)

    def client(i: int) -> None:
        mine = corpus[i::CLIENTS]
        try:
            while True:
                barrier.wait()
                if not state["go"]:
                    return
                for cell in mine:
                    latency, error = session(socket_path, cell, calls)
                    with lock:
                        log.record(latency, cell.events, error)
        except BaseException:
            barrier.abort()  # the other clients must not wait for this one
            raise

    with ThreadPoolExecutor(CLIENTS) as pool:
        for future in [pool.submit(client, i) for i in range(CLIENTS)]:
            future.result()
    log.wall = perf_counter() - log.started
    return log


def _samples(snapshot: dict, name: str) -> list[float]:
    metric = snapshot["metrics"].get(name)
    return [s["value"] for s in metric["samples"]] if metric else [0.0]


def traced(server: Server, corpus: list[Cell], seconds: float, min_ops: int) -> tuple[OpLog, dict]:
    """The traced run: timed client calls, then a plain loop of the same
    length for the overhead figure, then the server's own counters."""
    calls = {key: [] for key in ("connect_ms", "hello_ms", "stream_ms", "finish_ms")}
    cpu = cpu_s()
    log = closed_loop(server.socket_path, corpus, seconds, calls, min_ops)
    cpu = cpu_s() - cpu
    plain = closed_loop(server.socket_path, corpus, seconds, min_ops=min_ops)
    merged = server.scrape("/metrics.json")
    with AnalysisClient(socket_path=server.socket_path) as client:
        per_worker = client.stats(per_worker=True)["workers"]
    routed = [
        len({s["labels"].get("session") for s in snap["metrics"].get(
            "repro_service_events_total", {"samples": []})["samples"]})
        for snap in per_worker.values()
    ]
    layers = {f"service.client.{key}": statistics.median(v) for key, v in calls.items()}
    layers.update({
        "service.backpressure_stalls": sum(_samples(merged, "repro_service_backpressure_stalls_total")),
        "service.queue_high_water": max(_samples(merged, "repro_service_queue_high_water")),
        "service.routed_max_share": max(routed) / sum(routed),
        "service.analysis_errors": sum(_samples(merged, "repro_service_analysis_errors_total")),
        "service.worker_restarts": sum(_samples(merged, "repro_service_worker_restarts_total")),
        "loadgen.cpu_s": cpu,
        "bench.trace_overhead_pct": overhead_pct(log, plain),
    })
    return log, layers
