"""One benchmark run: set-up, the timed or traced measurement, and
tear-down.  ``run.py`` is the entry point; this module needs the
program's ``src`` directory on ``sys.path``."""

from __future__ import annotations

import os
import shutil
import statistics
from pathlib import Path
from time import perf_counter

import corpus
import live
import measure
import replay
import sessions

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / ".work"
SETUP_REPS = 3
WORKLOADS = ("live-figure6", "replay-corpus", "service-sessions")

#: Every per-layer metric and its unit, reported by each traced run.
PER_LAYER = {
    "runtime.vm.events": "count",
    "runtime.vm.traps": "count",
    "runtime.vm.switches": "count",
    "runtime.vm.self_s": "s",
    "runtime.vm.vm_only_s": "s",
    "detectors.analysis_multiple": "x",
    "detectors.access_s": "s",
    "detectors.sync_s": "s",
    "detectors.handler_calls": "count",
    "runtime.codec.read_s": "s",
    "runtime.codec.decode_s": "s",
    "runtime.codec.blocks_decoded": "count",
    "runtime.codec.blocks_skipped": "count",
    "detectors.kernel_s": "s",
    "detectors.bulk_share": "ratio",
    "detectors.lockset.memo_hit_rate": "ratio",
    "detectors.lockset.pages": "count",
    "detectors.finalize_s": "s",
    "detectors.report.render_s": "s",
    "detectors.report.to_json_s": "s",
    "service.client.connect_ms": "ms",
    "service.client.hello_ms": "ms",
    "service.client.stream_ms": "ms",
    "service.client.finish_ms": "ms",
    "service.backpressure_stalls": "count",
    "service.queue_high_water": "count",
    "service.routed_max_share": "ratio",
    "service.analysis_errors": "count",
    "service.worker_restarts": "count",
    "loadgen.cpu_s": "s",
    "bench.trace_overhead_pct": "%",
}
END_TO_END = {
    "events_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class Bench:
    """One run: set-up, the timed (or traced) measurement, tear-down."""

    def __init__(self, args, facts) -> None:
        self.args = args
        self.facts = facts
        self.work = WORK / str(os.getpid())
        self.allowed = os.sched_getaffinity(0)
        self.server = None
        self.problems: list[str] = []
        self.cells: list[corpus.Cell] = []
        #: The plain run's figures in wall seconds, and the CPU's speed
        #: relative to the reference CPU, for the record.
        self.unscaled: dict[str, float] = {}
        self._setups = 0

    def close(self) -> None:
        self._stop_server()
        shutil.rmtree(self.work, ignore_errors=True)

    def _pin(self, pinned: bool) -> None:
        # The VM runs one carrier at a time, and its hand-offs are much
        # dearer across CPUs, so live and replay run on one CPU; the
        # service and its clients get every CPU.
        os.sched_setaffinity(0, {min(self.allowed)} if pinned else self.allowed)

    def _start_server(self) -> None:
        self._pin(False)
        sock = str((self.work / "s.sock").relative_to(ROOT))
        self.server = sessions.Server(ROOT, sock, admin=bool(self.args.trace))
        self.server.start()
        self.server.wait_ready()
        self.problems += sessions.warm_up(sock, self.cells)
        self.facts.affinity("server", self.server.pids[0])

    def _stop_server(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def setup(self) -> tuple[float, float]:
        """Record the corpus (and start the service); returns its wall
        seconds and the CPU's speed relative to the reference CPU, from
        a reference timing before each recorded cell."""
        self._stop_server()
        self.cells = corpus.cells()
        self._pin(True)
        self._setups += 1
        out = self.work / f"corpus{self._setups}"
        refs = []
        start = perf_counter()
        for cell in self.cells:
            refs.append(measure.ref_loop())
            corpus.record([cell], out, self.args.seed)
        if self.args.workload == "service-sessions":
            self._start_server()
        return perf_counter() - start - sum(refs), measure.REF_S / statistics.median(refs)

    def run(self):
        """Set up, then measure; returns the log, the values and units."""
        args = self.args
        setups = [self.setup() for _ in range(1 if args.trace else SETUP_REPS)]
        self.problems += corpus.check_reference(self.cells, args.seed, ROOT / "tests" / "data" / "baseline_reports")
        if args.workload != "live-figure6":
            # Live = offline: the offline replay is the reference the
            # replayed and served reports are held to.
            check = measure.OpLog()
            measure.run_pass(self.cells, check, replay.run_op)
            self.problems += check.errors
        if args.trace:
            return self.traced()
        log, rss = self.timed()
        self.unscaled = {
            **log.end_to_end(scale=False),
            "setup_s": statistics.median(wall for wall, _ in setups),
            "host_speed": log.host_speed(),
            "setup_host_speed": statistics.median(speed for _, speed in setups),
        }
        values = {
            **log.end_to_end(),
            "peak_rss_mb": rss,
            "setup_s": statistics.median(wall * speed for wall, speed in setups),
        }
        return log, values, END_TO_END

    def timed(self):
        """The plain timed run; returns the log and the peak RSS in MB."""
        args = self.args
        if args.workload == "service-sessions":
            self.facts.affinity("bench", 0)
            log = sessions.closed_loop(self.server.socket_path, self.cells, args.seconds)
            return log, self.server.peak_rss_mb()
        self._pin(True)
        self.facts.affinity("bench", 0)
        if args.workload == "live-figure6":
            log = live.run_passes(self.cells, args.seed, args.seconds)
        else:
            log = replay.run_passes(self.cells, args.seconds)
        return log, measure.self_peak_rss_mb()

    def traced(self):
        """Every layer, measured: the workload's own tier for the run's
        length, then one corpus pass of each other tier, so no per-layer
        metric reads a placeholder."""
        own, layers = self._trace_tier(self.args.workload, self.args.seconds, measure.MIN_SAMPLES)
        self.facts.affinity("bench", 0)
        for tier in WORKLOADS:
            if tier != self.args.workload:
                log, got = self._trace_tier(tier, 0, len(self.cells))
                own.attempted += log.attempted
                own.failed += log.failed
                own.errors += log.errors
                for name, value in got.items():
                    layers.setdefault(name, value)
        return own, {name: layers[name] for name in PER_LAYER}, PER_LAYER

    def _trace_tier(self, tier: str, seconds: float, min_ops: int):
        if tier == "service-sessions":
            if self.server is None:
                self._start_server()
            traced = sessions.traced(self.server, self.cells, seconds, min_ops)
            self._stop_server()
            return traced
        self._pin(True)
        if tier == "live-figure6":
            return live.traced(self.cells, self.args.seed, seconds, min_ops)
        return replay.traced(self.cells, seconds, min_ops)
