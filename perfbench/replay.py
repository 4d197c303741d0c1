"""``replay-corpus``: the 26 recorded traces replayed offline.

One operation is one trace: ``Pipeline(profile).replay(trace)`` and
``render()`` of the report.  This skips the VM and stresses the codec's
decode, the detector's bulk kernel and report output.  Nothing here may
wrap a ``MemoryAccess`` handler: the codec only batches a bound method,
so a wrapper would silently move replay onto the per-event path.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import measure
from corpus import Cell
from measure import OpLog, cpu_s, overhead_pct, run_pass, run_until
from repro.api import Pipeline
from repro.runtime.codec import ReplayStats
from repro.runtime.events import EVENT_TYPES, MemoryAccess
from repro.runtime.trace import replay_trace


def run_op(cell: Cell, log: OpLog) -> None:
    """Replay one trace and check its report against the live one."""
    start = perf_counter()
    try:
        text = Pipeline(cell.profile).replay(cell.trace).render()
    except Exception as exc:  # noqa: BLE001 - a crashed replay is a failed op
        log.record(perf_counter() - start, 0, f"{cell.name}: {exc!r}")
        return
    error = None if text == cell.report else f"{cell.name}: replay differs from live"
    log.record(perf_counter() - start, cell.events, error)


def run_passes(corpus: list[Cell], seconds: float) -> OpLog:
    """The plain timed run."""
    return measure.run_passes(corpus, seconds, run_op)


class _DecodeSink:
    """Subscribes to the detector's event types with no-op handlers, so
    a replay through it costs decode and dispatch only; counts the
    ``MemoryAccess`` rows it sees."""

    def __init__(self, detector) -> None:
        self._wanted = {t for t in EVENT_TYPES if detector.handler_for(t) is not None}
        self.access_rows = 0

    def handler_for(self, event_type):
        if event_type not in self._wanted:
            return None
        return self._count if event_type is MemoryAccess else self._ignore

    def _count(self, event, vm) -> None:
        self.access_rows += 1

    def _ignore(self, event, vm) -> None:
        pass


class LayerProbe:
    """Per-pass layer sums for the traced replay run."""

    KEYS = ("read_s", "replay_s", "decode_s", "finalize_s", "render_s",
            "to_json_s", "blocks_decoded", "blocks_skipped", "memo_hits",
            "memo_misses", "pages", "access_rows", "bulk_rows")

    def __init__(self) -> None:
        self.passes: list[dict] = []

    def new_pass(self) -> None:
        self.passes.append(dict.fromkeys(self.KEYS, 0))

    def op(self, cell: Cell, log: OpLog) -> None:
        """The traced operation: the same replay as :func:`run_op`,
        split at each layer boundary."""
        cur = self.passes[-1]
        start = perf_counter()
        try:
            cell.trace.read_bytes()
            t_read = perf_counter()
            det = Pipeline(cell.profile).detector()
            stats = ReplayStats()
            t0 = perf_counter()
            replay_trace(cell.trace, det, stats=stats)
            t1 = perf_counter()
            det.finalize()
            t2 = perf_counter()
            text = det.report.render()
            t3 = perf_counter()
            det.report.to_json()
            t4 = perf_counter()
            sink = _DecodeSink(det)
            replay_trace(cell.trace, sink)
            t5 = perf_counter()
        except Exception as exc:  # noqa: BLE001 - a crashed replay is a failed op
            log.record(perf_counter() - start, 0, f"{cell.name}: {exc!r}")
            return
        memo = det.machine.transition_cache_stats()
        for key, value in (
            ("read_s", t_read - start), ("replay_s", t1 - t0),
            ("decode_s", t5 - t4), ("finalize_s", t2 - t1),
            ("render_s", t3 - t2), ("to_json_s", t4 - t3),
            ("blocks_decoded", stats.blocks_decoded),
            ("blocks_skipped", stats.blocks_skipped_type + stats.blocks_skipped_shard),
            ("memo_hits", memo["hits"]), ("memo_misses", memo["misses"]),
            ("pages", det.machine.shadow_stats()["pages"]),
            ("access_rows", sink.access_rows),
            ("bulk_rows", sink.access_rows if det.bulk_access_ready() else 0),
        ):
            cur[key] += value
        error = None if text == cell.report else f"{cell.name}: replay differs from live"
        log.record(t3 - t_read, cell.events, error)


def traced(corpus: list[Cell], seconds: float, min_ops: int) -> tuple[OpLog, dict]:
    """The traced run: rounds of one layer-split pass and one plain pass
    (for the overhead), interleaved so drift on the host hits both."""
    probe = LayerProbe()
    log, plain = OpLog(), OpLog()
    cpu = 0.0
    more = run_until(seconds, lambda: log.attempted, min_ops)
    while more():
        probe.new_pass()
        cpu -= cpu_s()
        run_pass(corpus, log, probe.op)
        cpu += cpu_s()
        run_pass(corpus, plain, run_op)
    first = probe.passes[0]

    def med(key):
        return statistics.median(p[key] for p in probe.passes)

    memo_hits, memo_misses = first["memo_hits"], first["memo_misses"]
    layers = {
        "runtime.codec.read_s": med("read_s"),
        "runtime.codec.decode_s": med("decode_s"),
        "runtime.codec.blocks_decoded": first["blocks_decoded"],
        "runtime.codec.blocks_skipped": first["blocks_skipped"],
        "detectors.kernel_s": statistics.median(p["replay_s"] - p["decode_s"] for p in probe.passes),
        "detectors.bulk_share": first["bulk_rows"] / max(1, first["access_rows"]),
        "detectors.finalize_s": med("finalize_s"),
        "detectors.report.render_s": med("render_s"),
        "detectors.report.to_json_s": med("to_json_s"),
        "detectors.lockset.memo_hit_rate": memo_hits / max(1, memo_hits + memo_misses),
        "detectors.lockset.pages": first["pages"],
        "loadgen.cpu_s": cpu,
        "bench.trace_overhead_pct": overhead_pct(log, plain),
    }
    return log, layers
