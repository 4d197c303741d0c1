"""``live-figure6``: the 26 cells run live through ``run_proxy_case``.

The only workload through ``runtime.vm`` (carrier hand-off, traps,
per-event dispatch) and the detectors' live handlers.  One operation
is one cell: the live run plus rendering its report.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import measure
from corpus import Cell, run_live
from measure import OpLog, cpu_s, overhead_pct, run_pass, run_until
from repro.api import profiles
from repro.detectors.report import Report
from repro.runtime.events import MemoryAccess, ThreadCreate


def run_op(cell: Cell, log: OpLog, seed: int, probe: "LayerProbe | None" = None) -> None:
    """Run one cell and check its report against the reference."""
    start = perf_counter()
    try:
        det = hooks = None
        if probe is not None:
            det, hooks = probe.arm(cell)
        det, run = run_live(cell, seed, detector=det, extra_hooks=hooks or ())
        cell_s = perf_counter() - start
        text = det.report.render()
        rendered = perf_counter()
        if probe is not None:
            det.report.to_json()
            probe.disarm(det, cell_s, rendered - start - cell_s, perf_counter() - rendered)
    except Exception as exc:  # noqa: BLE001 - a crashed cell is a failed op
        log.record(perf_counter() - start, 0, f"{cell.name}: {exc!r}")
        return
    error = None if text == cell.report else f"{cell.name}: report differs from reference"
    log.record(rendered - start, run.events, error)


def run_passes(corpus: list[Cell], seed: int, seconds: float) -> OpLog:
    """The plain timed run."""
    return measure.run_passes(corpus, seconds, lambda cell, log: run_op(cell, log, seed))


class _VMGrab:
    """Extra VM hook subscribed to one event type, there only to catch
    the ``vm`` object so its ``stats`` can be read after the run."""

    def __init__(self) -> None:
        self.vm = None

    def handler_for(self, event_type):
        return self._grab if event_type is ThreadCreate else None

    def _grab(self, event, vm) -> None:
        self.vm = vm


class _NullDetector:
    """A detector that subscribes to nothing: the VM-only baseline."""

    def __init__(self) -> None:
        self.report = Report()

    def handler_for(self, event_type):
        return None

    def finalize(self) -> None:
        pass


class LayerProbe:
    """Per-pass layer sums for the traced live run.

    Handler time is taken by wrapping the detector's ``handler_for`` on
    the instance, so the VM builds its routes from timed closures; live
    dispatch has no bulk path that a wrapper could disable.
    """

    def __init__(self) -> None:
        self.passes: list[dict] = []

    def new_pass(self) -> None:
        self.passes.append(dict.fromkeys(
            ("events", "traps", "switches", "cell_s", "access_s", "sync_s",
             "handler_calls", "finalize_s", "render_s", "to_json_s",
             "memo_hits", "memo_misses", "pages"), 0))

    def arm(self, cell: Cell):
        det = profiles.profile(cell.profile).detector()
        acc = self._acc = [0.0, 0.0, 0, 0.0]  # access_s, sync_s, calls, finalize_s
        inner = det.handler_for

        def handler_for(event_type):
            fn = inner(event_type)
            if fn is None:
                return None
            slot = 0 if event_type is MemoryAccess else 1

            def timed(event, vm, fn=fn, pc=perf_counter):
                t = pc()
                fn(event, vm)
                acc[slot] += pc() - t
                acc[2] += 1

            return timed

        inner_finalize = det.finalize

        def finalize():
            t = perf_counter()
            inner_finalize()
            acc[3] += perf_counter() - t

        det.handler_for = handler_for
        det.finalize = finalize
        self._grab = _VMGrab()
        return det, (self._grab,)

    def disarm(self, det, cell_s: float, render_s: float, to_json_s: float) -> None:
        cur = self.passes[-1]
        stats = self._grab.vm.stats
        access_s, sync_s, calls, finalize_s = self._acc
        memo = det.machine.transition_cache_stats()
        cur["events"] += stats.total_events
        cur["traps"] += stats.traps
        cur["switches"] += stats.switches
        cur["cell_s"] += cell_s
        cur["access_s"] += access_s
        cur["sync_s"] += sync_s
        cur["handler_calls"] += calls
        cur["finalize_s"] += finalize_s
        cur["render_s"] += render_s
        cur["to_json_s"] += to_json_s
        cur["memo_hits"] += memo["hits"]
        cur["memo_misses"] += memo["misses"]
        cur["pages"] += det.machine.shadow_stats()["pages"]


def vm_only_pass(corpus: list[Cell], seed: int) -> float:
    """Wall time of one pass with a detector that subscribes to nothing."""
    start = perf_counter()
    for cell in corpus:
        run_live(cell, seed, detector=_NullDetector())
    return perf_counter() - start


def traced(corpus: list[Cell], seed: int, seconds: float, min_ops: int) -> tuple[OpLog, dict]:
    """The traced run: rounds of one layer-timed pass, one plain pass
    (for the overhead) and one VM-only pass (for the analysis multiple),
    interleaved so drift on the host hits all three alike."""
    probe = LayerProbe()
    log, plain = OpLog(), OpLog()
    vm_only = []
    cpu = 0.0
    more = run_until(seconds, lambda: log.attempted, min_ops)
    while more():
        probe.new_pass()
        cpu -= cpu_s()
        run_pass(corpus, log, lambda cell, log: run_op(cell, log, seed, probe))
        cpu += cpu_s()
        run_pass(corpus, plain, lambda cell, log: run_op(cell, log, seed))
        vm_only.append(vm_only_pass(corpus, seed))
    first = probe.passes[0]

    def med(key):
        return statistics.median(p[key] for p in probe.passes)

    self_s = [p["cell_s"] - p["access_s"] - p["sync_s"] - p["finalize_s"] for p in probe.passes]
    memo_hits, memo_misses = first["memo_hits"], first["memo_misses"]
    layers = {
        "runtime.vm.events": first["events"],
        "runtime.vm.traps": first["traps"],
        "runtime.vm.switches": first["switches"],
        "runtime.vm.self_s": statistics.median(self_s),
        "runtime.vm.vm_only_s": statistics.median(vm_only),
        "detectors.analysis_multiple": plain.wall / sum(vm_only),
        "detectors.access_s": med("access_s"),
        "detectors.sync_s": med("sync_s"),
        "detectors.handler_calls": first["handler_calls"],
        "detectors.finalize_s": med("finalize_s"),
        "detectors.report.render_s": med("render_s"),
        "detectors.report.to_json_s": med("to_json_s"),
        "detectors.lockset.memo_hit_rate": memo_hits / max(1, memo_hits + memo_misses),
        "detectors.lockset.pages": first["pages"],
        "loadgen.cpu_s": cpu,
        "bench.trace_overhead_pct": overhead_pct(log, plain),
    }
    return log, layers
