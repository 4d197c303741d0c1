"""Integration tests: Telemetry woven into real VM runs.

The unit tests pin the metrics model; these tests pin the *weave* — that
an instrumented run of a known workload produces the metric families the
pipeline promises, with values that agree with the VM's own accounting.
"""

from __future__ import annotations

import pytest

from repro.detectors import DjitDetector, HelgrindConfig, HelgrindDetector
from repro.experiments.harness import run_proxy_case
from repro.experiments.performance import workload_guest
from repro.runtime import VM, RoundRobinScheduler
from repro.sip.workload import evaluation_cases
from repro.telemetry import Telemetry
from repro.telemetry.schema import REQUIRED_FAMILIES, validate_snapshot


def _instrumented_run(telemetry, detectors=None, n_threads=2, iterations=40):
    if detectors is None:
        detectors = (HelgrindDetector(HelgrindConfig.hwlc_dr()),)
    vm = VM(
        scheduler=RoundRobinScheduler(),
        detectors=detectors,
        telemetry=telemetry,
    )
    telemetry.attach(vm)
    vm.run(workload_guest, n_threads, iterations)
    telemetry.record_run(vm)
    return vm


class TestWorkloadRun:
    @pytest.fixture(scope="class")
    def run(self):
        telemetry = Telemetry()
        vm = _instrumented_run(telemetry)
        return telemetry, vm, telemetry.snapshot()

    def test_snapshot_passes_pipeline_schema(self, run):
        _, _, snap = run
        assert validate_snapshot(snap, require_families=REQUIRED_FAMILIES) == []

    def test_event_counts_match_vm_stats(self, run):
        telemetry, vm, _ = run
        reg = telemetry.registry
        for kind, count in vm.stats.events.items():
            assert reg.value("repro_events_total", {"kind": kind}) == count
        total = sum(
            s["value"]
            for s in telemetry.snapshot()["metrics"]["repro_events_total"][
                "samples"
            ]
        )
        assert total == vm.stats.total_events

    def test_host_context_switches_match_vm_stats(self, run):
        telemetry, vm, _ = run
        reg = telemetry.registry
        family = "repro_vm_host_context_switches_total"
        stats = vm.stats
        assert reg.value(family, {"kind": "voluntary"}) == stats.host_voluntary_switches
        assert reg.value(family, {"kind": "involuntary"}) == stats.host_involuntary_switches
        # Carrier hand-offs park host threads.
        assert stats.switches > 0 and stats.host_voluntary_switches > 0

    def test_expected_event_kinds_present(self, run):
        # The workload takes locks, reads/writes memory, spawns/joins
        # threads — all of those kinds must show up in the tally.
        telemetry, _, _ = run
        reg = telemetry.registry
        for kind in (
            "MemoryAccess",
            "LockAcquire",
            "LockRelease",
            "ThreadCreate",
            "ThreadJoin",
        ):
            assert reg.value("repro_events_total", {"kind": kind}) > 0, kind

    def test_cache_hit_rates_nonzero(self, run):
        telemetry, vm, _ = run
        reg = telemetry.registry
        # Route cache: far more events than distinct event types.
        builds = reg.value("repro_vm_route_builds_total")
        hits = reg.value("repro_vm_route_cache_hits_total")
        assert builds == len(vm._dispatch)
        assert hits > builds > 0
        # Block-lookup cache: the loop hammers the same couple of blocks.
        block_hits = reg.value(
            "repro_block_cache_hits_total", {"slot": "last"}
        ) + reg.value("repro_block_cache_hits_total", {"slot": "prev"})
        assert block_hits > 0
        # Lock-set memo: repeated accesses under one lock-set intern once.
        memo_hits = sum(
            reg.value("repro_lockset_memo_hits_total", {"op": op})
            for op in ("intern", "intersect", "with", "without")
        )
        assert memo_hits > 0
        assert reg.value("repro_lockset_table_size") > 0

    def test_detector_accounting(self, run):
        telemetry, vm, snap = run
        reg = telemetry.registry
        # Every event the helgrind detector subscribed to was timed.
        routed = sum(
            s["value"]
            for s in snap["metrics"]["repro_detector_events_total"]["samples"]
            if s["labels"]["detector"] == "helgrind"
        )
        assert 0 < routed <= vm.stats.total_events
        assert telemetry.detector_busy_seconds() > 0
        # The shadow-state machine saw transitions (Figure 5 material).
        assert "repro_state_transitions_total" in snap["metrics"]
        assert "repro_shadow_words" in snap["metrics"]
        # Detector-declared summary stats.
        assert (
            reg.value(
                "repro_detector_state",
                {"detector": "helgrind", "stat": "access_checks"},
            )
            > 0
        )
        assert reg.value("repro_runs_total") == 1


class TestDisabled:
    def test_disabled_telemetry_is_inert(self):
        telemetry = Telemetry(enabled=False)
        vm = VM(scheduler=RoundRobinScheduler())
        assert telemetry.attach(vm) is vm
        assert getattr(vm, "_telemetry", None) is None
        vm.run(workload_guest, 1, 10)
        telemetry.record_run(vm)
        with telemetry.phase("x"):
            pass
        assert telemetry.snapshot()["metrics"] == {}

    def test_wrap_handler_identity_when_disabled(self):
        telemetry = Telemetry(enabled=False)

        def handler(event, vm):  # pragma: no cover - never called
            pass

        assert telemetry.wrap_handler(object(), type("E", (), {}), handler) is handler

    def test_unattached_vm_keeps_fast_path(self):
        # No telemetry kwarg at all: routes must be the raw bound methods.
        vm = VM(
            scheduler=RoundRobinScheduler(),
            detectors=(HelgrindDetector(HelgrindConfig.hwlc_dr()),),
        )
        vm.run(workload_guest, 1, 10)
        assert all(
            getattr(fn, "__name__", "") != "timed"
            for handlers in vm._dispatch.values()
            for fn in handlers
        )


class TestDetectorNaming:
    def test_two_same_type_detectors_get_distinct_names(self):
        telemetry = Telemetry()
        dets = (
            HelgrindDetector(HelgrindConfig.hwlc_dr()),
            HelgrindDetector(HelgrindConfig.original()),
        )
        _instrumented_run(telemetry, detectors=dets, n_threads=1, iterations=10)
        snap = telemetry.snapshot()
        names = {
            s["labels"]["detector"]
            for s in snap["metrics"]["repro_detector_events_total"]["samples"]
        }
        assert names == {"helgrind", "helgrind#2"}

    def test_fresh_detectors_across_vms_aggregate_under_one_name(self):
        # The Figure-6 sweep builds a fresh detector per cell; they must
        # all fold into one "helgrind" series, not helgrind#2..#24.
        telemetry = Telemetry()
        for _ in range(3):
            _instrumented_run(telemetry, n_threads=1, iterations=10)
        snap = telemetry.snapshot()
        names = {
            s["labels"]["detector"]
            for s in snap["metrics"]["repro_detector_events_total"]["samples"]
        }
        assert names == {"helgrind"}
        assert telemetry.registry.value("repro_runs_total") == 3


class TestEmitTiming:
    def test_time_emit_breakdown_ordering(self):
        telemetry = Telemetry()
        det = HelgrindDetector(HelgrindConfig.hwlc_dr())
        vm = VM(
            scheduler=RoundRobinScheduler(),
            detectors=(det,),
            telemetry=telemetry,
        )
        telemetry.attach(vm, time_emit=True)
        vm.run(workload_guest, 1, 60)
        emit = telemetry.emit_seconds()
        busy = telemetry.detector_busy_seconds()
        # emit wraps dispatch + detector work, so it must dominate.
        assert emit > busy > 0
        assert telemetry.registry.value("repro_emit_calls_total") > 0


class TestTracing:
    def test_trace_spans_emitted(self):
        telemetry = Telemetry(trace=True, batch_events=64)
        with telemetry.phase("unit-test"):
            _instrumented_run(telemetry, n_threads=1, iterations=60)
        telemetry.flush()
        doc = telemetry.tracer.to_chrome()
        cats = {e.get("cat") for e in doc["traceEvents"]}
        assert "detector" in cats  # batch spans
        assert "phase" in cats  # the phase() span
        # The helgrind track got named.
        assert any(
            e["ph"] == "M" and e["args"]["name"] == "helgrind"
            for e in doc["traceEvents"]
        )

    def test_batch_histogram_observed(self):
        telemetry = Telemetry(batch_events=64)
        _instrumented_run(telemetry, n_threads=1, iterations=60)
        telemetry.flush()
        hist = telemetry.registry.get(
            "repro_detector_batch_busy_seconds", {"detector": "helgrind"}
        )
        assert hist is not None and hist.count > 0


class TestProxyCase:
    def test_t1_instrumented_run_matches_report(self):
        case = next(c for c in evaluation_cases() if c.case_id == "T1")
        telemetry = Telemetry()
        run = run_proxy_case(case, "hwlc+dr", telemetry=telemetry)
        reg = telemetry.registry
        snap = telemetry.snapshot()
        assert validate_snapshot(snap, require_families=REQUIRED_FAMILIES) == []
        # Event tally agrees with the run record.
        total = sum(
            s["value"] for s in snap["metrics"]["repro_events_total"]["samples"]
        )
        assert total == run.events
        # Warning-location gauges sum to the Figure-6 location count.
        locations = sum(
            s["value"]
            for s in snap["metrics"].get("repro_warning_locations", {}).get(
                "samples", []
            )
            if s["labels"]["detector"] == "helgrind"
        )
        assert locations == run.location_count
        # The run was wrapped in its case/config phase.
        assert reg.value(
            "repro_phase_seconds_total", {"phase": "T1/hwlc+dr"}
        ) > 0

    def test_uninstrumented_run_identical_results(self):
        case = next(c for c in evaluation_cases() if c.case_id == "T1")
        plain = run_proxy_case(case, "hwlc+dr")
        instr = run_proxy_case(case, "hwlc+dr", telemetry=Telemetry())
        assert plain.location_count == instr.location_count
        assert plain.events == instr.events
        assert plain.classified.counts == instr.classified.counts

    def test_djit_deep_dive(self):
        # The stats/deep-dive path: a non-helgrind detector still yields
        # busy-time series and its own summary vocabulary.
        case = next(c for c in evaluation_cases() if c.case_id == "T1")
        telemetry = Telemetry()
        run_proxy_case(case, "hwlc+dr", detector=DjitDetector(), telemetry=telemetry)
        reg = telemetry.registry
        assert (
            reg.value(
                "repro_detector_state",
                {"detector": "djit", "stat": "logged_words"},
            )
            > 0
        )
