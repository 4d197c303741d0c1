"""The predictive tier: cross-thread lock sets and deadlock prediction.

T9 and T10 are the latent-bug cases: the host paces their threads so
the seeded bug never fires in the observed interleaving — the legacy
configurations stay silent about it — while the ``predictive`` profile
reconstructs the alternative schedule offline:

* **T9** takes ``registrar → domain`` in one thread and ``domain →
  registrar`` across a fork (the second lock is acquired by a helper
  thread under the parent's critical section), a lock-order cycle no
  single-thread lock graph can see;
* **T10** warms a probe word up without the statistics lock before any
  reader exists — Eraser's EXCLUSIVE warm-up hides it live, the
  predictive pair analysis does not.

Everything predicted must survive offline replay with byte-identical
reports — predictions are part of the finalize()
contract, not a side channel.
"""

from __future__ import annotations

import json

import pytest

from repro.api.profiles import profile
from repro.detectors.report import WarningKind
from repro.experiments.harness import run_proxy_case
from repro.runtime.trace import TraceRecorder, replay_trace
from repro.sip.workload import evaluation_cases, predictive_cases

LEGACY = ("original", "hwlc", "hwlc+dr")
PREDICTED_KINDS = (WarningKind.PREDICTED_RACE, WarningKind.PREDICTED_DEADLOCK)


def _case(case_id: str):
    by_id = {c.case_id: c for c in (*evaluation_cases(), *predictive_cases())}
    return by_id[case_id]


def _run(case_id: str, config: str):
    """Run a case live under a config; returns the detector."""
    det = profile(config).detector()
    run_proxy_case(_case(case_id), config, seed=42, detector=det)
    return det


def _predicted(report):
    return [w for w in report.warnings if w.kind in PREDICTED_KINDS]


@pytest.fixture(scope="module")
def predictive_runs():
    """T9/T10 run once under the predictive profile."""
    return {case_id: _run(case_id, "predictive") for case_id in ("T9", "T10")}


class TestLatentDeadlock:
    def test_t9_deadlock_predicted(self, predictive_runs):
        det = predictive_runs["T9"]
        predicted = _predicted(det.report)
        assert [w.kind for w in predicted] == [WarningKind.PREDICTED_DEADLOCK]
        assert "Predicted deadlock" in predicted[0].message

    def test_t9_never_deadlocks_live(self, predictive_runs):
        # The cycle is predicted, not observed: no live deadlock or
        # lock-order warning in the same report.
        det = predictive_runs["T9"]
        live_kinds = {
            w.kind for w in det.report.warnings
            if w.kind not in PREDICTED_KINDS
        }
        assert WarningKind.DEADLOCK not in live_kinds
        assert WarningKind.LOCK_ORDER not in live_kinds

    def test_t9_stats(self, predictive_runs):
        stats = predictive_runs["T9"].predict_stats()
        assert stats["edges"] >= 2
        assert stats["cycles_checked"] >= 1
        assert stats["predictions"] == 1

    @pytest.mark.parametrize("config", LEGACY)
    def test_legacy_configs_stay_silent(self, config):
        det = _run("T9", config)
        assert _predicted(det.report) == []
        live_kinds = {w.kind for w in det.report.warnings}
        assert WarningKind.DEADLOCK not in live_kinds
        assert WarningKind.LOCK_ORDER not in live_kinds


class TestLatentRace:
    def test_t10_race_predicted(self, predictive_runs):
        det = predictive_runs["T10"]
        predicted = _predicted(det.report)
        assert [w.kind for w in predicted] == [WarningKind.PREDICTED_RACE]
        assert predicted[0].stack, "prediction must carry the access stack"

    def test_t10_race_invisible_live(self, predictive_runs):
        # The probe word itself races only in the predicted schedule —
        # live, the writer owns it EXCLUSIVE before the reader arrives.
        det = predictive_runs["T10"]
        addr = _predicted(det.report)[0].addr
        live_here = [
            w for w in det.report.warnings
            if w.kind == WarningKind.DATA_RACE and w.addr == addr
        ]
        assert live_here == []

    def test_t10_stats(self, predictive_runs):
        assert predictive_runs["T10"].predict_stats()["predictions"] == 1

    @pytest.mark.parametrize("config", LEGACY)
    def test_legacy_configs_stay_silent(self, config):
        det = _run("T10", config)
        assert _predicted(det.report) == []


class TestNoNewNoise:
    @pytest.mark.parametrize("case_id", ("T1", "T2", "T3"))
    def test_paper_cases_gain_no_predictions(self, case_id):
        """The predictive tier must not pollute the Figure 6 rows: on
        the paper's cases every race either manifests live or is
        filtered (bus-mode guard, init-phase exemption)."""
        det = _run(case_id, "predictive")
        assert _predicted(det.report) == []

    def test_t1_live_findings_match_hwlc_dr(self):
        predictive = _run("T1", "predictive")
        legacy = _run("T1", "hwlc+dr")
        assert predictive.report.render() == legacy.report.render()


class TestReplayParity:
    @pytest.mark.parametrize("case_id", ("T9", "T10"))
    def test_live_and_replay_byte_identical(self, tmp_path, case_id):
        live = profile("predictive").detector()
        path = tmp_path / f"{case_id}.rptr"
        with TraceRecorder(path, format="binary") as recorder:
            run_proxy_case(_case(case_id), "predictive", seed=42,
                           detector=live, extra_hooks=(recorder,))
        reference = live.report.render()
        assert _predicted(live.report), "live run must predict"

        offline = profile("predictive").detector()
        replay_trace(path, offline)
        offline.finalize()
        assert offline.report.render() == reference

    def test_report_json_round_trip(self, predictive_runs):
        from repro.detectors.report import validate_report_json

        det = predictive_runs["T9"]
        doc = det.report.to_json()
        assert validate_report_json(doc) == []
        kinds = [f["kind"] for f in doc["findings"] if f["predicted"]]
        assert kinds == ["predicted_deadlock"]
