"""Byte-identical report baselines across the analysis fast path.

The fast path (interned lock-sets, ExeContext stack interning,
dispatch-table event routing, load/store block fusion) must be
*behaviour-preserving*: same Figure-6 location counts, same warning
stacks, same details, same dynamic occurrence counts.  The JSON files
under ``tests/data/baseline_reports/`` were generated from the pre-fast-
path detector; this test regenerates T1-T3 under all three evaluation
configurations and demands the serialised reports match byte for byte.

Regenerate (only after an *intentional* behaviour change)::

    PYTHONPATH=src python tests/experiments/test_baseline_regression.py

and review the diff like any golden-file update.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.detectors import HelgrindDetector, Report
from repro.detectors.helgrind import HelgrindConfig
from repro.experiments.harness import run_proxy_case
from repro.sip.workload import evaluation_cases

BASELINE_DIR = Path(__file__).resolve().parent.parent / "data" / "baseline_reports"

CASES = ("T1", "T2", "T3")
CONFIGS = {
    "original": HelgrindConfig.original,
    "hwlc": HelgrindConfig.hwlc,
    "hwlc_dr": HelgrindConfig.hwlc_dr,
}
#: File-name config key -> harness config name.
_HARNESS_NAMES = {"original": "original", "hwlc": "hwlc", "hwlc_dr": "hwlc+dr"}


def _generate(case_id: str, config_key: str) -> Report:
    """One detector report, exactly as the Figure-6 harness produces it."""
    case = next(c for c in evaluation_cases() if c.case_id == case_id)
    detector = HelgrindDetector(CONFIGS[config_key]())
    run_proxy_case(case, _HARNESS_NAMES[config_key], detector=detector)
    return detector.report


def _baseline_path(case_id: str, config_key: str) -> Path:
    return BASELINE_DIR / f"{case_id}_{config_key}.json"


@pytest.mark.parametrize("case_id", CASES)
@pytest.mark.parametrize("config_key", sorted(CONFIGS))
def test_report_matches_pre_fastpath_baseline(case_id, config_key, tmp_path):
    path = _baseline_path(case_id, config_key)
    assert path.exists(), (
        f"missing baseline {path}; regenerate with "
        "`PYTHONPATH=src python tests/experiments/test_baseline_regression.py`"
    )
    report = _generate(case_id, config_key)

    # Byte-identical serialisation against the stored golden file.
    regenerated = tmp_path / path.name
    report.save(regenerated)
    assert regenerated.read_bytes() == path.read_bytes(), (
        f"{case_id}/{config_key}: classified report changed across the "
        "fast path — the optimisation must be behaviour-preserving"
    )

    # Save/load round-trip preserves the Figure-6 metrics and stacks.
    loaded = Report.load(path)
    assert loaded.location_count == report.location_count
    assert loaded.dynamic_count == report.dynamic_count
    assert [w.stack for w in loaded] == [w.stack for w in report]
    assert [w.location_key for w in loaded] == [w.location_key for w in report]


@pytest.mark.parametrize("host", ["refused", "missing"])
def test_carrier_policy_fallback_keeps_the_report(host, monkeypatch, tmp_path):
    """Carriers ask for SCHED_BATCH; where the host refuses the call or
    lacks it, the run goes on unchanged and the report is byte-identical."""
    calls = []
    if host == "refused":

        def refuse(*args):
            calls.append(args)
            raise OSError("operation not permitted")

        monkeypatch.setattr(os, "sched_setscheduler", refuse, raising=False)
    else:
        monkeypatch.delattr(os, "sched_setscheduler", raising=False)
    report = _generate("T1", "hwlc_dr")
    regenerated = tmp_path / "T1_hwlc_dr.json"
    report.save(regenerated)
    assert regenerated.read_bytes() == _baseline_path("T1", "hwlc_dr").read_bytes()
    if host == "refused":
        assert calls  # every carrier asked, and carried on


def test_baseline_files_are_valid_json():
    for case_id in CASES:
        for config_key in CONFIGS:
            data = json.loads(
                _baseline_path(case_id, config_key).read_text(encoding="utf-8")
            )
            assert data["warnings"], (case_id, config_key)


def main() -> None:  # pragma: no cover - manual regeneration entry point
    BASELINE_DIR.mkdir(parents=True, exist_ok=True)
    for case_id in CASES:
        for config_key in CONFIGS:
            report = _generate(case_id, config_key)
            path = _baseline_path(case_id, config_key)
            report.save(path)
            print(f"wrote {path} ({report.location_count} locations)")


if __name__ == "__main__":  # pragma: no cover
    main()
