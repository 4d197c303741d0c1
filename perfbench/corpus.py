"""The 26-cell corpus every workload runs on.

T1–T8 under the paper's three configurations and T9/T10 under
``predictive``; cases come from ``evaluation_cases()`` and
``predictive_cases()`` with their default seed 2007, and the scheduler
seed is the benchmark's ``--seed``.  :func:`record` runs every cell live
once through :class:`~repro.runtime.trace.TraceRecorder`; the recorded
trace is the replay and service input and the live report is the
reference each later operation must reproduce byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.api import profiles
from repro.experiments.harness import run_proxy_case
from repro.runtime.trace import TraceRecorder
from repro.sip.workload import TestCase, evaluation_cases, predictive_cases

PAPER_CONFIGS = ("original", "hwlc", "hwlc+dr")
#: On the reference seed, the T1–T3 reports must equal the checked-in
#: baselines and the Figure-6 location totals must equal these.
REFERENCE_SEED = 42
FIGURE6_TOTALS = {"original": 530, "hwlc": 388, "hwlc+dr": 110}
BASELINE_CASES = ("T1", "T2", "T3")


@dataclass
class Cell:
    """One (case, profile) pair; ``report`` is its live reference."""

    case: TestCase
    profile: str
    trace: Path | None = None
    report: str = ""
    events: int = 0
    locations: int = 0

    @property
    def name(self) -> str:
        return f"{self.case.case_id}/{self.profile}"


def cells() -> list[Cell]:
    out = [Cell(case, cfg) for cfg in PAPER_CONFIGS for case in evaluation_cases()]
    out += [Cell(case, "predictive") for case in predictive_cases()]
    return out


def run_live(cell: Cell, seed: int, *, detector=None, extra_hooks=()):
    """Run one cell live; returns ``(detector, ExperimentRun)``."""
    det = detector if detector is not None else profiles.profile(cell.profile).detector()
    run = run_proxy_case(
        cell.case, cell.profile, seed=seed, detector=det, extra_hooks=extra_hooks
    )
    return det, run


def record(corpus: list[Cell], out_dir: Path, seed: int) -> None:
    """Record every cell's trace under ``out_dir`` and keep its live
    report as the reference."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for cell in corpus:
        path = out_dir / f"{cell.case.case_id}_{cell.profile}.rptr"
        with TraceRecorder(path) as recorder:
            det, run = run_live(cell, seed, extra_hooks=(recorder,))
        cell.trace = path
        cell.report = det.report.render()
        cell.events = run.events
        cell.locations = run.location_count


def check_reference(corpus: list[Cell], seed: int, baseline_dir: Path) -> list[str]:
    """Problems with the recorded references (empty = all good).

    Only the reference seed has absolute expectations; on other seeds
    the references are checked across tiers by the workloads.
    """
    if seed != REFERENCE_SEED:
        return []
    problems = []
    totals = {cfg: 0 for cfg in FIGURE6_TOTALS}
    for cell in corpus:
        if cell.profile in totals:
            totals[cell.profile] += cell.locations
        if cell.case.case_id in BASELINE_CASES and cell.profile in PAPER_CONFIGS:
            key = cell.profile.replace("+", "_")
            path = baseline_dir / f"{cell.case.case_id}_{key}.json"
            if path.read_text(encoding="utf-8") != cell.report:
                problems.append(f"{cell.name}: report differs from {path.name}")
    if totals != FIGURE6_TOTALS:
        problems.append(f"Figure-6 totals {totals} != {FIGURE6_TOTALS}")
    return problems
