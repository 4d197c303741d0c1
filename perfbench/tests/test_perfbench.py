"""Tests of the benchmark itself: its checks, its statistics, and that
tracing leaves replay on the batched path.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import corpus  # noqa: E402
import live  # noqa: E402
import measure  # noqa: E402
import replay  # noqa: E402
import sessions  # noqa: E402
from repro.detectors.helgrind import HelgrindDetector  # noqa: E402

#: Small cells: a paper configuration on each path, plus a predictive one.
SMALL = {"T3/hwlc+dr", "T8/original", "T10/predictive"}


@pytest.fixture(scope="module")
def cells(tmp_path_factory):
    chosen = [c for c in corpus.cells() if c.name in SMALL]
    corpus.record(chosen, tmp_path_factory.mktemp("corpus"), corpus.REFERENCE_SEED)
    return chosen


def _corrupted(cell):
    return corpus.Cell(cell.case, cell.profile, cell.trace, cell.report + " ", cell.events)


def test_percentile_needs_ten_samples_beyond():
    assert measure.MIN_SAMPLES == 100
    samples = list(range(1, 101))
    assert measure.percentile(samples, 90) == 90
    with pytest.raises(ValueError):
        measure.percentile(samples[:99], 90)
    assert measure.percentile(list(range(1, 21)), 50) == 10


def _log(seconds, ref):
    log = measure.OpLog()
    for i, s in enumerate(seconds):
        log.reference(ref * (1 + i % 3 / 100))
        log.record(s, 1000, None)
        if i % 20 == 19:
            log.close_group()
    return log


def test_reference_seconds_cancel_host_speed():
    seconds = [0.01 * (1 + i % 7) for i in range(120)]
    fast = _log(seconds, measure.REF_S)
    slow = _log([2 * s for s in seconds], 2 * measure.REF_S)
    assert slow.host_speed() == pytest.approx(fast.host_speed() / 2)
    for name, value in fast.end_to_end().items():
        assert slow.end_to_end()[name] == pytest.approx(value)
    assert slow.end_to_end(scale=False)["op_p50_ms"] == pytest.approx(2 * fast.end_to_end(scale=False)["op_p50_ms"])


def test_groups_of_overlapping_operations_use_their_wall_time():
    log = measure.OpLog()
    for _ in range(2):
        for _ in range(60):
            log.record(0.02, 500, None)
        log.close_group(0.6, 2 * measure.REF_S)
    assert log.end_to_end()["events_per_s"] == pytest.approx(60 * 500 / 0.3)
    assert log.end_to_end()["op_p90_ms"] == pytest.approx(10.0)


@pytest.mark.parametrize("workload", ["live", "replay"])
def test_corrupted_reference_fails_its_operation(cells, workload):
    log = measure.OpLog()
    for cell in cells:
        if workload == "live":
            live.run_op(cell, log, corpus.REFERENCE_SEED)
            live.run_op(_corrupted(cell), log, corpus.REFERENCE_SEED)
        else:
            replay.run_op(cell, log)
            replay.run_op(_corrupted(cell), log)
    assert (log.attempted, log.failed) == (2 * len(cells), len(cells))
    assert all("differs" in e for e in log.errors)


def test_corrupted_reference_fails_its_session(cells, tmp_path):
    server = sessions.Server(ROOT, str(tmp_path / "s.sock"))
    server.start()
    try:
        server.wait_ready()
        assert sessions.warm_up(server.socket_path, cells) == []
        cell = cells[0]
        assert sessions.session(server.socket_path, cell)[1] is None
        assert "differs" in sessions.session(server.socket_path, _corrupted(cell))[1]
    finally:
        server.stop()


def test_traced_replay_batches_where_plain_replay_does(cells, monkeypatch):
    calls = []
    original = HelgrindDetector.bulk_access

    def counting(self, *args):
        calls.append(1)
        return original(self, *args)

    monkeypatch.setattr(HelgrindDetector, "bulk_access", counting)
    probe = replay.LayerProbe()
    probe.new_pass()
    for cell in cells:
        calls.clear()
        replay.run_op(cell, measure.OpLog())
        plain = len(calls)
        calls.clear()
        probe.op(cell, measure.OpLog())
        assert len(calls) == plain, cell.name
        assert (plain > 0) == (cell.profile != "predictive"), cell.name


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.slow
@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["live-figure6", "replay-corpus", "service-sessions"])
def test_smoke_run(workload, trace):
    out = _run(ROOT, "--workload", workload, "--seed", "42", "--seconds", "0", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= measure.MIN_SAMPLES
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _run(tmp_path, "--workload", "replay-corpus", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""
