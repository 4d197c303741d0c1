"""Unit tests for the Prometheus / JSON / console exporters."""

from __future__ import annotations

import json

from repro.telemetry.exporters import (
    prom_path_for,
    to_console,
    to_json,
    to_prometheus,
    write_metrics,
)
from repro.telemetry.metrics import MetricsRegistry


def _registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter(
        "repro_events_total", {"kind": "MemRead"}, help="Events by kind."
    ).inc(100)
    reg.counter("repro_events_total", {"kind": "MemWrite"}).inc(40)
    reg.gauge("repro_lockset_table_size", help="Interned sets.").set(12)
    reg.histogram("repro_batch_seconds", buckets=(0.001, 0.01)).observe(0.005)
    return reg


class TestPrometheus:
    def test_help_type_and_samples(self):
        text = to_prometheus(_registry().snapshot())
        assert "# HELP repro_events_total Events by kind." in text
        assert "# TYPE repro_events_total counter" in text
        assert 'repro_events_total{kind="MemRead"} 100' in text
        assert "# TYPE repro_lockset_table_size gauge" in text
        assert "repro_lockset_table_size 12" in text

    def test_histogram_cumulative_le_form(self):
        text = to_prometheus(_registry().snapshot())
        assert 'repro_batch_seconds_bucket{le="0.001"} 0' in text
        assert 'repro_batch_seconds_bucket{le="0.01"} 1' in text
        assert 'repro_batch_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_batch_seconds_sum 0.005" in text
        assert "repro_batch_seconds_count 1" in text

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("x_total", {"k": 'quote " back \\ nl\n'}).inc(1)
        text = to_prometheus(reg.snapshot())
        assert r"\"" in text and r"\\" in text and r"\n" in text
        assert "\n\n" not in text.rstrip("\n") + "\n"

    def test_deterministic(self):
        assert to_prometheus(_registry().snapshot()) == to_prometheus(
            _registry().snapshot()
        )


class TestJson:
    def test_round_trips(self):
        snap = _registry().snapshot()
        assert json.loads(to_json(snap)) == snap

    def test_byte_deterministic(self):
        assert to_json(_registry().snapshot()) == to_json(_registry().snapshot())


class TestConsole:
    def test_renders_curated_sections(self):
        reg = _registry()
        reg.counter("repro_vm_route_builds_total").inc(4)
        reg.counter("repro_vm_route_cache_hits_total").inc(996)
        reg.counter("repro_block_cache_hits_total", {"slot": "last"}).inc(50)
        reg.counter("repro_block_cache_hits_total", {"slot": "prev"}).inc(10)
        reg.counter("repro_block_cache_misses_total").inc(40)
        reg.counter("repro_vm_traps_total").inc(300)
        reg.counter("repro_vm_switches_total").inc(200)
        host = "repro_vm_host_context_switches_total"
        reg.counter(host, {"kind": "voluntary"}).inc(198)
        reg.counter(host, {"kind": "involuntary"}).inc(4)
        text = to_console(reg.snapshot())
        assert "traps 300, switches 200" in text
        assert "198 voluntary, 4 involuntary (1.01 per hand-off)" in text
        assert "events (140 total)" in text
        assert "MemRead" in text
        assert "99.6%" in text  # route-cache hit rate
        assert "60.0%" in text  # block-cache hit rate
        assert "12 interned sets" in text

    def test_tolerates_partial_snapshots(self):
        # A snapshot with only one family must still render.
        reg = MetricsRegistry()
        reg.counter("repro_events_total", {"kind": "Lock"}).inc(2)
        text = to_console(reg.snapshot())
        assert "events (2 total)" in text

    def test_tolerates_empty_snapshot(self):
        text = to_console(MetricsRegistry().snapshot())
        assert "caches" in text  # still prints the skeleton, no crash


class TestWriteMetrics:
    def test_writes_json_and_prom_twin(self, tmp_path):
        path = tmp_path / "m.json"
        twin = write_metrics(str(path), _registry().snapshot())
        assert twin == prom_path_for(str(path)) == str(path) + ".prom"
        doc = json.loads(path.read_text())
        assert doc["version"] == 1
        prom = (tmp_path / "m.json.prom").read_text()
        assert "# TYPE repro_events_total counter" in prom

    def test_write_is_atomic_via_rename(self, tmp_path, monkeypatch):
        """A concurrent reader must never see a torn file: both twins
        go through a temp file and an ``os.replace``, and the temp
        files do not outlive the write."""
        import os as _os

        from repro.telemetry import exporters

        replaced = []
        real_replace = _os.replace

        def spy(src, dst):
            # the destination must not yet hold partial new content:
            # all bytes arrive in this single atomic step
            replaced.append((_os.path.basename(src), _os.path.basename(dst)))
            return real_replace(src, dst)

        monkeypatch.setattr(exporters.os, "replace", spy)
        path = tmp_path / "m.json"
        write_metrics(str(path), _registry().snapshot())
        assert replaced == [
            ("m.json.tmp", "m.json"),
            ("m.json.prom.tmp", "m.json.prom"),
        ]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "m.json", "m.json.prom",
        ]

    def test_overwrite_leaves_whole_new_content(self, tmp_path):
        path = tmp_path / "m.json"
        write_metrics(str(path), _registry().snapshot())
        reg = _registry()
        reg.counter("repro_events_total", {"kind": "MemRead"}).inc(1)
        write_metrics(str(path), reg.snapshot())
        doc = json.loads(path.read_text())  # parses ⇒ not torn
        assert doc["version"] == 1
