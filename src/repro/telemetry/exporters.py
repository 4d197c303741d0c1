"""Snapshot exporters: Prometheus text exposition and JSON files.

Two machine-readable views of one :meth:`repro.telemetry.metrics
.MetricsRegistry.snapshot`:

* :func:`to_prometheus` — the text exposition format (``# HELP`` /
  ``# TYPE`` / samples), so a run's metrics can be diffed, scraped, or
  pushed to a gateway without any client library.  Histograms render in
  the cumulative ``_bucket{le=...}`` / ``_sum`` / ``_count`` form.
* :func:`write_metrics` — the JSON snapshot (schema in
  :mod:`repro.telemetry.schema`) plus, alongside it, the Prometheus
  text under the same path with ``.prom`` appended, so one flag on the
  CLI produces both.

Output is deterministic: families alphabetical, samples sorted by label
items — equal registry states produce byte-equal files.
"""

from __future__ import annotations

import json
import math
import os

__all__ = [
    "to_prometheus",
    "to_json",
    "to_console",
    "write_metrics",
    "prom_path_for",
]


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _format_labels(labels: dict[str, str], extra: tuple[tuple[str, str], ...] = ()) -> str:
    items = [*sorted(labels.items()), *extra]
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(str(v))}"' for k, v in items)
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _format_le(bound: float) -> str:
    return "+Inf" if bound == math.inf else _format_value(bound)


def to_prometheus(snapshot: dict) -> str:
    """Render a registry snapshot in the Prometheus text format."""
    lines: list[str] = []
    for name in sorted(snapshot["metrics"]):
        family = snapshot["metrics"][name]
        kind = family["type"]
        if family.get("help"):
            lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {kind}")
        for sample in family["samples"]:
            labels = sample.get("labels") or {}
            if kind == "histogram":
                running = 0
                bounds = list(sample["buckets"]) + [math.inf]
                for bound, count in zip(bounds, sample["counts"]):
                    running += count
                    le = _format_labels(labels, (("le", _format_le(bound)),))
                    lines.append(f"{name}_bucket{le} {running}")
                lines.append(
                    f"{name}_sum{_format_labels(labels)} "
                    f"{_format_value(sample['sum'])}"
                )
                lines.append(
                    f"{name}_count{_format_labels(labels)} {sample['count']}"
                )
            else:
                lines.append(
                    f"{name}{_format_labels(labels)} "
                    f"{_format_value(sample['value'])}"
                )
    return "\n".join(lines) + "\n"


def to_json(snapshot: dict) -> str:
    """The JSON snapshot document (deterministic key order)."""
    return json.dumps(snapshot, indent=1, sort_keys=True) + "\n"


def _samples(snapshot: dict, name: str) -> list[dict]:
    family = snapshot["metrics"].get(name)
    return family["samples"] if family else []


def _value(snapshot: dict, name: str, **labels) -> float:
    for sample in _samples(snapshot, name):
        if (sample.get("labels") or {}) == labels:
            return sample.get("value", 0.0)
    return 0.0


def _rate(hits: float, misses: float) -> str:
    total = hits + misses
    if total == 0:
        return "n/a"
    return f"{100.0 * hits / total:.1f}%"


def to_console(snapshot: dict) -> str:
    """Human-readable summary of a snapshot (the ``repro stats`` body).

    A curated view, not a dump: event mix, scheduler counters, all three
    cache hit rates, the interning tables, the Figure-5 shadow-state
    matrix, and per-detector busy time / warning counts.  Unknown or
    absent families are simply skipped, so the function works on partial
    snapshots (e.g. a metrics file produced by an older run).
    """
    out: list[str] = []
    metrics = snapshot.get("metrics", {})

    events = _samples(snapshot, "repro_events_total")
    if events:
        total = int(sum(s["value"] for s in events))
        out.append(f"events ({total} total)")
        for s in sorted(events, key=lambda s: -s["value"]):
            out.append(f"  {s['labels']['kind']:24s} {int(s['value']):>10d}")

    traps = _value(snapshot, "repro_vm_traps_total")
    if traps:
        switches = _value(snapshot, "repro_vm_switches_total")
        out.append("vm")
        out.append(
            f"  traps {int(traps)}, switches {int(switches)}, threads "
            f"{int(_value(snapshot, 'repro_vm_threads_created_total'))} "
            f"(peak live {int(_value(snapshot, 'repro_vm_max_live_threads'))})"
        )
        host = "repro_vm_host_context_switches_total"
        voluntary = _value(snapshot, host, kind="voluntary")
        involuntary = _value(snapshot, host, kind="involuntary")
        if voluntary or involuntary:
            per = f" ({(voluntary + involuntary) / switches:.2f} per hand-off)" if switches else ""
            out.append(
                f"  host context switches {int(voluntary)} voluntary, "
                f"{int(involuntary)} involuntary{per}"
            )

    out.append("caches")
    builds = _value(snapshot, "repro_vm_route_builds_total")
    route_hits = _value(snapshot, "repro_vm_route_cache_hits_total")
    out.append(
        f"  dispatch routes: {int(builds)} builds, {int(route_hits)} hits "
        f"({_rate(route_hits, builds)})"
    )
    bc_last = _value(snapshot, "repro_block_cache_hits_total", slot="last")
    bc_prev = _value(snapshot, "repro_block_cache_hits_total", slot="prev")
    bc_miss = _value(snapshot, "repro_block_cache_misses_total")
    out.append(
        f"  block lookup: {_rate(bc_last + bc_prev, bc_miss)} hit "
        f"(last {int(bc_last)}, prev {int(bc_prev)}, misses {int(bc_miss)})"
    )
    table = _value(snapshot, "repro_lockset_table_size")
    if table:
        ops = []
        for op in ("intern", "intersect", "with", "without"):
            h = _value(snapshot, "repro_lockset_memo_hits_total", op=op)
            m = _value(snapshot, "repro_lockset_memo_misses_total", op=op)
            if h or m:
                ops.append(f"{op} {_rate(h, m)}")
        out.append(
            f"  lock-set table: {int(table)} interned sets; memo: "
            + (", ".join(ops) if ops else "unused")
        )
    stacks = _value(snapshot, "repro_stack_intern_stacks")
    if stacks:
        out.append(
            f"  stack interning: {int(stacks)} stacks / "
            f"{int(_value(snapshot, 'repro_stack_intern_frames'))} frames, "
            f"{_rate(_value(snapshot, 'repro_stack_intern_hits_total'), _value(snapshot, 'repro_stack_intern_misses_total'))} hit"
        )
    tc_hits = sum(
        s["value"]
        for s in _samples(snapshot, "repro_transition_cache_hits_total")
    )
    tc_misses = sum(
        s["value"]
        for s in _samples(snapshot, "repro_transition_cache_misses_total")
    )
    if tc_hits or tc_misses:
        tc_evict = sum(
            s["value"]
            for s in _samples(snapshot, "repro_transition_cache_evictions_total")
        )
        elided = sum(
            s["value"] for s in _samples(snapshot, "repro_access_elided_total")
        )
        out.append(
            f"  transition cache: {_rate(tc_hits, tc_misses)} hit "
            f"({int(tc_hits)} hits, {int(tc_misses)} misses, "
            f"{int(tc_evict)} evictions); {int(elided)} accesses elided"
        )

    shadow = _samples(snapshot, "repro_shadow_words")
    if shadow:
        dist = ", ".join(
            f"{s['labels']['state']} {int(s['value'])}" for s in shadow
        )
        out.append(f"shadow memory: {dist}")
    transitions = _samples(snapshot, "repro_state_transitions_total")
    if transitions:
        out.append("state transitions (Figure 1/5)")
        for s in transitions:
            out.append(
                f"  {s['labels']['from']:>16s} -> {s['labels']['to']:16s} "
                f"{int(s['value']):>10d}"
            )

    det_events = _samples(snapshot, "repro_detector_events_total")
    if det_events:
        out.append("detectors")
        per_det: dict[str, tuple[float, float]] = {}
        for s in det_events:
            det = s["labels"]["detector"]
            busy = _value(
                snapshot,
                "repro_detector_busy_seconds_total",
                detector=det,
                kind=s["labels"]["kind"],
            )
            ev, b = per_det.get(det, (0.0, 0.0))
            per_det[det] = (ev + s["value"], b + busy)
        for det in sorted(per_det):
            ev, busy = per_det[det]
            out.append(f"  {det}: {int(ev)} events in {busy * 1e3:.1f} ms")
            for s in _samples(snapshot, "repro_detector_state"):
                if s["labels"]["detector"] == det:
                    out.append(
                        f"    {s['labels']['stat']} = {int(s['value'])}"
                    )
            for s in _samples(snapshot, "repro_warning_locations"):
                if s["labels"]["detector"] == det:
                    out.append(
                        f"    warnings[{s['labels']['kind']}] = {int(s['value'])} locations"
                    )
            # The predictive tier's offline pass (zeros elsewhere —
            # only shown when the detector actually predicted).
            edges = _value(snapshot, "repro_predict_edges_total", detector=det)
            cycles = _value(
                snapshot, "repro_predict_cycles_checked_total", detector=det
            )
            predictions = _value(
                snapshot, "repro_predict_predictions_total", detector=det
            )
            rejections = _value(
                snapshot,
                "repro_predict_feasibility_rejections_total",
                detector=det,
            )
            if edges or cycles or predictions or rejections:
                out.append(
                    f"    predictions: {int(predictions)} emitted "
                    f"({int(edges)} cross-thread edges, "
                    f"{int(cycles)} cycles checked, "
                    f"{int(rejections)} rejected infeasible)"
                )

    if "repro_phase_seconds_total" in metrics:
        out.append("phases")
        for s in _samples(snapshot, "repro_phase_seconds_total"):
            out.append(f"  {s['labels']['phase']:24s} {s['value'] * 1e3:9.1f} ms")

    return "\n".join(out) + "\n"


def prom_path_for(json_path: str) -> str:
    """Where :func:`write_metrics` puts the Prometheus twin of a JSON file."""
    return json_path + ".prom"


def _write_atomic(path: str, text: str) -> None:
    """Write-then-rename so a concurrent reader (a Prometheus scraper,
    ``repro stats`` on a shared file) never sees a torn file."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_metrics(path: str, snapshot: dict) -> str:
    """Write ``path`` (JSON snapshot) and ``path + '.prom'`` (text format).

    Both files are written atomically (temp file + ``os.replace``).
    Returns the Prometheus twin's path.
    """
    _write_atomic(path, to_json(snapshot))
    twin = prom_path_for(path)
    _write_atomic(twin, to_prometheus(snapshot))
    return twin
