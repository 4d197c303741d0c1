"""Sample statistics and process facts shared by every workload."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from typing import Callable

#: The highest percentile reported must have at least this many samples
#: beyond it; below that a tail figure is one or two unlucky operations.
MIN_BEYOND = 10
#: Percentile reported as the tail latency of every workload.
TAIL_Q = 90
#: Samples a timed run collects at least, so that ``TAIL_Q`` is reportable.
MIN_SAMPLES = MIN_BEYOND * 100 // (100 - TAIL_Q)
#: The reference loop: :data:`REF_ITERS` iterations take :data:`REF_S`
#: seconds on the reference CPU (the 2-vCPU host the benchmark was built
#: on, at its fast state).  Every workload reports times in reference
#: seconds: wall seconds rescaled by ``REF_S`` over the loop's own time
#: measured on the same CPU around the operation (for the service, on
#: every CPU between rounds).
REF_ITERS = 20_000
REF_S = 1.25e-3
#: Reference timings around an operation (itself and this many on each
#: side) whose median scales it; one ~1 ms timing alone is too noisy.
REF_REACH = 2


def percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``samples``.

    Raises :class:`ValueError` unless at least :data:`MIN_BEYOND`
    samples lie beyond the returned rank.
    """
    n = len(samples)
    rank = max(1, math.ceil(q / 100 * n))
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} needs {MIN_BEYOND} samples beyond it; "
            f"{n} samples leave {n - rank}"
        )
    return sorted(samples)[rank - 1]


def ref_loop() -> float:
    """Seconds :data:`REF_ITERS` iterations of a fixed pure-Python loop
    take now, on this CPU."""
    start = time.perf_counter()
    acc = 0
    for i in range(REF_ITERS):
        acc += i * i % 7
    return time.perf_counter() - start


def quiet_reference(cpus: set[int], reps: int = 3) -> list[float]:
    """``reps`` reference timings on each CPU in ``cpus``, taken by the
    calling thread while the workload is idle; the thread's affinity is
    ``cpus`` again afterwards."""
    samples = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            samples += [ref_loop() for _ in range(reps)]
    finally:
        os.sched_setaffinity(0, cpus)
    return samples


def host_scale(refs: list[float]) -> list[float]:
    """Per-operation factor from wall to reference seconds: ``REF_S``
    over the median reference timing around each operation."""
    n = len(refs)
    return [
        REF_S / statistics.median(refs[max(0, i - REF_REACH):min(n, i + REF_REACH + 1)])
        for i in range(n)
    ]


@dataclass
class OpLog:
    """Every operation a timed run attempted, in completion order, in
    groups: a corpus pass, or a round of the service's closed loop."""

    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    events: int = 0
    wall: float = 0.0
    errors: list[str] = field(default_factory=list)
    started: float = field(default_factory=time.perf_counter)
    #: ``(seconds, events analysed, succeeded)`` per operation.
    done: list[tuple[float, int, bool]] = field(default_factory=list)
    #: The reference timing of each operation, when every operation has
    #: one; otherwise the figures stay in wall seconds.
    refs: list[float] = field(default_factory=list)
    #: ``(operations so far, wall seconds)`` at the end of each group.
    groups: list[tuple[int, float]] = field(default_factory=list)
    _ref: float | None = None

    def reference(self, seconds: float | None = None) -> float:
        """Give the next operation a reference timing: ``seconds``, or
        by default the reference loop timed now.  Returns it."""
        self._ref = ref_loop() if seconds is None else seconds
        return self._ref

    def record(self, seconds: float, events: int, error: str | None) -> None:
        self.attempted += 1
        if error is None:
            self.latencies.append(seconds)
            self.events += events
        else:
            events = 0
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)
        self.done.append((seconds, events, error is None))
        if self._ref is not None:
            self.refs.append(self._ref)
            self._ref = None

    def close_group(self, wall: float | None = None, ref: float | None = None) -> None:
        """End the group of operations recorded since the last one.  It
        took ``wall`` seconds; by default the sum of its operations'
        times, as when they run one at a time.  ``ref`` is a reference
        timing for every operation in the group."""
        first = self.groups[-1][0] if self.groups else 0
        if wall is None:
            wall = sum(op[0] for op in self.done[first:])
        if ref is not None:
            self.refs += [ref] * (len(self.done) - first)
        self.groups.append((len(self.done), wall))

    def scaled(self) -> bool:
        """Whether every operation has a reference timing."""
        return bool(self.refs) and len(self.refs) == len(self.done)

    def end_to_end(self, scale: bool = True) -> dict[str, float]:
        """``events_per_s`` and the operation latency figures.

        ``events_per_s`` is the median over the groups, so a burst of
        contention on a shared host moves one group, not the figure.
        Latencies are of the operations that succeeded; failures are
        counted in :attr:`failed`, never timed.  With ``scale`` and a
        reference timing for every operation, every time is in
        reference seconds; a group's wall time is scaled by its
        operations' factors, weighted by their times.
        """
        n = len(self.done)
        factors = host_scale(self.refs) if scale and self.scaled() else [1.0] * n
        rates = []
        first = 0
        for end, wall in self.groups:
            ops, f = self.done[first:end], factors[first:end]
            busy = sum(op[0] for op in ops)
            factor = sum(op[0] * x for op, x in zip(ops, f)) / busy
            rates.append(sum(op[1] for op in ops) / (wall * factor))
            first = end
        latencies = [op[0] * x for op, x in zip(self.done, factors) if op[2]]
        return {
            "events_per_s": statistics.median(rates),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_p90_ms": percentile(latencies, TAIL_Q) * 1e3,
        }

    def host_speed(self) -> float | None:
        """Median speed of the CPU relative to the reference CPU over
        the operations (``None`` unless :meth:`scaled`)."""
        return REF_S / statistics.median(self.refs) if self.scaled() else None


def overhead_pct(traced: OpLog, plain: OpLog) -> float:
    """Mean operation latency of a traced run over a plain one, in
    percent above the plain run."""
    traced_mean = statistics.fmean(traced.latencies)
    return 100 * (traced_mean / statistics.fmean(plain.latencies) - 1)


def run_until(seconds: float, done_ops, min_ops: int = MIN_SAMPLES) -> Callable[[], bool]:
    """A predicate that stays true until ``seconds`` have passed *and*
    ``done_ops()`` reached ``min_ops``."""
    deadline = time.perf_counter() + seconds

    def more() -> bool:
        return time.perf_counter() < deadline or done_ops() < min_ops

    return more


def run_pass(corpus, log: OpLog, op) -> None:
    """``op(cell, log)`` once per corpus cell, each after a reference
    timing, as one group; the pass's wall time, less those timings, is
    added to ``log.wall``."""
    start = time.perf_counter()
    for cell in corpus:
        start += log.reference()
        op(cell, log)
    log.wall += time.perf_counter() - start
    log.close_group()


def run_passes(corpus, seconds: float, op) -> OpLog:
    """Whole corpus passes until ``seconds`` have passed and enough
    samples exist."""
    log = OpLog()
    more = run_until(seconds, lambda: log.attempted)
    while more():
        run_pass(corpus, log, op)
    return log


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise ValueError(f"no VmHWM for pid {pid}")


def children_of(pid: int) -> list[int]:
    """Direct children of ``pid``, read from ``/proc/*/stat``."""
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            kids.append(int(entry))
    return sorted(kids)


def cpu_s() -> float:
    """User + system CPU seconds of this process so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _cpu_ticks() -> tuple[int, int]:
    with open("/proc/stat", encoding="ascii") as fh:
        ticks = [int(x) for x in fh.readline().split()[1:]]
    return sum(ticks), ticks[7] if len(ticks) > 7 else 0


class HostFacts:
    """Host context recorded with every run: CPUs, affinity, Python,
    git rev, load at start and the steal share seen while it ran."""

    def __init__(self, root: str) -> None:
        self.facts: dict = {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "git_rev": _git_rev(root),
            "loadavg_start": os.getloadavg()[0],
            "affinity": {"bench": sorted(os.sched_getaffinity(0))},
        }
        self._ticks = _cpu_ticks()

    def affinity(self, label: str, pid: int) -> None:
        try:
            self.facts["affinity"][label] = sorted(os.sched_getaffinity(pid))
        except OSError:
            pass

    def finish(self) -> dict:
        total, steal = _cpu_ticks()
        d_total = total - self._ticks[0]
        self.facts["steal_pct"] = (
            100 * (steal - self._ticks[1]) / d_total if d_total else 0.0
        )
        return self.facts


def _git_rev(root: str) -> str:
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"
