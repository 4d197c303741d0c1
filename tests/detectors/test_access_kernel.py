"""Property: live per-event analysis ≡ batched replay of the same stream.

:class:`~repro.detectors.helgrind.HelgrindDetector` has one access rule,
``_access_rows``: the live ``_on_access`` hands it one row, and
``bulk_access`` hands it a whole decoded ``MemoryAccess`` block.  These
tests generate random event streams — accesses (plain and ``LOCK``
prefixed) mixed with lock acquire/release in exclusive, read and write
modes, thread create/join/finish and ``benign_race`` / ``hg_destruct``
client requests — and run each stream three ways:

* one event at a time through the detector's handlers (the live tier);
* recorded with :class:`~repro.runtime.codec.TraceWriter` and replayed
  through :func:`~repro.runtime.codec.replay_blocks`, which feeds
  multi-row access blocks to ``bulk_access``;
* one event at a time with the transition cache off (no memo, no
  elision, no batching): the uncached reference.

All three must give byte-identical reports, equal ``access_checks`` and
equal shadow memory (``state_distribution()`` and the packed pages),
under both bus-lock models, with ``once_per_word`` and ``use_states`` on
and off.
"""

from __future__ import annotations

import io

from hypothesis import given, settings, strategies as st

from repro.detectors.helgrind import BusLockModel, HelgrindConfig, HelgrindDetector
from repro.detectors.lockset import PAGE_SIZE
from repro.runtime import codec
from repro.runtime.events import (
    AccessKind,
    ClientRequest,
    Frame,
    LockAcquire,
    LockMode,
    LockRelease,
    MemoryAccess,
    ThreadCreate,
    ThreadFinish,
    ThreadJoin,
)
from repro.runtime.trace import build_handler_table

_STACKS = tuple((Frame(f"site{i}", "kernel.cc", 10 + i),) for i in range(6))
# A few words on page 0 and both sides of the page-1 boundary: few
# enough that threads keep colliding on the same word.
_ADDRS = st.one_of(st.integers(0, 2), st.integers(PAGE_SIZE - 1, PAGE_SIZE))
_TIDS = st.integers(0, 3)

_ACCESS = st.tuples(
    st.just("access"), _TIDS, _ADDRS, st.booleans(), st.booleans(),
    st.integers(0, len(_STACKS) - 1),
)
_LOCK = st.tuples(
    st.sampled_from(["acquire", "release"]), _TIDS, st.integers(1, 3),
    st.sampled_from(list(LockMode)),
)
_THREAD = st.tuples(st.sampled_from(["create", "join", "finish"]), _TIDS, _TIDS)
_REQUEST = st.tuples(
    st.just("request"), _TIDS, st.sampled_from(["benign_race", "hg_destruct"]),
    _ADDRS, st.integers(1, 4),
)
# Runs of accesses (multi-row blocks) between single sync events.
_OPS = st.lists(
    st.one_of(
        st.lists(_ACCESS, min_size=1, max_size=8),
        st.one_of(_LOCK, _THREAD, _REQUEST).map(lambda op: [op]),
    ),
    max_size=20,
).map(lambda runs: [op for run in runs for op in run])
_GAPS = st.lists(st.sampled_from([1] * 7 + [2]), min_size=160, max_size=160)


def _events(ops, gaps) -> list:
    """Turn drawn ops into events; a step gap other than 1 makes the
    writer store explicit steps instead of a SEQ_STEP base."""
    events = []
    step = 0
    for op, gap in zip(ops, gaps):
        step += gap
        kind, tid = op[0], op[1]
        if kind == "access":
            _, _, addr, is_write, bus, site = op
            events.append(MemoryAccess(
                step, tid, addr,
                AccessKind.WRITE if is_write else AccessKind.READ, bus, -1,
                stack=_STACKS[site],
            ))
        elif kind == "acquire":
            events.append(LockAcquire(step, tid, op[2], op[3]))
        elif kind == "release":
            events.append(LockRelease(step, tid, op[2], op[3]))
        elif kind == "create":
            events.append(ThreadCreate(step, tid, op[2]))
        elif kind == "join":
            events.append(ThreadJoin(step, tid, op[2]))
        elif kind == "finish":
            events.append(ThreadFinish(step, tid))
        else:
            _, _, request, addr, size = op
            events.append(ClientRequest(step, tid, request, addr, size))
    return events


def _config(model, once_per_word, use_states, cache=True) -> HelgrindConfig:
    return HelgrindConfig(
        name="kernel", bus_lock_model=model, honor_destruct=True,
        once_per_word=once_per_word, use_states=use_states,
        transition_cache=cache,
    )


def _per_event(config, events) -> HelgrindDetector:
    det = HelgrindDetector(config)
    for event in events:
        handler = det.handler_for(type(event))
        if handler is not None:
            handler(event, None)
    return det


def _record(events) -> bytes:
    buf = io.BytesIO()
    writer = codec.TraceWriter(buf)
    for event in events:
        writer.write(event)
    writer.close()
    return buf.getvalue()


def _replayed(config, events) -> HelgrindDetector:
    det = HelgrindDetector(config)
    assert det.bulk_access_ready()
    codec.replay_blocks(_record(events), build_handler_table((det,)), None)
    return det


def _observed(det) -> tuple:
    machine = det.machine
    return (
        det.report.render(),
        det.access_checks,
        machine.state_distribution(),
        machine._pages,
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    ops=_OPS,
    gaps=_GAPS,
    model=st.sampled_from(list(BusLockModel)),
    once_per_word=st.booleans(),
    use_states=st.booleans(),
)
def test_live_replay_and_uncached_agree(ops, gaps, model, once_per_word, use_states):
    events = _events(ops, gaps)
    config = _config(model, once_per_word, use_states)
    live = _per_event(config, events)
    replayed = _replayed(config, events)
    assert _observed(replayed) == _observed(live)
    # Same kernel, same row order: even the cache counters agree.
    assert replayed._elided == live._elided
    assert (
        replayed.machine.transition_cache_stats()
        == live.machine.transition_cache_stats()
    )
    uncached = _per_event(
        _config(model, once_per_word, use_states, cache=False), events
    )
    assert _observed(uncached) == _observed(live)


def test_replay_takes_the_block_kernel():
    """The property above only means something if multi-row blocks
    really reach ``bulk_access``."""
    events = _events(
        [("access", 1, a, a % 2 == 0, False, 0) for a in range(6)]
        + [("access", 2, a, True, False, 1) for a in range(6)],
        [1] * 12,
    )
    config = _config(BusLockModel.RWLOCK, False, True)
    det = HelgrindDetector(config)
    rows = []
    kernel = det.bulk_access

    def counting(block, s, base, stacks, vm):
        rows.append(len(block) // s.size)
        return kernel(block, s, base, stacks, vm)

    det.bulk_access = counting
    codec.replay_blocks(_record(events), build_handler_table((det,)), None)
    assert sum(rows) == 12
    assert _observed(det) == _observed(_per_event(config, events))
    assert det.report.location_count > 0
