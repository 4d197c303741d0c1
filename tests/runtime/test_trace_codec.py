"""Binary trace codec (RPTR v1): round-trip and replay properties.

The codec (:mod:`repro.runtime.codec`) is the storage tier of the
offline mode — if it drops a bit anywhere, post-mortem analysis
silently diverges from the on-the-fly run.  These tests pin it down
from four sides:

* **every event type round-trips** — a handcrafted instance of each
  of the 16 concrete event classes, with awkward field values (empty
  strings, unicode tags, negative ids), survives
  ``TraceWriter`` → ``events_from_bytes`` exactly;
* **both struct variants of both block flags are exercised** —
  addresses ≥ 2**32 force the *wide* (non-NARROW) row layout and
  non-consecutive steps force the explicit-step (non-SEQ_STEP)
  layout, and the tests assert the writer actually picked the
  expected variant (via the struct object ``read_blocks`` hands back)
  rather than merely that decoding succeeded;
* **property round-trips** — hypothesis-generated mixed-type event
  sequences with random step gaps, page-sized and 64-bit addresses,
  and random stacks come back bit-equal through both the in-memory
  (``events_from_bytes``) and the file (``load_trace``) paths, with
  ``bytes_written`` exactly matching the file size;
* **``replay_blocks`` ≡ event decoding** — the fused flyweight fast
  path (single-handler codegen loops, the n==1 ``unpack_from`` path,
  the multi-handler shared-flyweight path, and undecoded block
  skipping) observes exactly the same field values as materialised
  events, for every subscription shape.
"""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime import codec
from repro.runtime.codec import (
    MAGIC,
    TraceWriter,
    events_from_bytes,
    read_blocks,
    trace_stats,
)
from repro.runtime.codec import _FLAG_NARROW, _FLAG_SEQ_STEP, _ROW_STRUCTS
from repro.runtime.events import (
    EVENT_TYPES,
    AccessKind,
    BarrierWait,
    ClientRequest,
    CondSignal,
    CondWait,
    Frame,
    LockAcquire,
    LockMode,
    LockRelease,
    MemAlloc,
    MemFree,
    MemoryAccess,
    QueueGet,
    QueuePut,
    SemPost,
    SemWait,
    ThreadCreate,
    ThreadFinish,
    ThreadJoin,
    intern_stack,
)
from repro.runtime.trace import load_trace

_STACK = intern_stack(
    (
        Frame("handle_request", "proxy.cc", 42),
        Frame("worker_main", "threadpool.cc", 101),
    )
)


def _encode(events) -> tuple[bytes, TraceWriter]:
    buf = io.BytesIO()
    writer = TraceWriter(buf)
    for event in events:
        writer.write(event)
    writer.close()
    return buf.getvalue(), writer


def _decode(data: bytes) -> list:
    return list(events_from_bytes(data))


# ----------------------------------------------------------------------
# Every event type, once, with awkward field values
# ----------------------------------------------------------------------

#: One instance per concrete event type (order = EVENT_TYPES), chosen to
#: stress the field codecs: a 64-bit address, an empty string, a
#: non-ASCII tag, negative ids, every enum member somewhere.
_ONE_OF_EACH = [
    MemoryAccess(0, 1, (1 << 40) + 7, AccessKind.WRITE, True, -1, stack=_STACK),
    MemAlloc(1, 2, 0x10, 64, 3, "größe", stack=_STACK),
    MemFree(2, 2, 0x10, 64, 3),
    LockAcquire(3, 0, 7, LockMode.READ, True),
    LockRelease(4, 0, 7, LockMode.WRITE),
    ThreadCreate(5, 0, 9, stack=_STACK),
    ThreadFinish(6, 9),
    ThreadJoin(7, 0, 9),
    CondWait(8, 1, 2, 3, "leave"),
    CondSignal(9, 1, 2, True),
    SemPost(10, 1, 5),
    SemWait(11, 2, 5),
    BarrierWait(12, 1, 4, 2, "arrive"),
    QueuePut(13, 1, 6, 17),
    QueueGet(14, 2, 6, 17),
    ClientRequest(15, 1, "", 2**33, 2**32, stack=_STACK),
]

assert tuple(type(e) for e in _ONE_OF_EACH) == EVENT_TYPES


def test_every_event_type_round_trips():
    data, writer = _encode(_ONE_OF_EACH)
    assert writer.events_written == len(EVENT_TYPES)
    assert writer.bytes_written == len(data)
    decoded = _decode(data)
    assert decoded == _ONE_OF_EACH
    # Stacks come back as the canonical interned objects, not copies.
    assert decoded[0].stack is _STACK


def test_empty_trace_is_just_magic():
    data, writer = _encode([])
    assert data == MAGIC
    assert writer.bytes_written == len(MAGIC)
    assert _decode(data) == []


def test_bad_magic_rejected():
    try:
        _decode(b"NOPE" + b"\x00" * 8)
    except ValueError as exc:
        assert "magic" in str(exc)
    else:  # pragma: no cover
        raise AssertionError("bad magic accepted")


# ----------------------------------------------------------------------
# Flag selection: SEQ_STEP and NARROW must actually engage (and
# disengage) — not just "decoding worked"
# ----------------------------------------------------------------------


def _block_flags(data: bytes) -> list[int]:
    """The flags byte of every event block, via the struct identity."""
    out = []
    for type_idx, _stacks, _strings, s, _block, base in read_blocks(data):
        variants = _ROW_STRUCTS[type_idx]
        flags = next(f for f in range(4) if variants[f] is s)
        assert bool(flags & _FLAG_SEQ_STEP) == (base is not None)
        out.append(flags)
    return out


def test_seq_and_narrow_engage_on_friendly_input():
    events = [
        MemoryAccess(step, 1, 0x100 + step, AccessKind.READ, False, 4)
        for step in range(10, 16)  # consecutive steps, u32 addresses
    ]
    data, _ = _encode(events)
    assert _block_flags(data) == [_FLAG_SEQ_STEP | _FLAG_NARROW]
    assert _decode(data) == events


def test_wide_addresses_disable_narrow():
    events = [
        MemoryAccess(step, 1, (1 << 40) + step, AccessKind.READ, False, 4)
        for step in range(3)
    ]
    data, _ = _encode(events)
    assert _block_flags(data) == [_FLAG_SEQ_STEP]
    decoded = _decode(data)
    assert [e.addr for e in decoded] == [(1 << 40) + s for s in range(3)]


def test_gapped_steps_disable_seq():
    events = [
        SemPost(step, 0, 1) for step in (5, 6, 8)  # 6→8 breaks the run
    ]
    data, _ = _encode(events)
    assert _block_flags(data) == [0]
    assert [e.step for e in _decode(data)] == [5, 6, 8]


def test_one_wide_row_widens_the_whole_block():
    # NARROW is per block: a single 64-bit address in the block forces
    # every row onto the wide struct.
    events = [
        ClientRequest(0, 1, "hg_clean", 0x10, 8),
        ClientRequest(1, 1, "hg_clean", 1 << 35, 8),
        ClientRequest(2, 1, "hg_clean", 0x20, 8),
    ]
    data, _ = _encode(events)
    assert _block_flags(data) == [_FLAG_SEQ_STEP]
    assert _decode(data) == events


def test_type_change_splits_blocks():
    events = [SemPost(0, 0, 1), SemWait(1, 0, 1), SemPost(2, 0, 1)]
    data, _ = _encode(events)
    assert len(_block_flags(data)) == 3  # one single-row block each
    assert _decode(data) == events


# ----------------------------------------------------------------------
# Property round-trips: mixed types, random gaps, wide/narrow mix
# ----------------------------------------------------------------------

_FRAMES = st.builds(
    Frame,
    st.sampled_from(["f", "g", "handle", "σ"]),
    st.sampled_from(["a.cc", "b.cc"]),
    st.integers(0, 500),
)
_STACKS = st.lists(_FRAMES, max_size=3).map(tuple).map(intern_stack)
_TIDS = st.integers(0, 7)
#: Addresses from three regimes: small (narrow), just around the u32
#: boundary, and genuinely 64-bit (wide path).
_ADDRS = st.one_of(
    st.integers(0, 0x1000),
    st.integers(0x1_0000_0000 - 2, 0x1_0000_0000 + 2),
    st.integers(1 << 40, (1 << 40) + 0x1000),
)
_STR = st.sampled_from(["", "msg", "hg_destruct", "grüße"])

_EVENT_BODIES = st.one_of(
    st.builds(
        lambda t, a, k, b, blk, s: ("access", t, a, k, b, blk, s),
        _TIDS, _ADDRS, st.sampled_from((AccessKind.READ, AccessKind.WRITE)),
        st.booleans(), st.integers(-1, 40), _STACKS,
    ),
    st.builds(
        lambda t, a, n, blk, tag: ("alloc", t, a, n, blk, tag),
        _TIDS, _ADDRS, st.integers(1, 1 << 36), st.integers(0, 40), _STR,
    ),
    st.builds(
        lambda t, a, n, blk: ("free", t, a, n, blk),
        _TIDS, _ADDRS, st.integers(1, 1 << 36), st.integers(0, 40),
    ),
    st.builds(
        lambda t, l, m, c: ("acquire", t, l, m, c),
        _TIDS, st.integers(0, 9),
        st.sampled_from((LockMode.EXCLUSIVE, LockMode.READ, LockMode.WRITE)),
        st.booleans(),
    ),
    st.builds(
        lambda t, r, a, n: ("request", t, r, a, n),
        _TIDS, _STR, _ADDRS, st.integers(0, 1 << 36),
    ),
    st.builds(lambda t, o: ("join", t, o), _TIDS, _TIDS),
    st.builds(lambda t: ("finish", t), _TIDS),
)

#: (step gap, body) pairs — gap 1 keeps SEQ_STEP eligible, larger gaps
#: break it mid-stream.
_SEQS = st.lists(
    st.tuples(st.integers(1, 3), _EVENT_BODIES), max_size=40
)


def _materialise(seq) -> list:
    events = []
    step = 0
    for gap, body in seq:
        step += gap
        kind = body[0]
        if kind == "access":
            _, t, a, k, b, blk, s = body
            events.append(MemoryAccess(step, t, a, k, b, blk, stack=s))
        elif kind == "alloc":
            _, t, a, n, blk, tag = body
            events.append(MemAlloc(step, t, a, n, blk, tag))
        elif kind == "free":
            _, t, a, n, blk = body
            events.append(MemFree(step, t, a, n, blk))
        elif kind == "acquire":
            _, t, l, m, c = body
            events.append(LockAcquire(step, t, l, m, c))
        elif kind == "request":
            _, t, r, a, n = body
            events.append(ClientRequest(step, t, r, a, n))
        elif kind == "join":
            _, t, o = body
            events.append(ThreadJoin(step, t, o))
        else:
            events.append(ThreadFinish(step, body[1]))
    return events


@given(seq=_SEQS)
@settings(max_examples=120, deadline=None, derandomize=True)
def test_property_round_trip_in_memory(seq):
    events = _materialise(seq)
    data, writer = _encode(events)
    assert writer.events_written == len(events)
    assert writer.bytes_written == len(data)
    assert _decode(data) == events


@given(seq=_SEQS)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_property_round_trip_via_file(seq):
    import tempfile
    from pathlib import Path

    events = _materialise(seq)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.bin"
        with path.open("wb") as fh:
            writer = TraceWriter(fh)
            for event in events:
                writer.write(event)
            writer.close()
        assert path.stat().st_size == writer.bytes_written
        assert codec.is_binary_trace(path)
        assert list(load_trace(path)) == events
        if events:
            stats = trace_stats(path)
            assert stats["events"] == len(events)
            assert sum(stats["by_type"].values()) == len(events)


# ----------------------------------------------------------------------
# replay_blocks ≡ decoded events, across subscription shapes
# ----------------------------------------------------------------------


class _Collector:
    """Copies every observed flyweight's fields out as a dict (the
    handler contract: never retain the event object itself)."""

    def __init__(self):
        self.seen: list[tuple] = []

    def __call__(self, event, vm):
        fields = {
            name: getattr(event, name)
            for name in type(event).__slots__
        }
        self.seen.append((type(event).__name__.removeprefix("Replay"), fields))


def _expected(events, subscribed: set | None = None) -> list[tuple]:
    out = []
    for e in events:
        cls = type(e)
        if subscribed is not None and cls not in subscribed:
            continue
        fields = {
            name: getattr(e, name)
            for name in (f.name for f in cls.__dataclass_fields__.values())
        }
        out.append((cls.__name__, fields))
    return out


@given(seq=_SEQS, shape=st.sampled_from(["single", "double", "partial"]))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_replay_blocks_matches_events(seq, shape):
    events = _materialise(seq)
    data, _ = _encode(events)

    if shape == "partial":
        # Only two types subscribed — other blocks must be skipped
        # undecoded yet the event *count* still covers the whole file.
        subscribed = {MemoryAccess, ClientRequest}
    else:
        subscribed = set(EVENT_TYPES)

    collector = _Collector()
    second = _Collector()
    handler_table = []
    for cls in EVENT_TYPES:
        if cls not in subscribed:
            handler_table.append(())
        elif shape == "double":
            handler_table.append((collector, second))
        else:
            handler_table.append((collector,))

    count = codec.replay_blocks(data, handler_table, vm=None)
    assert count == len(events)
    want = _expected(
        events, None if subscribed == set(EVENT_TYPES) else subscribed
    )
    assert collector.seen == want
    if shape == "double":
        assert second.seen == want


def test_replay_blocks_no_subscribers_counts_only():
    data, _ = _encode(_ONE_OF_EACH)
    count = codec.replay_blocks(data, [() for _ in EVENT_TYPES], vm=None)
    assert count == len(_ONE_OF_EACH)


def test_stats_count_type_skips():
    """``ReplayStats`` tallies decoded blocks apart from blocks nobody
    subscribes to, whose rows land in ``events_skipped``."""
    events = [
        MemoryAccess(0, 0, 0x10, AccessKind.READ, False, -1),
        LockAcquire(1, 0, 7, LockMode.WRITE, False),
    ]
    data, _ = _encode(events)
    table: list[tuple] = [() for _ in EVENT_TYPES]
    table[EVENT_TYPES.index(MemoryAccess)] = ((lambda e, vm: None),)
    stats = codec.ReplayStats()
    codec.replay_blocks(data, table, None, stats=stats)
    assert stats.as_dict() == {
        "blocks_decoded": 1,
        "blocks_skipped_type": 1,
        "blocks_skipped_shard": 0,
        "events_skipped": 1,  # the undecoded lock row
    }


def test_writer_block_rows_cap_bounds_block_size():
    """`block_rows` caps rows per block, bounding a reader's buffer
    even for single-type event streams."""
    events = [
        MemoryAccess(i, 0, i, AccessKind.READ, False, -1) for i in range(10)
    ]
    data, _ = _encode(events)
    capped = io.BytesIO()
    writer = TraceWriter(capped, block_rows=3)
    for event in events:
        writer.write(event)
    writer.close()

    assert _decode(capped.getvalue()) == _decode(data)
    sizes = [
        len(block) // s.size
        for _t, _stacks, _strings, s, block, _base in read_blocks(
            capped.getvalue()
        )
    ]
    assert sizes == [3, 3, 3, 1]
    with pytest.raises(ValueError):
        TraceWriter(io.BytesIO(), block_rows=0)
