"""Binary trace codec — the compact offline tier of §4.5.

The paper's offline-vs-on-the-fly discussion warns that *"offline
techniques suffer from their need for large amount of data"*; the
JSON-lines trace the recorder originally spilled repeats every frame of
every call stack, every field name and every enum string once per
event.  This codec removes the redundancy the same way the in-memory
layer already does — by interning — and stores what remains as
fixed-width binary rows:

Format (``RPTR`` version 1)
---------------------------
A trace file is the 5-byte magic ``b"RPTR\\x01"`` followed by tagged
records.  Each record starts with a one-byte tag:

``0`` — **string definition**: varint byte length + UTF-8 bytes.
    Strings are interned; the n-th definition gets id ``n``.
``1`` — **frame definition**: varint function-string id, varint
    file-string id, varint line.  Frames get sequential ids.
``2`` — **stack definition**: varint frame count + that many varint
    frame ids (innermost first).  Stacks get sequential ids.
``3`` — **event block**: one byte event-type index (into
    :data:`repro.runtime.events.EVENT_TYPES`), one flags byte, varint
    row count, ``[varint base step]``, then ``count`` fixed-width
    little-endian rows (:mod:`struct`).  A row is
    ``[step:u32,] tid:i32, stack:u32`` followed by the type's own
    fields; strings and enums appear as table ids, so a row is pure
    numbers.  Flag bit 0 (*SEQ_STEP*): the rows' steps are consecutive
    — the per-row step column is dropped and reconstructed from the
    header's base step (the VM numbers events 0,1,2,…, so in practice
    every block qualifies).  Flag bit 1 (*NARROW*): the type's 64-bit
    fields (addresses, sizes) all fit in 32 bits for this block and are
    stored as u32.

All varints are unsigned LEB128.  Definitions always precede the first
row that references them.  Consecutive events of the same type coalesce
into one block, so the dominant ``MemoryAccess`` runs amortise the
block header to well under a byte per event — and decoding a block is
one :func:`struct.iter_unpack` call (C speed), which is what lets
replay-from-disk keep up with replay-from-memory.

The write path (:class:`TraceWriter`) is streaming — events go out as
encoded blocks, nothing is retained — and counts exact bytes written.

Every read path drives one record walker, :func:`_walk`, the only
decoder code that reads record tags.  :func:`read_events` is a
generator over ``(event_class, decoded fields...)`` rows;
:func:`events_from_bytes` materialises real frozen
:class:`~repro.runtime.events.Event` objects with canonical interned
stacks; :func:`replay_blocks` (behind
:func:`repro.runtime.trace.replay_trace`) and :class:`StreamDecoder`
skip the per-event allocation entirely with reusable flyweight twins.
A trace that is cut short, starts with the wrong magic or holds an
unknown record tag raises :class:`~repro.errors.TraceFormatError`.
"""

from __future__ import annotations

import struct
from dataclasses import fields as dc_fields
from pathlib import Path
from typing import BinaryIO, Callable, Iterator

from repro.errors import TraceFormatError
from repro.runtime.events import (
    AccessKind,
    BarrierWait,
    ClientRequest,
    CondSignal,
    CondWait,
    EVENT_TYPES,
    Event,
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
    intern_frame,
    intern_stack,
)

__all__ = [
    "MAGIC",
    "TraceWriter",
    "StreamDecoder",
    "ReplayStats",
    "read_blocks",
    "read_events",
    "events_from_bytes",
    "build_block_loops",
    "replay_tables",
    "replay_blocks",
    "is_binary_trace",
    "trace_stats",
]

#: File magic + format version byte.
MAGIC = b"RPTR\x01"

# Record tags.
_TAG_STRING = 0
_TAG_FRAME = 1
_TAG_STACK = 2
_TAG_BLOCK = 3

#: Field codes: struct letter + how the value is (de)coded.
#: ``i``/``q`` plain ints, ``B`` bool, ``kind``/``mode`` enum index,
#: ``str`` string-table id.
_KINDS = (AccessKind.READ, AccessKind.WRITE)
_KIND_INDEX = {k: i for i, k in enumerate(_KINDS)}
_MODES = (LockMode.EXCLUSIVE, LockMode.READ, LockMode.WRITE)
_MODE_INDEX = {m: i for i, m in enumerate(_MODES)}
_BOOLS = (False, True)

#: Per-type extra fields (beyond step/tid/stack), in *dataclass field
#: order* — decoding passes them positionally to the constructor.
_SPECS: dict[type, tuple[tuple[str, str], ...]] = {
    MemoryAccess: (
        ("addr", "q"), ("kind", "kind"), ("bus_locked", "B"), ("block_id", "i"),
    ),
    MemAlloc: (("addr", "q"), ("size", "q"), ("block_id", "i"), ("tag", "str")),
    MemFree: (("addr", "q"), ("size", "q"), ("block_id", "i")),
    LockAcquire: (("lock_id", "i"), ("mode", "mode"), ("contended", "B")),
    LockRelease: (("lock_id", "i"), ("mode", "mode")),
    ThreadCreate: (("child_tid", "i"),),
    ThreadFinish: (),
    ThreadJoin: (("joined_tid", "i"),),
    CondWait: (("cond_id", "i"), ("mutex_id", "i"), ("phase", "str")),
    CondSignal: (("cond_id", "i"), ("broadcast", "B")),
    SemPost: (("sem_id", "i"),),
    SemWait: (("sem_id", "i"),),
    BarrierWait: (("barrier_id", "i"), ("generation", "i"), ("phase", "str")),
    QueuePut: (("queue_id", "i"), ("msg_id", "i")),
    QueueGet: (("queue_id", "i"), ("msg_id", "i")),
    ClientRequest: (("request", "str"), ("addr", "q"), ("size", "q")),
}

_STRUCT_LETTER = {"i": "i", "q": "q", "B": "B", "kind": "B", "mode": "B", "str": "I"}

# Block flags.
_FLAG_SEQ_STEP = 1  #: per-row step column elided (header carries base)
_FLAG_NARROW = 2  #: 64-bit fields stored as u32 for this block


def _row_struct(cls, *, seq: bool, narrow: bool) -> struct.Struct:
    letters = "".join(
        ("I" if narrow and code == "q" else _STRUCT_LETTER[code])
        for _, code in _SPECS[cls]
    )
    return struct.Struct("<" + ("" if seq else "I") + "iI" + letters)


#: Per-type row-struct variants indexed ``[type_idx][flags]`` — the
#: common prefix is ``[step:u32,] tid:i32, stack:u32``.
_ROW_STRUCTS: tuple[tuple[struct.Struct, ...], ...] = tuple(
    tuple(
        _row_struct(cls, seq=bool(f & _FLAG_SEQ_STEP), narrow=bool(f & _FLAG_NARROW))
        for f in range(4)
    )
    for cls in EVENT_TYPES
)

#: Positions (in the full ``(step, tid, stack, *fields)`` row tuple) of
#: each type's 64-bit fields — the writer checks these for NARROW.
_Q_POSITIONS: tuple[tuple[int, ...], ...] = tuple(
    tuple(i for i, (_, code) in enumerate(_SPECS[cls], start=3) if code == "q")
    for cls in EVENT_TYPES
)

_TYPE_INDEX: dict[type, int] = {cls: i for i, cls in enumerate(EVENT_TYPES)}
_ACCESS_TYPE_IDX = _TYPE_INDEX[MemoryAccess]

# Sanity: specs must list every field, in declaration order.
for _cls, _spec in _SPECS.items():
    _declared = tuple(
        f.name for f in dc_fields(_cls) if f.name not in ("step", "tid", "stack")
    )
    assert _declared == tuple(name for name, _ in _spec), _cls


def _write_varint(buf: bytearray, n: int) -> None:
    """Append unsigned LEB128."""
    while n > 0x7F:
        buf.append((n & 0x7F) | 0x80)
        n >>= 7
    buf.append(n)


def _read_varint(data: bytes, pos: int) -> tuple[int, int]:
    """Read unsigned LEB128 at ``pos`` → (value, next pos).

    A varint that runs off the end of ``data`` raises
    :class:`IndexError`, which :func:`_walk` reads as an incomplete
    record.
    """
    result = 0
    shift = 0
    while True:
        b = data[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if not b & 0x80:
            return result, pos
        shift += 7


class TraceWriter:
    """Streaming binary trace encoder with interned string/frame/stack
    tables and an exact :attr:`bytes_written` counter.

    Consecutive events of one type accumulate into a pending block that
    is flushed when the type changes (or on :meth:`close`); table
    definitions triggered while encoding a block are emitted *before*
    it, so a reader never sees a forward reference.

    ``block_rows`` caps how many rows one block may hold: a long
    same-type run (the dominant ``MemoryAccess`` stretches) is split
    into multiple consecutive blocks of that size.  The cap bounds the
    writer's pending buffer and the size of one block a reader must
    hold before it can decode it.  The header overhead stays amortised
    to well under a byte per event at the default size.
    """

    #: Default block cap — large enough that the ~6-byte block header
    #: is noise.
    DEFAULT_BLOCK_ROWS = 4096

    def __init__(
        self, fh: BinaryIO, *, block_rows: int | None = DEFAULT_BLOCK_ROWS
    ) -> None:
        if block_rows is not None and block_rows < 1:
            raise ValueError("block_rows must be >= 1 (or None)")
        self._block_rows = block_rows
        self._fh = fh
        self._strings: dict[str, int] = {}
        self._frames: dict[Frame, int] = {}
        self._stacks: dict[tuple, int] = {}
        #: Definition records produced while encoding the pending block.
        self._defs = bytearray()
        #: Pending same-type rows (value tuples) and their type index.
        self._rows: list[tuple] = []
        self._row_type = -1
        self.events_written = 0
        self.bytes_written = 0
        fh.write(MAGIC)
        self.bytes_written += len(MAGIC)

    # -- interning (emits definition records on first sight) ----------

    def _string_id(self, s: str) -> int:
        sid = self._strings.get(s)
        if sid is None:
            sid = len(self._strings)
            self._strings[s] = sid
            raw = s.encode("utf-8")
            defs = self._defs
            defs.append(_TAG_STRING)
            _write_varint(defs, len(raw))
            defs += raw
        return sid

    def _frame_id(self, frame: Frame) -> int:
        fid = self._frames.get(frame)
        if fid is None:
            func = self._string_id(frame.function)
            file = self._string_id(frame.file)
            fid = len(self._frames)
            self._frames[frame] = fid
            defs = self._defs
            defs.append(_TAG_FRAME)
            _write_varint(defs, func)
            _write_varint(defs, file)
            _write_varint(defs, frame.line)
        return fid

    def _stack_id(self, stack: tuple) -> int:
        sid = self._stacks.get(stack)
        if sid is None:
            frame_ids = [self._frame_id(f) for f in stack]
            sid = len(self._stacks)
            self._stacks[stack] = sid
            defs = self._defs
            defs.append(_TAG_STACK)
            _write_varint(defs, len(frame_ids))
            for fid in frame_ids:
                _write_varint(defs, fid)
        return sid

    # -- encoding ------------------------------------------------------

    def write(self, event: Event) -> None:
        """Encode one event (buffered until the block flushes)."""
        cls = type(event)
        idx = _TYPE_INDEX[cls]
        if idx != self._row_type:
            if self._rows:
                self._flush_block()
            self._row_type = idx
        row = [event.step, event.tid, self._stack_id(event.stack)]
        for name, code in _SPECS[cls]:
            value = getattr(event, name)
            if code == "str":
                value = self._string_id(value)
            elif code == "kind":
                value = _KIND_INDEX[value]
            elif code == "mode":
                value = _MODE_INDEX[value]
            row.append(value)
        self._rows.append(tuple(row))
        self.events_written += 1
        if self._block_rows is not None and len(self._rows) >= self._block_rows:
            self._flush_block()

    def _flush_block(self) -> None:
        rows = self._rows
        idx = self._row_type
        base = rows[0][0]
        flags = 0
        if all(row[0] == base + i for i, row in enumerate(rows)):
            flags |= _FLAG_SEQ_STEP
        q_positions = _Q_POSITIONS[idx]
        if q_positions and all(
            0 <= row[p] < 0x1_0000_0000 for row in rows for p in q_positions
        ):
            flags |= _FLAG_NARROW
        header = bytearray()
        if self._defs:
            header += self._defs
            self._defs = bytearray()
        header.append(_TAG_BLOCK)
        header.append(idx)
        header.append(flags)
        _write_varint(header, len(rows))
        pack = _ROW_STRUCTS[idx][flags].pack
        if flags & _FLAG_SEQ_STEP:
            _write_varint(header, base)
            body = b"".join(pack(*row[1:]) for row in rows)
        else:
            body = b"".join(pack(*row) for row in rows)
        self._fh.write(header)
        self._fh.write(body)
        self.bytes_written += len(header) + len(body)
        self._rows = []

    def flush(self) -> None:
        """Flush the pending block (and any pending definitions)."""
        if self._rows:
            self._flush_block()
        elif self._defs:
            self._fh.write(self._defs)
            self.bytes_written += len(self._defs)
            self._defs = bytearray()

    def close(self) -> None:
        """Flush; the caller owns (and closes) the file object."""
        self.flush()

    def table_sizes(self) -> dict[str, int]:
        """Interning-table populations (``repro trace stat`` input)."""
        return {
            "strings": len(self._strings),
            "frames": len(self._frames),
            "stacks": len(self._stacks),
        }


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------


def is_binary_trace(path) -> bool:
    """True if the file starts with the :data:`MAGIC` bytes."""
    with open(path, "rb") as fh:
        return fh.read(len(MAGIC)) == MAGIC


#: ``on_block(type_idx, row_struct, count, base_step, at)`` — the
#: consumer :func:`_walk` hands each complete event block to.
BlockConsumer = Callable[[int, struct.Struct, int, "int | None", int], None]


def _walk(
    data: bytes,
    pos: int,
    strings: list,
    frames: list,
    stacks: list,
    on_block: BlockConsumer,
    *,
    origin: int = 0,
) -> tuple[int, int, int]:
    """The record walker: the one decoder loop that reads record tags.

    Walks the records of ``data`` from ``pos``.  String, frame and stack
    definitions are appended to the caller's tables (``stacks[i]`` is a
    canonical interned ``CallStack``).  Each complete event block goes
    to ``on_block(type_idx, row_struct, count, base_step, at)``:
    ``row_struct`` is the block's row :class:`struct.Struct`, ``at`` the
    offset of its first row in ``data``, and ``base_step`` the SEQ_STEP
    base (row ``i`` has step ``base_step + i`` and no step column) or
    ``None`` when the rows carry their own steps.

    The walk stops before the first incomplete record and returns
    ``(stop, events, blocks)``: where it stopped and what it handed
    over.  A whole-buffer caller checks ``stop`` reached the end
    (:func:`_walk_trace`); :class:`StreamDecoder` keeps the rest for the
    next chunk.  An unknown tag raises :class:`TraceFormatError`; its
    offset is the tag's position plus ``origin`` (the stream offset of
    ``data[0]``).
    """
    end = len(data)
    row_structs = _ROW_STRUCTS
    events = blocks = 0
    while pos < end:
        tag = data[pos]
        # Parse the record; IndexError means it runs off the end.
        try:
            if tag == _TAG_BLOCK:
                type_idx = data[pos + 1]
                flags = data[pos + 2]
                # Single-byte varints (the common case) inline.
                n = data[pos + 3]
                at = pos + 4
                if n & 0x80:
                    n, at = _read_varint(data, at - 1)
                if flags & _FLAG_SEQ_STEP:
                    base = data[at]
                    at += 1
                    if base & 0x80:
                        base, at = _read_varint(data, at - 1)
                else:
                    base = None
            elif tag == _TAG_STRING:
                length, at = _read_varint(data, pos + 1)
                if at + length > end:
                    break
                raw = data[at:at + length]
                at += length
            elif tag == _TAG_FRAME:
                func, at = _read_varint(data, pos + 1)
                file, at = _read_varint(data, at)
                line, at = _read_varint(data, at)
            elif tag == _TAG_STACK:
                n, at = _read_varint(data, pos + 1)
                frame_ids = []
                for _ in range(n):
                    fid, at = _read_varint(data, at)
                    frame_ids.append(fid)
            else:
                raise TraceFormatError(
                    f"corrupt trace: unknown record tag {tag}",
                    offset=origin + pos,
                )
        except IndexError:
            break
        # Apply it — outside the try, so an IndexError raised by a
        # consumer is never mistaken for a short record.
        if tag == _TAG_BLOCK:
            s = row_structs[type_idx][flags]
            nxt = at + s.size * n
            if nxt > end:
                break
            on_block(type_idx, s, n, base, at)
            events += n
            blocks += 1
            pos = nxt
            continue
        if tag == _TAG_STRING:
            strings.append(raw.decode("utf-8"))
        elif tag == _TAG_FRAME:
            frames.append(intern_frame(Frame(strings[func], strings[file], line)))
        else:
            stacks.append(intern_stack(tuple(frames[i] for i in frame_ids)))
        pos = at
    return pos, events, blocks


def _walk_trace(
    data: bytes, strings: list, frames: list, stacks: list, on_block: BlockConsumer
) -> int:
    """Walk a whole trace image; returns the event count.

    Checks the magic, then that the walk consumed every byte: a trace
    that ends inside a record raises :class:`TraceFormatError` (after
    the complete blocks before the cut were handed over).
    """
    if not data.startswith(MAGIC):
        raise TraceFormatError("not a binary trace (bad magic)", offset=0)
    stop, events, _ = _walk(data, len(MAGIC), strings, frames, stacks, on_block)
    if stop != len(data):
        raise TraceFormatError("corrupt trace: incomplete record", offset=stop)
    return events


def read_blocks(data: bytes) -> Iterator[tuple]:
    """Block-level generator over an in-memory trace image.

    Yields ``(type_idx, stacks, strings, row_struct, block, base_step)``
    per event block; ``stacks`` / ``strings`` are the decoder's
    interning tables (``stacks[i]`` is a canonical interned
    ``CallStack``), ``block`` is a zero-copy memoryview, and the
    consumer runs ``row_struct.iter_unpack`` over it — one C call per
    block, not per event.  ``base_step`` is as :func:`_walk` describes.
    The whole image is walked (and checked) before the first yield.
    """
    strings: list[str] = []
    frames: list[Frame] = []
    stacks: list[tuple] = []
    found: list[tuple] = []
    _walk_trace(
        data, strings, frames, stacks,
        lambda type_idx, s, n, base, at: found.append((type_idx, s, n, base, at)),
    )
    view = memoryview(data)
    for type_idx, s, n, base, at in found:
        yield type_idx, stacks, strings, s, view[at:at + s.size * n], base


def read_events(data: bytes) -> Iterator[tuple]:
    """Row generator: yields ``(event_class, stacks, strings, row)``.

    ``row`` is the full tuple ``(step, tid, stack_id, *fields)`` —
    string and enum fields still table ids; SEQ_STEP blocks have their
    steps reconstituted here.  Consumers that want real events use
    :func:`events_from_bytes`.
    """
    types = EVENT_TYPES
    for type_idx, stacks, strings, s, block, base in read_blocks(data):
        cls = types[type_idx]
        if base is None:
            for row in s.iter_unpack(block):
                yield cls, stacks, strings, row
        else:
            for i, row in enumerate(s.iter_unpack(block)):
                yield cls, stacks, strings, (base + i, *row)


#: Per-type decoders turning a raw row into constructor positionals.
#: ``None`` entries pass through; callables transform.
def _decoders_for(cls) -> tuple:
    out = []
    for _, code in _SPECS[cls]:
        if code == "B":
            out.append("B")
        elif code == "kind":
            out.append("kind")
        elif code == "mode":
            out.append("mode")
        elif code == "str":
            out.append("str")
        else:
            out.append(None)
    return tuple(out)


_DECODERS: dict[type, tuple] = {cls: _decoders_for(cls) for cls in EVENT_TYPES}


def decode_row(cls, stacks, strings, row) -> Event:
    """Materialise one frozen event from a raw row."""
    args = []
    codes = _DECODERS[cls]
    for value, code in zip(row[3:], codes):
        if code is None:
            args.append(value)
        elif code == "B":
            args.append(_BOOLS[value])
        elif code == "str":
            args.append(strings[value])
        elif code == "kind":
            args.append(_KINDS[value])
        else:
            args.append(_MODES[value])
    return cls(row[0], row[1], *args, stack=stacks[row[2]])


def events_from_bytes(data: bytes) -> Iterator[Event]:
    """Generator of real frozen events (canonical interned stacks)."""
    for cls, stacks, strings, row in read_events(data):
        yield decode_row(cls, stacks, strings, row)


# ----------------------------------------------------------------------
# Flyweight decoding (the allocation-free replay fast path)
# ----------------------------------------------------------------------


def _flyweight_class(cls) -> type:
    """A mutable twin of a frozen event class.

    Same attribute names (plus the ``is_write`` / ``site`` conveniences
    detectors use), but one instance is *reused* for every event of the
    type — replay allocates zero event objects.  Handlers must treat it
    as borrowed for the duration of the call; all of ours copy out the
    scalar fields and the (immutable, canonical) stack tuple.
    """
    names = tuple(f.name for f in dc_fields(cls))
    ns: dict = {
        "__slots__": names,
        "site": property(lambda self: self.stack[0] if self.stack else None),
    }
    if cls is MemoryAccess:
        ns["is_write"] = property(lambda self: self.kind is AccessKind.WRITE)
    return type("Replay" + cls.__name__, (), ns)


_FILL_EXPR = {
    "i": "row[{i}]",
    "q": "row[{i}]",
    "B": "_BOOLS[row[{i}]]",
    "str": "strings[row[{i}]]",
    "kind": "_KINDS[row[{i}]]",
    "mode": "_MODES[row[{i}]]",
}


def _make_filler(cls, fly):
    """Code-generate ``fill(stacks, strings, row) -> flyweight``.

    Direct attribute assignments (no setattr loop) keep the per-event
    decode cost at a handful of stores — the same trick namedtuple uses
    for its generated ``__new__``.
    """
    lines = [
        "def _fill(stacks, strings, row, fly=fly):",
        "    fly.step = row[0]",
        "    fly.tid = row[1]",
        "    fly.stack = stacks[row[2]]",
    ]
    for i, (name, code) in enumerate(_SPECS[cls], start=3):
        lines.append(f"    fly.{name} = " + _FILL_EXPR[code].format(i=i))
    lines.append("    return fly")
    ns = {"fly": fly, "_BOOLS": _BOOLS, "_KINDS": _KINDS, "_MODES": _MODES}
    exec("\n".join(lines), ns)  # noqa: S102 - static template, no user input
    return ns["_fill"]


def _make_seq_filler(cls, fly):
    """The SEQ_STEP twin of :func:`_make_filler`: rows carry no step
    column, the caller passes the reconstructed step — no ``(step,
    *row)`` tuple rebuild per event."""
    lines = [
        "def _fill(stacks, strings, row, step, fly=fly):",
        "    fly.step = step",
        "    fly.tid = row[0]",
        "    fly.stack = stacks[row[1]]",
    ]
    for i, (name, code) in enumerate(_SPECS[cls], start=2):
        lines.append(f"    fly.{name} = " + _FILL_EXPR[code].format(i=i))
    lines.append("    return fly")
    ns = {"fly": fly, "_BOOLS": _BOOLS, "_KINDS": _KINDS, "_MODES": _MODES}
    exec("\n".join(lines), ns)  # noqa: S102 - static template, no user input
    return ns["_fill"]


def _make_block_loop(cls, fly, *, seq: bool):
    """Code-generate one fused single-handler block loop.

    ``loop(block, s, stacks, strings, fn, vm[, base])`` iterates one
    event block with ``s.iter_unpack`` and calls ``fn(flyweight, vm)``
    per row.  Plain-int fields are unpacked *directly into flyweight
    attributes in the for-statement target* — Python allows attribute
    references as unpack targets — so the hot loop has no per-row
    function call, no row tuple, and no subscript chain.  Only
    table-indexed fields (stack, strings, enums, bools) take one temp +
    one indexed store each.  The ``seq`` variant decodes SEQ_STEP
    blocks: rows have no step column, ``fly.step`` comes from a local
    counter seeded with the block's base step.
    """
    targets = [] if seq else ["fly.step"]
    targets += ["fly.tid", "_s"]
    body = ["        fly.stack = stacks[_s]"]
    if seq:
        body.insert(0, "        fly.step = step")
        body.insert(1, "        step += 1")
    for name, code in _SPECS[cls]:
        if code in ("i", "q", "B"):
            # Bool-coded fields stay raw 0/1 ints on the flyweight: every
            # consumer treats them as truth flags, and skipping the
            # ``_BOOLS`` lookup keeps the fill at a bare store.
            targets.append(f"fly.{name}")
        else:
            targets.append(f"_{name}")
            table = {"kind": "_KINDS", "mode": "_MODES", "str": "strings"}[code]
            body.append(f"        fly.{name} = {table}[_{name}]")
    target = ", ".join(targets)
    lines = [
        "def _loop(block, s, stacks, strings, fn, vm, base, fly=fly):",
        *(["    step = base"] if seq else []),
        f"    for {target} in s.iter_unpack(block):",
        *body,
        "        fn(fly, vm)",
    ]
    ns = {"fly": fly, "_BOOLS": _BOOLS, "_KINDS": _KINDS, "_MODES": _MODES}
    exec("\n".join(lines), ns)  # noqa: S102 - static template, no user input
    return ns["_loop"]


def build_block_loops() -> list:
    """Per-type fused block loops, indexed like :data:`EVENT_TYPES`.

    Each entry is a ``(plain, seq)`` pair — pick by whether the block
    carries a base step.  Both share one private flyweight instance per
    type.  The single-subscriber fast path of
    :func:`repro.runtime.trace.replay_trace` uses these.
    """
    loops = []
    for cls in EVENT_TYPES:
        fly = _flyweight_class(cls)()
        loops.append(
            (
                _make_block_loop(cls, fly, seq=False),
                _make_block_loop(cls, fly, seq=True),
            )
        )
    return loops


#: Lazily-built shared decode tables for :func:`replay_trace` — the
#: codegen (~48 ``exec`` calls) costs a few milliseconds, which would
#: otherwise dwarf the decode itself on small traces.  The flyweights
#: inside are shared: fine for any number of *sequential* replays in a
#: process, not for concurrent ones (:class:`StreamDecoder` builds
#: private ones).
_REPLAY_TABLES: tuple[list, list, list] | None = None


def _build_tables() -> tuple[list, list, list]:
    """Fresh ``(block_loops, fillers, seq_fillers)``.

    The two filler lists share one flyweight per type (a plain and a
    SEQ_STEP decode of the same block must populate the same object);
    the block loops keep their own.
    """
    fillers = []
    seq_fillers = []
    for cls in EVENT_TYPES:
        fly = _flyweight_class(cls)()
        fillers.append(_make_filler(cls, fly))
        seq_fillers.append(_make_seq_filler(cls, fly))
    return build_block_loops(), fillers, seq_fillers


def replay_tables() -> tuple[list, list, list]:
    """:func:`_build_tables`, built once per process and cached."""
    global _REPLAY_TABLES
    if _REPLAY_TABLES is None:
        _REPLAY_TABLES = _build_tables()
    return _REPLAY_TABLES


class ReplayStats:
    """Per-replay block accounting for :func:`replay_blocks`.

    ``blocks_decoded``
        blocks whose rows went to at least one handler;
    ``blocks_skipped_type``
        no handler subscribes to the block's event type, so its rows
        were never decoded (e.g. ``BarrierWait`` under every helgrind
        config);
    ``blocks_skipped_shard``
        always 0.  Intra-trace sharded replay was removed; the slot
        stays because benchmark drivers still read it.

    ``events_skipped`` counts the rows inside skipped blocks; they
    still count toward the replay's returned event total.
    """

    __slots__ = (
        "blocks_decoded",
        "blocks_skipped_type",
        "blocks_skipped_shard",
        "events_skipped",
    )

    def __init__(self) -> None:
        self.blocks_decoded = 0
        self.blocks_skipped_type = 0
        self.blocks_skipped_shard = 0
        self.events_skipped = 0

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


def _bulk_for(type_idx: int, fns) -> "object | None":
    """Resolve a batched block consumer for one dispatch entry.

    Only the sole-subscriber ``MemoryAccess`` shape qualifies: the
    handler must be a bound method (closures from telemetry wrappers
    have no ``__self__`` and fall through), and its owner must publish
    ``bulk_access_ready()`` and opt in.  Everything else returns
    ``None`` and the per-event loops run unchanged.
    """
    if type_idx != _ACCESS_TYPE_IDX or len(fns) != 1:
        return None
    owner = getattr(fns[0], "__self__", None)
    if owner is None:
        return None
    ready = getattr(owner, "bulk_access_ready", None)
    if ready is None or not ready():
        return None
    return owner.bulk_access


def _dispatch_table(handler_table, tables: tuple[list, list, list]) -> list:
    """One merged per-type dispatch entry per :data:`EVENT_TYPES` index —
    a single list index per block instead of separate handler / loop /
    filler lookups: ``(single handler or None, handlers, (plain, seq)
    loops, filler, seq filler, bulk consumer or None)``.

    ``handler_table[type_idx]`` is a tuple of handler callables (the
    shape :func:`repro.runtime.trace.build_handler_table` builds);
    ``tables`` comes from :func:`_build_tables` / :func:`replay_tables`.
    """
    loops, fillers, seq_fillers = tables
    return [
        (
            fns[0] if len(fns) == 1 else None,
            tuple(fns),
            loops[i],
            fillers[i],
            seq_fillers[i],
            _bulk_for(i, fns),
        )
        for i, fns in enumerate(handler_table)
    ]


def _block_consumer(
    dispatch: list, data: bytes, stacks: list, strings: list, vm,
    stats: ReplayStats | None = None,
) -> BlockConsumer:
    """The per-block dispatch for :func:`_walk` over ``data``.

    A type nobody subscribes to is skipped without decoding a row.  One
    subscriber takes the bulk kernel when its owner offers one, a
    single-row block is unpacked straight from the backing bytes (no
    memoryview slice, no iterator — types alternating in the stream
    fragment blocks), and anything else runs the fused codegen loop.
    Several subscribers share one flyweight per row.  ``stats``
    receives the block accounting when given.
    """
    view = memoryview(data)

    def consume(type_idx, s, n, base, at):
        single, fns, loops, fill, seq_fill, bulk = dispatch[type_idx]
        if stats is not None:
            if fns:
                stats.blocks_decoded += 1
            else:
                stats.blocks_skipped_type += 1
                stats.events_skipped += n
        if single is not None:
            if n == 1:
                row = s.unpack_from(data, at)
                if base is None:
                    single(fill(stacks, strings, row), vm)
                else:
                    single(seq_fill(stacks, strings, row, base), vm)
                return
            block = view[at:at + s.size * n]
            if bulk is None or not bulk(block, s, base, stacks, vm):
                if base is None:
                    loops[0](block, s, stacks, strings, single, vm, 0)
                else:
                    loops[1](block, s, stacks, strings, single, vm, base)
        elif fns:
            block = view[at:at + s.size * n]
            if base is None:
                for row in s.iter_unpack(block):
                    event = fill(stacks, strings, row)
                    for fn in fns:
                        fn(event, vm)
            else:
                for i, row in enumerate(s.iter_unpack(block)):
                    event = seq_fill(stacks, strings, row, base + i)
                    for fn in fns:
                        fn(event, vm)

    return consume


def replay_blocks(
    data: bytes,
    handler_table,
    vm,
    *,
    stats: ReplayStats | None = None,
) -> int:
    """The replay-from-binary hot loop; returns the event count.

    ``handler_table[type_idx]`` is a tuple of handler callables (empty →
    the block is skipped without decoding a row); dispatch is
    :func:`_block_consumer`'s.  ``stats`` (a :class:`ReplayStats`)
    receives the block accounting when given.  A damaged trace raises
    :class:`TraceFormatError`.
    """
    strings: list[str] = []
    frames: list[Frame] = []
    stacks: list[tuple] = []
    consume = _block_consumer(
        _dispatch_table(handler_table, replay_tables()),
        data, stacks, strings, vm, stats,
    )
    return _walk_trace(data, strings, frames, stacks, consume)


# ----------------------------------------------------------------------
# Streaming decoding (the service ingest tier)
# ----------------------------------------------------------------------


def _skip_block(type_idx, s, n, base, at) -> None:
    """The consumer of an unbound :class:`StreamDecoder`."""


class StreamDecoder:
    """Incremental, resumable RPTR v1 decoder tolerant of partial reads.

    :func:`replay_blocks` wants the whole trace as one bytes object; a
    network ingest path gets the same byte stream in arbitrary chunks —
    a record (or even a varint inside one) can straddle any boundary.
    :meth:`feed` buffers input and decodes every *complete* record,
    leaving the trailing fragment buffered for the next chunk, so the
    chunking of the transport never changes what the detectors see.
    :meth:`close` declares the end of the stream and rejects a
    leftover fragment.

    Decoding is the same :func:`_walk` + :func:`_block_consumer` pair
    :func:`replay_blocks` runs, but with *private* flyweight tables
    (built at :meth:`bind` time), so any number of decoders can run on
    concurrent threads (one per analysis session) without sharing
    mutable flyweight state.

    The decoder is picklable mid-stream: its interning tables, counters
    and buffered fragment travel; the unpicklable codegen tables and
    bound handlers are rebuilt by calling :meth:`bind` again after
    unpickling.  This is what lets the analysis service checkpoint a
    session and resume it in a fresh process — the client continues
    streaming from :attr:`bytes_fed` and the decode picks up exactly
    where it left off.

    Byte accounting is exact and two-level: :attr:`bytes_fed` counts
    everything ever passed to :meth:`feed`; :attr:`bytes_consumed`
    counts complete decoded records (including the magic).  At any
    moment ``bytes_fed == bytes_consumed + pending_bytes``, and after a
    whole trace has been fed, both equal the
    :attr:`TraceWriter.bytes_written` of the writer that produced it.
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        self._magic_seen = False
        self._strings: list[str] = []
        self._frames: list[Frame] = []
        self._stacks: list[tuple] = []
        #: Bytes ever fed, and bytes of fully-decoded records.
        self.bytes_fed = 0
        self.bytes_consumed = 0
        self.events_decoded = 0
        self.blocks_decoded = 0
        self._dispatch: list | None = None
        self._vm = None

    # -- handler wiring ------------------------------------------------

    def bind(self, handler_table, vm=None) -> None:
        """Attach per-type handlers (the shape ``replay_trace`` builds:
        one tuple of callables per :data:`EVENT_TYPES` index).

        Builds private flyweight/loop tables — a few dozen ``exec``
        calls, milliseconds — so call it once per decoder, not per
        chunk.  Must be called again after unpickling.  A decoder that
        is never bound still decodes (and counts) records; it just
        dispatches to nobody, which is what pure accounting consumers
        (``trace stat``-style) want.
        """
        self._dispatch = _dispatch_table(handler_table, _build_tables())
        self._vm = vm

    # -- pickling (checkpoint support) ---------------------------------

    def __getstate__(self) -> dict:
        return {
            "buf": bytes(self._buf),
            "magic_seen": self._magic_seen,
            "strings": list(self._strings),
            "frames": list(self._frames),
            "stacks": [tuple(s) for s in self._stacks],
            "bytes_fed": self.bytes_fed,
            "bytes_consumed": self.bytes_consumed,
            "events_decoded": self.events_decoded,
            "blocks_decoded": self.blocks_decoded,
        }

    def __setstate__(self, state: dict) -> None:
        self._buf = bytearray(state["buf"])
        self._magic_seen = state["magic_seen"]
        self._strings = list(state["strings"])
        # Re-intern: unpickled frames/stacks are equal but not canonical;
        # putting them back through the tables restores the one-object-
        # per-program-point invariant the detectors rely on for cheap
        # report deduplication.
        self._frames = [intern_frame(f) for f in state["frames"]]
        self._stacks = [intern_stack(s) for s in state["stacks"]]
        self.bytes_fed = state["bytes_fed"]
        self.bytes_consumed = state["bytes_consumed"]
        self.events_decoded = state["events_decoded"]
        self.blocks_decoded = state["blocks_decoded"]
        self._dispatch = None
        self._vm = None

    # -- introspection -------------------------------------------------

    @property
    def pending_bytes(self) -> int:
        """Buffered bytes of the trailing incomplete record."""
        return len(self._buf)

    def table_sizes(self) -> dict[str, int]:
        """Interning-table populations (mirrors ``TraceWriter``'s)."""
        return {
            "strings": len(self._strings),
            "frames": len(self._frames),
            "stacks": len(self._stacks),
        }

    # -- decoding ------------------------------------------------------

    def feed(self, data: bytes) -> int:
        """Buffer ``data``, decode every complete record, dispatch the
        events to the bound handlers; returns the number of events
        decoded by *this* call."""
        self._buf += data
        self.bytes_fed += len(data)
        buf = self._buf
        if not self._magic_seen:
            if len(buf) < len(MAGIC):
                return 0
            if bytes(buf[: len(MAGIC)]) != MAGIC:
                raise TraceFormatError("not a binary trace (bad magic)", offset=0)
            del buf[: len(MAGIC)]
            self.bytes_consumed += len(MAGIC)
            self._magic_seen = True
        if not buf:
            return 0
        data = bytes(buf)
        if self._dispatch is None:
            consume = _skip_block
        else:
            consume = _block_consumer(
                self._dispatch, data, self._stacks, self._strings, self._vm
            )
        stop, events, blocks = _walk(
            data, 0, self._strings, self._frames, self._stacks, consume,
            origin=self.bytes_consumed,
        )
        if stop:
            del buf[:stop]
            self.bytes_consumed += stop
        self.events_decoded += events
        self.blocks_decoded += blocks
        return events

    def close(self) -> None:
        """Declare the end of the stream.

        Raises :class:`TraceFormatError` when a fragment is still
        buffered: the stream ended inside a record (or inside the
        magic), so what was decoded is not the whole trace.
        """
        if self._buf:
            raise TraceFormatError(
                "corrupt trace: stream ended inside a record",
                offset=self.bytes_consumed,
            )


def trace_stats(path) -> dict:
    """Summary of a binary trace for ``repro trace stat``.

    One pass over the file: event counts by type, interning-table
    populations, file size, and bytes/event.
    """
    data = Path(path).read_bytes()
    by_type: dict[str, int] = {}
    names = [cls.__name__ for cls in EVENT_TYPES]

    def count(type_idx, s, n, base, at):
        name = names[type_idx]
        by_type[name] = by_type.get(name, 0) + n

    strings: list[str] = []
    stacks: list[tuple] = []
    total = _walk_trace(data, strings, [], stacks, count)
    return {
        "path": str(path),
        "file_bytes": len(data),
        "events": total,
        "by_type": dict(sorted(by_type.items(), key=lambda kv: -kv[1])),
        "strings": len(strings),
        "stacks": len(stacks),
        "bytes_per_event": (len(data) / total) if total else 0.0,
    }
