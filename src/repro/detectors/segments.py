"""Thread segments and their happens-before graph (paper Figure 2).

VisualThreads' refinement of Eraser splits each thread's execution into
*segments* at thread-create and thread-join operations.  Memory that is
only ever touched by segments ordered by the create/join graph is still
exclusively owned — even though several *threads* touched it — so no
lock-set is needed and no warning fires.  This is what makes the
thread-per-request SIP proxy (Figure 10) analysable: the request data
passes from the acceptor segment to the worker thread's segment along a
create edge.

The paper's "future work" notes that *higher-level* synchronisation
(thread pools handing work over through queues, Figure 11) imposes
orders the create/join graph cannot see.  :class:`SegmentGraph`
optionally consumes those too (``post``/``receive``), which is how the
``extended`` detector configuration closes that gap.

Implementation: one vector clock per segment.  ``happens_before(a, b)``
is the classic component test ``V_a[owner(a)] <= V_b[owner(a)]`` — O(1)
per query after O(threads) per segment creation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Segment", "SegmentGraph"]


@dataclass(slots=True)
class Segment:
    """One thread segment: a maximal create/join-free run of a thread."""

    seg_id: int
    tid: int
    #: Vector clock: tid -> segment ordinal; V[tid] identifies this
    #: segment's position in its own thread.
    vc: dict[int, int] = field(default_factory=dict)

    def __repr__(self) -> str:
        return f"Segment(id={self.seg_id}, t{self.tid}, vc={self.vc})"


class SegmentGraph:
    """The happens-before DAG over thread segments.

    Drive it with the thread-lifecycle notifications; query it with
    :meth:`happens_before`.  All mutating methods return the affected
    thread's *new* current segment.
    """

    def __init__(self) -> None:
        self._segments: dict[int, Segment] = {}
        self._current: dict[int, Segment] = {}
        self._next_id = 0
        #: Final segment of each finished thread (join edges source).
        self._final: dict[int, Segment] = {}
        #: tid → current segment *id* — a mirror of ``_current`` kept so
        #: the per-memory-access owner lookup in
        #: :class:`~repro.detectors.lockset.LocksetMachine` is a plain
        #: dict hit instead of a method call plus attribute read.
        #: Maintained at the single place segments change
        #: (:meth:`_new_segment`); misses mean "thread not started yet"
        #: and fall back to :meth:`current`'s lazy start.
        self.current_ids: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _new_segment(self, tid: int, vc: dict[int, int]) -> Segment:
        seg = Segment(self._next_id, tid, vc)
        self._next_id += 1
        self._segments[seg.seg_id] = seg
        self._current[tid] = seg
        self.current_ids[tid] = seg.seg_id
        return seg

    def start_thread(self, tid: int, parent_tid: int | None = None) -> Segment:
        """Begin a thread's first segment.

        For the root thread ``parent_tid`` is ``None``.  For spawned
        threads prefer :meth:`on_create`, which also advances the parent.
        """
        if tid in self._current:
            raise ValueError(f"thread {tid} already started")
        if parent_tid is None:
            return self._new_segment(tid, {tid: 0})
        parent = self._current_of(parent_tid)
        vc = dict(parent.vc)
        vc[tid] = 0
        return self._new_segment(tid, vc)

    def on_create(self, parent_tid: int, child_tid: int) -> Segment:
        """Thread-create: ends the parent's segment, starts the child's.

        Figure 2: the parent's pre-create segment happens-before both
        the child's first segment and the parent's post-create segment.
        """
        parent = self._current_of(parent_tid)
        child_vc = dict(parent.vc)
        child_vc[child_tid] = 0
        child_seg = self._new_segment(child_tid, child_vc)
        parent_vc = dict(parent.vc)
        parent_vc[parent_tid] = parent_vc.get(parent_tid, 0) + 1
        self._new_segment(parent_tid, parent_vc)
        return child_seg

    def on_finish(self, tid: int) -> None:
        """Thread termination: freeze its final segment for join edges."""
        self._final[tid] = self._current_of(tid)

    def on_join(self, joiner_tid: int, joined_tid: int) -> Segment:
        """Thread-join: the joined thread's final segment happens-before
        the joiner's new segment."""
        joiner = self._current_of(joiner_tid)
        joined_final = self._final.get(joined_tid)
        if joined_final is None:
            # Join observed before we saw the finish event (should not
            # happen with a well-formed stream); fall back to the
            # joined thread's current segment.
            joined_final = self._current_of(joined_tid)
        vc = _join_vc(joiner.vc, joined_final.vc)
        vc[joiner_tid] = vc.get(joiner_tid, 0) + 1
        return self._new_segment(joiner_tid, vc)

    # ------------------------------------------------------------------
    # Higher-level synchronisation (the future-work extension)
    # ------------------------------------------------------------------

    def post(self, tid: int) -> dict[int, int]:
        """A release-like operation (queue put, sem post, cond signal).

        Returns a clock token capturing everything ordered before the
        post, and ends the poster's segment so that its *later* work is
        not spuriously ordered before the receiver.
        """
        seg = self._current_of(tid)
        token = dict(seg.vc)
        vc = dict(seg.vc)
        vc[tid] = vc.get(tid, 0) + 1
        self._new_segment(tid, vc)
        return token

    def receive(self, tid: int, token: dict[int, int]) -> Segment:
        """The matching acquire (queue get, sem wait): joins ``token``."""
        seg = self._current_of(tid)
        vc = _join_vc(seg.vc, token)
        vc[tid] = vc.get(tid, 0) + 1
        return self._new_segment(tid, vc)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def current(self, tid: int) -> Segment:
        """The thread's live segment (starts the thread lazily if new —
        convenient for replayed traces that begin mid-stream)."""
        seg = self._current.get(tid)
        if seg is None:
            seg = self.start_thread(tid)
        return seg

    def _current_of(self, tid: int) -> Segment:
        return self.current(tid)

    def segment(self, seg_id: int) -> Segment:
        return self._segments[seg_id]

    def happens_before(self, a: int | Segment, b: int | Segment) -> bool:
        """Strict happens-before between two segments (ids or objects)."""
        sa = a if isinstance(a, Segment) else self._segments[a]
        sb = b if isinstance(b, Segment) else self._segments[b]
        if sa.seg_id == sb.seg_id:
            return False
        return sb.vc.get(sa.tid, -1) >= sa.vc.get(sa.tid, 0)

    def ordered(self, a: int | Segment, b: int | Segment) -> bool:
        """True unless the two segments are concurrent."""
        sa = a if isinstance(a, Segment) else self._segments[a]
        sb = b if isinstance(b, Segment) else self._segments[b]
        return (
            sa.seg_id == sb.seg_id
            or self.happens_before(sa, sb)
            or self.happens_before(sb, sa)
        )

    def concurrent(self, a: int | Segment, b: int | Segment) -> bool:
        """True when neither segment happens-before the other — the
        schedules can interleave them.  The predictive tier's race
        feasibility test."""
        return not self.ordered(a, b)

    @property
    def segment_count(self) -> int:
        return self._next_id


def _join_vc(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Pointwise maximum of two vector clocks."""
    out = dict(a)
    for tid, clk in b.items():
        if out.get(tid, -1) < clk:
            out[tid] = clk
    return out
