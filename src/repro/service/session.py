"""Server-side analysis sessions: bounded ingest queue + detector state.

A :class:`ServiceSession` is the service's unit of isolation — one per
connected client.  It owns

* a :class:`repro.api.Session` (ReplayVM + detector + streaming
  decoder) holding all analysis state,
* a **bounded** chunk queue (``queue_blocks`` DATA frames) filled by
  the connection's reader thread and drained by the shared worker
  pool, and
* the credit ledger of the backpressure protocol: one credit is
  returned to the client per chunk *analysed*, so at most
  ``queue_blocks`` chunks are ever buffered, no matter how fast the
  client or how slow the analysis.

Threading contract: ``enqueue``/``request_finish``/``detach`` run on
the connection's reader thread; ``process_batch`` runs on exactly one
worker thread at a time (the server's schedule flag guarantees it);
metric writes are per-session-labelled so the two never contend on the
same sample.
"""

from __future__ import annotations

import os
import queue
import threading
import time

from repro.api import Session
from repro.errors import TraceFormatError
from repro.service import protocol
from repro.service.checkpoint import Checkpoint

__all__ = ["ServiceSession"]

#: Queue sentinels (reader → worker control flow, ordered with data).
_FINISH = object()
_DETACH = object()


class ServiceSession:
    """One client's analysis session inside the server."""

    def __init__(
        self,
        session_id: str,
        config: str,
        server,
        conn,
        *,
        queue_blocks: int,
        api_session: Session | None = None,
        trace_id: str | None = None,
    ) -> None:
        self.session_id = session_id
        self.config = config
        self.server = server
        #: Session-scoped trace correlation id.  The sharded acceptor
        #: mints one and stamps it into the rewritten HELLO so the same
        #: id reaches the owning worker (over SCM_RIGHTS handover or a
        #: REDIRECT re-dial); a directly-addressed server mints its own.
        #: It labels trace spans and log records on both sides, which
        #: is what lets ``repro trace merge`` correlate them.
        self.trace_id = (
            trace_id
            if trace_id is not None
            else f"{session_id}-{os.urandom(4).hex()}"
        )
        self.api = api_session if api_session is not None else Session(config)
        self.queue: queue.Queue = queue.Queue(maxsize=queue_blocks)
        self.queue_blocks = queue_blocks
        self.conn = conn
        self.send_lock = threading.Lock()
        self.lock = threading.Lock()
        self.scheduled = False
        self.closed = False
        self.finished = False
        self.last_activity = time.monotonic()
        self._high_water = 0
        #: Chunks received but not yet credited back — the mirror of the
        #: client's spent credits (``== queue_blocks`` ⇒ client stalled).
        self._uncredited = 0
        self._events_since_checkpoint = 0
        #: FINISH-time predictive post-pass (``server.finish_predict``):
        #: the analysed byte stream is spooled to a temp file so the
        #: whole trace can be replayed under the predictive profile to
        #: append predicted findings.  Resumed sessions skip it — their
        #: spool would be missing everything before the checkpoint.
        self._spool = None
        if getattr(server, "finish_predict", False) and api_session is None:
            import tempfile

            self._spool = tempfile.NamedTemporaryFile(
                prefix=f"repro-spool-{session_id}-",
                suffix=".rptr",
                delete=False,
            )
        with server.registry_lock:
            self._init_metrics(session_id, server.registry)

    def idle(self, now: float, timeout: float) -> bool:
        """True when the idle reaper may close this session: past the
        timeout *and* no work in flight.  A stalled-but-healthy session
        (full queue, client waiting on credits) is never idle — the
        client cannot send while we owe it credits."""
        if now - self.last_activity <= timeout:
            return False
        if not self.queue.empty():
            return False
        with self.lock:
            return self._uncredited == 0

    def _init_metrics(self, session_id: str, reg) -> None:
        labels = {"session": session_id}
        self._m_bytes = reg.counter(
            "repro_service_bytes_ingested_total", labels,
            help="Encoded trace bytes accepted from the client",
        )
        self._m_events = reg.counter(
            "repro_service_events_total", labels,
            help="Events decoded and analysed",
        )
        self._m_depth = reg.gauge(
            "repro_service_queue_depth", labels,
            help="Chunks currently buffered in the session queue",
        )
        self._m_high = reg.gauge(
            "repro_service_queue_high_water", labels,
            help="Maximum chunks ever buffered (bounded by queue_blocks)",
        )
        self._m_stalls = reg.counter(
            "repro_service_backpressure_stalls_total", labels,
            help="Times the client ran out of credits with the queue full",
        )
        self._m_checkpoints = reg.counter(
            "repro_service_checkpoints_total", labels,
            help="Session checkpoints written",
        )

    # ------------------------------------------------------------------
    # Reader-thread side
    # ------------------------------------------------------------------

    def enqueue(self, chunk: bytes) -> None:
        """Queue one DATA chunk (blocks at the bound — the queue never
        holds more than ``queue_blocks`` chunks)."""
        self.last_activity = time.monotonic()
        if self.finished or self.closed:
            return  # failed/finished mid-stream; the client errors out
        self.queue.put(chunk)
        depth = self.queue.qsize()
        self._m_depth.set(depth)
        if depth > self._high_water:
            self._high_water = depth
            self._m_high.set(depth)
        with self.lock:
            self._uncredited += 1
            stalled = self._uncredited >= self.queue_blocks
        if stalled:
            # The client has now spent every credit; it is stalled
            # until the worker analyses a chunk and returns one.
            self._m_stalls.inc()
        self.server.schedule(self)

    def request_finish(self) -> None:
        """Client sent FINISH: report once everything queued is analysed."""
        self.last_activity = time.monotonic()
        self.queue.put(_FINISH)
        self.server.schedule(self)

    def detach(self) -> None:
        """Connection lost (or server draining): analyse what is queued,
        checkpoint, release the session."""
        self.queue.put(_DETACH)
        self.server.schedule(self)

    # ------------------------------------------------------------------
    # Worker-thread side
    # ------------------------------------------------------------------

    def process_batch(self) -> None:
        """Drain currently-queued chunks through the detector pipeline.

        Runs on one worker thread at a time.  Returns credits for the
        chunks consumed in one coalesced CREDIT frame, honours the
        checkpoint cadence, and emits the REPORT / final checkpoint
        when a FINISH / DETACH sentinel surfaces.
        """
        tracer = self.server.tracer
        if tracer is None:
            self._process_batch()
            return
        with tracer.span(
            "analyze",
            track=tracer.track(f"session {self.session_id}"),
            args={"trace": self.trace_id},
        ):
            self._process_batch()

    def _process_batch(self) -> None:
        consumed = 0
        throttle = self.server.throttle
        while True:
            try:
                item = self.queue.get_nowait()
            except queue.Empty:
                break
            if item is _FINISH:
                self._finish(consumed)
                consumed = 0
                continue
            if item is _DETACH:
                self._detach_now()
                return
            if self._spool is not None:
                # Written on the (single) worker thread in analysis
                # order, so the spool is the exact byte stream the
                # streaming decoder saw.
                self._spool.write(item)
            try:
                events = self.api.feed(item)
            except Exception as exc:
                # Corrupt stream / decoder error: the session is dead,
                # but the worker and the server must survive it.
                self._fail(f"{type(exc).__name__}: {exc}")
                return
            consumed += 1
            # Per-chunk, not per-batch: a slow/throttled drain of a full
            # queue is progress, and must keep the idle reaper away.
            self.last_activity = time.monotonic()
            self._m_bytes.inc(len(item))
            self._m_events.inc(events)
            self._m_depth.set(self.queue.qsize())
            self._events_since_checkpoint += events
            if throttle:
                time.sleep(throttle)
            every = self.server.checkpoint_every
            if every and self._events_since_checkpoint >= every:
                self.checkpoint()
        self.last_activity = time.monotonic()
        if consumed:
            self._grant_credits(consumed)

    def _grant_credits(self, n: int) -> None:
        with self.lock:
            self._uncredited -= n
        conn = self.conn
        if conn is None:
            return
        try:
            with self.send_lock:
                protocol.send_json(conn, protocol.CREDIT, {"credits": n})
        except OSError:
            self.conn = None

    def _finish(self, consumed_before: int) -> None:
        """Everything before FINISH has been analysed: ship the report."""
        if consumed_before:
            self._grant_credits(consumed_before)
        # End-of-stream pass: a no-op for the legacy tiers; a session
        # running the "predictive" profile emits its predictions here.
        # A stream that ends inside a record is damaged, not finished.
        try:
            self.api.finalize()
        except TraceFormatError as exc:
            self._fail(f"{type(exc).__name__}: {exc}")
            return
        self.finished = True
        payload = self.api.report_text().encode("utf-8")
        if self._spool is not None:
            # Before the send: the whole point is a report that carries
            # the predicted findings (opt-in; adds replay latency).
            payload = self._finish_predict(payload)
        self.server.log.info(
            "session_finish", session=self.session_id,
            events=self.api.events_seen, bytes=self.api.bytes_fed,
            report_bytes=len(payload), trace=self.trace_id,
        )
        # Count before the send: a client that already holds the REPORT
        # must see the counter bumped in its next stats snapshot.
        with self.server.registry_lock:
            self.server.registry.counter(
                "repro_service_reports_total",
                help="Reports served to finishing clients",
            ).inc()
        conn = self.conn
        if conn is not None:
            try:
                with self.send_lock:
                    protocol.send_frame(conn, protocol.REPORT, payload)
            except OSError:
                self.conn = None
        self._drop_spool()
        self.server.release(self, drop_checkpoint=True)

    def _fail(self, message: str) -> None:
        """Analysis failed mid-stream: tell the client, keep the last
        good checkpoint (the failed chunk advanced nothing, so a
        corrected stream can resume from it), release the session."""
        self._drop_spool()
        self.finished = True
        self.server.log.error(
            "session_error", session=self.session_id, error=message,
            trace=self.trace_id,
        )
        with self.server.registry_lock:
            self.server.registry.counter(
                "repro_service_analysis_errors_total",
                {"session": self.session_id},
                help="Sessions aborted by a decode/analysis error",
            ).inc()
        conn = self.conn
        if conn is not None:
            try:
                with self.send_lock:
                    protocol.send_json(
                        conn, protocol.ERROR, {"error": message}
                    )
            except OSError:
                self.conn = None
        self.server.release(self, drop_checkpoint=False)

    def _detach_now(self) -> None:
        """Connection gone: persist progress and release the session."""
        self._drop_spool()
        if not self.finished:
            self.checkpoint()
        self.server.release(self, drop_checkpoint=False)

    # ------------------------------------------------------------------
    # FINISH-time predictive post-pass (opt-in offline replay)
    # ------------------------------------------------------------------

    def _drop_spool(self) -> None:
        if self._spool is None:
            return
        spool, self._spool = self._spool, None
        import os

        try:
            spool.close()
            os.unlink(spool.name)
        except OSError:
            pass

    def _finish_predict(self, payload: bytes) -> bytes:
        """Replay the spooled trace under the ``predictive`` profile and
        append its predicted findings to the session's report.

        Opt-in (``repro serve --finish-predict``): a session streaming
        under a legacy configuration gets the offline prediction tier's
        findings in the same REPORT frame.  Sessions already running the
        ``predictive`` profile are skipped (counted as
        ``result="skipped"``): their own ``finalize`` produced the
        identical predictions, and re-adding them would bump the
        deduplicated locations' occurrence counts — breaking byte-parity
        with a live predictive run.  Failure never loses the streaming
        report: on any error the original payload is served and the
        outcome counted in
        ``repro_service_predict_finish_total{result=error}``.
        """
        from repro.api.profiles import profile

        spool = self._spool
        if profile(self.config).predictive:
            with self.server.registry_lock:
                self.server.registry.counter(
                    "repro_service_predict_finish_total",
                    {"result": "skipped"},
                    help="FINISH-time predictive post-pass outcomes",
                ).inc()
            return payload
        try:
            spool.flush()
            from repro.detectors.report import WarningKind
            from repro.runtime.trace import replay_trace

            det = profile("predictive").detector()
            replay_trace(spool.name, det)
            det.finalize()
            predicted_kinds = (
                WarningKind.PREDICTED_RACE, WarningKind.PREDICTED_DEADLOCK
            )
            report = self.api.report
            appended = 0
            for warning in det.report.warnings:
                if warning.kind in predicted_kinds:
                    report.add(warning)
                    appended += 1
            payload = self.api.report_text().encode("utf-8")
            outcome = "ok"
        except Exception as exc:  # never let the post-pass kill a worker
            outcome = "error"
            appended = 0
            self.server.log.error(
                "predict_finish_error", session=self.session_id,
                error=f"{type(exc).__name__}: {exc}", trace=self.trace_id,
            )
        with self.server.registry_lock:
            self.server.registry.counter(
                "repro_service_predict_finish_total",
                {"result": outcome},
                help="FINISH-time predictive post-pass outcomes",
            ).inc()
        if outcome == "ok":
            self.server.log.info(
                "predict_finish", session=self.session_id,
                predicted=appended, trace=self.trace_id,
            )
        return payload

    # ------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Write a resumable checkpoint (no-op without a store)."""
        store = self.server.checkpoints
        if store is None or self.finished:
            return
        store.save(
            Checkpoint(
                self.session_id,
                self.config,
                self.api.bytes_fed,
                self.api.events_seen,
                self.api.snapshot(),
            )
        )
        self._events_since_checkpoint = 0
        self._m_checkpoints.inc()

    def welcome_payload(self) -> dict:
        """The WELCOME control body (fresh or resumed)."""
        return {
            "session": self.session_id,
            "credits": self.queue_blocks,
            "offset": self.api.bytes_fed,
            "events": self.api.events_seen,
            "config": self.config,
            "trace": self.trace_id,
        }

    def introspect(self, worker_id: str) -> dict:
        """One ``/sessions`` entry: live state as plain JSON types."""
        with self.lock:
            uncredited = self._uncredited
        if self.finished:
            state = "finished"
        elif self.conn is None:
            state = "detached"
        else:
            state = "active"
        return {
            "session": self.session_id,
            "worker": worker_id,
            "state": state,
            "config": self.config,
            "events": self.api.events_seen,
            "bytes": self.api.bytes_fed,
            "queue_depth": self.queue.qsize(),
            "uncredited": uncredited,
            "events_since_checkpoint": self._events_since_checkpoint,
            "idle_seconds": round(time.monotonic() - self.last_activity, 3),
            "trace": self.trace_id,
        }
