"""Integration tests for the streaming analysis service.

The contracts under test are the tentpole's acceptance criteria:

* a session's report is **byte-identical** to the offline
  ``repro trace replay`` report, for T1–T3 under all three paper
  configurations, with any number of concurrent sessions;
* a **killed** server (no drain) resumes a checkpointed session
  mid-stream and still produces the identical report;
* the per-session ingest queue **never buffers more than the
  configured bound** and credit exhaustion is visible as
  ``repro_service_backpressure_stalls_total``;
* the CLI round trip (``repro client report``/``stat``) works over a
  unix socket against an in-process server.

Servers run in-process (threads), so each test owns its lifecycle and
nothing leaks between tests.
"""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro.service import (
    AnalysisClient,
    AnalysisServer,
    CheckpointStore,
    ServiceError,
    fetch_report,
)

from tests.service.conftest import CASES, CONFIGS  # shared with test_shard


@pytest.fixture
def unix_server(tmp_path):
    server = AnalysisServer(
        socket_path=str(tmp_path / "repro.sock"), workers=2
    )
    server.start()
    yield server
    server.shutdown(drain=True, timeout=10.0)


def _family(server, name):
    with server.registry_lock:
        return server.registry.snapshot()["metrics"].get(name)


def _sample_values(server, name):
    family = _family(server, name)
    return [s["value"] for s in family["samples"]] if family else []


class TestRoundTrip:
    def test_report_byte_identical_over_unix_socket(self, unix_server, traces):
        path, reference = traces[("T1", "hwlc+dr")]
        got = fetch_report(path, "hwlc+dr", socket_path=unix_server.address)
        assert got == reference

    @pytest.mark.parametrize("config", CONFIGS)
    def test_concurrent_sessions_all_cases(self, unix_server, traces, config):
        """Three sessions streaming T1–T3 at once, tiny chunks so their
        blocks interleave on the worker pool: every report must equal
        its offline twin byte-for-byte."""
        results: dict[str, bytes] = {}
        errors: list[Exception] = []

        def one(case_id: str) -> None:
            try:
                results[case_id] = fetch_report(
                    traces[(case_id, config)][0],
                    config,
                    socket_path=unix_server.address,
                    chunk_bytes=1024,
                )
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=one, args=(case_id,)) for case_id in CASES
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        for case_id in CASES:
            assert results[case_id] == traces[(case_id, config)][1], case_id

    def test_session_metrics_populated(self, unix_server, traces):
        path, _ = traces[("T1", "hwlc+dr")]
        fetch_report(path, socket_path=unix_server.address)
        assert sum(
            _sample_values(unix_server, "repro_service_bytes_ingested_total")
        ) == path.stat().st_size
        assert sum(
            _sample_values(unix_server, "repro_service_reports_total")
        ) == 1
        assert _sample_values(unix_server, "repro_service_sessions_total") == [1]

    def test_stats_frame_matches_registry(self, unix_server, traces):
        path, _ = traces[("T1", "hwlc+dr")]
        fetch_report(path, socket_path=unix_server.address)
        with AnalysisClient(socket_path=unix_server.address) as client:
            snapshot = client.stats()
        names = set(snapshot["metrics"])
        assert {
            "repro_service_sessions_total",
            "repro_service_events_total",
            "repro_service_queue_high_water",
            "repro_service_backpressure_stalls_total",
        } <= names


class TestErrors:
    def test_unknown_config_rejected(self, unix_server):
        with AnalysisClient(socket_path=unix_server.address) as client:
            with pytest.raises(ServiceError) as exc:
                client.hello("helgrind++")
        assert "hwlc+dr" in str(exc.value)  # the error lists known names

    def test_resume_without_checkpoint_dir(self, unix_server):
        with AnalysisClient(socket_path=unix_server.address) as client:
            with pytest.raises(ServiceError):
                client.hello(session="s0001")

    def test_data_before_hello(self, unix_server):
        with AnalysisClient(socket_path=unix_server.address) as client:
            with pytest.raises(ServiceError):
                client.send(b"xx")

    def test_corrupt_stream_fails_session_not_server(self, unix_server, traces):
        """Garbage bytes must kill the *session* (ERROR frame, metric)
        — never a worker thread; the next client is unaffected."""
        with AnalysisClient(socket_path=unix_server.address) as client:
            client.hello("hwlc+dr")
            client.send(b"NOPE this is not RPTR at all")
            with pytest.raises(ServiceError) as exc:
                client.finish()
        assert "bad magic" in str(exc.value)
        assert sum(
            _sample_values(unix_server, "repro_service_analysis_errors_total")
        ) == 1
        # Both workers must still be alive and serving.
        path, reference = traces[("T1", "hwlc+dr")]
        for _ in range(2):
            assert fetch_report(
                path, socket_path=unix_server.address
            ) == reference

    def test_truncated_stream_fails_session_not_server(
        self, unix_server, traces
    ):
        """FINISH on a stream that stops inside a record must not report
        whatever was decoded so far: ERROR frame and error metric, and
        the workers keep serving."""
        path, reference = traces[("T1", "hwlc+dr")]
        data = path.read_bytes()
        with AnalysisClient(socket_path=unix_server.address) as client:
            client.hello("hwlc+dr")
            client.send(data[: len(data) * 2 // 3])
            with pytest.raises(ServiceError) as exc:
                client.finish()
        assert "TraceFormatError" in str(exc.value)
        assert "stream ended inside a record" in str(exc.value)
        assert sum(
            _sample_values(unix_server, "repro_service_analysis_errors_total")
        ) == 1
        for _ in range(2):
            assert fetch_report(
                path, socket_path=unix_server.address
            ) == reference


class TestKillAndResume:
    def test_killed_server_resumes_byte_identical(self, tmp_path, traces):
        path, reference = traces[("T2", "hwlc+dr")]
        data = path.read_bytes()
        ckpt_dir = tmp_path / "ckpt"

        server1 = AnalysisServer(
            socket_path=str(tmp_path / "one.sock"),
            workers=1,
            checkpoint_dir=str(ckpt_dir),
            checkpoint_every=300,
        )
        server1.start()
        client = AnalysisClient(socket_path=server1.address)
        client.hello("hwlc+dr")
        session_id = client.session_id
        # Stream roughly half the trace, then wait until the periodic
        # checkpoint cadence has fired at least once.
        half = len(data) // 2
        pos = 0
        while pos < half:
            client.send(data[pos:pos + 4096])
            pos += 4096
        store = CheckpointStore(ckpt_dir)
        deadline = time.monotonic() + 10
        while not store.session_ids() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert store.session_ids() == [session_id]
        server1.shutdown(drain=False)  # the crash
        client.close()

        ckpt = store.load(session_id)
        assert 0 < ckpt.offset < len(data)

        server2 = AnalysisServer(
            socket_path=str(tmp_path / "two.sock"),
            workers=1,
            checkpoint_dir=str(ckpt_dir),
        )
        server2.start()
        try:
            got = fetch_report(
                path, socket_path=server2.address, session=session_id
            )
            assert got == reference
            assert _sample_values(
                server2, "repro_service_sessions_resumed_total"
            ) == [1]
            # A finished session's checkpoint is garbage-collected
            # (by the worker shortly after it ships the report).
            deadline = time.monotonic() + 5
            while store.session_ids() and time.monotonic() < deadline:
                time.sleep(0.02)
            assert store.session_ids() == []
        finally:
            server2.shutdown(drain=True, timeout=10.0)

    def test_fresh_ids_skip_checkpointed_sessions(self, tmp_path, traces):
        """After a restart, fresh session ids must not collide with a
        prior incarnation's resumable checkpoints — a collision would
        overwrite, then delete, the other client's checkpoint file."""
        path, reference = traces[("T1", "hwlc+dr")]
        data = path.read_bytes()
        ckpt_dir = tmp_path / "ckpt"
        server1 = AnalysisServer(
            socket_path=str(tmp_path / "one.sock"),
            workers=1,
            checkpoint_dir=str(ckpt_dir),
            checkpoint_every=1,
        )
        server1.start()
        client = AnalysisClient(socket_path=server1.address)
        client.hello("hwlc+dr")
        old_id = client.session_id
        client.send(data[:8192])
        store = CheckpointStore(ckpt_dir)
        deadline = time.monotonic() + 10
        while not store.session_ids() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert store.session_ids() == [old_id]
        server1.shutdown(drain=False)
        client.close()

        server2 = AnalysisServer(
            socket_path=str(tmp_path / "two.sock"),
            workers=1,
            checkpoint_dir=str(ckpt_dir),
        )
        server2.start()
        try:
            # A full fresh run (open → stream → finish, which deletes
            # *its own* checkpoint) must get a new id and leave the old
            # checkpoint untouched…
            with AnalysisClient(socket_path=server2.address) as fresh:
                fresh.hello("hwlc+dr")
                assert fresh.session_id != old_id
                fresh.stream_file(path)
                assert fresh.finish() == reference
            assert store.session_ids() == [old_id]
            # …and the old session must still resume to the same bytes.
            assert fetch_report(
                path, socket_path=server2.address, session=old_id
            ) == reference
        finally:
            server2.shutdown(drain=True, timeout=10.0)

    def test_concurrent_resume_single_winner(self, tmp_path, traces,
                                             monkeypatch):
        """Two simultaneous HELLO{session: X} frames: exactly one may
        win; the loser gets 'already active' even though both arrive
        before the winner's checkpoint load completes."""
        path, reference = traces[("T2", "hwlc+dr")]
        data = path.read_bytes()
        ckpt_dir = tmp_path / "ckpt"
        server1 = AnalysisServer(
            socket_path=str(tmp_path / "one.sock"),
            workers=1,
            checkpoint_dir=str(ckpt_dir),
            checkpoint_every=1,
        )
        server1.start()
        client = AnalysisClient(socket_path=server1.address)
        client.hello("hwlc+dr")
        session_id = client.session_id
        client.send(data[:8192])
        store = CheckpointStore(ckpt_dir)
        deadline = time.monotonic() + 10
        while not store.session_ids() and time.monotonic() < deadline:
            time.sleep(0.02)
        server1.shutdown(drain=False)
        client.close()

        real_load = CheckpointStore.load
        monkeypatch.setattr(
            CheckpointStore,
            "load",
            lambda self, sid: (time.sleep(0.4), real_load(self, sid))[1],
        )
        server2 = AnalysisServer(
            socket_path=str(tmp_path / "two.sock"),
            workers=1,
            checkpoint_dir=str(ckpt_dir),
        )
        server2.start()
        outcomes: list[str] = []

        def try_resume(delay: float) -> None:
            time.sleep(delay)
            try:
                with AnalysisClient(socket_path=server2.address) as c:
                    c.hello(session=session_id)
                    outcomes.append("resumed")
            except ServiceError:
                outcomes.append("rejected")

        threads = [
            threading.Thread(target=try_resume, args=(delay,))
            for delay in (0.0, 0.15)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        try:
            assert sorted(outcomes) == ["rejected", "resumed"]
            # Wait out the winner's detach (async, on the worker pool),
            # then the session must resume cleanly from its checkpoint.
            deadline = time.monotonic() + 10
            while server2._sessions and time.monotonic() < deadline:
                time.sleep(0.02)
            assert fetch_report(
                path, socket_path=server2.address, session=session_id
            ) == reference
        finally:
            server2.shutdown(drain=True, timeout=10.0)

    def test_resume_active_session_rejected(self, tmp_path, traces):
        path, _ = traces[("T1", "hwlc+dr")]
        server = AnalysisServer(
            socket_path=str(tmp_path / "a.sock"),
            workers=1,
            checkpoint_dir=str(tmp_path / "ck"),
        )
        server.start()
        try:
            with AnalysisClient(socket_path=server.address) as first:
                first.hello("hwlc+dr")
                with AnalysisClient(socket_path=server.address) as second:
                    with pytest.raises(ServiceError):
                        second.hello(session=first.session_id)
        finally:
            server.shutdown(drain=True, timeout=10.0)


class TestBackpressure:
    def test_queue_bound_and_stalls(self, traces):
        """A slow consumer (throttled worker) must cap the per-session
        buffer at ``queue_blocks`` and surface the client's credit
        exhaustion as backpressure stalls."""
        path, reference = traces[("T2", "hwlc+dr")]
        bound = 3
        server = AnalysisServer(
            host="127.0.0.1", port=0, workers=1,
            queue_blocks=bound, throttle=0.01,
        )
        server.start()
        host, port = server.address
        try:
            with AnalysisClient(
                host=host, port=port, chunk_bytes=512
            ) as client:
                welcome = client.hello("hwlc+dr")
                assert welcome["credits"] == bound
                client.stream_file(path)
                assert client.finish() == reference
            high_water = _sample_values(
                server, "repro_service_queue_high_water"
            )
            stalls = _sample_values(
                server, "repro_service_backpressure_stalls_total"
            )
            assert high_water and max(high_water) <= bound
            assert stalls and stalls[0] >= 1
        finally:
            server.shutdown(drain=True, timeout=10.0)


class TestIdleTimeout:
    def test_backpressured_session_not_idle_closed(self, tmp_path, traces):
        """A credit-stalled but healthy client (slow worker draining a
        full queue) is mid-transfer, not idle: per-chunk drains count
        as activity and a session with work in flight is never reaped,
        even when one batch takes longer than ``idle_timeout``."""
        path, reference = traces[("T1", "hwlc+dr")]
        server = AnalysisServer(
            socket_path=str(tmp_path / "slow.sock"),
            workers=1,
            queue_blocks=2,
            throttle=0.08,  # 2-chunk batch = 0.16s > idle_timeout
            idle_timeout=0.15,
        )
        server.start()
        try:
            got = fetch_report(
                path, socket_path=server.address, chunk_bytes=4096
            )
            assert got == reference
            assert sum(
                _sample_values(server, "repro_service_idle_closed_total")
            ) == 0
        finally:
            server.shutdown(drain=True, timeout=10.0)

    def test_idle_session_checkpointed_and_resumable(self, tmp_path, traces):
        path, reference = traces[("T1", "hwlc+dr")]
        data = path.read_bytes()
        server = AnalysisServer(
            socket_path=str(tmp_path / "idle.sock"),
            workers=1,
            idle_timeout=0.15,
            checkpoint_dir=str(tmp_path / "ck"),
        )
        server.start()
        try:
            client = AnalysisClient(socket_path=server.address)
            client.hello("hwlc+dr")
            session_id = client.session_id
            client.send(data[:8192])
            store = CheckpointStore(tmp_path / "ck")
            deadline = time.monotonic() + 10
            while not store.session_ids() and time.monotonic() < deadline:
                time.sleep(0.02)
            assert store.session_ids() == [session_id]
            assert _sample_values(
                server, "repro_service_idle_closed_total"
            ) == [1]
            client.close()

            ckpt = store.load(session_id)
            got = fetch_report(
                path, socket_path=server.address, session=session_id
            )
            assert got == reference
            assert ckpt.offset <= len(data)
        finally:
            server.shutdown(drain=True, timeout=10.0)


class TestCliClient:
    def test_client_report_and_stat(self, unix_server, traces, tmp_path, capsys):
        from repro.cli import main

        path, reference = traces[("T3", "hwlc+dr")]
        out = tmp_path / "service-report.json"
        assert main([
            "client", "report", str(path), "hwlc+dr",
            "--socket", unix_server.address, "--report-out", str(out),
        ]) == 0
        printed = capsys.readouterr().out
        assert "reported locations" in printed
        assert out.read_bytes() == reference

        assert main(["client", "stat", "--socket", unix_server.address]) == 0
        printed = capsys.readouterr().out
        assert "repro_service_sessions_total" in printed

    def test_client_record_live_stream(self, unix_server, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "live-report.json"
        assert main([
            "client", "record", "T1", "hwlc+dr",
            "--socket", unix_server.address, "--report-out", str(out),
        ]) == 0
        printed = capsys.readouterr().out
        assert "streamed" in printed
        report = json.loads(out.read_bytes())
        assert report["warnings"]

    def test_endpoint_validation(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["client", "stat"])  # neither --socket nor --tcp
        with pytest.raises(SystemExit):
            main(["serve"])  # neither endpoint flag

    def test_client_help(self, capsys):
        from repro.cli import main

        assert main(["client"]) == 2
        assert "record" in capsys.readouterr().out


class TestFinishPredict:
    """Opt-in FINISH-time predictive post-pass (``--finish-predict``).

    The session spools every ingested chunk; at FINISH the server
    replays the spool under the ``predictive`` profile and appends the
    predicted findings to the report it serves."""

    def _spools(self):
        import glob
        import tempfile

        return set(
            glob.glob(os.path.join(tempfile.gettempdir(), "repro-spool-*"))
        )

    def test_predictions_appended_to_legacy_report(self, tmp_path):
        """A session under a legacy profile gets the predictive tier's
        findings in its REPORT, and the spool is gone afterwards."""
        from repro.experiments.harness import run_proxy_case
        from repro.runtime.trace import TraceRecorder
        from repro.sip.workload import predictive_cases

        case = next(c for c in predictive_cases() if c.case_id == "T9")
        path = tmp_path / "t9.rptr"
        with TraceRecorder(path, format="binary") as recorder:
            run_proxy_case(case, "hwlc+dr", seed=42, extra_hooks=(recorder,))
        before = self._spools()
        server = AnalysisServer(
            socket_path=str(tmp_path / "repro.sock"),
            workers=1,
            finish_predict=True,
        )
        server.start()
        try:
            got = fetch_report(path, "hwlc+dr", socket_path=server.address)
        finally:
            server.shutdown(drain=True, timeout=30.0)
        assert b'"predicted-deadlock"' in got
        assert _sample_values(
            server, "repro_service_predict_finish_total"
        ) == [1.0]
        assert self._spools() <= before

    def test_detached_session_drops_spool(self, tmp_path, traces):
        """A client that vanishes mid-stream must not leave the spool
        behind or trigger the post-pass."""
        import socket as socket_mod

        from repro.service import protocol

        before = self._spools()
        server = AnalysisServer(
            socket_path=str(tmp_path / "repro.sock"),
            workers=1,
            finish_predict=True,
        )
        server.start()
        try:
            path, _ = traces[("T2", "hwlc")]
            data = path.read_bytes()
            conn = socket_mod.socket(socket_mod.AF_UNIX)
            conn.connect(server.address)
            try:
                protocol.send_json(conn, protocol.HELLO, {
                    "trace": "drop-test", "config": "hwlc",
                })
                protocol.FrameReader(conn).read()  # WELCOME
                protocol.send_frame(conn, protocol.DATA, data[:4096])
            finally:
                conn.close()  # vanish without FINISH
        finally:
            server.shutdown(drain=True, timeout=30.0)
        assert _family(server, "repro_service_predict_finish_total") is None
        assert self._spools() <= before
