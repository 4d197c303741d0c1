"""Tests for the VM core: threads, memory traps, faults, limits."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.errors import DeadlockError, GuestFault, StepLimitExceeded, VMError
from repro.runtime import VM, RandomScheduler, StickyScheduler
from repro.runtime.events import MemAlloc, MemoryAccess, ThreadCreate, ThreadFinish, ThreadJoin
from tests.conftest import record_trace, run_program


class TestBasicExecution:
    def test_run_returns_main_result(self):
        result, _ = run_program(lambda api: 42)
        assert result == 42

    def test_run_passes_args(self):
        result, _ = run_program(lambda api, a, b: a + b, 3, 4)
        assert result == 7

    def test_vm_is_single_use(self):
        vm = VM()
        vm.run(lambda api: None)
        with pytest.raises(VMError, match="only run once"):
            vm.run(lambda api: None)

    def test_cannot_add_detector_after_start(self):
        vm = VM()
        vm.run(lambda api: None)
        with pytest.raises(VMError):
            vm.add_detector(object())

    def test_finished_flag(self):
        vm = VM()
        assert not vm.finished
        vm.run(lambda api: None)
        assert vm.finished


class TestMemoryTraps:
    def test_malloc_store_load(self):
        def prog(api):
            addr = api.malloc(4, tag="x")
            api.store(addr + 1, "v")
            return api.load(addr + 1)

        result, vm = run_program(prog)
        assert result == "v"
        assert vm.stats.events["MemAlloc"] == 1
        assert vm.stats.events["MemoryAccess"] == 2

    def test_memory_events_carry_block_and_stack(self):
        def prog(api):
            with api.frame("init", "main.cpp", 7):
                addr = api.malloc(1, tag="x")
                api.store(addr, 1)

        events, _ = record_trace(prog)
        store = [e for e in events if isinstance(e, MemoryAccess)][0]
        assert store.block_id >= 0
        assert store.site.function == "init"
        assert store.site.file == "main.cpp"

    def test_at_updates_site_line(self):
        def prog(api):
            addr = api.malloc(1)
            with api.frame("f", "a.cpp", 1):
                api.at(10)
                api.store(addr, 0)
                api.at(20)
                api.store(addr, 1)

        events, _ = record_trace(prog)
        lines = [e.site.line for e in events if isinstance(e, MemoryAccess)]
        assert lines == [10, 20]

    def test_guest_fault_propagates(self):
        with pytest.raises(GuestFault, match="wild"):
            run_program(lambda api: api.store(0xBAD, 1))

    def test_fault_in_child_halts_vm(self):
        def prog(api):
            def bad(a):
                a.load(0xBAD)

            t = api.spawn(bad)
            api.join(t)

        with pytest.raises(GuestFault):
            run_program(prog)

    def test_free_emits_event_and_invalidates(self):
        def prog(api):
            addr = api.malloc(2)
            api.store(addr, 1)
            api.free(addr)
            api.load(addr)

        with pytest.raises(GuestFault, match="freed"):
            run_program(prog)


class TestAtomics:
    def test_atomic_add_returns_old(self):
        def prog(api):
            addr = api.malloc(1)
            api.store(addr, 10)
            old = api.atomic_add(addr, 5)
            return old, api.load(addr)

        result, _ = run_program(prog)
        assert result == (10, 15)

    def test_atomic_add_is_indivisible(self):
        """Concurrent atomic_adds never lose updates, unlike load+store."""

        def prog(api):
            addr = api.malloc(1)
            api.store(addr, 0)

            def worker(a):
                for _ in range(50):
                    a.atomic_add(addr, 1)

            ts = [api.spawn(worker) for _ in range(4)]
            for t in ts:
                api.join(t)
            return api.load(addr)

        for seed in range(3):
            result, _ = run_program(prog, scheduler=RandomScheduler(seed))
            assert result == 200

    def test_plain_increment_loses_updates_under_some_schedule(self):
        """The racy version genuinely corrupts data for at least one seed."""

        def prog(api):
            addr = api.malloc(1)
            api.store(addr, 0)

            def worker(a):
                for _ in range(20):
                    a.store(addr, a.load(addr) + 1)

            ts = [api.spawn(worker) for _ in range(3)]
            for t in ts:
                api.join(t)
            return api.load(addr)

        results = {run_program(prog, scheduler=RandomScheduler(s))[0] for s in range(5)}
        assert any(r < 60 for r in results), results

    def test_atomic_events_are_bus_locked(self):
        def prog(api):
            addr = api.malloc(1)
            api.store(addr, 0)
            api.atomic_add(addr, 1)

        events, _ = record_trace(prog)
        locked = [e for e in events if isinstance(e, MemoryAccess) and e.bus_locked]
        assert len(locked) == 2  # the RMW's read + write
        assert locked[0].kind.value == "read"
        assert locked[1].kind.value == "write"

    def test_cas_success_and_failure(self):
        def prog(api):
            addr = api.malloc(1)
            api.store(addr, 5)
            ok1 = api.atomic_cas(addr, 5, 6)
            ok2 = api.atomic_cas(addr, 5, 7)
            return ok1, ok2, api.load(addr)

        result, _ = run_program(prog)
        assert result == (True, False, 6)

    def test_atomic_add_on_non_integer_faults(self):
        def prog(api):
            addr = api.malloc(1)
            api.store(addr, "not an int")
            api.atomic_add(addr, 1)

        with pytest.raises(GuestFault, match="non-integer"):
            run_program(prog)


class TestThreads:
    def test_spawn_join_returns_child_result(self):
        def prog(api):
            t = api.spawn(lambda a: "child-value")
            return api.join(t)

        result, _ = run_program(prog)
        assert result == "child-value"

    def test_thread_lifecycle_events(self):
        def prog(api):
            t = api.spawn(lambda a: None, name="w")
            api.join(t)

        events, _ = record_trace(prog)
        kinds = [type(e).__name__ for e in events]
        assert "ThreadCreate" in kinds
        assert "ThreadFinish" in kinds
        assert "ThreadJoin" in kinds
        create = next(e for e in events if isinstance(e, ThreadCreate))
        join = next(e for e in events if isinstance(e, ThreadJoin))
        assert create.child_tid == join.joined_tid

    def test_join_already_finished_thread(self):
        def prog(api):
            t = api.spawn(lambda a: 9)
            api.sleep(10)  # let the child definitely finish
            return api.join(t)

        result, _ = run_program(prog)
        assert result == 9

    def test_join_self_faults(self):
        def prog(api):
            api.join(api.thread)

        with pytest.raises(GuestFault, match="itself"):
            run_program(prog)

    def test_unjoined_threads_still_complete(self):
        """Main returning early does not kill detached children."""
        box = []

        def prog(api):
            def child(a):
                a.sleep(5)
                box.append("done")

            api.spawn(child)
            return "main-done"

        result, _ = run_program(prog)
        assert result == "main-done"
        assert box == ["done"]

    def test_nested_spawn(self):
        def prog(api):
            def middle(a):
                t = a.spawn(lambda b: 3)
                return a.join(t) + 1

            t = api.spawn(middle)
            return api.join(t) + 1

        result, _ = run_program(prog)
        assert result == 5

    def test_many_threads(self):
        def prog(api):
            addr = api.malloc(1)
            api.store(addr, 0)
            m = api.mutex()

            def worker(a):
                a.lock(m)
                a.store(addr, a.load(addr) + 1)
                a.unlock(m)

            ts = [api.spawn(worker) for _ in range(30)]
            for t in ts:
                api.join(t)
            return api.load(addr)

        result, vm = run_program(prog)
        assert result == 30
        assert vm.stats.threads_created == 31
        assert vm.stats.max_live_threads >= 2


    def test_seeded_run_repeats_under_host_preemption(self):
        """Exactly one carrier runs at a time: with the host switching
        threads every microsecond, a seeded racy run still repeats
        exactly, lost updates included."""

        def prog(api):
            addr = api.malloc(1)
            api.store(addr, 0)

            def worker(a):
                for _ in range(50):
                    a.store(addr, a.load(addr) + 1)  # racy on purpose

            ts = [api.spawn(worker) for _ in range(8)]
            for t in ts:
                api.join(t)
            return api.load(addr)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = []
            for _ in range(2):
                scheduler = RandomScheduler(seed=7)
                result, vm = run_program(prog, scheduler=scheduler)
                runs.append((result, scheduler.record(), vm.stats.switches))
        finally:
            sys.setswitchinterval(interval)
        assert runs[0] == runs[1]
        assert runs[0][0] < 400  # the seeded schedule lost updates


class TestLimitsAndDeadlock:
    def test_step_limit(self):
        def spin(api):
            addr = api.malloc(1)
            api.store(addr, 0)
            while True:
                api.load(addr)

        with pytest.raises(StepLimitExceeded):
            run_program(spin, step_limit=500)

    def test_deadlock_two_mutexes(self):
        def prog(api):
            m1, m2 = api.mutex("A"), api.mutex("B")

            def w1(a):
                a.lock(m1)
                a.yield_()
                a.lock(m2)

            def w2(a):
                a.lock(m2)
                a.yield_()
                a.lock(m1)

            t1, t2 = api.spawn(w1), api.spawn(w2)
            api.join(t1)
            api.join(t2)

        with pytest.raises(DeadlockError) as exc_info:
            run_program(prog)
        blocked_tids = {tid for tid, _ in exc_info.value.blocked}
        assert len(blocked_tids) == 3  # the two workers + joining main

    def test_starved_queue_get_is_deadlock(self):
        def prog(api):
            q = api.queue()
            api.get(q)  # nobody will ever put

        with pytest.raises(DeadlockError):
            run_program(prog)

    def test_self_join_like_wait_detected(self):
        def prog(api):
            cv, m = api.condvar(), api.mutex()
            api.lock(m)
            api.cond_wait(cv, m)  # nobody signals

        with pytest.raises(DeadlockError):
            run_program(prog)


class TestBatonTeardown:
    """A failed run releases every parked carrier exactly once: the
    typed error reaches the caller, no carrier dies of releasing an
    unlocked baton, and none is left running."""

    @pytest.fixture
    def carrier_errors(self, monkeypatch):
        errors = []
        monkeypatch.setattr(threading, "excepthook", errors.append)
        yield errors
        for thread in threading.enumerate():
            assert not thread.name.startswith("carrier-"), thread.name

    @staticmethod
    def _run(vm, prog, error):
        with pytest.raises(error):
            vm.run(prog)
        for thread in vm.threads.values():
            assert not isinstance(thread.error, RuntimeError), thread.error
            assert thread.carrier is None or not thread.carrier.is_alive()

    def test_two_mutex_deadlock_with_guest_cleanup(self, carrier_errors):
        def prog(api):
            m1, m2 = api.mutex("A"), api.mutex("B")

            def worker(a, first, second):
                a.lock(first)
                try:
                    a.yield_()
                    a.lock(second)
                finally:
                    # Runs during teardown, and wakes the other worker.
                    a.unlock(first)

            t1 = api.spawn(worker, m1, m2)
            t2 = api.spawn(worker, m2, m1)
            api.join(t1)
            api.join(t2)

        self._run(VM(), prog, DeadlockError)
        assert carrier_errors == []

    def test_child_fault_with_a_never_scheduled_sibling(self, carrier_errors):
        def idle(a):
            a.yield_()

        def bad(a):
            a.spawn(idle, name="sibling")
            a.load(0xBAD)

        def prog(api):
            api.join(api.spawn(bad))

        # switch_prob=0: a thread runs until it blocks or exits, so the
        # sibling is still waiting for its first turn when ``bad`` faults.
        vm = VM(scheduler=StickyScheduler(seed=1, switch_prob=0.0))
        self._run(vm, prog, GuestFault)
        sibling = next(t for t in vm.threads.values() if t.name == "sibling")
        assert sibling.steps == 0
        assert carrier_errors == []

    def test_step_limit_with_several_runnable_threads(self, carrier_errors):
        def prog(api):
            addr = api.malloc(1)
            api.store(addr, 0)

            def spin(a):
                try:
                    while True:
                        a.load(addr)
                finally:
                    # Past the step limit: this cleanup faults mid-teardown.
                    a.store(addr, 1)

            ts = [api.spawn(spin) for _ in range(3)]
            for t in ts:
                api.join(t)

        vm = VM(step_limit=500)
        self._run(vm, prog, StepLimitExceeded)
        spinners = [t for t in vm.threads.values() if t.parent_tid is not None]
        assert len(spinners) == 3 and all(t.steps > 0 for t in spinners)
        assert carrier_errors == []


class TestStats:
    def test_stats_event_counts(self):
        def prog(api):
            addr = api.malloc(1)
            api.store(addr, 0)
            api.load(addr)

        _, vm = run_program(prog)
        assert vm.stats.events["MemAlloc"] == 1
        assert vm.stats.events["MemoryAccess"] == 2
        assert vm.stats.total_events == vm.clock

    def test_single_thread_avoids_host_switches(self):
        """With one runnable thread the fast path skips carrier hand-offs."""

        def prog(api):
            addr = api.malloc(1)
            api.store(addr, 0)
            for _ in range(100):
                api.load(addr)

        _, vm = run_program(prog)
        # Only the initial dispatch of main should count as a switch.
        assert vm.stats.switches <= 2


class TestApiDetails:
    def test_spawn_names_threads(self):
        def prog(api):
            t = api.spawn(lambda a: None, name="worker-7")
            api.join(t)
            return t.name

        result, _ = run_program(prog)
        assert result == "worker-7"

    def test_default_thread_names(self):
        def prog(api):
            t = api.spawn(lambda a: None)
            api.join(t)
            return t.name

        result, _ = run_program(prog)
        assert result == "thread-1"

    def test_sleep_zero_is_noop(self):
        def prog(api):
            api.sleep(0)
            return "done"

        result, _ = run_program(prog)
        assert result == "done"

    def test_frames_unwound_on_guest_fault(self):
        """The frame context manager pops even when the body raises."""
        from repro.errors import GuestFault

        def prog(api):
            try_depths = []
            with api.frame("outer", "x.cpp", 1):
                try_depths.append(len(api.thread.frames))
            try_depths.append(len(api.thread.frames))
            return try_depths

        result, _ = run_program(prog)
        assert result == [1, 0]

    def test_guest_fault_carries_tid(self):
        from repro.errors import GuestFault

        def prog(api):
            def child(a):
                a.load(0xBAD)

            t = api.spawn(child)
            api.join(t)

        try:
            run_program(prog)
        except GuestFault as fault:
            assert fault.tid == 1
        else:  # pragma: no cover
            raise AssertionError("expected GuestFault")

    def test_client_request_rejects_empty_range(self):
        from repro.errors import GuestFault

        def prog(api):
            addr = api.malloc(1)
            api.hg_destruct(addr, 0)

        import pytest

        with pytest.raises(GuestFault, match="non-positive"):
            run_program(prog)

    def test_benign_range_spans_multiple_words(self):
        from repro.detectors import HelgrindConfig, HelgrindDetector

        def prog(api):
            block = api.malloc(4, tag="stats")
            for i in range(4):
                api.store(block + i, 0)
            api.benign_race(block, 4)

            def w(a):
                for i in range(4):
                    a.store(block + i, a.load(block + i) + 1)

            t1, t2 = api.spawn(w), api.spawn(w)
            api.join(t1)
            api.join(t2)

        det = HelgrindDetector(HelgrindConfig.original())
        run_program(prog, detectors=(det,))
        assert det.report.location_count == 0

    def test_sync_object_reprs(self):
        def prog(api):
            m = api.mutex("guard")
            rw = api.rwlock("cache")
            q = api.queue(maxsize=2, name="jobs")
            sem = api.semaphore(1, name="slots")
            bar = api.barrier(2, name="sync")
            cv = api.condvar("ready")
            api.lock(m)
            reprs = [repr(m), repr(rw), repr(q), repr(sem), repr(bar), repr(cv)]
            api.unlock(m)
            return reprs

        result, _ = run_program(prog)
        assert "guard" in result[0] and "t0" in result[0]
        assert "free" in result[1]
        assert "0/2" in result[2]
        assert "count=1" in result[3]
        assert "0/2" in result[4]
        assert "waiters=0" in result[5]
