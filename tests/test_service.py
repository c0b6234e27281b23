"""Unit tests for the concurrent filter service and its parts.

Covers the four pillars in isolation — deadlines, admission control, the
circuit breaker, health accounting — then the assembled
:class:`~repro.service.FilterService`, the CLI entry point, and the
hypothesis property behind everything: **a degraded response is always
all-positive**, so no protection mechanism can ever manufacture a false
negative.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.metrics import run_service_load
from repro.core.errors import DeadlineExceededError
from repro.core.rencoder import REncoder
from repro.service import (
    AdmissionQueue,
    CircuitBreaker,
    Deadline,
    FilterService,
    ServiceOverloadError,
    ServiceResponse,
    ServiceStats,
    SimulatedClock,
)
from repro.service.health import LatencyRecorder, percentile
from repro.storage.env import StorageEnv
from repro.storage.lsm import LSMTree

MS = 1_000_000


def _factory(keys):
    return REncoder(keys, bits_per_key=14)


def _tree(n=600, *, injector=None, clock=None):
    env = StorageEnv(
        clock=clock if clock is not None else SimulatedClock(),
        injector=injector,
    )
    lsm = LSMTree(_factory, memtable_capacity=64, env=env)
    for k in range(0, 2 * n, 2):  # even keys present, odd absent
        lsm.put(k, k)
    lsm.flush()
    return lsm


class TestDeadline:
    def test_after_and_remaining(self):
        clock = SimulatedClock()
        d = Deadline.after(clock, 10 * MS)
        assert d.remaining_ns(clock) == 10 * MS
        assert not d.expired(clock)
        clock.advance(10 * MS)
        assert not d.expired(clock)  # exactly at the deadline is on time
        clock.advance(1)
        assert d.expired(clock)
        assert d.remaining_ns(clock) == 0

    def test_validation(self):
        clock = SimulatedClock()
        with pytest.raises(ValueError):
            Deadline(-1)
        with pytest.raises(ValueError):
            Deadline.after(clock, 0)

    def test_enforced_mid_io(self):
        """The charge that crosses the deadline raises on that thread."""
        clock = SimulatedClock()
        env = StorageEnv(clock=clock)
        with env.deadline_scope(clock.now_ns() + env.io_cost_ns):
            env.read(True)  # lands exactly on the deadline: on time
            with pytest.raises(DeadlineExceededError):
                env.read(True)
        env.read(True)  # outside the scope: no budget, no error

    def test_scopes_nest(self):
        clock = SimulatedClock()
        env = StorageEnv(clock=clock)
        with env.deadline_scope(None):
            with env.deadline_scope(clock.now_ns() + 1):
                with pytest.raises(DeadlineExceededError):
                    env.read(True)
            env.read(True)  # outer scope restored (no budget)


class TestAdmissionQueue:
    def test_fifo(self):
        q = AdmissionQueue(4)
        for i in range(3):
            q.put(i)
        assert [q.get() for _ in range(3)] == [0, 1, 2]
        assert q.admitted == 3

    def test_reject_new(self):
        q = AdmissionQueue(2, "reject-new")
        q.put("a")
        q.put("b")
        with pytest.raises(ServiceOverloadError) as info:
            q.put("c", retry_after_ns=42)
        assert info.value.retry_after_ns == 42
        assert q.rejected == 1
        assert q.get() == "a"  # queued work untouched

    def test_drop_oldest_returns_evicted(self):
        q = AdmissionQueue(2, "drop-oldest")
        assert q.put("a") is None
        assert q.put("b") is None
        assert q.put("c") == "a"
        assert q.dropped == 1
        assert [q.get(), q.get()] == ["b", "c"]

    def test_unbounded_never_sheds(self):
        q = AdmissionQueue(0, "reject-new")
        for i in range(100):
            q.put(i)
        assert len(q) == 100 and q.rejected == 0

    def test_close_wakes_getter(self):
        q = AdmissionQueue(4)
        got = []
        t = threading.Thread(target=lambda: got.append(q.get()))
        t.start()
        q.close()
        t.join(timeout=5)
        assert not t.is_alive()
        assert got == [None]
        with pytest.raises(RuntimeError):
            q.put("late")

    def test_drain_and_timeout(self):
        q = AdmissionQueue(4)
        q.put("a")
        q.put("b")
        assert q.drain() == ["a", "b"]
        assert q.get(timeout=0.01) is None  # expired, not closed
        assert not q.closed

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionQueue(-1)
        with pytest.raises(ValueError):
            AdmissionQueue(1, "lifo")


class TestCircuitBreaker:
    def _breaker(self, clock=None, **kw):
        kw.setdefault("window", 8)
        kw.setdefault("min_samples", 4)
        kw.setdefault("failure_threshold", 0.5)
        kw.setdefault("open_ns", 10 * MS)
        kw.setdefault("half_open_probes", 2)
        return CircuitBreaker(clock or SimulatedClock(), **kw)

    def test_stays_closed_below_min_samples(self):
        b = self._breaker()
        for _ in range(3):
            b.record_failure()
        assert b.state == "closed" and b.allow()

    def test_trips_at_threshold(self):
        b = self._breaker()
        for _ in range(2):
            b.record_success()
        for _ in range(2):
            b.record_failure()
        assert b.state == "open"
        assert not b.allow()
        assert b.trips == 1 and b.denials == 1

    def test_successes_dilute_failures(self):
        b = self._breaker()
        for _ in range(6):
            b.record_success()
        for _ in range(2):
            b.record_failure()
        assert b.state == "closed"  # 2/8 < 0.5

    def test_half_open_after_open_window(self):
        clock = SimulatedClock()
        b = self._breaker(clock)
        b.force_open()
        assert not b.allow()
        clock.advance(10 * MS)
        assert b.state == "half-open"
        # Exactly half_open_probes callers pass; the rest are denied.
        assert b.allow() and b.allow()
        assert not b.allow()

    def test_probe_success_closes(self):
        clock = SimulatedClock()
        b = self._breaker(clock)
        b.force_open()
        clock.advance(10 * MS)
        assert b.allow() and b.allow()
        b.record_success()
        b.record_success()
        assert b.state == "closed"
        # A fresh window after closing: one failure must not re-trip.
        b.record_failure()
        assert b.state == "closed"

    def test_probe_failure_reopens(self):
        clock = SimulatedClock()
        b = self._breaker(clock)
        b.force_open()
        clock.advance(10 * MS)
        assert b.allow()
        b.record_failure()
        assert b.state == "open" and b.trips == 2

    def test_release_returns_half_open_probe(self):
        clock = SimulatedClock()
        b = self._breaker(clock)
        b.force_open()
        clock.advance(10 * MS)
        assert b.allow() and b.allow()
        assert not b.allow()
        b.release()  # one probe settled neither way: its slot is free
        assert b.allow()
        b.record_success()
        b.record_success()
        assert b.state == "closed"
        b.release()  # closed: nothing to return
        assert b.state == "closed" and b.allow()

    def test_snapshot(self):
        b = self._breaker()
        b.record_failure()
        snap = b.snapshot()
        assert snap["state"] == "closed"
        assert snap["window_failures"] == 1 and snap["window_samples"] == 1

    def test_retry_after_tracks_open_window(self):
        clock = SimulatedClock()
        b = self._breaker(clock)
        assert b.retry_after_ns() == 0  # closed: try immediately
        b.force_open()
        assert b.retry_after_ns() == 10 * MS
        clock.advance(4 * MS)
        assert b.retry_after_ns() == 6 * MS
        clock.advance(6 * MS)
        # Window elapsed: half-open, probe-limited rather than timed.
        assert b.retry_after_ns() == 0
        assert b.state == "half-open"

    def test_half_open_probe_quota_under_concurrent_callers(self):
        # N threads race allow() on a freshly half-open breaker; the
        # probe quota must admit exactly half_open_probes of them.
        clock = SimulatedClock()
        b = self._breaker(clock, half_open_probes=3)
        b.force_open()
        clock.advance(10 * MS)
        n = 16
        results = [None] * n
        barrier = threading.Barrier(n)

        def caller(i):
            barrier.wait()
            results[i] = b.allow()

        threads = [
            threading.Thread(target=caller, args=(i,)) for i in range(n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(results) == 3
        assert b.denials == n - 3

    def test_half_open_concurrent_successes_close_exactly_once(self):
        # The admitted probes report success from separate threads; the
        # breaker must close exactly once (one transition counted) and
        # stay closed.
        clock = SimulatedClock()
        b = self._breaker(clock, half_open_probes=4)
        b.force_open()
        clock.advance(10 * MS)
        admitted = sum(b.allow() for _ in range(8))
        assert admitted == 4
        barrier = threading.Barrier(4)

        def report():
            barrier.wait()
            b.record_success()

        threads = [threading.Thread(target=report) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert b.state == "closed"
        assert b.closes == 1

    def test_half_open_concurrent_failure_wins_over_success(self):
        # One success and one failure race from the two admitted
        # probes.  Either interleaving ends open: failure-first trips
        # and the late success is a no-op on an open breaker;
        # success-first leaves the quota unfilled (1 < 2) and the
        # failure then trips.
        clock = SimulatedClock()
        b = self._breaker(clock, half_open_probes=2)
        b.force_open()
        clock.advance(10 * MS)
        assert b.allow() and b.allow()
        barrier = threading.Barrier(2)

        def ok():
            barrier.wait()
            b.record_success()

        def bad():
            barrier.wait()
            b.record_failure()

        threads = [threading.Thread(target=ok), threading.Thread(target=bad)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert b.state == "open"
        assert b.trips == 2

    def test_validation(self):
        clock = SimulatedClock()
        for kw in (
            dict(window=0),
            dict(failure_threshold=0.0),
            dict(failure_threshold=1.5),
            dict(min_samples=0),
            dict(min_samples=99, window=8),
            dict(open_ns=-1),
            dict(half_open_probes=0),
        ):
            with pytest.raises(ValueError):
                CircuitBreaker(clock, **kw)


class TestHealth:
    def test_percentile_nearest_rank(self):
        samples = list(range(1, 101))
        assert percentile(samples, 50) == 50
        assert percentile(samples, 99) == 99
        assert percentile(samples, 100) == 100
        assert percentile([], 50) == 0.0
        with pytest.raises(ValueError):
            percentile(samples, 101)

    def test_latency_recorder(self):
        rec = LatencyRecorder()
        for ns in (1 * MS, 2 * MS, 10 * MS):
            rec.record(ns)
        assert len(rec) == 3
        assert rec.summary_ms()["max_ms"] == 10.0

    def test_stats_bump_and_snapshot(self):
        stats = ServiceStats()
        stats.bump(submitted=2, completed=2, ok=1, degraded=1)
        snap = stats.snapshot()
        assert snap["ok"] == 1 and snap["degraded_rate"] == 0.5
        with pytest.raises(AttributeError):
            stats.bump(bogus=1)

    def test_counted_under_contention(self):
        """Concurrent bumps never lose increments (the lock earns it)."""
        stats = ServiceStats()
        n, threads = 2_000, 8

        def worker():
            for _ in range(n):
                stats.bump(submitted=1, completed=1, ok=1)

        ts = [threading.Thread(target=worker) for _ in range(threads)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert stats.submitted == stats.completed == stats.ok == n * threads


class TestServiceResponse:
    def test_degraded_must_be_all_positive(self):
        with pytest.raises(ValueError):
            ServiceResponse(positive=False, degraded=True, reason="shed")
        with pytest.raises(ValueError):
            ServiceResponse(
                positive=[True, False], degraded=True, reason="deadline"
            )
        ServiceResponse(positive=[True, True], degraded=True, reason="shed")
        ServiceResponse(positive=False, degraded=False, reason="ok")


class TestFilterService:
    def test_answers_match_tree(self):
        lsm = _tree()
        with FilterService(lsm, workers=2) as svc:
            assert svc.query_range(10, 14).positive is True
            assert svc.query_range(11, 11).positive is False
            assert svc.query_point(100).positive is True
            assert svc.query_point(101).positive is False
            batch = svc.query_range_batch([(0, 4), (11, 11), (200, 204)])
            assert batch.positive == [True, False, True]
            assert batch.reason == "ok" and not batch.degraded
            assert batch.epoch >= 0

    def test_malformed_requests_do_not_wedge_half_open_breaker(self):
        """A request that raises outside storage returns its half-open
        probe: otherwise two bad requests used up both probes and the
        breaker answered every later request degraded, for good."""
        clock = SimulatedClock()
        lsm = LSMTree(
            lambda ks: REncoder(ks, key_bits=24, bits_per_key=14),
            memtable_capacity=64,
            env=StorageEnv(clock=clock),
        )
        for k in range(0, 400, 2):
            lsm.put(k, k)
        lsm.flush()
        breaker = CircuitBreaker(
            clock, open_ns=1000, half_open_probes=2, min_samples=1, window=4
        )
        with FilterService(lsm, workers=1, breaker=breaker) as svc:
            breaker.record_failure()
            clock.advance(2000)
            assert breaker.state == "half-open"
            for bad in ([(-1, 5)], [(0, 1 << 30)]):
                with pytest.raises(ValueError):
                    svc.query_range_batch(bad)
            with pytest.raises(ValueError):
                svc.query_range(-1, 5)
            first = svc.query_range_batch([(7, 7)])
            assert first.reason == "ok" and first.positive == [False]
            assert svc.query_range_batch([(6, 6)]).positive == [True]
            assert breaker.state == "closed"

    def test_tight_deadline_degrades_all_positive(self):
        lsm = _tree()
        with FilterService(lsm, workers=2) as svc:
            # 1 ns of budget cannot cover a single simulated read.
            r = svc.query_range(0, 1198, deadline_ns=1)
            assert r.degraded and r.reason == "deadline"
            assert r.positive is True
            assert svc.stats.deadline_expired == 1

    def test_forced_open_breaker_denies_degraded(self):
        lsm = _tree()
        with FilterService(lsm, workers=2) as svc:
            svc.breaker.force_open()
            r = svc.query_range(11, 11)  # genuinely empty range
            assert r.degraded and r.reason == "breaker-open"
            assert r.positive is True  # degraded: all-positive, not empty
            assert svc.stats.breaker_denied == 1
            # The denial carries the breaker's real remaining window,
            # not a placeholder zero.
            assert 0 < r.retry_after_ns <= svc.breaker.open_ns

    def test_reject_new_raises_with_retry_after(self):
        lsm = _tree()
        svc = FilterService(
            lsm, workers=1, queue_depth=1, shed_policy="reject-new"
        )
        # Not started: workers never drain, so the queue stays full.
        svc._started = True
        svc.submit_range(0, 2)
        with pytest.raises(ServiceOverloadError) as info:
            for _ in range(3):
                svc.submit_range(0, 2)
        assert info.value.retry_after_ns > 0
        assert svc.stats.rejected >= 1
        svc._started = False
        for req in svc.queue.drain():
            svc._resolve_degraded(req, "shed")

    def test_drop_oldest_resolves_evicted_degraded(self):
        lsm = _tree()
        svc = FilterService(
            lsm, workers=1, queue_depth=1, shed_policy="drop-oldest"
        )
        svc._started = True  # no workers: eviction does the resolving
        first = svc.submit_range(0, 2)
        second = svc.submit_range(4, 6)
        r = first.result(timeout=5)
        assert r.degraded and r.reason == "shed" and r.positive is True
        assert svc.stats.shed == 1
        assert not second.done()
        svc._started = False
        for req in svc.queue.drain():
            svc._resolve_degraded(req, "shed")

    def test_stop_without_drain_settles_backlog(self):
        lsm = _tree()
        svc = FilterService(lsm, workers=1, queue_depth=0)
        svc._started = True  # queue fills with no workers to drain it
        futures = [svc.submit_range(k, k + 2) for k in range(0, 20, 2)]
        svc._threads = []  # nothing to join
        svc.stop(drain=False)
        for f in futures:
            r = f.result(timeout=5)
            assert r.degraded and r.reason == "shed" and r.positive is True
            # Shutdown shed responses advertise a drain-time estimate a
            # router can back off on.
            assert r.retry_after_ns > 0

    def test_submit_requires_started(self):
        svc = FilterService(_tree(60))
        with pytest.raises(RuntimeError):
            svc.submit_range(0, 2)

    def test_concurrent_submitters(self):
        lsm = _tree()
        present = list(range(0, 1200, 2))
        with FilterService(lsm, workers=4, queue_depth=0) as svc:
            futures = []
            lock = threading.Lock()

            def submitter(seed):
                rng = np.random.default_rng(seed)
                local = [
                    svc.submit_point(int(rng.choice(present)))
                    for _ in range(50)
                ]
                with lock:
                    futures.extend(local)

            ts = [threading.Thread(target=submitter, args=(s,)) for s in range(4)]
            for t in ts:
                t.start()
            for t in ts:
                t.join()
            for f in futures:
                assert f.result(timeout=10).positive is True
        assert svc.stats.completed == 200

    def test_health_snapshot(self):
        lsm = _tree(100)
        with FilterService(lsm, workers=2, queue_depth=8) as svc:
            svc.query_range(0, 4)
            health = svc.health()
        assert health["queue"]["maxsize"] == 8
        assert health["breaker"]["state"] == "closed"
        assert health["stats"]["completed"] == 1
        assert health["epoch"] == lsm.epoch
        assert health["clock_ns"] > 0  # reads charged the shared clock

    def test_validation(self):
        lsm = _tree(60)
        with pytest.raises(ValueError):
            FilterService(lsm, workers=0)
        with pytest.raises(ValueError):
            FilterService(lsm, shed_policy="lifo")
        with pytest.raises(ValueError):
            FilterService(lsm, default_deadline_ns=0)
        svc = FilterService(lsm)
        svc.start()
        with pytest.raises(ValueError):
            svc.submit_range(5, 4)
        svc.stop()

    def test_stop_idempotent_and_restartable_queue_closed(self):
        lsm = _tree(60)
        svc = FilterService(lsm, workers=1)
        svc.start()
        svc.stop()
        svc.stop()  # idempotent
        with pytest.raises(RuntimeError):
            svc.submit_range(0, 2)


class TestRunServiceLoad:
    def test_burst_counts_everything(self):
        lsm = _tree()
        ranges = [(k, k + 2) for k in range(0, 200, 2)]
        with FilterService(lsm, workers=2, queue_depth=0) as svc:
            run = run_service_load(svc, ranges, label="t")
        assert run.n_requests == 100
        assert run.completed == 100
        assert run.ok + run.shed + run.deadline_expired + run.breaker_denied \
            + run.faults == 100
        assert run.goodput_qps > 0
        assert run.as_row()["config"] == "t"

    def test_batched_submission(self):
        lsm = _tree()
        ranges = [(k, k + 2) for k in range(0, 200, 2)]
        with FilterService(lsm, workers=2, queue_depth=0) as svc:
            run = run_service_load(svc, ranges, batch_size=25, label="b")
        assert run.n_requests == 4 and run.completed == 4

    def test_validation(self):
        lsm = _tree(60)
        with FilterService(lsm, workers=1) as svc:
            with pytest.raises(ValueError):
                run_service_load(svc, [])
            with pytest.raises(ValueError):
                run_service_load(svc, [(0, 1)], batch_size=0)


class TestDegradedAlwaysPositiveProperty:
    """Hypothesis: no degraded response, however produced, is negative."""

    @given(
        budget_ns=st.integers(min_value=1, max_value=30 * MS),
        ranges=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2_000),
                st.integers(min_value=0, max_value=64),
            ),
            min_size=1,
            max_size=8,
        ),
        force_open=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_degraded_is_all_positive(self, budget_ns, ranges, force_open):
        lsm = _tree(400)
        pairs = [(lo, lo + width) for lo, width in ranges]
        with FilterService(lsm, workers=2, queue_depth=0) as svc:
            if force_open:
                svc.breaker.force_open()
            scalar = svc.query_range(*pairs[0], deadline_ns=budget_ns)
            batch = svc.query_range_batch(pairs, deadline_ns=budget_ns)
        if scalar.degraded:
            assert scalar.positive is True
        if batch.degraded:
            assert batch.positive == [True] * len(pairs)
        if force_open:
            assert scalar.degraded and batch.degraded


def test_cli_serve_bench_smoke(capsys):
    from repro.cli import main

    rc = main([
        "serve-bench",
        "--duration", "0.1",
        "--rate", "300",
        "--concurrency", "2",
        "--n-keys", "2000",
        "--shed-policy", "drop-oldest",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "goodput_qps" in out and "drop-oldest" in out


class TestSpanLifecycle:
    """Regressions for span leaks the interprocedural analyzer surfaced.

    Both bugs had the same shape: ``_submit`` parks the root span on the
    request, and an exceptional path (overload rejection, worker crash)
    dropped the request without ever finishing the span — one leaked
    open span per shed request for the life of an overload storm.
    """

    def test_overload_rejection_finishes_root_span(self):
        from repro.telemetry.tracing import get_tracer

        lsm = _tree()
        svc = FilterService(
            lsm, workers=1, queue_depth=1, shed_policy="reject-new"
        )
        svc._started = True  # no workers: the queue stays full
        tracer = get_tracer().enable()
        try:
            # The submit-thread current span adopts every service root
            # span as a child, so the test can see rejected spans.
            with tracer.span("test.storm") as storm:
                svc.submit_range(0, 2)  # occupies the queue slot
                with pytest.raises(ServiceOverloadError):
                    for _ in range(3):
                        svc.submit_range(0, 2)
            rejected = [
                c for c in storm.children if c.attrs.get("rejected")
            ]
            assert rejected, "no rejected request reached the tracer"
            assert all(c.end_wall_ns is not None for c in rejected)
        finally:
            get_tracer().disable()
            svc._started = False
            for req in svc.queue.drain():
                svc._resolve_degraded(req, "shed")

    def test_worker_crash_finishes_root_span(self):
        from repro.telemetry.tracing import get_tracer

        lsm = _tree()
        tracer = get_tracer().enable()
        try:
            with tracer.span("test.crash") as outer:
                with FilterService(lsm, workers=1, queue_depth=4) as svc:
                    def _boom(req):
                        raise RuntimeError("injected worker crash")

                    svc._serve = _boom  # every request now crashes the worker
                    fut = svc.submit_range(0, 2)
                    with pytest.raises(RuntimeError, match="injected"):
                        fut.result(timeout=5)
                    del svc._serve  # restore for stop()'s drain
            crashed = [c for c in outer.children if c.name == "service.range"]
            assert crashed, "the crashed request's span never attached"
            assert all(c.end_wall_ns is not None for c in crashed)
        finally:
            get_tracer().disable()
