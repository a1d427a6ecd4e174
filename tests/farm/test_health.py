"""Worker pool health: fork/reap, heartbeats, hung-vs-dead, reclaim."""

import os
import signal
import time

from repro.farm import worker as worker_module
from repro.farm.health import (
    HealthStats,
    WorkerPool,
    stamp_heartbeat,
)

SPEC = {"id": "scenario:fake", "kind": "scenario", "target": "fake"}
DIGEST = "cd" * 32


def make_pool(tmp_path, **options):
    return WorkerPool(hb_dir=str(tmp_path / "hb"), **options)


def spawn(pool, commit=lambda result: None, attempt=1):
    return pool.spawn(SPEC, None, 0, DIGEST, SPEC["id"], attempt, commit)


def wait_reap(pool, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        finished = pool.reap()
        if finished:
            return finished
        time.sleep(0.005)
    raise AssertionError("worker never finished")


class TestSpawnReap:
    def test_clean_worker_commits_and_exits_zero(self, tmp_path, monkeypatch):
        # The fork inherits the monkeypatch: execute_job is resolved
        # through the module at call time, not frozen at import.
        out = str(tmp_path / "committed.json")

        def fake_execute(spec_dict, budget=None):
            return {"digest": spec_dict and DIGEST, "status": "ok"}

        def commit(result):
            with open(out, "w") as handle:
                handle.write(result["status"])

        monkeypatch.setattr(worker_module, "execute_job", fake_execute)
        pool = make_pool(tmp_path)
        handle = spawn(pool, commit)
        assert handle.pid != os.getpid()
        (reaped, status), = wait_reap(pool)
        assert reaped.pid == handle.pid
        assert status == 0
        assert not pool.live
        with open(out) as committed:
            assert committed.read() == "ok"

    def test_crashing_worker_reaps_nonzero(self, tmp_path, monkeypatch):
        def bad_execute(spec_dict, budget=None):
            raise RuntimeError("worker-side explosion")

        monkeypatch.setattr(worker_module, "execute_job", bad_execute)
        pool = make_pool(tmp_path)
        spawn(pool)
        (__, status), = wait_reap(pool)
        assert status == 1

    def test_wait_wakes_when_a_worker_exits(self, tmp_path, monkeypatch):
        monkeypatch.setattr(worker_module, "execute_job",
                            lambda spec_dict, budget=None: time.sleep(30))
        pool = make_pool(tmp_path)
        handle = spawn(pool)
        start = time.monotonic()
        pool.wait(0.2)                 # the worker is busy: full timeout
        assert time.monotonic() - start >= 0.2
        os.kill(handle.pid, signal.SIGKILL)
        start = time.monotonic()
        pool.wait(30.0)                # the exit wakes it at once
        assert time.monotonic() - start < 10.0
        (__, status), = pool.reap()
        assert status == -signal.SIGKILL
        assert handle.pidfd is None    # closed with the reap

    def test_execute_replaces_the_job_body(self, tmp_path):
        out = str(tmp_path / "committed.json")

        def execute(spec_dict, budget=None):
            return {"unit": spec_dict["shard"], "budget": budget}

        def commit(result):
            with open(out, "w") as handle:
                handle.write(f"{result['unit']} {result['budget']}")

        pool = make_pool(tmp_path)
        pool.spawn({"shard": 3}, 7, 0, DIGEST, "shard-3", 1, commit,
                   execute=execute)
        (__, status), = wait_reap(pool)
        assert status == 0
        with open(out) as committed:
            assert committed.read() == "3 7"

    def test_signal_death_reports_negative_signum(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setattr(worker_module, "execute_job",
                            lambda spec_dict, budget=None: time.sleep(30))
        pool = make_pool(tmp_path)
        handle = spawn(pool)
        os.kill(handle.pid, signal.SIGKILL)
        (__, status), = wait_reap(pool)
        assert status == -signal.SIGKILL


class TestHeartbeats:
    def test_busy_worker_keeps_stamping(self, tmp_path, monkeypatch):
        interval = 0.02
        monkeypatch.setattr(worker_module, "execute_job",
                            lambda spec_dict, budget=None: time.sleep(30))
        pool = make_pool(tmp_path, interval=interval)
        handle = spawn(pool)
        try:
            time.sleep(interval * pool.miss_threshold * 2)
            # Slow but alive: stamping, never classified hung.
            assert handle.heartbeat_age(time.time()) < \
                interval * pool.miss_threshold
            assert pool.hung() == []
        finally:
            pool.kill(handle)

    def test_stopped_worker_goes_silent_and_reads_hung(self, tmp_path,
                                                       monkeypatch):
        interval = 0.02
        monkeypatch.setattr(worker_module, "execute_job",
                            lambda spec_dict, budget=None: time.sleep(30))
        pool = make_pool(tmp_path, interval=interval)
        handle = spawn(pool)
        try:
            os.kill(handle.pid, signal.SIGSTOP)  # livelock stand-in
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and pool.hung() == []:
                time.sleep(interval)
            assert pool.hung() == [handle]
            # Hung, not dead: WNOHANG still sees it running.
            assert pool.reap() == []
        finally:
            pool.kill(handle)

    def test_kill_fells_a_stopped_worker(self, tmp_path, monkeypatch):
        # SIGKILL is the one signal a SIGSTOP'd process cannot ignore;
        # kill() must reap synchronously with no zombie left behind.
        monkeypatch.setattr(worker_module, "execute_job",
                            lambda spec_dict, budget=None: time.sleep(30))
        pool = make_pool(tmp_path)
        handle = spawn(pool)
        os.kill(handle.pid, signal.SIGSTOP)
        pool.kill(handle)
        assert not pool.live
        with _gone(handle.pid):
            pass

    def test_stale_heartbeat_does_not_vouch_for_new_attempt(self, tmp_path):
        pool = make_pool(tmp_path)
        hb_path = os.path.join(pool.hb_dir, DIGEST)
        stamp_heartbeat(hb_path)
        old = time.time() - 100
        os.utime(hb_path, (old, old))
        handle = spawn(pool, attempt=2)
        try:
            # spawn() re-stamps before forking: age resets.
            assert handle.heartbeat_age(time.time()) < 1.0
        finally:
            pool.kill(handle)


    def test_watchdog_stall_is_not_charged_to_workers(self, tmp_path,
                                                      monkeypatch):
        # Synthetic clock: the watchdog looks, then is away for a whole
        # second (a frozen host).  The silent worker must not read hung
        # on the first look back, only after a full window of beats
        # the watchdog was awake to miss.
        interval = 0.02
        monkeypatch.setattr(worker_module, "execute_job",
                            lambda spec_dict, budget=None: time.sleep(30))
        pool = make_pool(tmp_path, interval=interval)
        handle = spawn(pool)
        try:
            os.kill(handle.pid, signal.SIGSTOP)
            limit = interval * pool.miss_threshold
            now = time.time()
            assert pool.hung(now) == []
            now += 1.0
            assert handle.heartbeat_age(now) > limit
            assert pool.hung(now) == []
            resumed = now
            while now - resumed <= limit:
                assert pool.hung(now) == []
                now += interval / 2
            assert pool.hung(now) == [handle]
        finally:
            pool.kill(handle)


class TestStartGate:
    def test_held_worker_waits_for_release(self, tmp_path, monkeypatch):
        out = str(tmp_path / "committed.json")

        def commit(result):
            with open(out, "w") as handle:
                handle.write(result["status"])

        monkeypatch.setattr(worker_module, "execute_job",
                            lambda spec_dict, budget=None: {"status": "ok"})
        pool = make_pool(tmp_path)
        handle = pool.spawn(SPEC, None, 0, DIGEST, SPEC["id"], 1, commit,
                            held=True)
        time.sleep(0.2)
        assert pool.reap() == []
        assert not os.path.exists(out)
        pool.release(handle)
        (__, status), = wait_reap(pool)
        assert status == 0
        with open(out) as committed:
            assert committed.read() == "ok"

    def test_kill_while_held_never_runs_the_job(self, tmp_path,
                                                monkeypatch):
        out = str(tmp_path / "committed.json")

        def commit(result):
            with open(out, "w") as handle:
                handle.write(result["status"])

        monkeypatch.setattr(worker_module, "execute_job",
                            lambda spec_dict, budget=None: {"status": "ok"})
        pool = make_pool(tmp_path)
        handle = pool.spawn(SPEC, None, 0, DIGEST, SPEC["id"], 1, commit,
                            held=True)
        os.kill(handle.pid, signal.SIGKILL)
        pool.release(handle)    # the dead worker's gate: no error
        (__, status), = wait_reap(pool)
        assert status == -signal.SIGKILL
        assert not os.path.exists(out)


class _gone:
    """Context manager asserting a pid no longer exists (ESRCH)."""

    def __init__(self, pid):
        self.pid = pid

    def __enter__(self):
        try:
            os.kill(self.pid, 0)
        except ProcessLookupError:
            return self
        except PermissionError:  # pragma: no cover - pid reused
            return self
        raise AssertionError(f"pid {self.pid} still exists")

    def __exit__(self, *exc):
        return False


class TestDeadline:
    def test_overdue_ignores_none_deadline(self, tmp_path, monkeypatch):
        monkeypatch.setattr(worker_module, "execute_job",
                            lambda spec_dict, budget=None: time.sleep(30))
        pool = make_pool(tmp_path)
        handle = spawn(pool)
        try:
            assert pool.overdue(None) == []
            assert pool.overdue(100.0) == []
            assert pool.overdue(
                0.0, now_monotonic=time.monotonic() + 1) == [handle]
        finally:
            pool.kill_all()
            assert not pool.live


class TestHealthStats:
    def test_summary_aggregates_reclaims(self):
        stats = HealthStats()
        stats.worker_deaths = 2
        stats.hung_workers = 1
        stats.deadline_kills = 1
        stats.record_reclaim(0.1)
        stats.record_reclaim(0.3)
        summary = stats.summary()
        assert summary["workers_reclaimed"] == 4
        assert summary["mean_time_to_reclaim_seconds"] == \
            (0.1 + 0.3) / 2
        assert summary["lost_jobs"] == 0

    def test_reclaim_clamps_negative_ages(self):
        stats = HealthStats()
        stats.record_reclaim(-0.5)
        assert stats.mean_time_to_reclaim() == 0.0

    def test_register_metrics_exposes_pull_source(self):
        from repro.observability.metrics import MetricsRegistry
        registry = MetricsRegistry()
        stats = HealthStats()
        stats.register_metrics(registry)
        stats.retries = 3
        snapshot = registry.snapshot()
        assert snapshot["farm.health.retries"] == 3
