"""The farm scheduler: shard, dispatch, supervise, journal — never lose a job.

``workers=1`` executes inline in this process — that *is* the serial
baseline the parity tests and the bench compare against, not a special
case bolted on.  ``workers>1`` dispatches to a pool of directly-forked
workers (:mod:`repro.farm.health`) under full fleet discipline:

* **heartbeats** — each worker stamps a per-unit heartbeat file; the
  scheduler distinguishes *hung* (alive, silent — SIGKILL + reclaim)
  from *dead* (reaped) from *busy* (stamping — leave it alone), and
  enforces an optional per-unit wall-clock ``deadline`` on top of the
  Supervisor's in-worker instruction budget;
* **bounded retry with backoff + jitter** — a unit whose worker died,
  hung, or tore its result is requeued up to ``max_retries`` times with
  exponentially growing, deterministically jittered delays (shared
  policy: :func:`repro.resilience.backoff.backoff_delay`);
* **poison quarantine** — a unit that kills ``poison_threshold`` workers
  (counted across scheduler restarts, via the journal) is classified
  ``poison`` with a tombstone, cached, and never dispatched again: one
  hostile app costs one classified outcome fleet-wide;
* **write-ahead journal** — every transition is fsync'd to
  ``run_dir/journal.jsonl`` *before* it takes effect, and workers commit
  results with crash-consistent writes, so SIGKILLing the scheduler
  itself mid-run and re-running with ``resume=True`` completes exactly:
  no lost jobs, no duplicate records, no corrupt store;
* **clean drain** — SIGTERM/``KeyboardInterrupt`` journals in-flight
  units as ``interrupted``, SIGKILLs the pool (no leaked forks), and
  raises :class:`FarmInterrupted` for the CLI to exit nonzero.

The unit of dispatch is one job for :class:`FarmScheduler` and one shard
for :class:`StreamFarm`, which overrides only the unit hooks: both farms
share this dispatch loop and this failure policy.  Every job ends in
exactly one of ``cached`` / a worker-classified result
(``ok``/``degraded``/``crashed``/``timeout``) / ``poison`` / ``lost``
(retries exhausted below the poison threshold; never cached).
"""

from __future__ import annotations

import heapq
import json
import os
import shutil
import signal
import tempfile
import threading
import time
from collections import deque
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.farm import worker as worker_module
from repro.farm.health import (
    HEARTBEAT_INTERVAL,
    HealthStats,
    WorkerHandle,
    WorkerPool,
)
from repro.farm.journal import RunJournal, replay
from repro.farm.manifest import JobSpec, Manifest, ShardedManifest
from repro.farm.store import ResultStore, atomic_write_json, read_verified_json
from repro.farm.worker import DEFAULT_BUDGET
from repro.resilience.backoff import backoff_delay, jitter_rng

STATUS_LOST = "lost"
STATUS_POISON = "poison"

# Statuses worth replaying from cache on --resume.  Crashes/timeouts are
# deterministic under a fixed spec, so they cache too, and a poison
# verdict is the whole point of quarantine (classified exactly once);
# only a lost worker (environmental) must re-run.
CACHEABLE = ("ok", "degraded", "crashed", "timeout", "poison")

DEFAULT_MAX_RETRIES = 2
DEFAULT_POISON_THRESHOLD = 3
RETRY_BACKOFF_BASE = 0.05
RETRY_BACKOFF_JITTER = 0.5


class FarmInterrupted(RuntimeError):
    """A clean drain: the run was interrupted, in-flight units journaled."""

    def __init__(self, in_flight: List[str]) -> None:
        jobs = ", ".join(in_flight) if in_flight else "none in flight"
        super().__init__(f"farm run interrupted ({jobs})")
        self.in_flight = in_flight


def _base_row(spec: JobSpec, status: str, error: str, elapsed: float,
              attempts: int, tombstone: Optional[Dict]) -> Dict:
    return {
        "job": spec.to_dict(),
        "digest": spec.digest(),
        "status": status,
        "attempts": attempts,
        "degraded_events": 0,
        "quarantined_hooks": [],
        "injected_faults": [],
        "error": error,
        "tombstone": tombstone,
        "elapsed_seconds": elapsed,
        "metrics": {},
        "leaks": [],
    }


def _lost_result(spec: JobSpec, error, elapsed: float,
                 attempts: int = 1) -> Dict:
    if isinstance(error, BaseException):
        message = f"worker lost: {type(error).__name__}: {error}"
    else:
        message = f"worker lost: {error}"
    return _base_row(spec, STATUS_LOST, message, elapsed, attempts,
                     tombstone=None)


def _poison_result(spec: JobSpec, strikes: int, reasons: List[str],
                   elapsed: float, attempts: int, unit: str = "job",
                   last_instructions: int = 0) -> Dict:
    message = (f"poison {unit}: killed {strikes} workers "
               f"({', '.join(reasons)})")
    tombstone = {
        "error_type": "PoisonJob",
        "error_message": message,
        "strikes": strikes,
        "strike_reasons": list(reasons),
        "last_instructions": last_instructions,
    }
    return _base_row(spec, STATUS_POISON, message, elapsed, attempts,
                     tombstone=tombstone)


class FarmScheduler:
    """Runs a manifest to one result row per job, in manifest order."""

    def __init__(self, manifest: Manifest, workers: int = 1,
                 store: Optional[ResultStore] = None, resume: bool = False,
                 budget: Optional[int] = DEFAULT_BUDGET,
                 deadline: Optional[float] = None,
                 max_retries: int = DEFAULT_MAX_RETRIES,
                 poison_threshold: int = DEFAULT_POISON_THRESHOLD,
                 heartbeat_interval: float = HEARTBEAT_INTERVAL,
                 run_dir: Optional[str] = None, chaos=None,
                 metrics=None, trace_dir: Optional[str] = None,
                 warm: bool = False) -> None:
        self.manifest = manifest
        self.workers = max(1, workers)
        self.warm = warm
        self.store = store
        self.resume = resume and store is not None
        self.budget = budget
        self.deadline = deadline
        self.max_retries = max(0, max_retries)
        self.poison_threshold = max(1, poison_threshold)
        self.heartbeat_interval = heartbeat_interval
        self.run_dir = run_dir
        self.chaos = chaos
        self.trace_dir = trace_dir
        self.health = HealthStats()
        if metrics is not None:
            self.health.register_metrics(metrics)
        self.cached_jobs = 0
        self.wall_seconds = 0.0
        self._strikes: Dict[str, int] = {}
        self._strike_reasons: Dict[str, List[str]] = {}
        # (digest, id, job count) per unit, in manifest order.
        self._units: List[Tuple[str, str, int]] = []
        # The scheduler's own span tracer (None when trace_dir is unset)
        # and the open unit spans it correlates, keyed (digest, attempt).
        self._tracer = None
        self._job_spans: Dict[Tuple[str, int], int] = {}

    # -- units ----------------------------------------------------------------
    #
    # Everything that depends on what one worker runs.  Here a unit is
    # one job and its result is one row; StreamFarm overrides these
    # hooks to dispatch whole shards through the same loop.

    def _unit_keys(self) -> List[Tuple[str, str, int]]:
        return [(spec.digest(), spec.id, 1) for spec in self.manifest.jobs]

    def _unit_specs(self, index: int) -> Iterable[JobSpec]:
        return (self.manifest.jobs[index],)

    def _unit_rows(self, index: int, make: Callable[[JobSpec], Dict]):
        """The parent-built result for a unit no worker finished."""
        return make(self.manifest.jobs[index])

    def _unit_label(self, index: int) -> str:
        return "job"

    def _from_cache(self, index: int) -> Optional[Dict]:
        if not self.resume:
            return None
        result = self.store.get(self._units[index][0])
        if result is None or result.get("status") not in CACHEABLE:
            return None
        result["cached"] = True
        return result

    def _record(self, index: int, result: Dict) -> Dict:
        if self.store is not None and result.get("status") in CACHEABLE:
            self.store.put(self._units[index][0], result)
        return result

    def _execute(self, index: int, tracer) -> Dict:
        """Run one unit in this process (the serial path)."""
        spec_dict = self.manifest.jobs[index].to_dict()
        # tracer kwarg only when tracing: tests monkeypatch execute_job
        # with narrower signatures.
        if tracer is None:
            return worker_module.execute_job(spec_dict, budget=self.budget)
        return worker_module.execute_job(spec_dict, budget=self.budget,
                                         tracer=tracer)

    def _work(self, index: int, run_dir: str):
        """What a forked worker runs for a unit, and where it commits.

        Returns ``(spec_dict, result_path, commit, execute)``;
        ``execute=None`` runs :func:`~repro.farm.worker.execute_job`.
        With a store, the worker commits straight into it (the atomic
        fsync'd write *is* the transaction — scheduler death after the
        commit costs nothing).  Without one, results spool into the run
        directory with the same crash-consistent write.
        """
        digest = self._units[index][0]
        spec_dict = self.manifest.jobs[index].to_dict()
        if self.store is not None:
            path = os.path.join(self.store.directory, f"{digest}.json")
            return (spec_dict, path,
                    lambda result: self.store.put(digest, result), None)
        spool = os.path.join(run_dir, "spool")
        os.makedirs(spool, exist_ok=True)
        path = os.path.join(spool, f"{digest}.json")
        return (spec_dict, path,
                lambda result: atomic_write_json(path, result), None)

    def _read_result(self, index: int, path: str) -> Optional[Dict]:
        """A worker's committed result, or None if it is torn."""
        digest = self._units[index][0]
        if self.store is not None:
            return self.store.get(digest)   # drops torn entries itself
        result = read_verified_json(path, digest=digest)
        if result is not None:
            try:
                os.unlink(path)
            except OSError:
                pass
        return result

    # -- dispatch -------------------------------------------------------------

    def run(self):
        start = time.perf_counter()
        # Warm policy is process-wide: inline workers read it directly,
        # forked workers inherit it (and the booted templates) via COW.
        worker_module.configure_warm(self.warm)
        run_dir = self.run_dir or tempfile.mkdtemp(prefix="repro-farm-run-")
        os.makedirs(run_dir, exist_ok=True)
        try:
            results = self._dispatch(run_dir)
            return self._finish(results, run_dir, start)
        finally:
            if self.run_dir is None:
                shutil.rmtree(run_dir, ignore_errors=True)

    def _finish(self, results: List[Dict], run_dir: str,
                start: float) -> List[Dict]:
        for result in results:
            result.setdefault("cached", False)
        self.wall_seconds = time.perf_counter() - start
        return results

    def _dispatch(self, run_dir: str) -> List:
        self._units = self._unit_keys()
        results: List = [None] * len(self._units)
        pending: List[int] = []
        self.cached_jobs = 0

        if self.trace_dir is not None:
            from repro.observability.flight import FlightSpool
            from repro.observability.spans import SpanTracer
            os.makedirs(self.trace_dir, exist_ok=True)
            self._tracer = SpanTracer(spool=FlightSpool(os.path.join(
                self.trace_dir, f"scheduler-{os.getpid()}.jsonl")))
        journal = RunJournal(os.path.join(run_dir, "journal.jsonl"))
        if self.resume:
            # Strike counts survive scheduler death: a poison unit that
            # killed two workers before the scheduler was SIGKILLed is
            # one strike from quarantine, not three.
            state = replay(journal.path)
            self._strikes = {digest: ledger.strikes
                             for digest, ledger in state.jobs.items()
                             if ledger.strikes}
        journal.record("run_start", resume=self.resume,
                       workers=self.workers, jobs=len(self.manifest),
                       pid=os.getpid())

        for index, (digest, unit_id, jobs) in enumerate(self._units):
            cached = self._from_cache(index)
            if cached is not None:
                results[index] = cached
                self.cached_jobs += jobs
                journal.record("cached", digest=digest, id=unit_id,
                               status=cached.get("status"))
                self._trace_event("cached", digest, id=unit_id)
            else:
                pending.append(index)
                self._trace_event("queued", digest, id=unit_id)

        previous_sigterm = self._install_sigterm()
        try:
            if pending:
                if self.workers == 1:
                    self._run_inline(pending, results, journal)
                else:
                    self._run_pool(pending, results, journal, run_dir)
            journal.record("run_end", jobs=len(self.manifest))
        finally:
            self._restore_sigterm(previous_sigterm)
            journal.close()
            if self._tracer is not None:
                self._tracer.close()
        return results

    # -- signals --------------------------------------------------------------

    @staticmethod
    def _install_sigterm():
        """SIGTERM drains exactly like ^C (only from the main thread)."""
        if threading.current_thread() is not threading.main_thread():
            return None
        def raise_interrupt(signum, frame):
            raise KeyboardInterrupt(f"signal {signum}")
        try:
            return signal.signal(signal.SIGTERM, raise_interrupt)
        except (ValueError, OSError):  # pragma: no cover - exotic hosts
            return None

    @staticmethod
    def _restore_sigterm(previous) -> None:
        if previous is not None:
            try:
                signal.signal(signal.SIGTERM, previous)
            except (ValueError, OSError):  # pragma: no cover
                pass

    # -- tracing --------------------------------------------------------------
    #
    # The scheduler's spans mirror the journal: every lifecycle edge
    # (queued/cached/spawned/retry/quarantined/lost/committed) becomes an
    # instant event, and each dispatch attempt gets a detached "job" span
    # correlated with the worker's own spool by trace id = digest prefix.

    def _trace_event(self, name: str, digest: str, **args) -> None:
        if self._tracer is not None:
            self._tracer.event(name, cat="scheduler", trace=digest[:12],
                               **args)

    def _trace_begin(self, digest: str, attempt: int, job_id: str) -> None:
        if self._tracer is not None:
            self._job_spans[(digest, attempt)] = self._tracer.begin(
                "job", cat="scheduler", trace=digest[:12], detached=True,
                id=job_id, attempt=attempt)

    def _trace_end(self, digest: str, attempt: int, **args) -> None:
        if self._tracer is not None:
            span = self._job_spans.pop((digest, attempt), None)
            if span is not None:
                self._tracer.end(span, **args)

    def _worker_spool(self, digest: str, attempt: int) -> Optional[str]:
        """Per-attempt spool path (attempts never interleave in one file)."""
        if self.trace_dir is None:
            return None
        return os.path.join(self.trace_dir,
                            f"worker-{digest[:12]}-a{attempt}.jsonl")

    # -- inline (serial baseline) ---------------------------------------------

    def _run_inline(self, pending: List[int], results: List,
                    journal: RunJournal) -> None:
        tracer = self._tracer
        for index in pending:
            digest, unit_id, __ = self._units[index]
            journal.record("dispatched", digest=digest, id=unit_id,
                           attempt=1, pid=os.getpid())
            self._trace_begin(digest, 1, unit_id)
            if tracer is not None:
                # Inline mode shares one process (and one tracer) across
                # scheduler and worker roles; re-point the trace id so
                # engine spans still correlate per unit.
                tracer.trace_id = digest[:12]
            try:
                result = self._execute(index, tracer)
            except KeyboardInterrupt:
                journal.record("interrupted", digest=digest, id=unit_id,
                               attempt=1)
                self.health.interrupted_jobs += 1
                self._trace_end(digest, 1, status="interrupted")
                raise FarmInterrupted([unit_id]) from None
            finally:
                if tracer is not None:
                    tracer.trace_id = ""
            results[index] = self._record(index, result)
            journal.record("done", digest=digest, id=unit_id, attempt=1,
                           status=result.get("status"))
            self._trace_event("committed", digest, id=unit_id,
                              status=result.get("status"))
            self._trace_end(digest, 1, status=result.get("status"))

    # -- pool (fleet mode) ----------------------------------------------------

    def _run_pool(self, pending: List[int], results: List,
                  journal: RunJournal, run_dir: str) -> None:
        if self.warm:
            # Boot one template per config in the parent *before* any
            # fork: every child then inherits the booted platform — warm
            # TB/block/trampoline caches included — copy-on-write, and
            # pays only reset_for_job().
            worker_module.warm_boot_templates(
                spec.config for index in pending
                for spec in self._unit_specs(index))
        pool = WorkerPool(hb_dir=os.path.join(run_dir, "hb"),
                          interval=self.heartbeat_interval)
        queue = deque(pending)
        retries: List = []              # heap of (eligible_monotonic, index)
        attempts: Dict[int, int] = {}
        result_paths: Dict[str, str] = {}
        try:
            while queue or retries or pool.live:
                now = time.monotonic()
                while retries and retries[0][0] <= now:
                    __, index = heapq.heappop(retries)
                    queue.append(index)
                progressed = self._spawn_ready(queue, pool, attempts,
                                               journal, run_dir,
                                               result_paths)
                progressed |= self._collect(pool, results, journal,
                                            retries, attempts, result_paths)
                progressed |= self._reclaim_unhealthy(
                    pool, results, journal, retries, attempts)
                if not progressed:
                    pool.wait(min(self.heartbeat_interval / 4, 0.01))
        except KeyboardInterrupt:
            in_flight = sorted(handle.job_id
                               for handle in pool.live.values())
            for handle in sorted(pool.live.values(),
                                 key=lambda h: h.index):
                journal.record("interrupted", digest=handle.digest,
                               id=handle.job_id, attempt=handle.attempt)
                self.health.interrupted_jobs += 1
                self._trace_end(handle.digest, handle.attempt,
                                status="interrupted")
            raise FarmInterrupted(in_flight) from None
        finally:
            pool.kill_all()

    def _spawn_ready(self, queue, pool: WorkerPool, attempts: Dict[int, int],
                     journal: RunJournal, run_dir: str,
                     result_paths: Dict[str, str]) -> bool:
        progressed = False
        while queue and len(pool.live) < self.workers:
            index = queue.popleft()
            digest, unit_id, __ = self._units[index]
            attempts[index] = attempts.get(index, 0) + 1
            spec_dict, path, commit, execute = self._work(index, run_dir)
            result_paths[digest] = path
            handle = pool.spawn(spec_dict, self.budget, index, digest,
                                unit_id, attempts[index], commit,
                                spool_path=self._worker_spool(
                                    digest, attempts[index]),
                                trace_id=digest[:12],
                                held=self.chaos is not None,
                                execute=execute)
            journal.record("dispatched", digest=digest, id=unit_id,
                           attempt=attempts[index], pid=handle.pid)
            self._trace_begin(digest, attempts[index], unit_id)
            self._trace_event("spawned", digest, id=unit_id,
                              attempt=attempts[index], pid=handle.pid)
            if self.chaos is not None:
                # The worker is held at its start gate, so the injected
                # fault lands before the unit runs, however busy the host.
                self.chaos.on_spawn(handle)
                pool.release(handle)
            progressed = True
        return progressed

    def _collect(self, pool: WorkerPool, results, journal: RunJournal,
                 retries, attempts, result_paths) -> bool:
        progressed = False
        for handle, status in pool.reap():
            progressed = True
            if status == 0:
                path = result_paths.get(handle.digest, "")
                if self.chaos is not None:
                    self.chaos.on_commit(handle, path)
                result = self._read_result(handle.index, path)
                if result is None:
                    self.health.torn_results += 1
                    self._strike(handle, "torn-result", results, journal,
                                 retries, attempts)
                    continue
                results[handle.index] = result
                journal.record("done", digest=handle.digest,
                               id=handle.job_id, attempt=handle.attempt,
                               status=result.get("status"))
                self._trace_event("committed", handle.digest,
                                  id=handle.job_id,
                                  status=result.get("status"))
                self._trace_end(handle.digest, handle.attempt,
                                status=result.get("status"))
            else:
                self.health.worker_deaths += 1
                self.health.record_reclaim(
                    handle.heartbeat_age(time.time()))
                cause = (f"worker died (signal {-status})" if status < 0
                         else f"worker died (exit {status})")
                self._strike(handle, cause, results, journal, retries,
                             attempts)
        return progressed

    def _reclaim_unhealthy(self, pool: WorkerPool, results,
                           journal: RunJournal, retries,
                           attempts) -> bool:
        progressed = False
        now_wall = time.time()
        for handle in pool.overdue(self.deadline):
            progressed = True
            self.health.deadline_kills += 1
            self.health.record_reclaim(handle.heartbeat_age(now_wall))
            pool.kill(handle)
            self._strike(handle, f"deadline ({self.deadline:.1f}s) exceeded",
                         results, journal, retries, attempts)
        for handle in pool.hung(now_wall):
            progressed = True
            self.health.hung_workers += 1
            self.health.record_reclaim(handle.heartbeat_age(now_wall))
            pool.kill(handle)
            self._strike(handle, "hung (heartbeats missed)", results,
                         journal, retries, attempts)
        return progressed

    # -- failure policy -------------------------------------------------------

    def _strike(self, handle: WorkerHandle, reason: str, results,
                journal: RunJournal, retries, attempts) -> None:
        index = handle.index
        digest = handle.digest
        strikes = self._strikes.get(digest, 0) + 1
        self._strikes[digest] = strikes
        reasons = self._strike_reasons.setdefault(digest, [])
        reasons.append(reason)
        # The worker's last self-reported vitals: how far it got before
        # it died/hung, straight from the heartbeat body.
        vitals = handle.read_vitals()
        last_instructions = vitals["instructions"] if vitals else 0
        journal.record("strike", digest=digest, id=handle.job_id,
                       attempt=handle.attempt, reason=reason,
                       strikes=strikes, instructions=last_instructions)
        elapsed = handle.runtime(time.monotonic())
        if strikes >= self.poison_threshold:
            unit = self._unit_label(index)
            rows = self._unit_rows(index, lambda spec: _poison_result(
                spec, strikes, reasons, elapsed, attempts=handle.attempt,
                unit=unit, last_instructions=last_instructions))
            journal.record("poison", digest=digest, id=handle.job_id,
                           strikes=strikes)
            self.health.poison_quarantined += 1
            results[index] = self._record(index, rows)
            self._trace_event("quarantined", digest, id=handle.job_id,
                              strikes=strikes,
                              instructions=last_instructions)
            self._trace_end(digest, handle.attempt, status=STATUS_POISON)
        elif handle.attempt >= 1 + self.max_retries:
            journal.record("lost", digest=digest, id=handle.job_id,
                           attempt=handle.attempt, reason=reason)
            self.health.lost_jobs += 1
            # Lost is never cached: a resume re-runs the unit.
            results[index] = self._unit_rows(index, lambda spec: _lost_result(
                spec, reason, elapsed, attempts=handle.attempt))
            self._trace_event("lost", digest, id=handle.job_id,
                              reason=reason)
            self._trace_end(digest, handle.attempt, status=STATUS_LOST)
        else:
            delay = backoff_delay(handle.attempt, base=RETRY_BACKOFF_BASE,
                                  jitter=RETRY_BACKOFF_JITTER,
                                  rng=jitter_rng(digest, handle.attempt))
            journal.record("retry", digest=digest, id=handle.job_id,
                           next_attempt=handle.attempt + 1, delay=delay)
            self.health.retries += 1
            heapq.heappush(retries, (time.monotonic() + delay, index))
            self._trace_event("retry", digest, id=handle.job_id,
                              next_attempt=handle.attempt + 1,
                              reason=reason,
                              instructions=last_instructions)
            self._trace_end(digest, handle.attempt, status="struck")


class StreamFarm(FarmScheduler):
    """Runs a :class:`ShardedManifest`, one shard per dispatched unit.

    The per-job scheduler's unit is right for minutes-long emulation
    jobs, hopeless for a 100k-job corpus where each job is
    sub-millisecond static analysis.  The streaming farm flips the unit
    to the **shard** and keeps everything else:

    * a shard is one :class:`FarmScheduler` pool unit: a free slot pulls
      the next pending shard, and heartbeats, ``deadline`` (per shard),
      jittered retries, strikes counted across restarts, poison
      quarantine and the SIGTERM drain all apply unchanged;
    * the forked child (:func:`repro.farm.health.run_worker` →
      :meth:`_shard_worker` → :func:`~repro.farm.worker.execute_shard`)
      streams the shard's specs from disk and commits one result line
      per job to a JSONL file by atomic rename, named for the shard's
      content digest; the parent accepts it only if it parses to
      exactly ``shard.jobs`` rows — anything else is a torn strike;
    * a shard that strikes out commits one ``poison`` row per job (so a
      resume replays the verdict); one that exhausts its retries yields
      ``lost`` rows that are folded but never committed (so a resume
      re-runs it); resume is shard-granular: committed files replay as
      cached without touching a worker;
    * the merge never materializes the result set: rows stream straight
      from the shard files through a :class:`~repro.farm.merge.MergeFold`,
      and :meth:`run` returns its :class:`~repro.farm.merge.FarmReport`.
    """

    def __init__(self, manifest: ShardedManifest, workers: int = 1,
                 run_dir: Optional[str] = None, resume: bool = False,
                 budget: Optional[int] = DEFAULT_BUDGET, **options) -> None:
        super().__init__(manifest, workers=workers, run_dir=run_dir,
                         budget=budget, **options)
        # The shard result files are the cache: no store needed.
        self.resume = resume
        self._results_dir = ""

    # -- units ----------------------------------------------------------------

    def _unit_keys(self) -> List[Tuple[str, str, int]]:
        return [(shard.digest, shard.name, shard.jobs)
                for shard in self.manifest.shards]

    def _unit_specs(self, index: int) -> Iterable[JobSpec]:
        return self.manifest.iter_shard(index)

    def _unit_rows(self, index: int,
                   make: Callable[[JobSpec], Dict]) -> List[Dict]:
        return [make(spec) for spec in self._unit_specs(index)]

    def _unit_label(self, index: int) -> str:
        return f"shard {self.manifest.shards[index].name}"

    def _result_path(self, index: int) -> str:
        shard = self.manifest.shards[index]
        return os.path.join(self._results_dir,
                            f"{shard.name}.{shard.digest[:12]}.results.jsonl")

    def _from_cache(self, index: int) -> Optional[Dict]:
        if not self.resume:
            return None
        return self._read_result(index, self._result_path(index))

    def _record(self, index: int, result):
        if isinstance(result, list):
            # Parent-built poison rows: commit them like a worker would,
            # so a resume replays the verdict instead of re-running it.
            worker_module.commit_rows(result, self._result_path(index))
        return result

    def _execute(self, index: int, tracer) -> Dict:
        return worker_module.execute_shard(
            (spec.to_dict() for spec in self._unit_specs(index)),
            self._result_path(index), budget=self.budget, tracer=tracer)

    def _work(self, index: int, run_dir: str):
        return ({"shard": index}, self._result_path(index),
                self._shard_committed, self._shard_worker)

    def _shard_worker(self, unit: Dict, budget: Optional[int] = None,
                      tracer=None) -> Dict:
        """Body of a forked shard worker, run by ``run_worker``.

        ``budget`` is the scheduler's own, already on ``self``.
        """
        return self._execute(unit["shard"], tracer)

    @staticmethod
    def _shard_committed(summary: Dict) -> None:
        """The pool's commit hook: nothing is left to do, because
        ``execute_shard`` committed the shard file by atomic rename."""

    def _read_result(self, index: int, path: str) -> Optional[Dict]:
        jobs = sum(1 for __ in _iter_jsonl(path))
        if jobs == self.manifest.shards[index].jobs:
            return {"jobs": jobs}
        try:
            os.unlink(path)     # torn: never trusted, never resumed from
        except FileNotFoundError:
            pass
        return None

    # -- run ------------------------------------------------------------------

    def _dispatch(self, run_dir: str) -> List:
        self._results_dir = os.path.join(run_dir, "results")
        os.makedirs(self._results_dir, exist_ok=True)
        for stale in os.listdir(self._results_dir):
            if ".tmp." in stale:        # torn spool from a dead worker
                try:
                    os.unlink(os.path.join(self._results_dir, stale))
                except OSError:
                    pass
        return super()._dispatch(run_dir)

    def _run_pool(self, pending: List[int], results: List,
                  journal: RunJournal, run_dir: str) -> None:
        # Import the corpus analysis once, before the first fork: every
        # shard child would otherwise import it again (~10 ms each).
        import repro.corpus.study  # noqa: F401
        super()._run_pool(pending, results, journal, run_dir)

    def _finish(self, results: List, run_dir: str, start: float):
        from repro.farm.merge import MergeFold

        fold = MergeFold(rows_path=os.path.join(run_dir, "rows.jsonl"))
        for index, result in enumerate(results):
            rows = result if isinstance(result, list) \
                else _iter_jsonl(self._result_path(index))
            for row in rows:
                row.setdefault("cached", False)
                fold.add(row)
        self.wall_seconds = time.perf_counter() - start
        report = fold.finish(workers=self.workers,
                             wall_seconds=self.wall_seconds,
                             cached_jobs=self.cached_jobs,
                             health=self.health.summary())
        if self.run_dir is None:
            report.rows_path = None
        return report


def _iter_jsonl(path: str):
    """Yield result dicts from one shard spool, skipping a torn line."""
    try:
        handle = open(path)
    except FileNotFoundError:
        return
    with handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except ValueError:
                continue
            if isinstance(row, dict):
                yield row


def run_farm(manifest, workers: int = 1,
             store: Optional[ResultStore] = None, resume: bool = False,
             budget: Optional[int] = DEFAULT_BUDGET, **scheduler_options):
    """Convenience wrapper: schedule, run, merge; returns a FarmReport.

    A :class:`ShardedManifest` runs on :class:`StreamFarm` (the store is
    unused there — shard result files are the cache); a list-shaped
    :class:`Manifest` runs one job per unit.
    """
    from repro.farm.merge import merge_results

    if isinstance(manifest, ShardedManifest):
        return StreamFarm(manifest, workers=workers, resume=resume,
                          budget=budget, **scheduler_options).run()
    scheduler = FarmScheduler(manifest, workers=workers, store=store,
                              resume=resume, budget=budget,
                              **scheduler_options)
    results = scheduler.run()
    return merge_results(results, workers=workers,
                         wall_seconds=scheduler.wall_seconds,
                         cached_jobs=scheduler.cached_jobs,
                         health=scheduler.health.summary())
