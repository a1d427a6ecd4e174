"""Worker health: fork, heartbeat, detect hung-vs-dead, reclaim.

The old pool (``concurrent.futures``) could only learn about a worker
*after* the fact — a dead process surfaced as a broken future, and a
hung one never surfaced at all.  At market-study scale (the paper's
Section III covers 227,911 APKs) both are the steady state, so the farm
now owns its workers directly:

* each unit (a job, or a whole shard) runs in a **forked child** that
  commits its result with a crash-consistent write and then
  ``_exit``\\ s — no interpreter teardown, no shared descriptors
  flushed twice;
* a **heartbeat thread** in the child stamps a per-unit heartbeat file
  every ``interval`` seconds.  A SIGSTOP'd or livelocked worker stops
  stamping, so the scheduler can tell *hung* (alive but silent — reap
  it) from merely *busy* (stamping away — leave it alone), which no
  exit-status channel can express;
* the pool reaps with ``waitpid(WNOHANG)`` — waiting between passes on
  the workers' pidfds, so an exit wakes the scheduler at once — SIGKILLs
  workers that miss ``miss_threshold`` consecutive heartbeats or outlive
  the per-unit wall-clock deadline, and reports every reclaim with the
  time elapsed since the worker's last proof of life.

:class:`HealthStats` aggregates the whole fault-tolerance story
(reclaims by cause, retries, quarantines, mean time to reclaim) for the
merged farm report and the observability metrics registry.
"""

from __future__ import annotations

import gc
import os
import select
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

HEARTBEAT_INTERVAL = 0.05
MISS_THRESHOLD = 4      # consecutive missed heartbeats before "hung"


def stamp_heartbeat(path: str, digest: str = "",
                    instructions: int = 0) -> None:
    """Record proof of life; the mtime is the signal, the body is debug.

    The body carries *what* the worker is doing, not just that it beats:
    the current job digest and the emulator's instruction count at stamp
    time, so ``--watch`` and hung-worker tombstones can show a frozen
    counter instead of a bare pid.
    """
    with open(path, "w") as handle:
        handle.write(f"{os.getpid()} {time.time():.6f} "
                     f"{digest or '-'} {instructions}\n")


def parse_heartbeat(path: str) -> Optional[Dict]:
    """Decode a heartbeat body; tolerant of the pre-enrichment format."""
    try:
        with open(path) as handle:
            fields = handle.read().split()
    except OSError:
        return None
    if len(fields) < 2:
        return None
    try:
        beat = {"pid": int(fields[0]), "stamped": float(fields[1]),
                "digest": "", "instructions": 0}
    except ValueError:
        return None
    if len(fields) >= 3 and fields[2] != "-":
        beat["digest"] = fields[2]
    if len(fields) >= 4:
        try:
            beat["instructions"] = int(fields[3])
        except ValueError:
            pass
    return beat


class _HeartbeatThread(threading.Thread):
    """Daemon thread stamping a heartbeat file until the process exits.

    ``vitals`` (optional) is polled at each stamp for the live
    ``(digest, instruction_count)`` pair; it must never raise and never
    block — ours reads two plain attributes off the worker's platform.
    """

    def __init__(self, path: str, interval: float,
                 vitals: Optional[Callable[[], Tuple[str, int]]] = None
                 ) -> None:
        super().__init__(name="farm-heartbeat", daemon=True)
        self.path = path
        self.interval = interval
        self.vitals = vitals
        self._stop = threading.Event()

    def run(self) -> None:
        while not self._stop.wait(self.interval):
            digest, instructions = "", 0
            if self.vitals is not None:
                try:
                    digest, instructions = self.vitals()
                except Exception:  # pragma: no cover - vitals must not kill
                    pass
            try:
                stamp_heartbeat(self.path, digest, instructions)
            except OSError:  # pragma: no cover - hb dir vanished
                return


def run_worker(spec_dict: Dict, budget: Optional[int], hb_path: str,
               interval: float, commit: Callable[[Dict], None],
               spool_path: Optional[str] = None, trace_id: str = "",
               digest: str = "", execute: Optional[Callable] = None) -> None:
    """Body of a forked farm worker; commits a result, then the caller
    must ``_exit``.

    ``execute`` runs the unit (``execute(spec_dict, budget=...)``, plus
    ``tracer=`` when tracing); by default it is ``execute_job``,
    resolved through the module at call time (not imported at module
    load) so tests can monkeypatch it in the parent and have the fork
    inherit the patch.  With ``spool_path`` set, the worker opens its
    own post-fork :class:`SpanTracer` spool (no shared descriptors) and
    traces the unit + store commit.
    """
    from repro.farm import worker as worker_module

    def vitals() -> Tuple[str, int]:
        platform = worker_module.LIVE.get("platform")
        instructions = (platform.emu.instruction_count
                        if platform is not None else 0)
        return digest, instructions

    stamp_heartbeat(hb_path, digest)
    beat = _HeartbeatThread(hb_path, interval, vitals=vitals)
    beat.start()
    if execute is None:
        execute = worker_module.execute_job
    if spool_path is None:
        # No tracer kwarg on this path: tests monkeypatch execute_job
        # with narrower signatures, and the fork inherits the patch.
        result = execute(spec_dict, budget=budget)
        commit(result)
        return
    from repro.observability.flight import FlightSpool
    from repro.observability.spans import SpanTracer
    tracer = SpanTracer(spool=FlightSpool(spool_path), trace_id=trace_id)
    result = execute(spec_dict, budget=budget, tracer=tracer)
    with tracer.span("store_commit", cat="worker"):
        commit(result)
    tracer.close()


def _open_pidfd(pid: int) -> Optional[int]:
    try:
        return os.pidfd_open(pid)
    except (AttributeError, OSError):   # not Linux >= 5.3: poll instead
        return None


def _close_pidfd(handle: "WorkerHandle") -> None:
    pidfd, handle.pidfd = handle.pidfd, None
    if pidfd is not None:
        os.close(pidfd)


@dataclass
class WorkerHandle:
    """One live forked worker, as the scheduler sees it."""

    pid: int
    index: int                  # manifest index of the unit it serves
    digest: str
    job_id: str
    attempt: int
    hb_path: str
    spawned_monotonic: float
    spawned_wall: float
    gate: Optional[int] = None  # write end of a held worker's start gate
    pidfd: Optional[int] = None  # readable once the worker exits (Linux)

    def heartbeat_age(self, now_wall: float) -> float:
        """Seconds since the last proof of life (spawn counts as one)."""
        try:
            last = os.stat(self.hb_path).st_mtime
        except OSError:
            last = self.spawned_wall
        return max(0.0, now_wall - last)

    def runtime(self, now_monotonic: float) -> float:
        return now_monotonic - self.spawned_monotonic

    def read_vitals(self) -> Optional[Dict]:
        """The worker's last self-reported digest + instruction count."""
        return parse_heartbeat(self.hb_path)


class WorkerPool:
    """Fork/monitor/reap for farm workers; policy stays in the scheduler."""

    def __init__(self, hb_dir: str, interval: float = HEARTBEAT_INTERVAL,
                 miss_threshold: int = MISS_THRESHOLD) -> None:
        self.hb_dir = hb_dir
        self.interval = interval
        self.miss_threshold = miss_threshold
        self.live: Dict[int, WorkerHandle] = {}
        # Watchdog clock: when hung() last looked, and when it last came
        # back from a stall of its own (see hung()).
        self._last_watch: Optional[float] = None
        self._resumed = 0.0
        os.makedirs(hb_dir, exist_ok=True)

    # -- spawn ----------------------------------------------------------------

    def spawn(self, spec_dict: Dict, budget: Optional[int], index: int,
              digest: str, job_id: str, attempt: int,
              commit: Callable[[Dict], None],
              spool_path: Optional[str] = None,
              trace_id: str = "", held: bool = False,
              execute: Optional[Callable] = None) -> WorkerHandle:
        """Fork one worker to run one unit (see :func:`run_worker`).
        ``held`` parks the child before it starts the unit until
        :meth:`release`, so whatever the caller does to a fresh worker
        (a chaos kill or stop) lands on a worker that has not run yet —
        never, on a busy host, on one that already finished."""
        hb_path = os.path.join(self.hb_dir, digest)
        # A stale heartbeat from a previous attempt must not vouch for
        # the new worker.
        stamp_heartbeat(hb_path, digest)
        gate_read = gate_write = None
        if held:
            gate_read, gate_write = os.pipe()
        # Freeze the heap the child inherits, so its collections walk
        # only what it allocates.  A full collection over a large
        # parent's heap copies on write every page it touches and holds
        # the GIL, heartbeat thread included, for its whole pause.
        gc.freeze()
        try:
            pid = os.fork()
        except OSError:
            gc.unfreeze()
            raise
        if pid == 0:
            code = 1
            try:
                if gate_read is not None:
                    os.close(gate_write)
                    # EOF without the go byte: the parent is gone.
                    if not os.read(gate_read, 1):
                        os._exit(1)
                    os.close(gate_read)
                run_worker(spec_dict, budget, hb_path, self.interval, commit,
                           spool_path=spool_path, trace_id=trace_id,
                           digest=digest, execute=execute)
                code = 0
            except BaseException:
                code = 1
            finally:
                # Skip every parent-inherited atexit/teardown path: the
                # child must vanish without flushing shared state.
                os._exit(code)
        gc.unfreeze()
        handle = WorkerHandle(pid=pid, index=index, digest=digest,
                              job_id=job_id, attempt=attempt,
                              hb_path=hb_path,
                              spawned_monotonic=time.monotonic(),
                              spawned_wall=time.time(), gate=gate_write,
                              pidfd=_open_pidfd(pid))
        if gate_read is not None:
            os.close(gate_read)
        self.live[pid] = handle
        return handle

    def release(self, handle: WorkerHandle) -> None:
        """Let a held worker start its job (no-op if not held)."""
        gate, handle.gate = handle.gate, None
        if gate is None:
            return
        try:
            os.write(gate, b"\0")
        except OSError:         # the worker already died (chaos kill)
            pass
        finally:
            os.close(gate)

    # -- observe --------------------------------------------------------------

    def reap(self) -> List[Tuple[WorkerHandle, int]]:
        """Collect exited workers; yields ``(handle, status)`` where
        status is the exit code for clean exits and ``-signum`` for
        signal deaths."""
        finished: List[Tuple[WorkerHandle, int]] = []
        for pid in list(self.live):
            try:
                reaped, raw = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:  # pragma: no cover - reaped elsewhere
                reaped, raw = pid, 1 << 8
            if reaped == 0:
                continue
            handle = self.live.pop(pid)
            _close_pidfd(handle)
            if os.WIFSIGNALED(raw):
                status = -os.WTERMSIG(raw)
            else:
                status = os.WEXITSTATUS(raw)
            finished.append((handle, status))
        return finished

    def wait(self, timeout: float) -> None:
        """Sleep up to ``timeout``, waking as soon as any worker exits."""
        pidfds = [handle.pidfd for handle in self.live.values()
                  if handle.pidfd is not None]
        if not pidfds:
            time.sleep(timeout)
            return
        poller = select.poll()      # unlike select(), no FD_SETSIZE cap
        for pidfd in pidfds:
            poller.register(pidfd, select.POLLIN)
        poller.poll(timeout * 1000)

    def hung(self, now_wall: Optional[float] = None) -> List[WorkerHandle]:
        """Workers silent for more than ``miss_threshold`` beats.

        Missed beats only count while this watchdog was itself awake to
        see them.  If it went unscheduled for so long that a worker
        stamping on time could still read hung (a frozen VM or a
        throttled cgroup stalls every process alike), the workers were
        most likely stalled too: every worker then gets a full window,
        counted from now, to beat again before it can read hung.
        """
        now_wall = time.time() if now_wall is None else now_wall
        limit = self.interval * self.miss_threshold
        last, self._last_watch = self._last_watch, now_wall
        if last is not None and now_wall - last > limit - self.interval:
            self._resumed = now_wall
        silence = now_wall - self._resumed
        return [handle for handle in self.live.values()
                if min(handle.heartbeat_age(now_wall), silence) > limit]

    def overdue(self, deadline: Optional[float],
                now_monotonic: Optional[float] = None) -> List[WorkerHandle]:
        if deadline is None:
            return []
        now_monotonic = time.monotonic() if now_monotonic is None \
            else now_monotonic
        return [handle for handle in self.live.values()
                if handle.runtime(now_monotonic) > deadline]

    # -- reclaim --------------------------------------------------------------

    def kill(self, handle: WorkerHandle) -> None:
        """SIGKILL one worker and reap it synchronously.

        SIGKILL (not SIGTERM) on purpose: a hung worker by definition
        is not scheduling our code, and SIGKILL also fells SIGSTOP'd
        processes, which no catchable signal does.
        """
        self.live.pop(handle.pid, None)
        _close_pidfd(handle)
        if handle.gate is not None:
            os.close(handle.gate)
            handle.gate = None
        try:
            os.kill(handle.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(handle.pid, 0)
        except ChildProcessError:
            pass

    def kill_all(self) -> None:
        for handle in list(self.live.values()):
            self.kill(handle)


@dataclass
class HealthStats:
    """The farm's fault-tolerance counters, one place."""

    worker_deaths: int = 0      # exited nonzero / died to a signal
    hung_workers: int = 0       # missed heartbeats -> SIGKILLed
    deadline_kills: int = 0     # outlived the per-job wall-clock deadline
    torn_results: int = 0       # committed result failed verification
    retries: int = 0            # strikes requeued with backoff
    poison_quarantined: int = 0
    lost_jobs: int = 0
    interrupted_jobs: int = 0
    reclaim_seconds: List[float] = field(default_factory=list)

    @property
    def workers_reclaimed(self) -> int:
        return self.worker_deaths + self.hung_workers + self.deadline_kills

    def record_reclaim(self, seconds: float) -> None:
        self.reclaim_seconds.append(max(0.0, seconds))

    def mean_time_to_reclaim(self) -> float:
        if not self.reclaim_seconds:
            return 0.0
        return sum(self.reclaim_seconds) / len(self.reclaim_seconds)

    def summary(self) -> Dict[str, float]:
        return {
            "workers_reclaimed": self.workers_reclaimed,
            "worker_deaths": self.worker_deaths,
            "hung_workers": self.hung_workers,
            "deadline_kills": self.deadline_kills,
            "torn_results": self.torn_results,
            "retries": self.retries,
            "poison_quarantined": self.poison_quarantined,
            "lost_jobs": self.lost_jobs,
            "interrupted_jobs": self.interrupted_jobs,
            "mean_time_to_reclaim_seconds": self.mean_time_to_reclaim(),
        }

    def register_metrics(self, registry) -> None:
        """Expose the summary as a pull source on a MetricsRegistry."""
        registry.register_source("farm.health", self.summary)
