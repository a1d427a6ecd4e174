"""Outside-in timing for the benchmark: wrappers around the layers' public calls.

Nothing here is a hook inside the program.  :func:`install_probe` and
:func:`install_tracing` replace functions and methods of the farm's
layers with timing wrappers, from the benchmark's own process, before
the farm forks — forked workers inherit the wrapped functions.
(``run_worker`` resolves ``execute_job`` through its module at call time
for exactly this reason.)

* :class:`Probe` is the only instrumentation of the untraced run: it
  notes when the first job is dispatched and, per job, the time from
  ``WorkerPool.spawn`` to the ``WorkerPool.reap`` that returns it (from
  the handle's own ``spawned_monotonic``).
* :class:`Recorder` buffers spans ``(name, start_us, end_us)`` in memory,
  per process.  Workers leave through ``os._exit``, so each worker writes
  its buffer to ``<out_dir>/spans-*.jsonl`` when its job or shard ends;
  the batch process writes its own at the end.  The recorder is also
  the span tracer handed to the engines through the public
  ``attach_spans``, which turns on their existing ``tb_translate``,
  ``tbc_compile`` and ``jni_crossing`` spans.

:func:`ledger` turns the span files into per-layer self time (a span's
duration minus the part its child spans cover), so the layers of a job
plus ``worker.unattributed`` add up to the measured ``execute_job`` time.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from typing import Dict, List, Optional

# Engine span name -> layer span name.
ENGINE_SPANS = {"tb_translate": "emulator.translate",
                "tbc_compile": "dalvik.compile",
                "jni_crossing": "jni.crossing"}

JOB_SPAN = "worker.job"
# Spans whose self time belongs to no layer: the job's own glue.
UNATTRIBUTED = ("worker.job", "worker.analysis")


def now_us() -> float:
    """Wall-clock µs: the engines' span clock, comparable across forks."""
    return time.time() * 1e6


class Probe:
    """Dispatch start and per-job spawn-to-reap latency (untraced run)."""

    def __init__(self) -> None:
        self.dispatch_start: Optional[float] = None     # monotonic s
        self.dispatch_start_us: Optional[float] = None  # wall µs
        self.job_seconds: List[float] = []

    def mark_dispatch(self) -> None:
        if self.dispatch_start is None:
            self.dispatch_start = time.monotonic()
            self.dispatch_start_us = now_us()


def install_probe(probe: Probe) -> None:
    from repro.farm import health, scheduler

    spawn = health.WorkerPool.spawn
    reap = health.WorkerPool.reap
    run_pool = scheduler.StreamFarm._run_pool

    @functools.wraps(spawn)
    def probed_spawn(self, *args, **kwargs):
        probe.mark_dispatch()
        return spawn(self, *args, **kwargs)

    @functools.wraps(reap)
    def probed_reap(self):
        finished = reap(self)
        if finished:
            now = time.monotonic()
            for handle, __ in finished:
                probe.job_seconds.append(now - handle.spawned_monotonic)
        return finished

    @functools.wraps(run_pool)
    def probed_run_pool(self, *args, **kwargs):
        probe.mark_dispatch()
        return run_pool(self, *args, **kwargs)

    health.WorkerPool.spawn = probed_spawn
    health.WorkerPool.reap = probed_reap
    scheduler.StreamFarm._run_pool = probed_run_pool


class Recorder:
    """Per-process in-memory span buffer, and the engines' span tracer."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.spans: List = []
        self.marks: List = []   # (kind, pid, t_us): fork/reap edges
        self._file = os.path.join(out_dir, f"spans-main-{os.getpid()}.jsonl")

    def child(self, role: str) -> None:
        """In a fresh fork: drop the parent's spans, write to our own file."""
        self.spans = []
        self.marks = []
        self._file = os.path.join(
            self.out_dir,
            f"spans-{role}-{os.getpid()}-{time.monotonic_ns()}.jsonl")

    def flush(self) -> None:
        if not self.spans and not self.marks:
            return
        with open(self._file, "a") as handle:
            handle.write(json.dumps({"pid": os.getpid(), "spans": self.spans,
                                     "marks": self.marks}) + "\n")
        self.spans = []
        self.marks = []

    def timed(self, name: str, function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            start = now_us()
            try:
                return function(*args, **kwargs)
            finally:
                self.spans.append((name, start, now_us()))
        return wrapper

    # -- the engines' span-tracer interface (see attach_spans) ------------

    @staticmethod
    def now() -> float:
        return now_us()

    def complete(self, name: str, start_us: float, cat: str = "engine",
                 trace=None, **args) -> None:
        self.spans.append((ENGINE_SPANS.get(name, name), start_us, now_us()))

    def event(self, name: str, cat: str = "engine", trace=None,
              **args) -> None:
        pass


def _wrap_method(owner, name: str, span: str, recorder: Recorder) -> None:
    setattr(owner, name, recorder.timed(span, getattr(owner, name)))


class _ImportHook:
    """Meta-path finder that times ``repro`` imports and patches modules.

    The cold farm imports the app, harness and corpus modules lazily,
    inside the workers; importing them in the parent to patch them would
    change the program being measured.  This finder leaves every import
    where the program does it, records it as a ``worker.import`` span,
    and patches a module right after it executes.
    """

    def __init__(self, recorder: Recorder, patches: Dict) -> None:
        self.recorder = recorder
        self.patches = patches

    def find_spec(self, name, path, target=None):
        if not name.startswith("repro."):
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                break
        else:
            return None
        exec_module = self.recorder.timed("worker.import",
                                          spec.loader.exec_module)
        patch = self.patches.pop(name, None)

        def patched_exec(module) -> None:
            exec_module(module)
            if patch is not None:
                patch(module)

        spec.loader.exec_module = patched_exec
        return spec


def _patch_modules(recorder: Recorder, patches: Dict) -> None:
    """Apply each ``module name -> patch`` now, or when it is imported."""
    lazy = {}
    for name, patch in patches.items():
        if name in sys.modules:
            patch(sys.modules[name])
        else:
            lazy[name] = patch
    sys.meta_path.insert(0, _ImportHook(recorder, lazy))


def install_tracing(recorder: Recorder) -> None:
    """Wrap every layer's public calls; call before the farm forks.

    Imports nothing of the program: modules already loaded are patched
    at once, the rest as the program imports them.
    """
    _patch_modules(recorder, {
        "repro.farm.health": functools.partial(_trace_health, recorder),
        "repro.farm.journal": lambda module: _wrap_method(
            module.RunJournal, "record", "farm.journal", recorder),
        "repro.farm.merge": functools.partial(_trace_merge, recorder),
        "repro.farm.manifest": functools.partial(_trace_manifest, recorder),
        "repro.farm.scheduler": functools.partial(_trace_scheduler,
                                                  recorder),
        "repro.farm.worker": functools.partial(_trace_worker, recorder),
        "repro.resilience.supervisor": functools.partial(_trace_supervisor,
                                                         recorder),
        "repro.bench.harness": functools.partial(_trace_harness, recorder),
        "repro.framework.android": functools.partial(_trace_framework,
                                                     recorder),
        "repro.emulator.emulator": lambda module: _wrap_method(
            module.Emulator, "run", "emulator.run", recorder),
        "repro.dalvik.interpreter": functools.partial(_trace_dalvik,
                                                      recorder),
        "repro.corpus.generator": functools.partial(_trace_generator,
                                                    recorder),
        "repro.corpus.study": lambda module: setattr(
            module, "classify",
            recorder.timed("corpus.classify", module.classify)),
    })


# farm, parent side: fork, reap, journal, merge, shard spooling.

def _trace_health(recorder: Recorder, health) -> None:
    spawn = health.WorkerPool.spawn
    reap = health.WorkerPool.reap
    run_worker = health.run_worker

    @functools.wraps(spawn)
    def traced_spawn(self, spec_dict, budget, index, digest, job_id, attempt,
                     commit, *args, **kwargs):
        start = now_us()
        handle = spawn(self, spec_dict, budget, index, digest, job_id,
                       attempt, recorder.timed("farm.commit", commit),
                       *args, **kwargs)
        end = now_us()
        recorder.spans.append(("farm.fork", start, end))
        recorder.marks.append(("spawned", handle.pid, end))
        return handle

    @functools.wraps(reap)
    def traced_reap(self):
        finished = reap(self)
        if finished:
            end = now_us()
            recorder.marks.extend(("reaped", handle.pid, end)
                                  for handle, __ in finished)
        return finished

    # Worker side: each forked worker writes its spans before _exit.
    @functools.wraps(run_worker)
    def traced_run_worker(*args, **kwargs):
        recorder.child("worker")
        start = now_us()
        try:
            return run_worker(*args, **kwargs)
        finally:
            end = now_us()
            recorder.spans.append(("farm.worker", start, end))
            recorder.marks.append(("child_end", os.getpid(), end))
            recorder.flush()

    health.WorkerPool.spawn = traced_spawn
    health.WorkerPool.reap = traced_reap
    health.run_worker = traced_run_worker


def _trace_merge(recorder: Recorder, merge) -> None:
    _wrap_method(merge.MergeFold, "add", "farm.merge", recorder)
    _wrap_method(merge.MergeFold, "finish", "farm.merge", recorder)
    merge.merge_results = recorder.timed("farm.merge", merge.merge_results)


def _trace_manifest(recorder: Recorder, manifest) -> None:
    write = manifest.ShardedManifest.write.__func__
    manifest.ShardedManifest.write = classmethod(
        recorder.timed("farm.manifest.shard", write))


def _trace_scheduler(recorder: Recorder, scheduler) -> None:
    shard_worker = scheduler.StreamFarm._shard_worker

    @functools.wraps(shard_worker)
    def traced_shard_worker(self, *args, **kwargs):
        recorder.child("shard")
        start = now_us()
        try:
            return shard_worker(self, *args, **kwargs)
        finally:
            end = now_us()
            recorder.spans.append(("farm.stream_worker", start, end))
            recorder.marks.append(("child_end", os.getpid(), end))
            recorder.flush()

    scheduler.StreamFarm._shard_worker = traced_shard_worker


def _trace_worker(recorder: Recorder, worker) -> None:
    execute_shard = recorder.timed("farm.shard", worker.execute_shard)

    @functools.wraps(execute_shard)
    def traced_execute_shard(*args, **kwargs):
        try:
            return execute_shard(*args, **kwargs)
        finally:
            recorder.flush()

    worker.execute_shard = traced_execute_shard
    worker.execute_job = recorder.timed(JOB_SPAN, worker.execute_job)


def _trace_supervisor(recorder: Recorder, supervisor) -> None:
    """The supervisor's own time: ``Supervisor.run`` minus the analysis."""
    supervise = supervisor.Supervisor.run

    @functools.wraps(supervise)
    def traced_supervise(self, label, analysis, *args, **kwargs):
        return supervise(self, label,
                         recorder.timed("worker.analysis", analysis),
                         *args, **kwargs)

    supervisor.Supervisor.run = recorder.timed("resilience.supervise",
                                               traced_supervise)


def _trace_harness(recorder: Recorder, harness) -> None:
    """Boot time, and the engines' own spans turned on per platform."""
    make_platform = harness.make_platform

    @functools.wraps(make_platform)
    def traced_make_platform(*args, **kwargs):
        from repro.observability.spans import attach_spans

        start = now_us()
        platform = make_platform(*args, **kwargs)
        recorder.spans.append(("framework.boot", start, now_us()))
        attach_spans(platform, recorder)
        return platform

    harness.make_platform = traced_make_platform


def _trace_framework(recorder: Recorder, android) -> None:
    platform = android.AndroidPlatform
    _wrap_method(platform, "reset_for_job", "framework.reset", recorder)
    _wrap_method(platform, "install", "framework.install", recorder)
    _wrap_method(platform, "load_library", "framework.load_library",
                 recorder)


def _trace_dalvik(recorder: Recorder, interpreter) -> None:
    _wrap_method(interpreter.Interpreter, "execute", "dalvik.execute",
                 recorder)
    _wrap_method(interpreter.Interpreter, "execute_frame", "dalvik.execute",
                 recorder)


def _trace_generator(recorder: Recorder, generator) -> None:
    """Record generation: the time spent inside each ``next()``."""
    stream = generator.CorpusGenerator.stream

    @functools.wraps(stream)
    def traced_stream(self, *args, **kwargs):
        records = stream(self, *args, **kwargs)
        while True:
            start = now_us()
            try:
                record = next(records)
            except StopIteration:
                recorder.spans.append(("corpus.generate", start, now_us()))
                return
            recorder.spans.append(("corpus.generate", start, now_us()))
            yield record

    generator.CorpusGenerator.stream = traced_stream


# -- aggregation ---------------------------------------------------------------


def read_span_files(out_dir: str) -> List[Dict]:
    """One entry per process: its pid, spans and marks."""
    import glob  # after the run: workers must not inherit it

    processes = []
    for path in sorted(glob.glob(os.path.join(out_dir, "spans-*.jsonl"))):
        spans: List = []
        marks: List = []
        pid = None
        with open(path) as handle:
            for line in handle:
                chunk = json.loads(line)
                pid = chunk["pid"]
                spans.extend(chunk["spans"])
                marks.extend(chunk["marks"])
        processes.append({"file": os.path.basename(path), "pid": pid,
                          "spans": spans, "marks": marks})
    return processes


def self_times(spans) -> List:
    """``(name, self_us, in_job)`` per span, nesting by interval.

    All spans of one process come from one thread, so they nest; a
    span's parent is the innermost open span containing its start.
    """
    ordered = sorted(spans, key=lambda span: (span[1], -span[2]))
    result = []
    stack: List = []    # [name, start, end, children_us, in_job]

    def close(entry) -> None:
        name, start, end, children, in_job = entry
        result.append((name, (end - start) - children, in_job))

    for name, start, end in ordered:
        while stack and stack[-1][2] <= start:
            close(stack.pop())
        in_job = name == JOB_SPAN or (bool(stack) and stack[-1][4])
        if stack:
            stack[-1][3] += end - start
        stack.append([name, start, end, 0.0, in_job])
    while stack:
        close(stack.pop())
    return result


def ledger(processes: List[Dict]) -> Dict:
    """Per-layer self time, total and inside jobs, plus job totals."""
    total: Dict[str, float] = {}
    in_jobs: Dict[str, float] = {}
    durations: Dict[str, List[float]] = {}
    for process in processes:
        for name, start, end in process["spans"]:
            durations.setdefault(name, []).append(end - start)
        for name, self_us, in_job in self_times(process["spans"]):
            total[name] = total.get(name, 0.0) + self_us
            if in_job:
                in_jobs[name] = in_jobs.get(name, 0.0) + self_us
    job_durations = durations.get(JOB_SPAN, [])
    return {"self_us": total, "job_self_us": in_jobs,
            "durations_us": durations,
            "job_us": sum(job_durations), "jobs": len(job_durations)}


def lags(processes: List[Dict]) -> Dict[str, List[float]]:
    """Fork-to-start and end-to-reap lags per job, in µs.

    ``spawned``/``reaped`` marks come from the parent process, the job
    start and end from the worker's own spans; workers are matched by
    pid in time order (a pid can be reused by a later fork).
    """
    spawned: Dict[int, List[float]] = {}
    reaped: Dict[int, List[float]] = {}
    starts: Dict[int, List[float]] = {}
    ends: Dict[int, List[float]] = {}
    for process in processes:
        for kind, pid, when in process["marks"]:
            target = {"spawned": spawned, "reaped": reaped,
                      "child_end": ends}[kind]
            target.setdefault(pid, []).append(when)
        job_starts = [start for name, start, __ in process["spans"]
                      if name == JOB_SPAN]
        if job_starts and process["file"].startswith("spans-worker-"):
            starts.setdefault(process["pid"], []).append(min(job_starts))
    start_lag, reap_lag, busy = [], [], []
    for pid, spawn_times in spawned.items():
        spawn_times = sorted(spawn_times)
        reap_times = sorted(reaped.get(pid, []))
        for spawn_time, reap_time in zip(spawn_times, reap_times):
            busy.append(reap_time - spawn_time)
        for spawn_time, start in zip(spawn_times, sorted(starts.get(pid, []))):
            start_lag.append(start - spawn_time)
        for end, reap_time in zip(sorted(ends.get(pid, [])), reap_times):
            reap_lag.append(reap_time - end)
    stream_ends = [when for process in processes
                   if process["file"].startswith("spans-shard-")
                   for kind, __, when in process["marks"]
                   if kind == "child_end"]
    return {"start_lag": start_lag, "reap_lag": reap_lag, "busy": busy,
            "stream_ends": stream_ends}
