"""The repository benchmark: farm-job throughput and latency, per workload.

    python3 farmbench/run.py --workload apps_cold --seed 1 --seconds 20 \\
        --trace 0

Runs ``batch.py`` again and again, each time in a fresh interpreter,
until ``--seconds`` have passed, then prints every metric by name with
its unit and, as the last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates untraced and traced batches and reports the
per-layer metrics of the traced ones (medians), plus the tracing
overhead.  ``failed`` counts jobs that did not end ``ok``, disagree
with ``reference.json``, or were served from the result cache; for
``corpus_stream`` a merged counter that differs from the corpus plan
fails the batch.  Scratch files live under ``.bench_build/`` in the
checkout and are removed at exit; the program's bytecode cache there is
kept.  Workloads and metrics: README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

MIN_BATCHES = 3
# Bytecode cache for the program, kept across runs in the checkout: every
# batch imports compiled modules, as an installed package would, whatever
# the caller's PYTHONDONTWRITEBYTECODE says.  The first run fills it.
PYCACHE = os.path.join(ROOT, ".bench_build", "pycache")
RUN_LIMIT_S = 170.0     # every run exits well inside 180 s

END_TO_END = {"jobs_per_s": "1/s", "job_ms_mean": "ms", "setup_s": "s",
              "peak_rss_mib": "MiB"}
TAIL_SHARE = 0.05       # job_ms_tail_mean: the slowest 5% of jobs


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full",
                        choices=sorted(workloads.SIZES))
    return parser.parse_args(argv)


def _run_batch(args, work: str, traced: int, deadline: float) -> dict:
    os.makedirs(os.path.join(work, "tmp"))
    env = dict(os.environ, TMPDIR=os.path.join(work, "tmp"),
               PYTHONPYCACHEPREFIX=PYCACHE)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    command = [sys.executable, os.path.join(HERE, "batch.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--size", args.size, "--trace", str(traced), "--work", work]
    # Its own session, so a batch that overruns is killed with every
    # worker it forked.
    with subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                          stdout=subprocess.PIPE,
                          start_new_session=True) as batch:
        try:
            stdout, __ = batch.communicate(
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(batch.pid, signal.SIGKILL)
            batch.communicate()
            raise
        finally:
            shutil.rmtree(work, ignore_errors=True)
    if batch.returncode != 0:
        raise RuntimeError(f"batch exited with status {batch.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def _percentile(values, share: float) -> float:
    """Linear-interpolated percentile (``share`` in (0, 1))."""
    ordered = sorted(values)
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def end_to_end(batches):
    """The gated metrics, and the pooled, sorted job times.

    Job latency is gated on its mean only.  On ``apps_warm`` the
    scheduler's 10 ms reap poll splits latencies into modes 10 ms apart,
    so p50 and p95 jump between modes when the host's speed changes by a
    few percent, and the tail grows fastest under hypervisor steal (see
    README.md).  They are printed, not gated.
    """
    samples = sorted(value for batch in batches for value in batch["job_ms"])
    return {
        "jobs_per_s": statistics.median(b["jobs_per_s"] for b in batches),
        "job_ms_mean": statistics.fmean(samples),
        "setup_s": statistics.median(b["setup_s"] for b in batches),
        "peak_rss_mib": statistics.median(b["peak_rss_mib"] for b in batches),
    }, samples


def per_layer(traced, untraced) -> dict:
    layers = {name: statistics.median(batch["layers"][name]
                                      for batch in traced)
              for name in traced[0]["layers"]}
    plain = statistics.median(batch["jobs_per_s"] for batch in untraced)
    with_trace = statistics.median(batch["jobs_per_s"] for batch in traced)
    layers["trace.overhead_share"] = 1.0 - with_trace / plain
    return layers


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"farmbench: no program under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    work_root = os.path.join(ROOT, ".bench_build", "farmbench",
                             f"run-{os.getpid()}")
    untraced, traced = [], []
    try:
        # One unmeasured batch first: the OS caches the program's files
        # and the bytecode cache fills.  Its jobs are still checked.
        warmup = _run_batch(args, os.path.join(work_root, "warmup"), 0,
                            deadline)
        while True:
            enough = (len(untraced) >= MIN_BATCHES and
                      (not args.trace or len(traced) >= MIN_BATCHES))
            if enough and time.monotonic() - start >= args.seconds:
                break
            trace_this = int(bool(args.trace) and len(traced) < len(untraced))
            batch = _run_batch(args, os.path.join(
                work_root, f"b{len(untraced) + len(traced)}"),
                trace_this, deadline)
            (traced if trace_this else untraced).append(batch)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as error:
        print(f"farmbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    batches = [warmup] + untraced + traced
    attempted = sum(batch["attempted"] for batch in batches)
    failed = sum(batch["failed"] for batch in batches)
    for batch in batches:
        for failure in batch["failures"]:
            print(f"FAILED {failure}")
    values, samples = end_to_end(untraced)
    jobs = len(samples)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"batches 1 warm-up + {len(untraced)} untraced + "
          f"{len(traced)} traced  "
          f"jobs/batch {batches[0]['attempted']}  workers {workloads.WORKERS}")
    for name, unit in END_TO_END.items():
        note = f"  (n={jobs})" if name.startswith("job_ms") else ""
        print(f"  {name:<28} {values[name]:>14.4f} {unit}{note}")
    tail = samples[int(jobs * (1 - TAIL_SHARE)):]
    for name, value in (("job_ms_p50", _percentile(samples, 0.50)),
                        ("job_ms_p95", _percentile(samples, 0.95)),
                        ("job_ms_tail_mean", statistics.fmean(tail))):
        print(f"  {name:<28} {value:>14.4f} ms  (n={jobs}; not gated)")
    print(f"  {'failed_share':<28} {failed / attempted:>14.4f} share  "
          f"({failed} of {attempted} jobs)")
    if args.trace:
        metrics = per_layer(traced, untraced)
        units = _layer_units()
        for name, value in metrics.items():
            print(f"  {name:<28} {value:>14.4f} {units[name]}")
    else:
        metrics = values
        units = END_TO_END
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


def _layer_units() -> dict:
    """Per-layer metric units, read from BENCHMARK.json's ``per_layer``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {entry["name"]: entry["unit"]
                for entry in json.load(handle)["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
