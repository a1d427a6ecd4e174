"""One measured farm run, in a fresh interpreter; prints one JSON line.

``run.py`` starts this script once per batch, so no run inherits a
warmed process.  Before it calls ``run_farm`` it has imported no module,
``repro`` or standard library, that the ``repro farm`` command has not,
apart from this benchmark's ``probes`` and ``workloads``.  Corpus shards
are written in a forked child, as ``repro shard`` would write them from
its own process, so the corpus modules stay unimported in the parent;
cold workers import the app and analysis modules after the fork, as they
do under the CLI.

    python3 farmbench/batch.py --workload apps_warm --seed 1 --trace 0 \\
        --work .bench_build/farmbench/w0
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import probes  # noqa: E402
import workloads  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full",
                        choices=sorted(workloads.SIZES))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True,
                        help="empty scratch directory for this batch")
    parser.add_argument("--reference", default=REFERENCE)
    return parser.parse_args(argv)


def _write_shards_in_child(directory: str, seed: int, size, recorder) -> None:
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            if recorder is not None:
                recorder.child("setup")
            workloads.write_corpus_shards(directory, seed, size)
            if recorder is not None:
                recorder.flush()
            code = 0
        finally:
            os._exit(code)
    __, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"shard writer exited with status {status}")


def check_apps(report, reference) -> list:
    """One failure per job that is not ``ok``, mismatches, or is cached."""
    failures = []
    targets = reference["targets"]
    for row in report.results:
        job = row["job"]
        key = f"{job['kind']}:{job['target']}"
        expected = targets.get(key)
        destinations = sorted({leak["destination"] for leak in row["leaks"]})
        if row.get("cached"):
            failures.append(f"{job['id']}: served from the result cache")
        elif expected is None:
            failures.append(f"{job['id']}: no reference verdict for {key}")
        elif (row["status"] != expected["status"]
              or bool(row.get("detected")) != expected["detected"]
              or destinations != expected["destinations"]):
            failures.append(
                f"{job['id']}: got status={row['status']} "
                f"detected={bool(row.get('detected'))} "
                f"destinations={destinations}, reference {expected}")
    return failures


def check_corpus(report, seed: int, size) -> list:
    """One failure per job that is not ``ok`` or was cached; a merged
    counter that differs from the corpus plan fails every job."""
    from repro.corpus.generator import CorpusGenerator

    failures = [f"{row['id']}: status {row['status']}"
                for row in report.rows() if row["status"] != "ok"]
    # Rows of a shard replayed from its result file carry no flag.
    failures += ["served from a cached shard"] * report.cached_jobs
    plan = CorpusGenerator(seed=workloads.corpus_seed(seed),
                           scale=size["corpus_scale"]).plan.marginals()
    merged = report.merged_metrics
    for name, planned in plan.items():
        metric = "corpus.records" if name == "total" else f"corpus.{name}"
        if merged.get(metric) != planned:
            return [f"{metric}: merged {merged.get(metric)} "
                    f"!= plan {planned}"] * report.jobs
    return failures


def _per_job(total_us: float, jobs: int) -> float:
    return total_us / 1000.0 / max(1, jobs)


# No ``statistics`` here: it imports ``decimal`` and ``fractions``, which
# cold workers otherwise import after the fork (``repro.bench``).
def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _median(values) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if not ordered:
        return 0.0
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def layer_metrics(processes, book, merged, health, jobs: int,
                  window_us: float) -> dict:
    """The per-layer metrics of one traced batch (see README.md)."""
    self_us = book["self_us"]
    durations = book["durations_us"]
    lag = probes.lags(processes)

    def layer_ms(name: str) -> float:
        return _per_job(self_us.get(name, 0.0), jobs)

    def count(name: str) -> float:
        return merged.get(name, 0)

    tb_hits, tb_misses = count("emulator.tb.hits"), count("emulator.tb.misses")
    fast = count("jni.crossings_fast")
    crossings = fast + count("jni.crossings_slow")
    run_s = self_us.get("emulator.run", 0.0) / 1e6
    native = count("emulator.instructions")
    traced = count("core.traced_instructions")
    busy_us = sum(lag["busy"]) + sum(durations.get("farm.shard", []))
    ends = lag["stream_ends"]
    unattributed = sum(book["job_self_us"].get(name, 0.0)
                       for name in probes.UNATTRIBUTED)
    return {
        "farm.fork_ms": layer_ms("farm.fork"),
        "farm.start_lag_ms": _mean(lag["start_lag"]) / 1000.0,
        "farm.reap_lag_ms": _mean(lag["reap_lag"]) / 1000.0,
        "farm.journal_ms": layer_ms("farm.journal"),
        "farm.journal_records": len(durations.get("farm.journal", [])),
        "farm.commit_ms": layer_ms("farm.commit") + layer_ms("farm.shard"),
        "farm.worker_ms": (layer_ms("farm.worker")
                           + layer_ms("farm.stream_worker")),
        "farm.slot_busy_share": busy_us / (workloads.WORKERS * window_us),
        "farm.tail_idle_s": (max(ends) - min(ends)) / 1e6 if ends else 0.0,
        "farm.merge_ms": layer_ms("farm.merge"),
        "farm.retries": health.get("retries", 0),
        "farm.worker_deaths": health.get("worker_deaths", 0),
        "farm.manifest.shard_ms": layer_ms("farm.manifest.shard"),
        "resilience.supervise_ms": layer_ms("resilience.supervise"),
        "framework.boot_ms": layer_ms("framework.boot"),
        "framework.reset_ms": layer_ms("framework.reset"),
        "framework.install_ms": layer_ms("framework.install"),
        "framework.load_library_ms": layer_ms("framework.load_library"),
        "framework.load_library_calls":
            len(durations.get("framework.load_library", [])),
        "emulator.translate_ms": layer_ms("emulator.translate"),
        "emulator.run_ms": layer_ms("emulator.run"),
        "emulator.tb_hits": tb_hits,
        "emulator.tb_misses": tb_misses,
        "emulator.tb_hit_share": tb_hits / (tb_hits + tb_misses)
        if tb_hits + tb_misses else 0.0,
        "emulator.tb_invalidations": count("emulator.tb.invalidations"),
        "emulator.decodes": count("emulator.decodes"),
        "emulator.native_insns": native,
        "emulator.native_insns_per_s": native / run_s if run_s else 0.0,
        "dalvik.compile_ms": layer_ms("dalvik.compile"),
        "dalvik.execute_ms": layer_ms("dalvik.execute"),
        "dalvik.tbc_hits": count("dalvik.tbc.hits"),
        "dalvik.tbc_misses": count("dalvik.tbc.misses"),
        "dalvik.insns": count("dalvik.instructions"),
        "jni.crossing_ms": layer_ms("jni.crossing"),
        "jni.crossings": crossings,
        "jni.crossing_us_p50": _median(durations.get("jni.crossing", [])),
        "jni.trampoline_hits": count("jni.trampoline.hits"),
        "jni.trampoline_misses": count("jni.trampoline.misses"),
        "jni.fast_share": fast / crossings if crossings else 0.0,
        "core.hook_calls": sum(value for name, value in merged.items()
                               if name.startswith("core.hook.")),
        "core.taint_propagations": count("core.taint_propagations"),
        "core.tracer_cache_hit_share":
            count("core.tracer_cache_hits") / traced if traced else 0.0,
        "kernel.sink_checks": count("core.sink_checks"),
        "corpus.generate_ms": layer_ms("corpus.generate"),
        "corpus.classify_ms": layer_ms("corpus.classify"),
        "corpus.records": count("corpus.records"),
        "worker.import_ms": _per_job(
            book["job_self_us"].get("worker.import", 0.0), jobs),
        "worker.job_ms": _per_job(book["job_us"], jobs),
        "worker.unattributed_ms": _per_job(unattributed, jobs),
    }


def run_batch(args) -> dict:
    size = workloads.SIZES[args.size]
    work = os.path.abspath(args.work)
    with open(args.reference) as handle:
        reference = json.load(handle)

    from repro.farm import ResultStore, ShardedManifest, run_farm

    probe = probes.Probe()
    probes.install_probe(probe)
    recorder = None
    if args.trace:
        spans_dir = os.path.join(work, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        recorder = probes.Recorder(spans_dir)
        probes.install_tracing(recorder)

    setup_start = time.monotonic()
    options = {"run_dir": os.path.join(work, "runstate")}
    if args.workload == "corpus_stream":
        shards = os.path.join(work, "shards")
        _write_shards_in_child(shards, args.seed, size, recorder)
        manifest = ShardedManifest.load(shards)
    else:
        manifest = workloads.apps_manifest(args.seed, size["replicas"])
        options["store"] = ResultStore(os.path.join(work, "cache"))
        options["warm"] = args.workload == "apps_warm"
    setup_end = time.monotonic()
    modules = sorted(sys.modules)

    run_start = time.monotonic()
    report = run_farm(manifest, workers=workloads.WORKERS, **options)
    run_end = time.monotonic()
    run_end_us = probes.now_us()

    attempted = len(manifest)
    if args.workload == "corpus_stream":
        failures = check_corpus(report, args.seed, size)
        job_ms = [row["elapsed_seconds"] * 1000.0 for row in report.rows()]
    else:
        failures = check_apps(report, reference)
        job_ms = [seconds * 1000.0 for seconds in probe.job_seconds]
    failures += ["job missing from the report"] * (attempted - report.jobs)
    ok_jobs = report.outcomes.get("ok", 0)
    dispatch = probe.dispatch_start or run_start
    run_seconds = run_end - dispatch
    import resource  # after the run: workers must not inherit it

    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {
        "attempted": attempted,
        "failed": min(attempted, len(failures)),
        "failures": sorted(set(failures))[:10],
        "jobs_per_s": ok_jobs / run_seconds,
        "setup_s": (setup_end - setup_start) + (dispatch - run_start),
        "peak_rss_mib": peak_kib / 1024.0,
        "job_ms": job_ms,
        "modules": modules,
    }
    if recorder is not None:
        recorder.flush()
        processes = probes.read_span_files(recorder.out_dir)
        book = probes.ledger(processes)
        window_us = run_end_us - (probe.dispatch_start_us or run_end_us)
        result["layers"] = layer_metrics(processes, book,
                                         report.merged_metrics,
                                         report.health, attempted, window_us)
        result["ledger"] = {
            "job_us": book["job_us"], "jobs": book["jobs"],
            "job_self_us": book["job_self_us"]}
    return result


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program source under {ROOT}/src/repro", file=sys.stderr)
        return 2
    print(json.dumps(run_batch(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
