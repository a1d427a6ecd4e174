"""The streaming farm: shard units, faults, resume, and the bounded merge."""

import json
import os
import signal
import threading
import time

import pytest

from repro.cli import main
from repro.corpus.generator import CorpusGenerator
from repro.farm import worker as worker_module
from repro.farm.journal import iter_events, verify_journal
from repro.farm.manifest import ShardedManifest, iter_corpus_jobs
from repro.farm.merge import (MergeFold, merge_results,
                              render_farm_report, write_farm_artifacts)
from repro.farm.scheduler import (STATUS_LOST, STATUS_POISON, FarmInterrupted,
                                  StreamFarm, run_farm)

SCALE = 0.004
SEED = 2014


def _manifest(tmp_path, chunk=16, shard_size=8):
    return ShardedManifest.write(
        str(tmp_path / "manifest"),
        iter_corpus_jobs(scale=SCALE, seed=SEED, chunk=chunk),
        shard_size=shard_size)


def _corpus_metrics(report):
    return {name: value for name, value in report.merged_metrics.items()
            if name.startswith("corpus.")}


def test_serial_stream_counts_the_whole_corpus(tmp_path):
    manifest = _manifest(tmp_path)
    report = StreamFarm(manifest, workers=1).run()
    assert report.jobs == len(manifest)
    assert report.outcomes == {"ok": len(manifest)}
    plan = CorpusGenerator(seed=SEED, scale=SCALE).plan
    metrics = _corpus_metrics(report)
    assert metrics["corpus.records"] == plan.total
    assert metrics["corpus.type1"] == plan.type1
    assert metrics["corpus.type2"] == plan.type2
    assert metrics["corpus.type3"] == plan.type3
    assert metrics["corpus.plain"] == plan.plain


def _committed_rows(run_dir):
    results = os.path.join(run_dir, "results")
    for name in sorted(os.listdir(results)):
        with open(os.path.join(results, name)) as handle:
            yield from (json.loads(line) for line in handle)


def test_pool_run_matches_serial(tmp_path):
    manifest = _manifest(tmp_path)
    run_dir = str(tmp_path / "run")
    serial = StreamFarm(manifest, workers=1).run()
    pooled = StreamFarm(manifest, workers=2, run_dir=run_dir).run()
    assert pooled.jobs == serial.jobs
    assert _corpus_metrics(pooled) == _corpus_metrics(serial)
    assert pooled.outcomes == serial.outcomes
    # Every shard ran in a forked worker, none in the parent.
    rows = list(_committed_rows(run_dir))
    assert len(rows) == len(manifest)
    assert all(row["worker_pid"] != os.getpid() for row in rows)


def test_resume_replays_committed_shards(tmp_path):
    manifest = _manifest(tmp_path)
    run_dir = str(tmp_path / "run")
    first = run_farm(manifest, workers=1, run_dir=run_dir)
    assert first.cached_jobs == 0
    resumed = run_farm(manifest, workers=1, run_dir=run_dir, resume=True)
    assert resumed.cached_jobs == len(manifest)
    assert _corpus_metrics(resumed) == _corpus_metrics(first)
    events = [e["event"]
              for e in iter_events(os.path.join(run_dir, "journal.jsonl"))]
    assert events.count("run_start") == 2
    assert events.count("cached") == manifest.shard_count


def test_resume_reruns_a_missing_shard(tmp_path):
    manifest = _manifest(tmp_path)
    run_dir = str(tmp_path / "run")
    farm = StreamFarm(manifest, workers=1, run_dir=run_dir)
    farm.run()
    results_dir = os.path.join(run_dir, "results")
    victim = sorted(os.listdir(results_dir))[0]
    os.unlink(os.path.join(results_dir, victim))
    resumed = StreamFarm(manifest, workers=1, run_dir=run_dir,
                         resume=True).run()
    assert resumed.jobs == len(manifest)
    assert resumed.cached_jobs == len(manifest) - manifest.shards[0].jobs


def test_rows_stream_from_the_spool(tmp_path):
    manifest = _manifest(tmp_path)
    run_dir = str(tmp_path / "run")
    report = StreamFarm(manifest, workers=1, run_dir=run_dir).run()
    assert report.streamed
    assert report.results == []
    assert report.rows_path is not None
    rows = list(report.rows())
    assert len(rows) == len(manifest)
    assert {row["kind"] for row in rows} == {"corpus"}
    assert {row["status"] for row in rows} == {"ok"}
    # The artifact payload points at the spool instead of inlining rows.
    payload = report.to_dict()
    assert payload["rows"] is None
    assert payload["rows_path"] == report.rows_path
    write_farm_artifacts(report, str(tmp_path / "artifacts"))
    with open(tmp_path / "artifacts" / "farm.json") as handle:
        assert json.load(handle)["jobs"] == len(manifest)


def test_render_caps_the_row_table(tmp_path):
    manifest = _manifest(tmp_path, chunk=2, shard_size=16)
    assert len(manifest) > 48
    report = StreamFarm(manifest, workers=1,
                        run_dir=str(tmp_path / "run")).run()
    text = render_farm_report(report)
    assert "more jobs" in text
    assert f"jobs:    {len(manifest)}" in text


def test_merge_fold_matches_materialized_merge():
    def result(index, status="ok"):
        return {"job": {"id": f"corpus:{index}", "kind": "corpus"},
                "status": status, "cached": False,
                "metrics": {"corpus.records": 10, "corpus.type1": index,
                            "queue.depth": index},
                "metrics_gauges": ["queue.depth"],
                "leaks": [], "degraded_events": 0,
                "elapsed_seconds": 0.01}

    results = [result(i) for i in range(20)]
    results.append({**result(20), "status": "crashed",
                    "tombstone": {"error_type": "X", "error_message": "y"}})

    materialized = merge_results(results, workers=2, wall_seconds=1.0)
    fold = MergeFold()
    for row in results:
        fold.add(row)
    streamed = fold.finish(workers=2, wall_seconds=1.0)

    assert streamed.merged_metrics == materialized.merged_metrics
    assert streamed.outcomes == materialized.outcomes
    assert streamed.jobs == materialized.jobs
    assert streamed.completed == materialized.completed
    assert streamed.tombstones == materialized.tombstones
    # Gauges folded by max, counters by sum — incrementally.
    assert streamed.merged_metrics["queue.depth"] == 20
    assert streamed.merged_metrics["corpus.records"] == 210


# -- faults: a shard is a pool unit under the per-job fault policy ------------


class Injector:
    """Minimal chaos stand-in: molest chosen shards on chosen attempts."""

    def __init__(self, kill=(), stop=(), truncate=()):
        self.kill = set(kill)          # (digest, attempt) or (digest, None)
        self.stop = set(stop)
        self.truncate = set(truncate)
        self.injected = []

    @staticmethod
    def _match(table, handle):
        return (handle.digest, handle.attempt) in table or \
            (handle.digest, None) in table

    def on_spawn(self, handle):
        if self._match(self.kill, handle):
            os.kill(handle.pid, signal.SIGKILL)
            self.injected.append(("kill", handle.attempt))
        elif self._match(self.stop, handle):
            os.kill(handle.pid, signal.SIGSTOP)
            self.injected.append(("stop", handle.attempt))

    def on_commit(self, handle, path):
        if self._match(self.truncate, handle):
            size = os.path.getsize(path)
            with open(path, "r+b") as fh:
                fh.truncate(size // 2)
            self.injected.append(("truncate", handle.attempt))


def _events(run_dir):
    return list(iter_events(os.path.join(run_dir, "journal.jsonl")))


def _last_segment(run_dir):
    events = _events(run_dir)
    starts = [i for i, e in enumerate(events) if e["event"] == "run_start"]
    return events[starts[-1]:]


@pytest.fixture
def corpus(tmp_path):
    manifest = _manifest(tmp_path)
    serial = StreamFarm(manifest, workers=1).run()
    return manifest, _corpus_metrics(serial)


def test_killed_shard_worker_is_struck_and_retried(tmp_path, corpus):
    manifest, serial = corpus
    target = manifest.shards[0].digest
    injector = Injector(kill=[(target, 1)])
    run_dir = str(tmp_path / "run")
    farm = StreamFarm(manifest, workers=2, chaos=injector, run_dir=run_dir)
    report = farm.run()
    assert injector.injected == [("kill", 1)]
    assert report.outcomes == {"ok": len(manifest)}
    assert _corpus_metrics(report) == serial
    assert farm.health.worker_deaths == 1
    assert farm.health.retries == 1
    kinds = [e["event"] for e in _events(run_dir)]
    assert kinds.count("strike") == 1 and kinds.count("retry") == 1
    assert verify_journal(os.path.join(run_dir, "journal.jsonl")) == []


def test_stopped_shard_worker_is_reclaimed_by_the_pool(tmp_path, corpus):
    manifest, serial = corpus
    target = manifest.shards[1].digest
    run_dir = str(tmp_path / "run")
    farm = StreamFarm(manifest, workers=2, run_dir=run_dir,
                      chaos=Injector(stop=[(target, 1)]),
                      heartbeat_interval=0.02)
    report = farm.run()
    assert report.outcomes == {"ok": len(manifest)}
    assert _corpus_metrics(report) == serial
    assert farm.health.hung_workers == 1
    assert farm.health.workers_reclaimed == 1
    # The retry ran in a fresh forked worker, never inline in the parent.
    dispatched = [e for e in _events(run_dir)
                  if e["event"] == "dispatched" and e["digest"] == target]
    assert [e["attempt"] for e in dispatched] == [1, 2]
    assert os.getpid() not in {e["pid"] for e in dispatched}
    assert all(row["worker_pid"] != os.getpid()
               for row in _committed_rows(run_dir))


def test_always_killed_shard_is_poison_and_resume_replays_it(tmp_path):
    manifest = _manifest(tmp_path)
    shard = manifest.shards[0]
    run_dir = str(tmp_path / "run")
    farm = StreamFarm(manifest, workers=2, run_dir=run_dir,
                      chaos=Injector(kill=[(shard.digest, None)]),
                      max_retries=5, poison_threshold=3)
    report = farm.run()
    assert report.outcomes[STATUS_POISON] == shard.jobs
    assert report.outcomes["ok"] == len(manifest) - shard.jobs
    assert farm.health.poison_quarantined == 1
    assert len(report.tombstones) == shard.jobs
    for __, tombstone in report.tombstones:
        assert tombstone["error_type"] == "PoisonJob"
        assert shard.name in tombstone["error_message"]
        assert tombstone["strike_reasons"] == ["worker died (signal 9)"] * 3

    resumed = StreamFarm(manifest, workers=2, run_dir=run_dir, resume=True,
                         chaos=Injector(kill=[(shard.digest, None)])).run()
    assert resumed.cached_jobs == len(manifest)
    assert resumed.outcomes == report.outcomes
    assert not [e for e in _last_segment(run_dir)
                if e["event"] == "dispatched"]
    assert verify_journal(os.path.join(run_dir, "journal.jsonl")) == []


def test_exhausted_shard_is_lost_uncommitted_and_resume_reruns_it(tmp_path,
                                                                  corpus):
    manifest, serial = corpus
    shard = manifest.shards[2]
    run_dir = str(tmp_path / "run")
    farm = StreamFarm(manifest, workers=2, run_dir=run_dir,
                      chaos=Injector(kill=[(shard.digest, None)]),
                      max_retries=1, poison_threshold=5)
    report = farm.run()
    assert report.outcomes[STATUS_LOST] == shard.jobs
    assert farm.health.lost_jobs == 1
    assert len(list(_committed_rows(run_dir))) == len(manifest) - shard.jobs

    resumed = StreamFarm(manifest, workers=2, run_dir=run_dir,
                         resume=True).run()
    assert resumed.cached_jobs == len(manifest) - shard.jobs
    assert resumed.outcomes == {"ok": len(manifest)}
    assert _corpus_metrics(resumed) == serial
    assert [e["digest"] for e in _last_segment(run_dir)
            if e["event"] == "dispatched"] == [shard.digest]


def test_truncated_shard_commit_is_a_torn_strike(tmp_path, corpus):
    manifest, serial = corpus
    target = manifest.shards[0].digest
    injector = Injector(truncate=[(target, 1)])
    farm = StreamFarm(manifest, workers=2, chaos=injector,
                      run_dir=str(tmp_path / "run"))
    report = farm.run()
    assert injector.injected == [("truncate", 1)]
    assert farm.health.torn_results == 1
    assert farm.health.retries == 1
    assert report.outcomes == {"ok": len(manifest)}
    assert _corpus_metrics(report) == serial


def test_overrunning_shard_is_deadline_killed(tmp_path, monkeypatch):
    # The shard heartbeats forever (busy, not hung): only the per-shard
    # wall-clock deadline can reclaim it.
    monkeypatch.setattr(worker_module, "execute_job",
                        lambda spec_dict, budget=None: time.sleep(30))
    manifest = _manifest(tmp_path, shard_size=64)
    farm = StreamFarm(manifest, workers=2, deadline=0.2, max_retries=0,
                      heartbeat_interval=0.02,
                      run_dir=str(tmp_path / "run"))
    report = farm.run()
    assert report.outcomes == {STATUS_LOST: len(manifest)}
    assert farm.health.deadline_kills == manifest.shard_count
    assert farm.health.hung_workers == 0


def test_sigterm_drains_shard_pool_without_leaking_forks(tmp_path,
                                                         monkeypatch):
    monkeypatch.setattr(worker_module, "execute_job",
                        lambda spec_dict, budget=None: time.sleep(30))
    manifest = _manifest(tmp_path)
    run_dir = str(tmp_path / "run")
    farm = StreamFarm(manifest, workers=2, run_dir=run_dir)
    previous_handler = signal.getsignal(signal.SIGTERM)
    timer = threading.Timer(0.4, os.kill, (os.getpid(), signal.SIGTERM))
    timer.start()
    try:
        with pytest.raises(FarmInterrupted) as excinfo:
            farm.run()
    finally:
        timer.cancel()
    assert sorted(excinfo.value.in_flight) == \
        [shard.name for shard in manifest.shards[:2]]
    events = _events(run_dir)
    assert [e["event"] for e in events].count("interrupted") == 2
    assert farm.health.interrupted_jobs == 2
    for event in events:
        if event["event"] == "dispatched":
            with pytest.raises(ProcessLookupError):
                os.kill(event["pid"], 0)
    assert signal.getsignal(signal.SIGTERM) == previous_handler


# -- the CLI: one farm command for both manifest shapes -----------------------


def test_cli_sharded_run_honours_fault_and_trace_flags(tmp_path, capsys,
                                                      monkeypatch):
    import repro.farm

    consoles = []

    class Console:
        def __init__(self, run_dir, trace_dir=None):
            consoles.append([run_dir, trace_dir])

        def start(self):
            consoles[-1].append("start")

        def stop(self):
            consoles[-1].append("stop")

    monkeypatch.setattr(repro.farm, "FarmConsole", Console)
    manifest = _manifest(tmp_path)
    out, trace_dir = tmp_path / "out", tmp_path / "trace"
    code = main(["farm", manifest.directory, "-j", "2", "--out", str(out),
                 "--deadline", "30", "--max-retries", "1",
                 "--trace-dir", str(trace_dir), "--watch"])
    assert code == 0
    assert f"outcomes: ok={len(manifest)}" in capsys.readouterr().out
    assert consoles == [[str(out / "runstate"), str(trace_dir),
                         "start", "stop"]]
    assert (trace_dir / "trace.json").exists()
    with open(out / "farm.json") as handle:
        farm = json.load(handle)
    assert farm["health"]["workers_reclaimed"] == 0
    events = _events(str(out / "runstate"))
    assert [e["event"] for e in events].count("dispatched") == \
        manifest.shard_count


@pytest.mark.parametrize("flag", ["--chaos", "--chaos-inject"])
def test_cli_rejects_chaos_for_a_sharded_manifest(tmp_path, capsys, flag):
    manifest = _manifest(tmp_path)
    code = main(["farm", manifest.directory, "-j", "2", flag, "7",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "sharded manifest" in capsys.readouterr().err
    assert not (tmp_path / "out" / "runstate").exists()
