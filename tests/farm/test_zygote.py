"""Zygote-style forks: the pool parent imports each job kind's modules
once, after its first spawn pass, so later forks inherit them loaded."""

import json
import os
import subprocess
import sys

from repro.farm import worker as worker_module
from repro.farm.health import WorkerPool
from repro.farm.manifest import (
    JobSpec,
    Manifest,
    ShardedManifest,
    iter_corpus_jobs,
)
from repro.farm.scheduler import FarmScheduler, StreamFarm

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")

# Runs in a fresh interpreter: the pytest process has imported far more
# than a farm parent ever would.
CHILD_IMPORTS = """
import json, os, sys
import repro.cli
from repro.farm import worker
from repro.farm.manifest import JobSpec

worker.preload("scenario")
worker.preload("market")
specs = [JobSpec(id="scenario:case2", kind="scenario", target="case2"),
         JobSpec(id="market:com.market.ephone", kind="market",
                 target="com.market.ephone", events=12)]
pid = os.fork()
if pid == 0:
    code = 1
    try:
        before = set(sys.modules)
        statuses = [worker.execute_job(spec.to_dict())["status"]
                    for spec in specs]
        with open(sys.argv[1], "w") as handle:
            json.dump({"statuses": statuses,
                       "new": sorted(set(sys.modules) - before),
                       "statistics": "statistics" in sys.modules}, handle)
        code = 0
    finally:
        os._exit(code)
__, status = os.waitpid(pid, 0)
sys.exit(os.waitstatus_to_exitcode(status))
"""


def test_preloaded_child_imports_no_repro_module(tmp_path):
    out = tmp_path / "child.json"
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", CHILD_IMPORTS, str(out)],
                          env=env, stderr=subprocess.PIPE, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    child = json.loads(out.read_text())
    assert child["statuses"] == ["ok", "ok"]
    assert [name for name in child["new"] if name.startswith("repro")] == []
    assert child["statistics"] is False


def _record_order(monkeypatch):
    """Log every spawn (with its unit's kind) and every preload, in order."""
    events = []
    spawn = WorkerPool.spawn
    preload = worker_module.preload

    def recording_spawn(self, spec_dict, *args, **kwargs):
        events.append(("spawn", spec_dict.get("kind", "shard")))
        return spawn(self, spec_dict, *args, **kwargs)

    def recording_preload(kind):
        events.append(("preload", kind))
        preload(kind)

    monkeypatch.setattr(WorkerPool, "spawn", recording_spawn)
    monkeypatch.setattr(worker_module, "preload", recording_preload)
    return events


def _check_order(events, kinds):
    assert events[0][0] == "spawn"
    preloads = [kind for event, kind in events if event == "preload"]
    assert sorted(preloads) == sorted(kinds)     # each kind exactly once
    for kind in kinds:
        first_preload = events.index(("preload", kind))
        spawned_before = [k for event, k in events[:first_preload]
                          if event == "spawn"]
        # A kind is imported only once a unit of it is already running.
        assert kind in spawned_before or "shard" in spawned_before


def test_pool_preloads_each_kind_once_after_its_first_spawn(tmp_path,
                                                            monkeypatch):
    events = _record_order(monkeypatch)
    jobs = [JobSpec(id=f"scenario:{name}", kind="scenario", target=name)
            for name in ("benign", "case1", "case2")]
    jobs += [JobSpec(id=f"market:{package}", kind="market", target=package,
                     events=4)
             for package in ("com.market.dialer", "com.market.phoneinfo",
                             "com.market.ephone")]
    results = FarmScheduler(Manifest(jobs=jobs), workers=2,
                            run_dir=str(tmp_path / "run")).run()
    assert [row["status"] for row in results] == ["ok"] * len(jobs)
    assert [event for event, __ in events].count("spawn") == len(jobs)
    _check_order(events, ["scenario", "market"])


def test_stream_farm_preloads_from_the_first_spec_of_a_shard(tmp_path,
                                                             monkeypatch):
    manifest = ShardedManifest.write(
        str(tmp_path / "manifest"),
        iter_corpus_jobs(scale=0.004, seed=2014, chunk=16), shard_size=4)
    assert manifest.shard_count >= 3
    events = _record_order(monkeypatch)
    report = StreamFarm(manifest, workers=2,
                        run_dir=str(tmp_path / "run")).run()
    assert report.outcomes == {"ok": len(manifest)}
    _check_order(events, ["corpus"])

