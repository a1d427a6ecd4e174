"""The sharded streaming farm end to end, under the pool's fault policy
and tracing, and the scaling-curve benchmark with its schema check."""

import json
import os

import pytest

from repro.bench.farm_bench import (BENCH_SCHEMA_VERSION,
                                    SCALING_WORKER_COUNTS)
from repro.corpus.generator import CorpusGenerator

pytestmark = pytest.mark.smoke

SCALE = 0.02


@pytest.fixture(scope="module")
def manifest(cli, tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus") / "manifest"
    code, text = cli("shard", directory, "--scale", SCALE, "--chunk", 16,
                     "--shard-size", 64)
    assert code == 0
    assert "jobs across" in text
    return directory


def test_streamed_rows_and_merged_counters_are_complete(cli, manifest,
                                                        tmp_path):
    out = tmp_path / "repro-stream"
    code, text = cli("farm", manifest, "-j", 2, "--out", out)
    assert code == 0
    assert "== farm ==" in text
    assert "workers: 2" in text
    farm = json.loads((out / "farm.json").read_text())
    assert farm["outcomes"] == {"ok": farm["jobs"]}
    plan = CorpusGenerator(seed=2014, scale=SCALE).plan
    merged = farm["merged_metrics"]
    assert merged["corpus.records"] == plan.total
    assert merged["corpus.type1"] == plan.type1
    # Rows stream from a spool, never inline at scale.
    assert farm["rows"] is None and farm["rows_path"]
    with open(farm["rows_path"]) as handle:
        spooled = sum(1 for line in handle if line.strip())
    assert spooled == farm["jobs"]


def test_sharded_run_under_fault_policy_and_tracing(cli, manifest,
                                                    tmp_path):
    out, trace = tmp_path / "repro-stream-faults", tmp_path / "trace"
    code, text = cli("farm", manifest, "-j", 2, "--deadline", 30,
                     "--max-retries", 1, "--trace-dir", trace,
                     "--out", out)
    assert code == 0
    assert f"wrote {trace}/trace.json" in text
    farm = json.loads((out / "farm.json").read_text())
    assert farm["outcomes"] == {"ok": farm["jobs"]}
    health = farm["health"]
    assert "workers_reclaimed" in health and "retries" in health
    assert os.path.getsize(trace / "trace.json") > 0
    journal = out / "runstate" / "journal.jsonl"
    events = [json.loads(line)["event"]
              for line in journal.read_text().splitlines()]
    assert "shard_reclaimed" not in events
    assert events.count("dispatched") == events.count("done") > 0


def test_scaling_curve_schema_and_parallel_gate(cli, tmp_path):
    fresh = tmp_path / "BENCH_farm.fresh.json"
    code, text = cli("bench", "--farm", "--scaling", "--scaling-jobs", 2000,
                     "--json", fresh)
    assert code == 0
    assert "scaling curve:" in text
    assert "marginals vs plan: exact" in text
    results = json.loads(fresh.read_text())
    assert results["schema"] == BENCH_SCHEMA_VERSION
    scaling = results["scaling"]
    workers = [point["workers"] for point in scaling["curve"]]
    assert workers == list(SCALING_WORKER_COUNTS)
    for point in scaling["curve"]:
        assert point["parity_with_serial"], point
        assert point["jobs_per_second"] > 0, point
    assert scaling["marginals"]["exact"], scaling["marginals"]
    if (os.cpu_count() or 1) > 1:
        # Parallel must beat serial on a multi-core host.
        assert scaling["parallel_beats_serial"] is True
    else:
        assert scaling["parallel_beats_serial"] is None
