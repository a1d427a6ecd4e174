"""The benchmark's own tests (tiny sizes; about a minute in all).

    python3 -m pytest farmbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import probes  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def _run(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=170)


def _bench(workload: str, trace: int):
    done = _run(os.path.join(BENCH, "run.py"), "--workload", workload,
                "--seed", "5", "--seconds", "0", "--size", "tiny",
                "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def _batch(tmp_path, workload: str, trace: int, *extra) -> dict:
    done = _run(os.path.join(BENCH, "batch.py"), "--workload", workload,
                "--seed", "5", "--size", "tiny", "--trace", str(trace),
                "--work", str(tmp_path / "work"), *extra)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _printed(lines, name: str, unit: str) -> bool:
    return any(line.split()[:1] == [name] and line.split()[2] == unit
               for line in lines[:-1] if len(line.split()) >= 3)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload):
    lines, result = _bench(workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert _printed(lines, entry["name"], entry["unit"]), entry["name"]
    assert set(result["metrics"]) == {e["name"] for e in SPEC["per_layer"]}
    for entry in SPEC["per_layer"]:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]


def test_untraced_run_reports_every_end_to_end_metric():
    lines, result = _bench("apps_warm", trace=0)
    assert result["correct"]
    assert set(result["metrics"]) == {e["name"] for e in SPEC["end_to_end"]}
    for entry in SPEC["end_to_end"]:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"] and metric["value"] > 0
    assert any(line.split()[:1] == ["failed_share"] for line in lines)


def test_flipped_reference_verdict_counts_as_failed(tmp_path):
    with open(os.path.join(BENCH, "reference.json")) as handle:
        reference = json.load(handle)
    benign = reference["targets"]["scenario:benign"]
    assert benign["detected"] is False
    benign["detected"] = True
    flipped = tmp_path / "flipped.json"
    flipped.write_text(json.dumps(reference))
    result = _batch(tmp_path, "apps_cold", 0, "--reference", str(flipped))
    assert result["failed"] >= 1
    assert result["failed"] / result["attempted"] > 0
    assert any("scenario:benign" in failure for failure in result["failures"])


@pytest.mark.parametrize("workload", ["apps_cold", "apps_warm"])
def test_layers_plus_unattributed_add_up_to_execute_job(tmp_path, workload):
    result = _batch(tmp_path, workload, 1)
    assert result["failed"] == 0
    layers, book = result["layers"], result["ledger"]
    jobs = result["attempted"]
    assert book["jobs"] == jobs
    attributed = 0.0
    for name, self_us in book["job_self_us"].items():
        if name in probes.UNATTRIBUTED:
            continue
        metric = {"farm.shard": "farm.commit_ms"}.get(name, f"{name}_ms")
        assert metric in layers, f"{name} has no per-layer metric"
        attributed += self_us
    unattributed_us = layers["worker.unattributed_ms"] * 1000.0 * jobs
    assert attributed + unattributed_us == pytest.approx(book["job_us"],
                                                         rel=1e-9)
    assert layers["worker.job_ms"] * 1000.0 * jobs == pytest.approx(
        book["job_us"], rel=1e-9)
    assert 0 < layers["worker.unattributed_ms"] < layers["worker.job_ms"]


def test_self_time_subtracts_nested_engine_spans():
    # Engine spans arrive on completion, after the spans they nest in
    # began; nesting is by interval, not by arrival order.
    spans = [("emulator.translate", 12.0, 14.0),
             ("jni.crossing", 11.0, 18.0),
             ("emulator.run", 10.0, 20.0),
             ("worker.job", 0.0, 30.0),
             ("farm.commit", 31.0, 33.0)]
    self_us = {name: (value, in_job)
               for name, value, in_job in probes.self_times(spans)}
    assert self_us["emulator.translate"] == (2.0, True)
    assert self_us["jni.crossing"] == (5.0, True)
    assert self_us["emulator.run"] == (3.0, True)
    assert self_us["worker.job"] == (20.0, True)
    assert self_us["farm.commit"] == (2.0, False)


def _cli_modules(tmp_path, manifest: str) -> set:
    """Modules loaded when ``repro farm`` starts its scheduler."""
    script = (
        "import json, sys\n"
        "from repro.farm import scheduler\n"
        "def stop(self, *args, **kwargs):\n"
        "    print(json.dumps(sorted(sys.modules)))\n"
        "    raise SystemExit(0)\n"
        "scheduler.FarmScheduler.run = stop\n"
        "scheduler.StreamFarm.run = stop\n"
        "from repro.cli import main\n"
        f"main(['farm', {manifest!r}, '-j', '2', '--out', "
        f"{str(tmp_path / 'out')!r}])\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          text=True, stdout=subprocess.PIPE, timeout=120)
    assert done.returncode == 0
    return set(json.loads(done.stdout.strip().splitlines()[-1]))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_batch_imports_no_more_than_the_cli(tmp_path, workload):
    # A module the batch imports early is one the forked workers no
    # longer import themselves: a different program from the CLI's.
    if workload == "corpus_stream":
        shards = str(tmp_path / "shards")
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        subprocess.run([sys.executable, "-m", "repro", "shard", shards,
                        "--scale", "0.005"], cwd=ROOT, env=env, check=True,
                       stdout=subprocess.PIPE, timeout=120)
        cli = _cli_modules(tmp_path, shards)
    else:
        cli = _cli_modules(tmp_path, "builtin")
    modules = set(_batch(tmp_path, workload, 0)["modules"])
    extra = modules - cli - {"probes", "workloads"}
    assert not extra, sorted(extra)
