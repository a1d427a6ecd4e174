"""The 2-worker farm over the builtin corpus, its resume, and
``repro bench --farm``'s parity and warm gates."""

import json

import pytest

from repro.bench.farm_bench import WARM_SPEEDUP_GATE

pytestmark = pytest.mark.smoke


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    return tmp_path_factory.mktemp("farm") / "repro-farm"


@pytest.fixture(scope="module")
def farm(cli, out):
    return cli("farm", "builtin", "-j", 2, "--out", out)


@pytest.fixture(scope="module")
def resumed(cli, out, farm):
    return cli("farm", "builtin", "-j", 2, "--resume", "--out", out)


def test_farm_renders_every_section(farm):
    code, text = farm
    assert code == 0
    for expected in ("== farm ==", "workers: 2", "scenario:ephone",
                     "market:com.market.ephone",
                     "softphone.comwave.net:5060", "== analysis work"):
        assert expected in text, expected


def test_every_job_completed_and_merged_artifacts_exist(farm, out):
    report = json.loads((out / "farm.json").read_text())
    assert report["outcomes"] == {"ok": report["jobs"]}
    assert report["jobs"] >= 4
    merged = json.loads((out / "merged" / "metrics.json").read_text())
    assert merged["core.sink_checks"] > 0


def test_resumed_run_replays_everything_from_cache(resumed, out):
    code, __ = resumed
    assert code == 0
    report = json.loads((out / "farm.json").read_text())
    assert report["cached_jobs"] == report["jobs"]


def test_bench_parity_and_warm_gate(cli, tmp_path):
    fresh = tmp_path / "BENCH_farm.fresh.json"
    code, __ = cli("bench", "--farm", "--workers", 4, "--json", fresh)
    assert code == 0
    results = json.loads(fresh.read_text())
    assert results["parity"]["identical"]
    warm = results["warm"]
    assert warm["gate"]["threshold"] == WARM_SPEEDUP_GATE
    assert warm["gate"]["passed"]
    assert warm["speedup_warm_vs_cold"] >= WARM_SPEEDUP_GATE
    assert warm["parity"]["identical"]
