"""Emulator benchmark gates: ``repro bench --emulator`` against the
committed baseline, then every floor the bench declares."""

import json

import pytest

from repro.bench.emulator_bench import (INSTRUMENTED_SPEEDUP_FLOOR,
                                        INSTRUMENTED_WORKLOADS,
                                        JNI_CROSSING_SPEEDUP_FLOOR,
                                        JNI_CROSSING_WORKLOAD)

pytestmark = pytest.mark.smoke


@pytest.fixture(scope="module")
def bench(cli, tmp_path_factory, pytestconfig):
    fresh = tmp_path_factory.mktemp("bench") / "BENCH_emulator.fresh.json"
    code, __ = cli("bench", "--emulator", "--json", fresh,
                   "--baseline", pytestconfig.rootpath / "BENCH_emulator.json")
    return code, json.loads(fresh.read_text())


def test_no_regression_against_the_committed_baseline(bench):
    code, __ = bench
    assert code == 0


def test_instrumented_tb_keeps_its_floor(bench):
    __, results = bench
    for name in INSTRUMENTED_WORKLOADS:
        speedup = results["workloads"][name]["speedup"]
        assert speedup >= INSTRUMENTED_SPEEDUP_FLOOR, name


def test_jni_crossing_keeps_its_floor(bench):
    __, results = bench
    row = results["workloads"][JNI_CROSSING_WORKLOAD]
    assert row["speedup"] >= JNI_CROSSING_SPEEDUP_FLOOR


def test_disabled_observability_stays_under_its_limit(bench):
    __, results = bench
    obs = results["observability"]
    assert obs["cfbench_disabled_overhead"] <= obs["limit"]
    # The span layer's disabled is-not-None guards ride inside the
    # measured loop, so the same ceiling covers them.
    assert obs.get("span_layer_included") is True
