"""The committed benchmark baselines pass their own gates.

Reads ``BENCH_farm.json`` and ``BENCH_emulator.json`` only and times
nothing: a baseline regenerated on a host where a gate failed, or left
behind by a schema bump, fails here.
"""

import json
import os

import pytest

from repro.bench.emulator_bench import (INSTRUMENTED_SPEEDUP_FLOOR,
                                        INSTRUMENTED_WORKLOADS,
                                        JNI_CROSSING_SPEEDUP_FLOOR,
                                        JNI_CROSSING_WORKLOAD)
from repro.bench.farm_bench import BENCH_SCHEMA_VERSION, WARM_SPEEDUP_GATE

ROOT = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)


def load(name):
    with open(os.path.join(ROOT, name)) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def farm():
    return load("BENCH_farm.json")


@pytest.fixture(scope="module")
def emulator():
    return load("BENCH_emulator.json")


class TestFarmBaseline:
    def test_schema_is_current(self, farm):
        assert farm["schema"] == BENCH_SCHEMA_VERSION

    def test_warm_gate_passed(self, farm):
        warm = farm["warm"]
        assert warm["gate"]["threshold"] == WARM_SPEEDUP_GATE
        assert warm["gate"]["passed"]
        assert warm["speedup_warm_vs_cold"] >= WARM_SPEEDUP_GATE

    def test_parity_identical(self, farm):
        assert farm["parity"]["identical"]
        assert farm["warm"]["parity"]["identical"]

    def test_scaling_marginals_exact(self, farm):
        marginals = farm["scaling"]["marginals"]
        assert marginals["exact"]
        assert marginals["measured"] == marginals["planned"]


class TestEmulatorBaseline:
    @pytest.mark.parametrize("name", INSTRUMENTED_WORKLOADS)
    def test_instrumented_workload_clears_its_floor(self, emulator, name):
        assert emulator["workloads"][name]["speedup"] >= \
            INSTRUMENTED_SPEEDUP_FLOOR

    def test_jni_crossing_clears_its_floor(self, emulator):
        assert emulator["workloads"][JNI_CROSSING_WORKLOAD]["speedup"] >= \
            JNI_CROSSING_SPEEDUP_FLOOR
