"""Differential parity: cold boot vs warm reset.

The acceptance bar for the warm-worker farm: across every built-in
scenario, both execution modes must be *engine-identical* — the same
leak rows, the same work counters (native/Dalvik instruction counts,
host calls, syscalls, GC cycles), and the same detection verdict.  A
warm reset that perturbs any of these is a correctness bug, not a
performance trade.
"""

import pytest

from repro.apps import ALL_SCENARIOS
from repro.apps.base import run_scenario
from repro.bench.harness import make_platform

SCENARIOS = sorted(ALL_SCENARIOS)


def observe(platform, scenario):
    records = platform.leaks.records
    if scenario.expected_taint:
        detected = any(r.taint & scenario.expected_taint for r in records)
    else:
        detected = bool(records)
    return {
        "leaks": [(r.detector, r.sink, r.taint, r.destination,
                   r.payload.hex(), r.context) for r in records],
        "counters": platform.work_counters(),
        "detected": detected,
    }


@pytest.fixture(scope="module")
def cold_baseline():
    baseline = {}
    for name in SCENARIOS:
        scenario = ALL_SCENARIOS[name]()
        platform = make_platform("ndroid")
        run_scenario(scenario, platform)
        baseline[name] = observe(platform, scenario)
    return baseline


@pytest.fixture(scope="module")
def warm_template():
    platform = make_platform("ndroid")
    platform.prepare_template()
    return platform


@pytest.mark.parametrize("name", SCENARIOS)
def test_warm_reset_matches_cold(name, cold_baseline, warm_template):
    warm_template.reset_for_job()
    scenario = ALL_SCENARIOS[name]()
    run_scenario(scenario, warm_template)
    assert observe(warm_template, scenario) == cold_baseline[name]


def test_warm_then_cold_interleaved(cold_baseline, warm_template):
    """Mode order can't matter: alternate modes over the same scenarios."""
    for name in SCENARIOS[:4]:
        scenario = ALL_SCENARIOS[name]()
        warm_template.reset_for_job()
        run_scenario(scenario, warm_template)
        assert observe(warm_template, scenario) == cold_baseline[name]

        scenario = ALL_SCENARIOS[name]()
        platform = make_platform("ndroid")
        run_scenario(scenario, platform)
        assert observe(platform, scenario) == cold_baseline[name]
