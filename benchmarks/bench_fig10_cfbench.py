"""Fig. 10 — CF-Bench overhead under each configuration.

The paper reports NDroid at 5.45±0.41× average slowdown on CF-Bench vs a
vanilla emulator, against DroidScope's ≥11×, with the cost concentrated
on native-side workloads while Java-side workloads stay near 1×
(TaintDroid's DVM tracking is reused, not re-instrumented).

Absolute ratios here are compressed — the substrate is a Python
interpreter rather than TCG-translated code, so the instrumented and
uninstrumented paths are closer in speed — but the *shape* assertions
below encode the paper's qualitative result:

* ordering: vanilla < TaintDroid < NDroid < DroidScope-sim (overall);
* NDroid's native slowdown exceeds its Java slowdown;
* DroidScope's Java slowdown dwarfs NDroid's.
"""

import pytest

from repro.bench.cfbench import CFBench, WORKLOADS
from repro.bench.harness import CONFIGS, OverheadHarness, make_platform

ITERATIONS = 200


@pytest.fixture(scope="module")
def overhead_tables():
    harness = OverheadHarness(iterations=ITERATIONS, repeats=2)
    return harness.compare_all()


def test_fig10_shape(overhead_tables):
    ndroid = overhead_tables["ndroid"]
    taintdroid = overhead_tables["taintdroid"]
    droidscope = overhead_tables["droidscope"]
    print()
    for table in (taintdroid, ndroid, droidscope):
        print(table.format())
        print()
    # Ordering of overall slowdowns.
    assert taintdroid.overall < ndroid.overall < droidscope.overall
    # NDroid: native cost dominates, Java stays close to TaintDroid's.
    assert ndroid.native_score > ndroid.java_score
    assert ndroid.java_score < taintdroid.java_score * 1.6
    # DroidScope pays heavily for Java (instruction-level DVM
    # reconstruction) — NDroid does not.
    assert droidscope.java_score > ndroid.java_score * 1.5


@pytest.mark.parametrize("config", ["vanilla", "ndroid", "droidscope"])
def test_benchmark_native_mips(benchmark, config):
    platform = make_platform(config)
    bench = CFBench(platform, iterations=ITERATIONS)

    def run():
        bench.run_workload("native_mips")

    benchmark.pedantic(run, rounds=3, iterations=1)


@pytest.mark.parametrize("config", ["vanilla", "ndroid", "droidscope"])
def test_benchmark_java_mips(benchmark, config):
    platform = make_platform(config)
    bench = CFBench(platform, iterations=ITERATIONS)

    def run():
        bench.run_workload("java_mips")

    benchmark.pedantic(run, rounds=3, iterations=1)


@pytest.mark.parametrize("config", ["vanilla", "ndroid"])
def test_benchmark_native_mallocs(benchmark, config):
    platform = make_platform(config)
    bench = CFBench(platform, iterations=ITERATIONS)

    def run():
        bench.run_workload("native_mallocs")

    benchmark.pedantic(run, rounds=3, iterations=1)
