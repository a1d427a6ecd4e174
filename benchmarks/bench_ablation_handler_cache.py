"""Ablation — the instruction tracer's hot-handler cache (Section V.C).

"To speed up the identification of the instruction type and the search of
the handler, NDroid caches hot instructions and the corresponding
handlers."  The ablated tracer re-selects the handler for every traced
instruction.
"""

import time

import pytest

from repro.bench.cfbench import CFBench
from repro.core import NDroid
from repro.framework import AndroidPlatform


def make_platform(use_handler_cache):
    platform = AndroidPlatform()
    NDroid.attach(platform, use_handler_cache=use_handler_cache)
    return platform


@pytest.mark.parametrize("cache", [True, False],
                         ids=["hot-cache", "no-cache"])
def test_benchmark_handler_cache(benchmark, cache):
    platform = make_platform(cache)
    bench = CFBench(platform, iterations=400)

    def run():
        bench.run_workload("native_mips")

    benchmark.pedantic(run, rounds=3, iterations=1)
    tracer = platform.ndroid.instruction_tracer
    assert tracer.traced_instructions > 0
    if cache:
        assert tracer.cache_hits > 0
    else:
        assert tracer.cache_hits == 0


def test_cache_hit_rate_on_hot_loop():
    platform = make_platform(True)
    bench = CFBench(platform, iterations=500)
    bench.run_workload("native_mips")
    tracer = platform.ndroid.instruction_tracer
    hit_rate = tracer.cache_hits / max(tracer.traced_instructions, 1)
    print(f"\nhot-loop handler cache hit rate: {hit_rate:.1%}")
    assert hit_rate > 0.95
