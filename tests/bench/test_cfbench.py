"""CF-Bench suite and overhead-harness tests."""

import json
import os
import subprocess
import sys

import pytest

from repro.bench.cfbench import (
    JAVA_WORKLOADS,
    NATIVE_WORKLOADS,
    WORKLOADS,
    CFBench,
    WorkloadResult,
    geometric_mean,
)
from repro.bench.harness import OverheadHarness, make_platform


class TestWorkloads:
    @pytest.fixture(scope="class")
    def bench(self):
        platform = make_platform("vanilla")
        return CFBench(platform, iterations=60)

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_workload_runs_and_times(self, bench, name):
        result = bench.run_workload(name)
        assert result.elapsed_seconds > 0
        assert result.iterations == 60
        assert result.score > 0

    def test_unknown_workload_rejected(self, bench):
        with pytest.raises(KeyError):
            bench.run_workload("native_gpu")

    def test_native_workloads_execute_arm_instructions(self, bench):
        before = bench.platform.emu.instruction_count
        bench.run_workload("native_mips", iterations=100)
        assert bench.platform.emu.instruction_count - before >= 600

    def test_java_workloads_execute_dalvik_instructions(self, bench):
        before = bench.platform.vm.dalvik_instructions
        bench.run_workload("java_mips", iterations=100)
        assert bench.platform.vm.dalvik_instructions - before >= 500

    def test_disk_workloads_touch_filesystem(self, bench):
        bench.run_workload("native_disk_write", iterations=10)
        file = bench.platform.kernel.filesystem.lookup("/sdcard/bench.dat")
        assert file.size > 0

    def test_iterations_scale_work(self, bench):
        small = bench.run_workload("native_mips", iterations=50)
        big = bench.run_workload("native_mips", iterations=500)
        assert big.elapsed_seconds > small.elapsed_seconds

    def test_workload_partition(self):
        assert set(NATIVE_WORKLOADS) | set(JAVA_WORKLOADS) == set(WORKLOADS)
        assert not set(NATIVE_WORKLOADS) & set(JAVA_WORKLOADS)


class TestGeometricMean:
    def test_basics(self):
        assert geometric_mean([4.0, 1.0]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([3.0]) == pytest.approx(3.0)


class TestOverheadHarness:
    def test_configs_construct(self):
        for config in ("vanilla", "taintdroid", "ndroid", "droidscope"):
            platform = make_platform(config)
            assert platform is not None
        with pytest.raises(ValueError):
            make_platform("nonsense")

    def test_overhead_ordering_matches_paper(self):
        """The Fig. 10 shape: vanilla < TaintDroid < NDroid < DroidScope.

        Absolute ratios are compressed because the substrate is a Python
        emulator rather than TCG-translated code, but the ordering and the
        native-vs-Java structure must hold.
        """
        harness = OverheadHarness(iterations=150, repeats=2)
        workloads = ["native_mips", "java_mips", "native_mallocs",
                     "java_memory_read"]
        baseline = harness.measure_config("vanilla", workloads)
        ndroid = harness.overhead_table("ndroid", baseline, workloads)
        droidscope = harness.overhead_table("droidscope", baseline,
                                            workloads)
        # NDroid costs more on native code than on Java code.
        assert ndroid.rows["native_mips"] > ndroid.rows["java_mips"] * 0.9
        # DroidScope's overall slowdown exceeds NDroid's.
        assert droidscope.overall > ndroid.overall
        # And its Java cost dwarfs NDroid's (no DVM cooperation).
        assert droidscope.rows["java_mips"] > ndroid.rows["java_mips"] * 1.5

    def test_table_formatting(self):
        harness = OverheadHarness(iterations=60)
        table = harness.overhead_table("ndroid",
                                       workloads=["native_mips",
                                                  "java_mips"])
        text = table.format()
        assert "NDroid" in text
        assert "native_mips" in text
        assert "Overall Score" in text


class TestHarnessImports:
    def test_harness_loads_no_other_bench_and_no_statistics(self):
        # Cold farm workers import the harness for make_platform on
        # every job; the package must not drag the other benches along.
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))), "src")
        script = ("import json, sys\n"
                  "import repro.bench.harness\n"
                  "print(json.dumps(sorted(sys.modules)))\n")
        done = subprocess.run([sys.executable, "-c", script],
                              env=dict(os.environ, PYTHONPATH=src),
                              stdout=subprocess.PIPE, text=True, timeout=120)
        assert done.returncode == 0
        modules = set(json.loads(done.stdout))
        assert "repro.bench.harness" in modules
        assert "statistics" not in modules
        assert "repro.bench.emulator_bench" not in modules
