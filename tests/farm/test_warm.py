"""Warm workers: template reset, resident eviction, fork isolation.

Pins the warm-fork contract end to end:

* ``Platform.reset_for_job()`` returns a used template to a state that
  re-runs any job with engine-identical results while keeping the
  translation caches warm;
* the worker module reuses one booted template per config across jobs;
* a resident library whose name a later job ships with different code
  is evicted: none of the old code's translations survive, and the job
  runs exactly as it would cold;
* after a fork, self-modifying code invalidates the *child's* warm
  translation state without touching the template in the parent (the
  write-watcher re-registration in ``reset_for_job()``).
"""

import os

import pytest

from repro.apps import ALL_SCENARIOS
from repro.apps.base import run_scenario
from repro.bench.harness import make_platform
from repro.farm import worker as worker_module
from repro.farm.manifest import JobSpec


@pytest.fixture(autouse=True)
def cold_worker_defaults():
    """Every test starts — and leaves the process — in cold mode."""
    worker_module.configure_warm(False)
    yield
    worker_module.configure_warm(False)


def leak_rows(platform):
    return [(r.detector, r.sink, r.taint, r.destination, r.payload.hex(),
             r.context) for r in platform.leaks.records]


def wait_exit(pid: int) -> int:
    __, raw = os.waitpid(pid, 0)
    assert os.WIFEXITED(raw), f"child died abnormally (status {raw})"
    return os.WEXITSTATUS(raw)


class TestResetForJob:
    def test_requires_prepare_template(self):
        from repro.common.errors import DalvikError
        platform = make_platform("ndroid")
        with pytest.raises(DalvikError):
            platform.reset_for_job()

    def test_reset_is_engine_identical_to_cold(self):
        name = "qqphonebook"
        cold = make_platform("ndroid")
        run_scenario(ALL_SCENARIOS[name](), cold)
        expected = (leak_rows(cold), cold.work_counters())

        warm = make_platform("ndroid")
        warm.prepare_template()
        for __ in range(3):
            warm.reset_for_job()
            run_scenario(ALL_SCENARIOS[name](), warm)
            assert (leak_rows(warm), warm.work_counters()) == expected

    def test_reset_keeps_translation_caches_warm(self):
        platform = make_platform("ndroid")
        platform.prepare_template()
        platform.reset_for_job()
        run_scenario(ALL_SCENARIOS["case2"](), platform)
        warm_entries = len(platform.emu._decode_cache)
        assert warm_entries > 0
        platform.reset_for_job()
        # The resident library's decoded instructions survived the reset.
        assert len(platform.emu._decode_cache) >= warm_entries
        assert platform._resident_libraries

    def test_reset_clears_job_state(self):
        platform = make_platform("ndroid")
        platform.prepare_template()
        platform.reset_for_job()
        run_scenario(ALL_SCENARIOS["case2"](), platform)
        assert platform.leaks.records
        platform.reset_for_job()
        assert not platform.leaks.records
        assert platform.emu.instruction_count == 0
        assert platform.vm.interpreter.instructions_executed == 0
        assert platform.kernel.syscall_count == 0
        assert len(platform.event_log) == 0

    def test_crossing_histogram_counts_only_the_current_job(self):
        from repro.observability.spans import SpanTracer

        platform = make_platform("ndroid", trace=True)
        platform.observability.attach_spans(SpanTracer())
        histogram = platform.observability.metrics.histogram(
            "jni.crossing_us")
        platform.jni.crossing_histogram = histogram
        platform.prepare_template()
        for __ in range(2):
            platform.reset_for_job()
            assert histogram.count == 0
            run_scenario(ALL_SCENARIOS["case2"](), platform)
            jni = platform.jni
            crossings = jni.crossings_fast + jni.crossings_slow
            assert crossings > 0
            assert histogram.count == crossings


class TestWarmWorker:
    def spec(self, target: str) -> dict:
        return JobSpec(id=f"scenario:{target}", kind="scenario",
                       target=target).to_dict()

    def test_template_reused_across_jobs(self, tmp_path):
        worker_module.configure_warm(True)
        cold = worker_module.execute_job(self.spec("case2"))
        assert cold["status"] in ("ok", "degraded")

        template = worker_module.WARM["templates"]["ndroid"]
        second = worker_module.execute_job(self.spec("ephone"))
        assert second["status"] in ("ok", "degraded")
        assert worker_module.WARM["templates"]["ndroid"] is template

    def test_warm_results_match_cold(self):
        targets = ("case1", "case2", "benign")
        cold = {t: worker_module.execute_job(self.spec(t))
                for t in targets}
        worker_module.configure_warm(True)
        for target in targets:
            warm = worker_module.execute_job(self.spec(target))
            assert warm["leaks"] == cold[target]["leaks"]
            assert warm["detected"] == cold[target]["detected"]


def with_library_source(scenario, edit):
    """``scenario`` with its single native library's source rewritten."""
    (name, source), = scenario.apk.native_libraries.items()
    scenario.apk.native_libraries = {name: edit(source)}
    return scenario


def rewrite_case2(source: str) -> str:
    # Same library name, different code at the same offsets (one extra
    # instruction up front) and a different destination: a stale
    # translation of the old code would leak to the old host.
    rewritten = source.replace("push {r4, r5, r6, lr}",
                               "push {r4, r5, r6, lr}\n        mov r3, #7", 1)
    rewritten = rewritten.replace(".asciz \"case2.collect.",
                                  ".asciz \"case2.rewritten.")
    assert rewritten.count("mov r3, #7") == 1 and "rewritten" in rewritten
    return rewritten


class TestResidentEviction:
    def test_same_name_different_code_matches_cold(self):
        cold = make_platform("ndroid")
        replaced = with_library_source(ALL_SCENARIOS["case2"](),
                                       rewrite_case2)
        run_scenario(replaced, cold)
        expected = (leak_rows(cold), cold.work_counters())
        assert any("rewritten" in row[3] for row in expected[0])

        platform = make_platform("ndroid")
        platform.prepare_template()
        platform.reset_for_job()
        run_scenario(ALL_SCENARIOS["case2"](), platform)
        (name, (program, old_base, __)), = \
            platform._resident_libraries.items()
        old_end = old_base + len(program.code)
        old_pages = set(range(old_base >> 12, ((old_end - 1) >> 12) + 1))
        emu = platform.emu
        assert any(old_base <= address < old_end
                   for address, __ in emu._decode_cache)

        platform.reset_for_job()
        run_scenario(with_library_source(ALL_SCENARIOS["case2"](),
                                         rewrite_case2), platform)
        assert (leak_rows(platform), platform.work_counters()) == expected
        # The old code left nothing behind: no decoded instruction, no
        # translation block, no page index entry.
        assert platform._resident_libraries[name][1] != old_base
        assert not any(old_base <= address < old_end
                       for address, __ in emu._decode_cache)
        assert not old_pages & set(emu._decode_pages)
        assert not old_pages & set(emu._tb_cache.pages())


class TestForkIsolation:
    def test_smc_after_fork_invalidates_child_not_template(self):
        platform = make_platform("ndroid")
        platform.prepare_template()
        platform.reset_for_job()
        run_scenario(ALL_SCENARIOS["case2"](), platform)
        platform.reset_for_job()

        name, (program, base, __) = \
            next(iter(platform._resident_libraries.items()))
        emu = platform.emu
        page = base >> 12
        assert any(key in emu._decode_cache
                   for key in list(emu._decode_pages.get(page, ()))), \
            "warm template lost its resident decode entries"
        entries_before = len(emu._decode_cache)

        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                # The child claims the template for its own job: the
                # reset re-registers the write watcher on *this*
                # process's objects.
                platform.reset_for_job()
                emu.memory.write_bytes(base, b"\x2a\x00\xa0\xe3")
                page_keys = emu._decode_pages.get(page, set())
                invalidated = not any(key in emu._decode_cache
                                      for key in list(page_keys)) \
                    and emu._tb_cache.invalidations >= 0
                child_saw_drop = len(emu._decode_cache) < entries_before
                code = 0 if (invalidated and child_saw_drop) else 1
            finally:
                os._exit(code)

        assert wait_exit(pid) == 0
        # The template in the parent never saw the child's write: its
        # warm decode entries for the library are intact.
        assert len(emu._decode_cache) == entries_before
        assert bytes(emu.memory.read_bytes(base, 4)) == \
            bytes(program.code[:4])

    def test_forked_child_reruns_job_with_parity(self):
        worker_module.configure_warm(True)
        worker_module.warm_boot_templates(["ndroid"])
        expected = worker_module.execute_job(
            {"id": "scenario:case2", "kind": "scenario",
             "target": "case2", "config": "ndroid"})

        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                result = worker_module.execute_job(
                    {"id": "scenario:case2", "kind": "scenario",
                     "target": "case2", "config": "ndroid"})
                ok = (result["leaks"] == expected["leaks"]
                      and result["detected"] == expected["detected"])
                code = 0 if ok else 1
            finally:
                os._exit(code)
        assert wait_exit(pid) == 0
