"""Emulator throughput harness: records the perf trajectory of the engine.

Measures instructions/second on the three benchmark workloads the PR
acceptance criteria name (the uninstrumented CFBench native loop, the JNI
crossing loop, and the Table-V tracer loop), each under both execution
engines — the translation-block engine and the pre-TB single-step
interpreter — and verifies *taint parity*: every Table-1/Fig-6–9 scenario
must produce a byte-identical leak report under both engines.

Results are serialised to ``BENCH_emulator.json``.  Regression gating
compares **speedup ratios** (TB vs single-step on the same machine, same
run) rather than absolute instructions/second, so the committed baseline
is meaningful across machines of different speeds.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.apps import ALL_SCENARIOS
from repro.apps.base import run_scenario
from repro.bench.harness import make_platform
from repro.common.taint import TAINT_IMEI
from repro.core.instruction_tracer import InstructionTracer
from repro.core.taint_engine import TaintEngine
from repro.cpu.assembler import assemble
from repro.dalvik import ClassDef, MethodBuilder
from repro.dalvik.heap import Slot
from repro.dalvik.instructions import Op
from repro.emulator import Emulator
from repro.framework import Apk
from repro.observability.metrics import MetricsRegistry

SCHEMA = "bench_emulator/v1"

# The scenarios whose taint verdicts must be engine-independent
# (Table I cases plus the Fig. 6-9 app reconstructions).
PARITY_SCENARIOS = (
    "case1", "case1_prime", "case2", "case3", "case4", "case2_thumb",
    "qqphonebook", "ephone", "poc_case2", "poc_case3", "benign",
)

# Speedup may drift this much below the committed baseline before the
# regression gate fails (the benchmark smoke gate's threshold).
DEFAULT_TOLERANCE = 0.30

# The instrumented workloads (a live Table V tracer attached) must keep
# at least this TB-vs-single-step speedup: the whole point of compiling
# taint propagation into the blocks is that *analysis* runs at TB speed,
# not just untraced code.
INSTRUMENTED_WORKLOADS = ("table5_tracer", "table5_tracer_tainted")
INSTRUMENTED_SPEEDUP_FLOOR = 2.0

# The JNI crossing loop — the paper's workload — must keep at least this
# TB-vs-single-step speedup now that the managed side trace-compiles
# Dalvik blocks and the bridge runs through per-method trampolines.
JNI_CROSSING_WORKLOAD = "jni_crossing"
JNI_CROSSING_SPEEDUP_FLOOR = 2.0

# Ceiling on the slowdown a *disabled* observability layer may add to the
# uninstrumented CFBench loop (the zero-cost-when-off acceptance gate).
OBS_DISABLED_OVERHEAD_LIMIT = 0.03

CROSSING_CLASS = "Lcom/bench/Crossing;"

# The Table V tracer loop (same shape as benchmarks/bench_table5_tracer.py:
# data processing, scaled-register loads/stores, push/pop).
TRACER_LOOP = """
main:
    push {r4, r5, lr}
    mov r0, #0
    mov r1, #0
    ldr r4, =buffer
loop:
    cmp r1, #400
    bge done
    add r0, r0, r1
    eor r0, r0, r1, lsl #2
    and r2, r1, #15
    str r0, [r4, r2, lsl #2]
    ldr r3, [r4, r2, lsl #2]
    add r0, r0, r3
    add r1, r1, #1
    b loop
done:
    pop {r4, r5, pc}
buffer:
    .space 64
"""

TRACER_CODE_BASE = 0x6000_0000


def _build_crossing_apk() -> Apk:
    """The bench_jni_crossing app: a Java loop over a trivial native call."""
    cls = ClassDef(CROSSING_CLASS)
    cls.add_method(MethodBuilder(CROSSING_CLASS, "nop", "II", static=True,
                                 native=True).build())
    loop = MethodBuilder(CROSSING_CLASS, "cross", "II", static=True,
                         registers=6)
    loop.const(0, 0).const(1, 0)
    loop.label("loop")
    loop.if_cmp(Op.IF_GE, 1, 5, "done")
    loop.invoke_static(f"{CROSSING_CLASS}->nop", 1)
    loop.move_result(2)
    loop.binop(Op.ADD_INT, 0, 0, 2)
    loop.add_lit(1, 1, 1)
    loop.goto("loop")
    loop.label("done")
    loop.ret(0)
    cls.add_method(loop.build())
    main = MethodBuilder(CROSSING_CLASS, "main", "V", static=True,
                         registers=1)
    main.const_string(0, "libcross.so")
    main.invoke_static("Ljava/lang/System;->loadLibrary", 0)
    main.ret_void()
    cls.add_method(main.build())
    native = """
    Java_com_bench_Crossing_nop:
        add r0, r2, #1
        bx lr
    """
    return Apk(package="com.bench.crossing", classes=[cls],
               native_libraries={"libcross.so": native},
               load_library_calls=["libcross.so"])


def _measure(setup: Callable[[bool], Tuple[Emulator, Callable[[], None]]],
             use_tb: bool, repeats: int) -> Tuple[int, float]:
    """Best-of-``repeats`` timing; returns (instructions, seconds)."""
    best: Optional[Tuple[int, float]] = None
    for _ in range(repeats):
        emu, run = setup(use_tb)
        before = emu.instruction_count
        start = time.perf_counter()
        run()
        elapsed = time.perf_counter() - start
        instructions = emu.instruction_count - before
        if best is None or elapsed < best[1]:
            best = (instructions, elapsed)
    assert best is not None
    return best


class EmulatorBench:
    """Instr/sec on the acceptance workloads, both engines + taint parity."""

    def __init__(self, cfbench_iterations: int = 20_000,
                 jni_crossings: int = 2_000,
                 tracer_calls: int = 10,
                 repeats: int = 3) -> None:
        self.cfbench_iterations = cfbench_iterations
        self.jni_crossings = jni_crossings
        self.tracer_calls = tracer_calls
        self.repeats = repeats

    # -- workloads ----------------------------------------------------------

    def _cfbench_setup(self, use_tb: bool):
        from repro.bench.cfbench import CFBench
        platform = make_platform("vanilla", use_tb=use_tb)
        bench = CFBench(platform)
        iterations = self.cfbench_iterations

        def run() -> None:
            bench.run_workload("native_mips", iterations=iterations)
        return platform.emu, run

    def _jni_crossing_setup(self, use_tb: bool):
        platform = make_platform("vanilla", use_tb=use_tb)
        apk = _build_crossing_apk()
        platform.install(apk)
        platform.run_app(apk)
        # Both engines run with logging off: the workload measures the
        # execution engines, not per-crossing log formatting (and the
        # trampoline fast path requires an idle log to stay faithful).
        platform.event_log.enabled = False
        crossings = self.jni_crossings

        def run() -> None:
            result = platform.vm.call_main(f"{CROSSING_CLASS}->cross",
                                           [Slot(crossings)])
            assert result.value == crossings * (crossings + 1) // 2
        return platform.emu, run

    def _tracer_setup(self, use_tb: bool, tainted: bool = False):
        emu = Emulator(use_tb=use_tb)
        program = assemble(TRACER_LOOP, base=TRACER_CODE_BASE)
        emu.load(TRACER_CODE_BASE, program.code)
        emu.memory_map.map(TRACER_CODE_BASE, 0x1000, "libapp.so",
                           third_party=True)
        emu.cpu.sp = 0x0800_0000
        engine = TaintEngine()
        tracer = InstructionTracer(
            engine, is_third_party=emu.memory_map.is_third_party)
        emu.add_tracer(tracer)
        if tainted:
            # Seed the loop's scratch buffer (not a register: the loop's
            # literal load would overwrite a register seed immediately),
            # so every Table V handler runs with live labels — the
            # worst-case instrumented path.
            engine.set_memory(program.address_of("buffer"), 64, TAINT_IMEI)
        entry = program.entry("main")
        calls = self.tracer_calls

        def run() -> None:
            for _ in range(calls):
                emu.call(entry)
        return emu, run

    def _tainted_tracer_setup(self, use_tb: bool):
        return self._tracer_setup(use_tb, tainted=True)

    def measure_workload(self, name: str) -> Dict[str, float]:
        setup = {
            "cfbench_native_loop": self._cfbench_setup,
            "jni_crossing": self._jni_crossing_setup,
            "table5_tracer": self._tracer_setup,
            "table5_tracer_tainted": self._tainted_tracer_setup,
        }[name]
        step_instr, step_time = _measure(setup, False, self.repeats)
        tb_instr, tb_time = _measure(setup, True, self.repeats)
        assert step_instr == tb_instr, \
            f"{name}: engines disagree on instruction count " \
            f"({step_instr} vs {tb_instr})"
        step_ips = step_instr / step_time if step_time > 0 else float("inf")
        tb_ips = tb_instr / tb_time if tb_time > 0 else float("inf")
        row = {
            "instructions": step_instr,
            "single_step_instr_per_sec": round(step_ips, 1),
            "tb_instr_per_sec": round(tb_ips, 1),
            "speedup": round(tb_ips / step_ips, 3) if step_ips else 0.0,
        }
        if name == JNI_CROSSING_WORKLOAD and self.jni_crossings:
            # Per-crossing latency is the figure the paper's workload
            # actually cares about — one boundary round trip, end to end.
            crossings = self.jni_crossings
            row["single_step_us_per_crossing"] = round(
                step_time / crossings * 1e6, 3)
            row["tb_us_per_crossing"] = round(tb_time / crossings * 1e6, 3)
        return row

    # -- observability zero-cost gate ---------------------------------------

    def measure_observability_overhead(self) -> Dict[str, float]:
        """CFBench loop with observability constructed-but-disabled vs
        absent.  Both runs use the TB engine; best-of-``repeats`` each.
        The ratio must stay under :data:`OBS_DISABLED_OVERHEAD_LIMIT`.

        The span layer rides inside this gate: every engine carries its
        ``span_tracer`` attribute (``None`` here, as in any untraced
        run), so the per-emit ``is not None`` guards are part of the
        measured loop and the <limit ceiling covers them too — the
        result row says so with ``span_layer_included``.
        """
        from repro.bench.cfbench import CFBench
        # Longer runs than the throughput workloads: a percent-level gate
        # needs the signal well above timer/scheduler noise.
        iterations = self.cfbench_iterations * 2

        def timed(observe: bool) -> float:
            platform = make_platform("vanilla", observe=observe)
            bench = CFBench(platform)
            start = time.perf_counter()
            bench.run_workload("native_mips", iterations=iterations)
            return time.perf_counter() - start

        # Interleave the two configurations so machine-state drift hits
        # both equally, then gate on the *median* per-pair ratio — one
        # slow outlier run must not fail CI.
        pairs = []
        for _ in range(max(self.repeats, 5)):
            sample_without = timed(False)
            sample_with = timed(True)
            pairs.append((sample_without, sample_with))
        ratios = sorted(w / base for base, w in pairs)
        median = ratios[len(ratios) // 2]
        without = min(base for base, __ in pairs)
        with_disabled = min(w for __, w in pairs)
        overhead = median - 1.0
        return {
            "cfbench_disabled_overhead": round(max(overhead, 0.0), 4),
            "seconds_without": round(without, 6),
            "seconds_with_disabled": round(with_disabled, 6),
            "limit": OBS_DISABLED_OVERHEAD_LIMIT,
            "span_layer_included": True,
        }

    # -- taint parity -------------------------------------------------------

    @staticmethod
    def _leak_report(name: str, use_tb: bool) -> List[Dict]:
        scenario = ALL_SCENARIOS[name]()
        platform = make_platform("ndroid", use_tb=use_tb)
        run_scenario(scenario, platform)
        report = [
            {
                "detector": record.detector,
                "sink": record.sink,
                "taint": record.taint,
                "destination": record.destination,
                "payload": record.payload.hex(),
                "context": record.context,
            }
            for record in platform.leaks.records
        ]
        report.sort(key=lambda entry: repr(sorted(entry.items())))
        return report

    def taint_parity(self) -> Dict:
        mismatches = []
        for name in PARITY_SCENARIOS:
            if self._leak_report(name, True) != self._leak_report(name, False):
                mismatches.append(name)
        return {
            "scenarios": list(PARITY_SCENARIOS),
            "mismatches": mismatches,
            "identical": not mismatches,
        }

    # -- entry point --------------------------------------------------------

    def run(self) -> Dict:
        # Workload rows are routed through a metrics registry and read
        # back from its snapshot, so ``BENCH_emulator.json`` and
        # ``repro report`` can never disagree on instruction counts.
        registry = MetricsRegistry()
        names = ("cfbench_native_loop", "jni_crossing", "table5_tracer",
                 "table5_tracer_tainted")
        row_keys: Dict[str, List[str]] = {}
        for name in names:
            row = self.measure_workload(name)
            row_keys[name] = list(row)
            for key, value in row.items():
                registry.gauge(f"bench.{name}.{key}").set(value)
        snapshot = registry.snapshot()
        workloads = {
            name: {key: snapshot[f"bench.{name}.{key}"]
                   for key in row_keys[name]}
            for name in names
        }
        return {
            "schema": SCHEMA,
            "workloads": workloads,
            "metrics": snapshot,
            "observability": self.measure_observability_overhead(),
            "taint_parity": self.taint_parity(),
        }


def write_results(results: Dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_results(path: str) -> Dict:
    with open(path) as handle:
        return json.load(handle)


def compare_to_baseline(current: Dict, baseline: Dict,
                        tolerance: float = DEFAULT_TOLERANCE) -> List[str]:
    """Regression check; returns human-readable failures (empty = pass).

    Gates on the TB-vs-single-step *speedup ratio* per workload, which is
    stable across machines, unlike raw instructions/second.
    """
    failures = []
    baseline_workloads = baseline.get("workloads", {})
    for name, row in current.get("workloads", {}).items():
        if name in INSTRUMENTED_WORKLOADS and \
                row["speedup"] < INSTRUMENTED_SPEEDUP_FLOOR:
            failures.append(
                f"{name}: instrumented speedup {row['speedup']:.2f}x "
                f"below the {INSTRUMENTED_SPEEDUP_FLOOR:.0f}x floor "
                f"(taint compilation is not paying for itself)")
        if name == JNI_CROSSING_WORKLOAD and \
                row["speedup"] < JNI_CROSSING_SPEEDUP_FLOOR:
            failures.append(
                f"{name}: crossing speedup {row['speedup']:.2f}x below "
                f"the {JNI_CROSSING_SPEEDUP_FLOOR:.0f}x floor (managed-"
                f"side trace compilation is not paying for itself)")
        reference = baseline_workloads.get(name)
        if reference is None:
            continue
        floor = reference["speedup"] * (1.0 - tolerance)
        if row["speedup"] < floor:
            failures.append(
                f"{name}: speedup {row['speedup']:.2f}x regressed below "
                f"{floor:.2f}x (baseline {reference['speedup']:.2f}x "
                f"- {tolerance:.0%} tolerance)")
    parity = current.get("taint_parity", {})
    if not parity.get("identical", False):
        failures.append(
            f"taint parity broken: {parity.get('mismatches')}")
    observability = current.get("observability")
    if observability is not None:
        overhead = observability.get("cfbench_disabled_overhead", 0.0)
        limit = observability.get("limit", OBS_DISABLED_OVERHEAD_LIMIT)
        if overhead > limit:
            failures.append(
                f"disabled observability costs {overhead:.1%} on the "
                f"CFBench loop (limit {limit:.0%})")
    return failures
