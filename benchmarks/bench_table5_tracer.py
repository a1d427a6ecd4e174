"""Table V — ARM/Thumb taint-propagation throughput.

Benchmarks the instruction tracer over a representative third-party loop
(data processing, loads/stores, load/store-multiple) against the same loop
untraced.
"""

from repro.core.instruction_tracer import InstructionTracer
from repro.core.taint_engine import TaintEngine
from repro.cpu.assembler import assemble
from repro.emulator import Emulator

CODE_BASE = 0x6000_0000

LOOP = """
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


def build():
    emu = Emulator()
    program = assemble(LOOP, base=CODE_BASE)
    emu.load(CODE_BASE, program.code)
    emu.memory_map.map(CODE_BASE, 0x1000, "libapp.so", third_party=True)
    emu.cpu.sp = 0x0800_0000
    engine = TaintEngine()
    tracer = InstructionTracer(engine,
                               is_third_party=emu.memory_map.is_third_party)
    emu.add_tracer(tracer)
    return emu, program, tracer


def test_benchmark_tracer(benchmark):
    emu, program, tracer = build()
    entry = program.entry("main")

    def run():
        emu.call(entry)

    benchmark.pedantic(run, rounds=5, iterations=1)
    assert tracer.traced_instructions > 0


def test_benchmark_untraced_baseline(benchmark):
    emu = Emulator()
    program = assemble(LOOP, base=CODE_BASE)
    emu.load(CODE_BASE, program.code)
    emu.cpu.sp = 0x0800_0000
    entry = program.entry("main")

    def run():
        emu.call(entry)

    benchmark.pedantic(run, rounds=5, iterations=1)
