"""Table V — the instruction tracer's taint propagation rules.

Each test assembles a tiny third-party snippet, seeds shadow
register/memory taints, runs it under the tracer, and checks the
propagated labels against the Table V row it exercises.
"""

import pytest

from repro.common.taint import (TAINT_CLEAR, TAINT_CONTACTS, TAINT_IMEI,
                                TAINT_SMS)
from repro.core.instruction_tracer import InstructionTracer
from repro.core.taint_engine import TaintEngine
from repro.cpu.assembler import assemble
from repro.emulator import Emulator

CODE_BASE = 0x6000_0000
DATA = 0x0003_0000
STACK_TOP = 0x0800_0000


def run_traced(source, seed=None, third_party=True, use_tb=True):
    emu = Emulator(use_tb=use_tb)
    program = assemble("main:\n" + source + "\n bx lr", base=CODE_BASE)
    emu.load(CODE_BASE, program.code)
    emu.memory_map.map(CODE_BASE, 0x1000, "libapp.so",
                       third_party=third_party)
    emu.cpu.sp = STACK_TOP
    engine = TaintEngine()
    tracer = InstructionTracer(engine, emu.memory_map.is_third_party)
    emu.add_tracer(tracer)
    if seed:
        seed(emu, engine)
    emu.call(program.entry("main"))
    return engine, tracer, emu


class TestDataProcessing:
    def test_binary_three_operand_unions(self):
        def seed(emu, engine):
            engine.set_register(1, TAINT_SMS)
            engine.set_register(2, TAINT_CONTACTS)
        engine, *_ = run_traced("add r0, r1, r2", seed)
        assert engine.get_register(0) == TAINT_SMS | TAINT_CONTACTS

    def test_binary_two_operand_accumulates(self):
        def seed(emu, engine):
            engine.set_register(0, TAINT_SMS)
            engine.set_register(1, TAINT_IMEI)
        engine, *_ = run_traced("add r0, r1", seed)
        assert engine.get_register(0) == TAINT_SMS | TAINT_IMEI

    def test_binary_with_immediate_copies_rm(self):
        def seed(emu, engine):
            engine.set_register(1, TAINT_SMS)
        engine, *_ = run_traced("add r0, r1, #4", seed)
        assert engine.get_register(0) == TAINT_SMS

    def test_unary_copies(self):
        def seed(emu, engine):
            engine.set_register(1, TAINT_IMEI)
        engine, *_ = run_traced("mvn r0, r1", seed)
        assert engine.get_register(0) == TAINT_IMEI

    def test_mov_immediate_clears(self):
        def seed(emu, engine):
            engine.set_register(0, TAINT_SMS)
        engine, *_ = run_traced("mov r0, #5", seed)
        assert engine.get_register(0) == 0

    def test_mov_register_copies(self):
        def seed(emu, engine):
            engine.set_register(3, TAINT_SMS)
        engine, *_ = run_traced("mov r0, r3", seed)
        assert engine.get_register(0) == TAINT_SMS

    def test_shifted_register_operand(self):
        def seed(emu, engine):
            engine.set_register(1, TAINT_SMS)
        engine, *_ = run_traced("mov r0, r1, lsl #2", seed)
        assert engine.get_register(0) == TAINT_SMS

    def test_register_shift_amount_unions(self):
        def seed(emu, engine):
            engine.set_register(1, TAINT_SMS)
            engine.set_register(2, TAINT_IMEI)
        engine, *_ = run_traced("mov r0, r1, lsl r2", seed)
        assert engine.get_register(0) == TAINT_SMS | TAINT_IMEI

    def test_compare_does_not_write_dest(self):
        def seed(emu, engine):
            engine.set_register(0, TAINT_SMS)
            engine.set_register(1, TAINT_IMEI)
        engine, *_ = run_traced("cmp r0, r1", seed)
        assert engine.get_register(0) == TAINT_SMS  # unchanged

    def test_multiply(self):
        def seed(emu, engine):
            engine.set_register(1, TAINT_SMS)
            engine.set_register(2, TAINT_IMEI)
        engine, *_ = run_traced("mul r0, r1, r2", seed)
        assert engine.get_register(0) == TAINT_SMS | TAINT_IMEI

    def test_movw_clears_movt_preserves(self):
        def seed(emu, engine):
            engine.set_register(0, TAINT_SMS)
        engine, *_ = run_traced("movt r0, #1", seed)
        assert engine.get_register(0) == TAINT_SMS
        engine, *_ = run_traced("movw r0, #1", seed)
        assert engine.get_register(0) == 0


class TestLoadStore:
    def test_ldr_unions_memory_and_base(self):
        """Table V LDR: t(Rd) = t(M[addr]) OR t(Rn)."""
        def seed(emu, engine):
            emu.cpu.write_reg(1, DATA)
            engine.set_register(1, TAINT_IMEI)       # tainted pointer
            engine.set_memory(DATA, 4, TAINT_SMS)    # tainted cell
        engine, *_ = run_traced("ldr r0, [r1]", seed)
        assert engine.get_register(0) == TAINT_SMS | TAINT_IMEI

    def test_tainted_address_propagates_to_untainted_value(self):
        """The paper's address-dependency rule."""
        def seed(emu, engine):
            emu.cpu.write_reg(1, DATA)
            engine.set_register(1, TAINT_CONTACTS)
        engine, *_ = run_traced("ldr r0, [r1]", seed)
        assert engine.get_register(0) == TAINT_CONTACTS

    def test_str_taints_memory(self):
        def seed(emu, engine):
            emu.cpu.write_reg(0, DATA)
            engine.set_register(1, TAINT_SMS)
        engine, *_ = run_traced("str r1, [r0]", seed)
        assert engine.get_memory(DATA, 4) == TAINT_SMS
        assert engine.get_memory(DATA + 4, 1) == 0

    def test_strb_taints_one_byte(self):
        def seed(emu, engine):
            emu.cpu.write_reg(0, DATA)
            engine.set_register(1, TAINT_SMS)
        engine, *_ = run_traced("strb r1, [r0]", seed)
        assert engine.get_memory(DATA, 1) == TAINT_SMS
        assert engine.get_memory(DATA + 1, 1) == 0

    def test_store_clean_register_clears_stale_memory_taint(self):
        def seed(emu, engine):
            emu.cpu.write_reg(0, DATA)
            engine.set_memory(DATA, 4, TAINT_SMS)
        engine, *_ = run_traced("str r1, [r0]", seed)
        assert engine.get_memory(DATA, 4) == 0

    def test_push_pop_roundtrip(self):
        """STM taints stack slots; LDM reads them back (plus base)."""
        def seed(emu, engine):
            engine.set_register(4, TAINT_IMEI)
        engine, *_ = run_traced("push {r4}\n mov r4, #0\n pop {r4}", seed)
        assert engine.get_register(4) == TAINT_IMEI

    def test_ldm_unions_base_taint(self):
        def seed(emu, engine):
            emu.cpu.write_reg(0, DATA)
            engine.set_register(0, TAINT_CONTACTS)
        engine, *_ = run_traced("ldmia r0, {r1, r2}", seed)
        assert engine.get_register(1) == TAINT_CONTACTS
        assert engine.get_register(2) == TAINT_CONTACTS

    def test_bl_clears_lr_taint(self):
        def seed(emu, engine):
            engine.set_register(14, TAINT_SMS)
        engine, *_ = run_traced(
            "push {lr}\n bl helper\n pop {pc}\nhelper:", seed)
        assert engine.get_register(14) == 0


class TestScopingAndCache:
    def test_non_third_party_code_not_traced(self):
        def seed(emu, engine):
            engine.set_register(1, TAINT_SMS)
        engine, tracer, __ = run_traced("mov r0, r1", seed,
                                        third_party=False)
        assert tracer.traced_instructions == 0
        assert engine.get_register(0) == 0

    def test_region_cache_invalidation(self):
        engine = TaintEngine()
        calls = []

        def is_third_party(address):
            calls.append(address)
            return True

        tracer = InstructionTracer(engine, is_third_party)
        emu = Emulator()
        program = assemble("main: mov r0, #1\n mov r0, #2\n bx lr",
                           base=CODE_BASE)
        emu.load(CODE_BASE, program.code)
        emu.cpu.sp = STACK_TOP
        emu.add_tracer(tracer)
        emu.call(program.entry("main"))
        assert len(calls) == 1  # one page lookup, then cached
        tracer.invalidate_region_cache()
        emu.call(program.entry("main"))
        assert len(calls) == 2


class TestCleanFastPath:
    """Handlers are skipped while no label exists anywhere in the engine."""

    def test_clean_run_skips_propagation_but_keeps_accounting(self):
        engine, tracer, emu = run_traced("""
    mov r1, #4
    add r2, r1, #1
    add r2, r2, r1
        """)
        assert tracer.traced_instructions > 0
        assert engine.propagation_count == 0  # no handler ever ran

    def test_seeded_taint_disables_the_skip(self):
        engine, tracer, emu = run_traced("""
    mov r2, #0
    add r2, r2, r1
        """, seed=lambda emu, eng: eng.set_register(1, TAINT_IMEI))
        assert engine.get_register(2) == TAINT_IMEI
        assert engine.propagation_count > 0

    def test_tainted_then_clean_run_regains_fast_path(self):
        # Farm workers reuse one engine across jobs: a tainted first run
        # must not leave the sticky flag permanently disabling the fast
        # path once every label is cleared and the engine re-armed.
        emu = Emulator()
        program = assemble("main:\n add r0, r1, r2\n mov r3, r0\n bx lr",
                           base=CODE_BASE)
        emu.load(CODE_BASE, program.code)
        emu.memory_map.map(CODE_BASE, 0x1000, "libapp.so", third_party=True)
        emu.cpu.sp = STACK_TOP
        engine = TaintEngine()
        tracer = InstructionTracer(engine, emu.memory_map.is_third_party)
        emu.add_tracer(tracer)

        engine.set_register(1, TAINT_SMS)
        emu.call(program.entry("main"))
        assert engine.get_register(0) == TAINT_SMS
        after_tainted = engine.propagation_count
        assert after_tainted > 1  # the seed plus traced handlers

        engine.clear_all_registers()
        assert engine.rearm_fast_path()

        emu.cpu.sp = STACK_TOP
        emu.call(program.entry("main"))
        # The tracer skipped every handler: no propagation happened and
        # the engine stayed verifiably clean.
        assert engine.propagation_count == after_tainted
        assert not engine.maybe_tainted
        assert engine.get_register(0) == TAINT_CLEAR
