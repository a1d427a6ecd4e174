"""The instruction tracer: Table V taint propagation for ARM/Thumb.

"By instrumenting third-party native libraries, the instruction tracer
monitors each ARM/Thumb instruction to determine how the taint propagates"
(Section V.C).  Only instructions fetched from third-party regions are
traced; system libraries are covered by the modelled handlers instead
(Section V.D), which is one of the reasons NDroid is fast.

The tracer exposes the same propagation rules two ways:

* the **single-step callback** (:meth:`__call__`): the emulator invokes it
  before every instruction — the differential oracle, and the only path
  compatible with the fault injector;
* the **translation-time factory** (:meth:`compile_taint_op`): NDroid's
  real design point — "NDroid inserts its analysis at translation time"
  inside QEMU's TCG loop.  At block-translation time the emulator asks
  once whether the block's page is third-party (:meth:`in_scope`, the
  per-instruction region lookup hoisted to one check per block), then for
  each instruction requests a *taint micro-op*: the Table V handler is
  selected once and its operands (register indices, ledger locations, the
  ``0x%08x`` location string) are pre-bound into a closure that runs
  alongside the execution micro-op.  Blocks outside third-party regions
  carry no taint ops at all.  This is how NDroid "caches hot instructions
  and the corresponding handlers" to "speed up the identification of the
  instruction type and the search of the handler": a cached block is a
  cache of its instructions' pre-selected handlers.

Propagation follows Table V exactly, including the address-dependency
rule: "if the tainted input is the address of an untainted value, the
taint will be propagated to it" — loads union the base register's taint
into the destination.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from repro.common.errors import ReproError
from repro.common.taint import TAINT_CLEAR
from repro.cpu import isa
from repro.cpu.executor import multiple_addresses, transfer_address
from repro.cpu.state import LR, PC
from repro.emulator.emulator import Emulator
from repro.core.taint_engine import TaintEngine
from repro.observability.ledger import Loc

Handler = Callable[[isa.Instruction, Emulator], None]
# A pre-bound taint propagation step emitted into a translation block.
TaintOp = Callable[[], None]
# Installed by NDroid for graceful degradation: called with the handler's
# exception instead of letting it unwind the whole run.
TracerFaultHandler = Callable[[ReproError, isa.Instruction, Emulator], None]


class InstructionRingBuffer:
    """A tracer keeping the last-N executed instructions for crash reports.

    Unlike :class:`InstructionTracer` it records *every* instruction, not
    just third-party ones: after a crash the report must show the true
    tail of execution wherever it happened.
    """

    def __init__(self, capacity: int = 32) -> None:
        self.capacity = capacity
        self._ring: Deque[Dict] = deque(maxlen=capacity)

    def __call__(self, ir: isa.Instruction, emu: Emulator) -> None:
        self._ring.append({
            "index": emu.instruction_count,
            "pc": emu.cpu.pc,
            "mode": "thumb" if emu.cpu.thumb else "arm",
            "mnemonic": ir.mnemonic,
            "kind": type(ir).__name__,
        })

    def snapshot(self) -> List[Dict]:
        """Oldest-to-newest copies of the recorded instructions."""
        return [dict(entry) for entry in self._ring]

    def format(self) -> str:
        lines = [f"  #{e['index']:<8} {e['pc']:08x} [{e['mode']:>5}] "
                 f"{e['mnemonic']} ({e['kind']})"
                 for e in self.snapshot()]
        return "\n".join(lines) if lines else "  (no instructions recorded)"


class InstructionTracer:
    """Per-instruction taint propagation over third-party code."""

    # The emulator keeps translation blocks enabled for this tracer and
    # compiles its propagation into the blocks instead of single-stepping.
    compiles_to_tb = True

    def __init__(self, taint_engine: TaintEngine,
                 is_third_party: Callable[[int], bool]) -> None:
        self.taint = taint_engine
        self._is_third_party = is_third_party
        self._region_cache: Dict[int, bool] = {}
        self.traced_instructions = 0
        # NDroid installs this so a faulting propagation handler degrades
        # the run (conservative over-taint) instead of killing it.
        self.fault_handler: Optional[TracerFaultHandler] = None
        # Provenance ledger (observability); None when not tracing.  The
        # handlers consult it only after they already found taint to move.
        self.ledger = None
        # Installed by the emulator: compiled taint ops bake in the
        # region decision, so a region-table change must also flush the
        # translation cache, not just this tracer's page cache.
        self._region_invalidate: Optional[Callable[[], None]] = None

    def _record(self, emu: Emulator, mnemonic: str, sources, dst) -> None:
        """Append one native-propagation edge per tainted source."""
        ledger = self.ledger
        if ledger is None:
            return
        location = f"0x{emu.cpu.pc:08x}"
        for src, tag in sources:
            if tag:
                ledger.record(tag, f"native:{mnemonic}", src, dst, location)

    def _record_at(self, location: str, mechanism: str, sources, dst) -> None:
        """Ledger edges from a compiled op (location pre-bound at translate
        time — ``regs[PC]`` is stale inside a translation block body)."""
        ledger = self.ledger
        for src, tag in sources:
            if tag:
                ledger.record(tag, mechanism, src, dst, location)

    # -- scoping --------------------------------------------------------------

    def in_scope(self, pc: int) -> bool:
        """Is ``pc`` in a third-party region?  Page-granular, cached."""
        page = pc >> 12
        cached = self._region_cache.get(page)
        if cached is None:
            cached = self._is_third_party(pc)
            self._region_cache[page] = cached
        return cached

    def invalidate_region_cache(self) -> None:
        self._region_cache.clear()
        if self._region_invalidate is not None:
            self._region_invalidate()

    def set_region_invalidate_callback(
            self, callback: Optional[Callable[[], None]]) -> None:
        self._region_invalidate = callback

    # -- the emulator tracer callback -----------------------------------------

    def __call__(self, ir: isa.Instruction, emu: Emulator) -> None:
        if not self.in_scope(emu.cpu.pc):
            return
        self.traced_instructions += 1
        if not self.taint.maybe_tainted:
            # No label anywhere in the engine yet: every Table-V rule
            # degenerates to clear := clear, so skip the handler (the
            # count above still reflects coverage).
            return
        handler = self._select_handler(ir)
        if self.fault_handler is None:
            handler(ir, emu)
            return
        try:
            handler(ir, emu)
        except ReproError as error:
            self.fault_handler(error, ir, emu)

    # -- translation-time factory ---------------------------------------------

    def compile_taint_op(self, ir: isa.Instruction, pc: int,
                         emu: Emulator) -> Optional[TaintOp]:
        """Pre-select the Table V handler for ``ir`` and pre-bind its
        operands into a zero-argument taint micro-op, or ``None`` when the
        rule is a no-op (compare, plain branch, MOVT, writes to PC).

        The op performs exactly the engine calls and ledger records the
        single-step handler would: the differential tests pin this.
        """
        op = self._compile_select(ir, pc, emu)
        if op is None:
            return None
        tracer = self

        def guarded() -> None:
            try:
                op()
            except ReproError as error:
                handler = tracer.fault_handler
                if handler is None:
                    raise
                handler(error, ir, emu)
        return guarded

    def _compile_select(self, ir: isa.Instruction, pc: int,
                        emu: Emulator) -> Optional[TaintOp]:
        if isinstance(ir, isa.DataProcessing):
            return self._compile_data_processing(ir, pc)
        if isinstance(ir, isa.Multiply):
            sources = [ir.rm, ir.rs]
            if ir.accumulate:
                sources.append(ir.rn)
            return self._compile_reg_union(sources, ir.rd, ir.mnemonic, pc)
        if isinstance(ir, isa.MultiplyLong):
            return self._compile_multiply_long(ir, pc)
        if isinstance(ir, isa.MoveWide):
            if ir.top:
                return None  # MOVT merges an immediate; taint stands
            return self._compile_clear(ir.rd)
        if isinstance(ir, isa.CountLeadingZeros):
            return self._compile_reg_union([ir.rm], ir.rd, ir.mnemonic, pc)
        if isinstance(ir, isa.LoadStore):
            return self._compile_load_store(ir, pc, emu)
        if isinstance(ir, isa.LoadStoreMultiple):
            return self._compile_load_store_multiple(ir, pc, emu)
        if isinstance(ir, (isa.Branch, isa.BranchExchange)):
            if getattr(ir, "link", False):
                return self._compile_clear(LR)
            return None
        return None

    def _compile_clear(self, rd: int) -> TaintOp:
        set_register = self.taint.set_register

        def op() -> None:
            set_register(rd, TAINT_CLEAR)
        return op

    def _compile_data_processing(self, ir: isa.DataProcessing,
                                 pc: int) -> Optional[TaintOp]:
        if ir.op in isa.COMPARE_OPS:
            return None  # flags only; control-flow taint out of scope (§VII)
        if ir.rd == PC:
            return None  # the handler computes but never writes
        operand2 = ir.operand2
        if operand2.is_immediate:
            if ir.op in isa.UNARY_OPS:
                return self._compile_clear(ir.rd)  # mov Rd, #imm
            return self._compile_reg_union([ir.rn], ir.rd, ir.mnemonic, pc)
        # Source order matches the single-step ledger: rm, shift_reg, rn.
        sources = [operand2.rm]
        if operand2.shift_reg is not None:
            sources.append(operand2.shift_reg)
        if ir.op not in isa.UNARY_OPS:
            sources.append(ir.rn)
        return self._compile_reg_union(sources, ir.rd, ir.mnemonic, pc)

    def _compile_reg_union(self, sources: List[int], rd: int,
                           mnemonic: str, pc: int) -> TaintOp:
        """``t(Rd) := t(Ra) | t(Rb) | ...`` — the register-only Table V
        rules (data processing, multiply, clz) share this shape."""
        tracer = self
        taint = self.taint
        shadow = taint.shadow_registers  # mutated in place, never rebound
        set_register = taint.set_register
        dst = Loc.reg(rd)
        mechanism = "native:" + mnemonic
        location = f"0x{pc:08x}"
        if len(sources) == 1:
            a = sources[0]
            loc_a = Loc.reg(a)

            def op() -> None:
                label = shadow[a] | taint.conservative_label
                if label and tracer.ledger is not None:
                    tracer._record_at(location, mechanism,
                                      ((loc_a, label),), dst)
                set_register(rd, label)
            return op
        if len(sources) == 2:
            a, b = sources
            loc_a, loc_b = Loc.reg(a), Loc.reg(b)

            def op() -> None:
                cons = tracer.taint.conservative_label
                tag_a = shadow[a] | cons
                tag_b = shadow[b] | cons
                label = tag_a | tag_b
                if label and tracer.ledger is not None:
                    tracer._record_at(location, mechanism,
                                      ((loc_a, tag_a), (loc_b, tag_b)), dst)
                set_register(rd, label)
            return op
        pairs = [(index, Loc.reg(index)) for index in sources]

        def op() -> None:
            cons = taint.conservative_label
            tagged = [(loc, shadow[index] | cons) for index, loc in pairs]
            label = cons
            for __, tag in tagged:
                label |= tag
            if label and tracer.ledger is not None:
                tracer._record_at(location, mechanism,
                                  tuple((loc, tag) for loc, tag in tagged),
                                  dst)
            set_register(rd, label)
        return op

    def _compile_multiply_long(self, ir: isa.MultiplyLong,
                               pc: int) -> TaintOp:
        tracer = self
        taint = self.taint
        shadow = taint.shadow_registers
        set_register = taint.set_register
        rm, rs = ir.rm, ir.rs
        rd_lo, rd_hi = ir.rd_lo, ir.rd_hi
        accumulate = ir.accumulate
        loc_rm, loc_rs = Loc.reg(rm), Loc.reg(rs)
        loc_lo, loc_hi = Loc.reg(rd_lo), Loc.reg(rd_hi)
        mechanism = "native:" + ir.mnemonic
        location = f"0x{pc:08x}"

        def op() -> None:
            cons = taint.conservative_label
            tag_rm = shadow[rm] | cons
            tag_rs = shadow[rs] | cons
            label = tag_rm | tag_rs
            if accumulate:
                tag_lo = shadow[rd_lo] | cons
                tag_hi = shadow[rd_hi] | cons
                label |= tag_lo | tag_hi
            if label and tracer.ledger is not None:
                sources = [(loc_rm, tag_rm), (loc_rs, tag_rs)]
                if accumulate:
                    sources.append((loc_lo, tag_lo))
                    sources.append((loc_hi, tag_hi))
                tracer._record_at(location, mechanism, sources, loc_lo)
                tracer._record_at(location, mechanism, sources, loc_hi)
            set_register(rd_lo, label)
            set_register(rd_hi, label)
        return op

    def _compile_load_store(self, ir: isa.LoadStore, pc: int,
                            emu: Emulator) -> Optional[TaintOp]:
        tracer = self
        taint = self.taint
        cpu = emu.cpu
        regs = cpu.regs
        shadow = taint.shadow_registers
        get_memory = taint.get_memory
        rn, rd, offset_rm, size = ir.rn, ir.rd, ir.offset_rm, ir.size
        mechanism = "native:" + ir.mnemonic
        location = f"0x{pc:08x}"
        # transfer_address reads the pipelined PC through cpu.read_reg:
        # inside a block body regs[PC] is stale, so restore it first when
        # the addressing actually involves PC (literal-pool loads).
        needs_pc = rn == PC or offset_rm == PC
        if ir.load:
            if rd == PC:
                return None
            set_register = taint.set_register
            dst = Loc.reg(rd)
            loc_rn = Loc.reg(rn)
            loc_off = Loc.reg(offset_rm) if offset_rm is not None else None

            def op() -> None:
                if needs_pc:
                    regs[PC] = pc
                address, __ = transfer_address(cpu, ir)
                mem_tag = get_memory(address, size)
                label = mem_tag
                if rn != PC:
                    rn_tag = shadow[rn] | taint.conservative_label
                    label |= rn_tag
                if offset_rm is not None:
                    off_tag = shadow[offset_rm] | taint.conservative_label
                    label |= off_tag
                if label and tracer.ledger is not None:
                    sources = [(Loc.mem(address, size), mem_tag)]
                    if rn != PC:
                        sources.append((loc_rn, rn_tag))
                    if offset_rm is not None:
                        sources.append((loc_off, off_tag))
                    tracer._record_at(location, mechanism, sources, dst)
                set_register(rd, label)
            return op
        set_memory = taint.set_memory
        loc_rd = Loc.reg(rd)

        def op() -> None:
            if needs_pc:
                regs[PC] = pc
            address, __ = transfer_address(cpu, ir)
            label = shadow[rd] | taint.conservative_label
            if label and tracer.ledger is not None:
                tracer._record_at(location, mechanism,
                                  ((loc_rd, label),),
                                  Loc.mem(address, size))
            set_memory(address, size, label)
        return op

    def _compile_load_store_multiple(self, ir: isa.LoadStoreMultiple,
                                     pc: int, emu: Emulator) -> TaintOp:
        tracer = self
        taint = self.taint
        cpu = emu.cpu
        regs = cpu.regs
        shadow = taint.shadow_registers
        get_memory = taint.get_memory
        rn = ir.rn
        mechanism = "native:" + ir.mnemonic
        location = f"0x{pc:08x}"
        loc_rn = Loc.reg(rn)
        needs_pc = rn == PC
        if ir.load:
            set_register = taint.set_register
            # (register, Loc) pairs pre-built; PC loads stay untracked.
            pairs = [(register, Loc.reg(register))
                     for register in ir.reglist]

            def op() -> None:
                if needs_pc:
                    regs[PC] = pc
                addresses = multiple_addresses(cpu, ir)
                base_label = shadow[rn] | taint.conservative_label
                for (register, loc_rd), address in zip(pairs, addresses):
                    if register == PC:
                        continue
                    mem_tag = get_memory(address, 4)
                    label = mem_tag | base_label
                    if label and tracer.ledger is not None:
                        tracer._record_at(
                            location, mechanism,
                            ((Loc.mem(address, 4), mem_tag),
                             (loc_rn, base_label)),
                            loc_rd)
                    set_register(register, label)
            return op
        set_memory = taint.set_memory
        pairs = [(register, Loc.reg(register)) for register in ir.reglist]

        def op() -> None:
            if needs_pc:
                regs[PC] = pc
            addresses = multiple_addresses(cpu, ir)
            for (register, loc_rd), address in zip(pairs, addresses):
                label = shadow[register] | taint.conservative_label
                if label and tracer.ledger is not None:
                    tracer._record_at(location, mechanism,
                                      ((loc_rd, label),),
                                      Loc.mem(address, 4))
                set_memory(address, 4, label)
        return op

    # -- handler selection ---------------------------------------------------------

    def _select_handler(self, ir: isa.Instruction) -> Handler:
        if isinstance(ir, isa.DataProcessing):
            return self._handle_data_processing
        if isinstance(ir, isa.Multiply):
            return self._handle_multiply
        if isinstance(ir, isa.MultiplyLong):
            return self._handle_multiply_long
        if isinstance(ir, isa.MoveWide):
            return self._handle_move_wide
        if isinstance(ir, isa.CountLeadingZeros):
            return self._handle_clz
        if isinstance(ir, isa.LoadStore):
            return self._handle_load_store
        if isinstance(ir, isa.LoadStoreMultiple):
            return self._handle_load_store_multiple
        if isinstance(ir, (isa.Branch, isa.BranchExchange)):
            return self._handle_branch
        return self._handle_nop

    # -- handlers (Table V) -----------------------------------------------------------

    def _handle_nop(self, ir: isa.Instruction, emu: Emulator) -> None:
        return None

    def _handle_data_processing(self, ir: isa.DataProcessing,
                                emu: Emulator) -> None:
        taint = self.taint
        if ir.op in isa.COMPARE_OPS:
            return  # flags only; control-flow taint is out of scope (§VII)
        operand2 = ir.operand2
        label = TAINT_CLEAR
        if operand2.is_immediate:
            # "mov Rd, #imm -> clear"; "binary-op Rd, Rm, #imm -> t(Rm)".
            if ir.op not in isa.UNARY_OPS:
                label = taint.get_register(ir.rn)
        else:
            label = taint.get_register(operand2.rm)
            if operand2.shift_reg is not None:
                label |= taint.get_register(operand2.shift_reg)
            if ir.op not in isa.UNARY_OPS:
                label |= taint.get_register(ir.rn)
        if ir.rd != PC:
            if label and self.ledger is not None:
                sources = []
                if not operand2.is_immediate:
                    sources.append((Loc.reg(operand2.rm),
                                    taint.get_register(operand2.rm)))
                    if operand2.shift_reg is not None:
                        sources.append(
                            (Loc.reg(operand2.shift_reg),
                             taint.get_register(operand2.shift_reg)))
                if ir.op not in isa.UNARY_OPS:
                    sources.append((Loc.reg(ir.rn),
                                    taint.get_register(ir.rn)))
                self._record(emu, ir.mnemonic, sources, Loc.reg(ir.rd))
            taint.set_register(ir.rd, label)

    def _handle_multiply(self, ir: isa.Multiply, emu: Emulator) -> None:
        label = self.taint.get_register(ir.rm) | self.taint.get_register(ir.rs)
        if ir.accumulate:
            label |= self.taint.get_register(ir.rn)
        if label and self.ledger is not None:
            sources = [(Loc.reg(ir.rm), self.taint.get_register(ir.rm)),
                       (Loc.reg(ir.rs), self.taint.get_register(ir.rs))]
            if ir.accumulate:
                sources.append((Loc.reg(ir.rn),
                                self.taint.get_register(ir.rn)))
            self._record(emu, ir.mnemonic, sources, Loc.reg(ir.rd))
        self.taint.set_register(ir.rd, label)

    def _handle_multiply_long(self, ir: isa.MultiplyLong,
                              emu: Emulator) -> None:
        label = self.taint.get_register(ir.rm) | self.taint.get_register(ir.rs)
        if ir.accumulate:
            label |= self.taint.get_register(ir.rd_lo) | \
                self.taint.get_register(ir.rd_hi)
        if label and self.ledger is not None:
            sources = [(Loc.reg(ir.rm), self.taint.get_register(ir.rm)),
                       (Loc.reg(ir.rs), self.taint.get_register(ir.rs))]
            if ir.accumulate:
                # The accumulator halves feed the result label: without
                # them a reconstructed path skips the accumulator hop.
                sources.append((Loc.reg(ir.rd_lo),
                                self.taint.get_register(ir.rd_lo)))
                sources.append((Loc.reg(ir.rd_hi),
                                self.taint.get_register(ir.rd_hi)))
            self._record(emu, ir.mnemonic, sources, Loc.reg(ir.rd_lo))
            self._record(emu, ir.mnemonic, sources, Loc.reg(ir.rd_hi))
        self.taint.set_register(ir.rd_lo, label)
        self.taint.set_register(ir.rd_hi, label)

    def _handle_move_wide(self, ir: isa.MoveWide, emu: Emulator) -> None:
        if ir.top:
            return  # MOVT merges an immediate; existing taint stands
        self.taint.set_register(ir.rd, TAINT_CLEAR)

    def _handle_clz(self, ir: isa.CountLeadingZeros, emu: Emulator) -> None:
        label = self.taint.get_register(ir.rm)
        if label and self.ledger is not None:
            self._record(emu, ir.mnemonic, [(Loc.reg(ir.rm), label)],
                         Loc.reg(ir.rd))
        self.taint.set_register(ir.rd, label)

    def _handle_load_store(self, ir: isa.LoadStore, emu: Emulator) -> None:
        taint = self.taint
        address, __ = transfer_address(emu.cpu, ir)
        if ir.load:
            if ir.rd == PC:
                return
            label = taint.get_memory(address, ir.size)
            # Table V LDR: union the base register's taint ("if the tainted
            # input is the address of an untainted value...").
            if ir.rn != PC:
                label |= taint.get_register(ir.rn)
            if ir.offset_rm is not None:
                label |= taint.get_register(ir.offset_rm)
            if label and self.ledger is not None:
                sources = [(Loc.mem(address, ir.size),
                            taint.get_memory(address, ir.size))]
                if ir.rn != PC:
                    sources.append((Loc.reg(ir.rn),
                                    taint.get_register(ir.rn)))
                if ir.offset_rm is not None:
                    sources.append((Loc.reg(ir.offset_rm),
                                    taint.get_register(ir.offset_rm)))
                self._record(emu, ir.mnemonic, sources, Loc.reg(ir.rd))
            taint.set_register(ir.rd, label)
        else:
            label = taint.get_register(ir.rd)
            if label and self.ledger is not None:
                self._record(emu, ir.mnemonic, [(Loc.reg(ir.rd), label)],
                             Loc.mem(address, ir.size))
            taint.set_memory(address, ir.size, label)

    def _handle_load_store_multiple(self, ir: isa.LoadStoreMultiple,
                                    emu: Emulator) -> None:
        taint = self.taint
        addresses = multiple_addresses(emu.cpu, ir)
        base_label = taint.get_register(ir.rn)
        if ir.load:
            for register, address in zip(ir.reglist, addresses):
                if register == PC:
                    continue
                label = taint.get_memory(address, 4) | base_label
                if label and self.ledger is not None:
                    self._record(
                        emu, ir.mnemonic,
                        [(Loc.mem(address, 4),
                          taint.get_memory(address, 4)),
                         (Loc.reg(ir.rn), base_label)],
                        Loc.reg(register))
                taint.set_register(register, label)
        else:
            for register, address in zip(ir.reglist, addresses):
                label = taint.get_register(register)
                if label and self.ledger is not None:
                    self._record(emu, ir.mnemonic,
                                 [(Loc.reg(register), label)],
                                 Loc.mem(address, 4))
                taint.set_memory(address, 4, label)

    def _handle_branch(self, ir: isa.Instruction, emu: Emulator) -> None:
        link = getattr(ir, "link", False)
        if link:
            # BL/BLX write a code address into LR: never tainted.
            self.taint.set_register(LR, TAINT_CLEAR)
