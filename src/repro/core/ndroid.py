"""The NDroid facade: wires every engine onto a platform (Fig. 4).

Attachment order mirrors the architecture diagram:

1. reuse (or attach) **TaintDroid** for the Java context — "NDroid employs
   it to run apps and track information flow in the Java context";
2. build the **OS-level view reconstructor** over guest memory;
3. install the **taint engine** as the native-side taint authority for the
   modelled libc and the kernel;
4. attach the **instruction tracer** to the emulator, scoped to
   third-party regions via the reconstructed view;
5. install the **DVM hook engine** (with multilevel hooking) and the
   **system-library hook engine**.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Optional, Set

from repro.common.errors import DalvikThrow, ReproError
from repro.common.taint import TAINT_CLEAR, TaintLabel, describe_taint
from repro.core.dvm_hooks import DvmHookEngine
from repro.core.instruction_tracer import InstructionTracer
from repro.core.multilevel import MultilevelHookManager
from repro.core.syslib_hooks import SysLibHookEngine
from repro.core.taint_engine import TaintEngine
from repro.core.view_reconstructor import ViewReconstructor
from repro.taintdroid import TaintDroid


class NDroid:
    """One attached NDroid instance."""

    def __init__(self, platform, use_multilevel: bool = True) -> None:
        self.platform = platform
        self.taint_engine = TaintEngine(event_log=platform.event_log)
        self.view_reconstructor = ViewReconstructor(platform.memory)
        self.multilevel = MultilevelHookManager(
            platform.jni.symbols, self._branch_from_third_party,
            enabled=use_multilevel)
        self._use_multilevel = use_multilevel
        self.instruction_tracer = InstructionTracer(
            self.taint_engine, self._is_third_party)
        # Graceful degradation: a faulting hook is quarantined and the
        # engine over-taints instead of unwinding the whole analysis.
        self.degraded_events = 0
        self.quarantined_hooks: Set[str] = set()
        # Per-hook invocation counts, surfaced as core.hook.<name> metrics.
        self.hook_invocations: Dict[str, int] = defaultdict(int)
        self.instruction_tracer.fault_handler = self._on_tracer_fault
        self.dvm_hooks = DvmHookEngine(platform, self.taint_engine,
                                       self.multilevel,
                                       guard=self.guard_hook)
        self.syslib_hooks = SysLibHookEngine(platform, self.taint_engine,
                                             guard=self.guard_hook)
        # Third-party extents at the last refresh_view(); an unchanged set
        # (a warm worker re-hitting a resident library) skips the flush.
        self._third_party_extents: frozenset = frozenset()

    # -- attachment ------------------------------------------------------------

    @classmethod
    def attach(cls, platform, use_multilevel: bool = True) -> "NDroid":
        """Install NDroid on a platform (attaching TaintDroid if absent)."""
        if platform.taintdroid is None:
            TaintDroid.attach(platform)
        system = cls(platform, use_multilevel=use_multilevel)
        platform.ndroid = system

        # Native-side taint authority for libc and raw syscalls.
        platform.libc.taint_interface = system.taint_engine
        platform.kernel.taint_provider = system.taint_engine.memory_taints

        # Branch events feed the multilevel condition chains.
        platform.emu.add_branch_listener(system.multilevel.on_branch)
        # The instruction tracer sees every instruction; it self-scopes to
        # third-party regions.
        platform.emu.add_tracer(system.instruction_tracer)

        system.dvm_hooks.install()
        system.syslib_hooks.install()

        # Re-introspect whenever the loader maps a new library, so freshly
        # loaded third-party code is traced from its first instruction.
        def on_event(event):
            if event.kind == "loadLibrary":
                system.refresh_view()

        platform.event_log.subscribe(on_event)
        system._on_event = on_event

        observability = getattr(platform, "observability", None)
        if observability is not None:
            observability.wire_ndroid(system)

        platform.event_log.emit("ndroid", "attach",
                                "NDroid instrumentation enabled")
        return system

    def detach(self) -> None:
        """Unsubscribe from the platform's event log (test teardown)."""
        if getattr(self, "_on_event", None) is not None:
            self.platform.event_log.unsubscribe(self._on_event)
            self._on_event = None

    # -- graceful degradation ------------------------------------------------------

    def guard_hook(self, name: str,
                   hook: Callable,
                   fallback: Optional[Callable] = None) -> Callable:
        """Wrap an analysis hook so a fault degrades instead of unwinding.

        A hook that raises any :class:`ReproError` (other than
        :class:`DalvikThrow`, which is simulated Java control flow) is
        **quarantined**: the fault is counted, the taint engine enters
        conservative mode with every label the failed hook could have
        been carrying, and the run continues.  If a ``fallback`` is
        given it runs in place of the quarantined hook on every later
        invocation — sink hooks use this to keep reporting
        conservatively, so degradation never *misses* a leak.  The
        fallback may return an extra :class:`TaintLabel` to join into
        the degradation label.
        """
        def guarded(emu) -> None:
            self.hook_invocations[name] += 1
            if name in self.quarantined_hooks:
                if fallback is not None:
                    self._run_fallback(name, fallback, emu)
                return
            try:
                injector = getattr(emu, "fault_injector", None)
                on_hook = getattr(injector, "on_hook", None)
                if on_hook is not None:
                    on_hook(name, emu.instruction_count)
                hook(emu)
            except DalvikThrow:
                raise
            except ReproError as error:
                self._degrade_hook(name, error, emu, fallback)

        return guarded

    def _run_fallback(self, name: str, fallback: Callable,
                      emu) -> TaintLabel:
        """Run a quarantined hook's conservative stand-in, crash-proof."""
        try:
            label = fallback(emu)
        except ReproError:
            return TAINT_CLEAR
        return label if label is not None else TAINT_CLEAR

    def _degrade_hook(self, name: str, error: ReproError, emu,
                      fallback: Optional[Callable]) -> None:
        self.degraded_events += 1
        self.quarantined_hooks.add(name)
        label = self.taint_engine.live_label()
        if fallback is not None:
            label |= self._run_fallback(name, fallback, emu)
        self.taint_engine.degrade(label)
        self.platform.event_log.emit(
            "ndroid", "hook.degraded",
            f"hook {name} quarantined after {type(error).__name__}: {error} "
            f"(conservative label {describe_taint(label)})",
            hook=name, error=type(error).__name__, label=label)

    def _on_tracer_fault(self, error: ReproError, ir, emu) -> None:
        """A per-instruction taint handler faulted: over-taint, keep going."""
        self.degraded_events += 1
        self.taint_engine.degrade(self.taint_engine.live_label())
        self.platform.event_log.emit(
            "ndroid", "tracer.degraded",
            f"taint handler for {type(ir).__name__} faulted at "
            f"pc=0x{emu.cpu.pc:08x}: {type(error).__name__}: {error}",
            pc=emu.cpu.pc, error=type(error).__name__)

    # -- view plumbing ------------------------------------------------------------

    def _is_third_party(self, address: int) -> bool:
        return self.view_reconstructor.is_third_party(address)

    def _branch_from_third_party(self, address: int) -> bool:
        if not self._use_multilevel:
            return True  # ablation: hook on every invocation
        return self.view_reconstructor.is_third_party(address)

    def refresh_view(self) -> None:
        """Re-introspect after the memory map changed (library load).

        Only an actual change to the third-party region set invalidates:
        a warm worker re-hitting a still-resident library emits the same
        ``loadLibrary`` event a cold load would, but its region was never
        unmapped, so the reconstructed view — and with it the tracer's
        region cache and the warm translation blocks it guards — stays.
        """
        extents = frozenset(
            (region.start, region.end)
            for region in self.platform.emu.memory_map
            if region.third_party)
        if extents == self._third_party_extents:
            return
        self._third_party_extents = extents
        self.view_reconstructor.invalidate()
        self.view_reconstructor.reconstruct()
        self.instruction_tracer.invalidate_region_cache()

    # -- reporting ----------------------------------------------------------------------

    def leaks(self):
        return self.platform.leaks.by_detector("ndroid")

    def tainted_native_deliveries(self):
        """Native invocations that received tainted parameters.

        The Section VI study's intermediate observation: an app can
        "deliver the contact and SMS information to native code" without
        (yet) leaking it.
        """
        return list(self.dvm_hooks.tainted_deliveries)

    def statistics(self) -> Dict[str, int]:
        return {
            "traced_instructions":
                self.instruction_tracer.traced_instructions,
            "taint_propagations": self.taint_engine.propagation_count,
            "tainted_bytes": self.taint_engine.tainted_bytes,
            "modelled_calls": self.syslib_hooks.modelled_calls,
            "sink_checks": self.syslib_hooks.sink_checks,
            "source_policies": len(self.dvm_hooks.source_policies),
            "multilevel_checks": self.multilevel.checks,
            "multilevel_fires": self.multilevel.fires,
            "view_reconstructions":
                self.view_reconstructor.reconstructions,
            "degraded_events": self.degraded_events,
            "quarantined_hooks": len(self.quarantined_hooks),
        }
