"""The Fig. 10 overhead harness.

Runs the CF-Bench suite under each analysis configuration and reports
per-workload slowdown relative to the vanilla platform, plus the
aggregated Native/Java/Overall rows of Fig. 10.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bench.cfbench import (
    CFBench,
    JAVA_WORKLOADS,
    NATIVE_WORKLOADS,
    WORKLOADS,
    geometric_mean,
)
from repro.core import NDroid
from repro.droidscope import DroidScopeSim
from repro.framework import AndroidPlatform
from repro.taintdroid import TaintDroid

CONFIGS = ("vanilla", "taintdroid", "ndroid", "droidscope")


def make_platform(config: str, use_tb: bool = True, trace: bool = False,
                  observe: bool = True) -> AndroidPlatform:
    """Build a platform with the named analysis configuration attached.

    ``use_tb=False`` pins the emulator to the single-step engine (the
    pre-translation baseline the emulator benchmark compares against).
    ``observe=False`` skips the observability facade entirely;
    ``trace=True`` additionally enables the provenance ledger and the
    sampling profiler before the analysis attaches.
    """
    platform = AndroidPlatform(use_tb=use_tb, observe=observe)
    if trace:
        if platform.observability is None:
            raise ValueError("trace=True requires observe=True")
        platform.observability.enable_tracing()
    if config == "taintdroid":
        TaintDroid.attach(platform)
    elif config == "ndroid":
        NDroid.attach(platform)
    elif config == "droidscope":
        DroidScopeSim.attach(platform)
    elif config != "vanilla":
        raise ValueError(f"unknown config {config!r}")
    return platform


@dataclass
class OverheadTable:
    """Per-workload slowdown of one config vs vanilla."""

    config: str
    rows: Dict[str, float] = field(default_factory=dict)

    @property
    def native_score(self) -> float:
        return geometric_mean([self.rows[w] for w in NATIVE_WORKLOADS
                               if w in self.rows])

    @property
    def java_score(self) -> float:
        return geometric_mean([self.rows[w] for w in JAVA_WORKLOADS
                               if w in self.rows])

    @property
    def overall(self) -> float:
        return geometric_mean(list(self.rows.values()))

    def format(self) -> str:
        label = {"taintdroid": "TaintDroid", "ndroid": "NDroid",
                 "droidscope": "DroidScope-sim"}.get(self.config,
                                                     self.config)
        lines = [f"== {label} slowdown vs vanilla (x) =="]
        for name in WORKLOADS:
            if name in self.rows:
                lines.append(f"  {name:<22s} {self.rows[name]:8.2f}")
        lines.append(f"  {'Native Score':<22s} {self.native_score:8.2f}")
        lines.append(f"  {'Java Score':<22s} {self.java_score:8.2f}")
        lines.append(f"  {'Overall Score':<22s} {self.overall:8.2f}")
        return "\n".join(lines)


class OverheadHarness:
    """Measures wall-clock slowdown per workload per configuration."""

    def __init__(self, iterations: int = 300, repeats: int = 1) -> None:
        self.iterations = iterations
        self.repeats = repeats

    def measure_config(self, config: str,
                       workloads: Optional[List[str]] = None
                       ) -> Dict[str, float]:
        """Best-of-N elapsed seconds per workload under ``config``."""
        platform = make_platform(config)
        bench = CFBench(platform, iterations=self.iterations)
        names = workloads if workloads is not None else list(WORKLOADS)
        timings: Dict[str, float] = {}
        for name in names:
            samples = [bench.run_workload(name).elapsed_seconds
                       for __ in range(self.repeats)]
            timings[name] = min(samples)
        return timings

    def overhead_table(self, config: str,
                       baseline: Optional[Dict[str, float]] = None,
                       workloads: Optional[List[str]] = None
                       ) -> OverheadTable:
        if baseline is None:
            baseline = self.measure_config("vanilla", workloads)
        measured = self.measure_config(config, workloads)
        rows = {
            name: measured[name] / baseline[name]
            for name in measured
            if baseline.get(name)
        }
        return OverheadTable(config=config, rows=rows)

    def compare_all(self, workloads: Optional[List[str]] = None
                    ) -> Dict[str, OverheadTable]:
        baseline = self.measure_config("vanilla", workloads)
        return {
            config: self.overhead_table(config, baseline, workloads)
            for config in CONFIGS
            if config != "vanilla"
        }
