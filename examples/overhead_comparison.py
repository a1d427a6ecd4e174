#!/usr/bin/env python3
"""Reproduce Fig. 10: CF-Bench slowdown under each analysis system.

Runs the CF-Bench workload suite on four configurations of the simulated
device — vanilla, TaintDroid, TaintDroid+NDroid, and the DroidScope-style
comparator — and prints per-workload slowdowns against vanilla.

The paper's shape to look for: NDroid's cost concentrates on native
workloads while Java workloads stay near TaintDroid's, and the
DroidScope comparator's overall slowdown clearly exceeds NDroid's
(5.45x vs >=11x in the paper; ratios here are compressed because the
substrate is a Python emulator rather than TCG-translated code).

Run:  python examples/overhead_comparison.py [iterations]
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.bench.harness import OverheadHarness


def main():
    iterations = int(sys.argv[1]) if len(sys.argv) > 1 else 300
    print(f"running CF-Bench ({iterations} iterations/workload, "
          f"4 configurations)...")
    harness = OverheadHarness(iterations=iterations, repeats=2)
    tables = harness.compare_all()

    print()
    for table in tables.values():
        print(table.format())
        print()

    ndroid = tables["ndroid"]
    droidscope = tables["droidscope"]
    print("paper-shape checks:")
    print(f"  NDroid native ({ndroid.native_score:.2f}x) > "
          f"NDroid java ({ndroid.java_score:.2f}x): "
          f"{ndroid.native_score > ndroid.java_score}")
    print(f"  DroidScope overall ({droidscope.overall:.2f}x) > "
          f"NDroid overall ({ndroid.overall:.2f}x): "
          f"{droidscope.overall > ndroid.overall}")


if __name__ == "__main__":
    main()
