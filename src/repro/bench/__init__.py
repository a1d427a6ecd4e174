"""Benchmark workloads and the overhead harness.

:mod:`cfbench` reimplements the CF-Bench (Chainfire) workload classes the
paper uses for Fig. 10 — native/Java MIPS, MSFLOPS, MDFLOPS, mallocs,
memory read/write, disk read/write — as an installable app whose native
half is real assembled ARM code invoked through JNI, exactly like the
original benchmark APK.

:mod:`harness` runs the suite under each configuration (vanilla,
TaintDroid, TaintDroid+NDroid, DroidScope-sim) and computes per-workload
slowdown ratios against the vanilla platform.

The package itself imports nothing: farm workers reach
``repro.bench.harness.make_platform`` on every cold job, and must not pay
for the emulator bench to get it.  Import the submodules directly.
"""
