"""NDroid — the paper's contribution.

An efficient dynamic taint analysis system tracking information flows
across the Java/native boundary (JNI) and within native code, layered on
the QEMU-analogue emulator and cooperating with TaintDroid's Java-side
tracking (Section V):

* :mod:`taint_engine` — shadow registers + byte-granular taint map, with a
  shadow store for Java objects keyed by **indirect reference** so taints
  survive the moving GC;
* :mod:`source_policy` — the ``SourcePolicy`` structure and hash map
  (Listing 1) seeding native-side taints when a native method starts;
* :mod:`multilevel` — the T1…T6 condition chain of Fig. 5 gating
  instrumentation on third-party-native provenance;
* :mod:`dvm_hooks` — the DVM hook engine: JNI entry/exit, object creation,
  field access and exception hooks (Tables II-IV);
* :mod:`instruction_tracer` — Table V ARM/Thumb taint propagation,
  compiled into translation blocks;
* :mod:`syslib_hooks` — Table VI modelled libc/libm handlers and Table VII
  sink checks;
* :mod:`view_reconstructor` — OS-level view by parsing kernel task structs
  out of raw guest memory;
* :mod:`ndroid` — the facade that wires everything onto a platform.
"""

from repro.core.ndroid import NDroid
from repro.core.source_policy import SourcePolicy, SourcePolicyMap
from repro.core.taint_engine import TaintEngine
from repro.core.view_reconstructor import OSView, ViewReconstructor

__all__ = [
    "NDroid",
    "TaintEngine",
    "SourcePolicy",
    "SourcePolicyMap",
    "ViewReconstructor",
    "OSView",
]
