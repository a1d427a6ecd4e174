"""The DroidScope-style comparator (Yan & Yin, USENIX Security 2012).

DroidScope "tracks information flow at the instruction level by enhancing
QEMU", reconstructing both the OS-level and the DVM-level views purely
from machine instructions — with no JNI semantic shortcuts and no modelled
library summaries.  The paper uses it as the performance comparator
(Section VI.E: at least 11× slowdown vs NDroid's 5.45×) and notes it
"did not report new information flows through JNI than TaintDroid".

This simulation therefore reproduces DroidScope's *cost model*, not new
detection capability:

* every native instruction is taint-traced, in **every** region (system
  libraries included);
* every Dalvik instruction pays a DVM-view reconstruction step that
  re-reads the frame's register window from guest memory;
* every modelled library call is walked byte-by-byte as if its internals
  were being traced instruction by instruction.

Detection remains TaintDroid's (attached automatically), matching the
published result.
"""

from repro.droidscope.system import DroidScopeSim

__all__ = ["DroidScopeSim"]
