"""Host-speed reference for the end-to-end timings.

On a shared host the benchmark's CPUs can run about 30% slower for
minutes at a time (measured on a 2-vCPU Intel Xeon VM): setup_s, import_s
and run_s of the same code move together by that much from one run to the
next, which no number of samples inside a run averages out.
run.py therefore times this fixed computation, which never touches
gwsurf, before every sample, and reports each timing median scaled by
REFERENCE_S / (the run's median reference time). A slower gwsurf still
shows in full; a slower host mostly does not. The raw medians are printed
as well.

The computation is the kind of work an invocation does on the CPU:
executing module bodies that define classes, functions and dicts (most
of an import) and interpreted integer and dict arithmetic.
"""
from __future__ import annotations

import marshal
import time

# Nominal reference time: scaled timings are the seconds a host would
# take on which one reference computation takes REFERENCE_S.
REFERENCE_S = 0.4

_MODULE_SOURCE = "\n".join(
    [f"class C{i}:\n" + "".join(f"    def m{j}(self, a, b={j}):\n        return a + b * {i}\n"
                                for j in range(6))
     for i in range(150)]
    + [f"def f{i}(x, *args, **kw):\n    return [x, {i}, args, kw]\n"
       f"T{i} = {{'k{i}': ({i}, 'v'), 'f': f{i}}}"
       for i in range(300)])
_MODULE = marshal.dumps(compile(_MODULE_SOURCE, "<reference>", "exec"))


def reference_time() -> float:
    """Seconds one reference computation takes now."""
    t0 = time.perf_counter()
    for _ in range(48):
        exec(marshal.loads(_MODULE), {"__name__": "reference"})
    acc, table = 0, {}
    for i in range(1_000_000):
        table[i & 1023] = acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t0
