"""Outside-in layer tracing for one gwsurf process, and its aggregation.

`Tracer.install()` runs inside the benchmark's child process after
`gwsurf.cli` is imported. It wraps every public function of every
`gwsurf.*` module (except `gwsurf.cli`, the root whose own time is the
unattributed remainder) in each `gwsurf` namespace that binds it, because
`from .calculus import d_z` copies the function into the importing module
at import time, and patching only the defining module would miss those
callers. `ClosedForm.jet` is patched on the class. Spans are kept in
memory as lists and written out by the caller when the process ends.

`layer_metrics()` runs in the parent and turns spans into the per-layer
table. A layer's self time is its spans' duration minus the part covered
by their direct child spans; `families.build.s` alone is inclusive, since
the closed-form constructors it calls are part of building a family. A
call counts towards a layer's `.calls` when it enters the layer from
outside (its parent span is in another layer, or it has none).
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import time

# span record fields
LAYER, FUNC, PARENT, START, END, POINTS, NBYTES = range(7)

_WIRTINGER = ("d_z", "d_zbar", "mixed_dzbar_dz")
_STENCILS = ("d_z", "d_zbar", "dx", "dy", "dxx", "dyy")
_EXPORTS = ("export_mesh", "surface_to_csv", "field_to_csv")
_INTEGRATE = ("induce_surface", "path_independence_report", "closedness_defect")


def layer_of(module: str, func: str) -> str:
    """Layer name for a public function of `gwsurf.<module>`."""
    if module == "closedform":
        if func.startswith("jet_"):
            return "closedform.jet_arith"
        if func in ("sample", "sample_real"):
            return "closedform.sample"
        return "closedform"
    if module == "families":
        return "families.build"
    if module == "integrability" and func == "fit_riccati_coeffs":
        return "integrability.riccati_fit"
    if module == "sigma" and func in ("psi_from_rho", "rho_from_psi"):
        return "sigma.transform"
    if func in _EXPORTS:
        return "inducer.export"
    if module == "inducer":
        return "inducer.integrate" if func in _INTEGRATE else "inducer.forms"
    return module


def _grid_points(args) -> int:
    for a in args:
        g = a if hasattr(a, "nx") else getattr(a, "grid", None)
        if hasattr(g, "nx") and hasattr(g, "ny"):
            return int(g.nx) * int(g.ny)
    return 0


_COUNTS_POINTS = ("closedform.sample", "calculus", "integrability.riccati_fit")


class Tracer:
    """Collects spans from wrapped gwsurf functions in this process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []     # open spans; the workloads run --jobs 1

    def _wrap(self, fn, layer: str, points_of=None, path_arg: int | None = None):
        spans, stack, clock = self.spans, self._stack, time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [layer, fn.__name__, stack[-1] if stack else -1, 0.0, 0.0,
                   points_of(args) if points_of else 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
                if path_arg is not None and len(args) > path_arg:
                    try:
                        rec[NBYTES] = os.path.getsize(args[path_arg])
                    except OSError:
                        pass

        return traced

    def install(self) -> None:
        """Patch every gwsurf namespace; call once, before the command runs."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "gwsurf" or name.startswith("gwsurf."))]
        wrapped: dict[int, object] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj):
                    continue
                home = obj.__module__ or ""
                if not home.startswith("gwsurf.") or home == "gwsurf.cli":
                    continue
                if obj.__name__.startswith(("_", "<")):
                    continue
                if id(obj) not in wrapped:
                    layer = layer_of(home.split(".", 1)[1], obj.__name__)
                    wrapped[id(obj)] = self._wrap(
                        obj, layer,
                        points_of=_grid_points if layer in _COUNTS_POINTS else None,
                        path_arg=1 if obj.__name__ in _EXPORTS else None)
                setattr(mod, attr, wrapped[id(obj)])
        closed_form = sys.modules["gwsurf.closedform"].ClosedForm
        closed_form.jet = self._wrap(closed_form.jet, "closedform.jet",
                                     points_of=lambda a: int(getattr(a[1], "size", 1)))


# ---------------------------------------------------------------------------
# aggregation (parent side; imports nothing from gwsurf)

# (name, unit) of the per-layer metrics, in report order
PER_LAYER = (
    ("closedform.sample.s", "s"), ("closedform.sample.calls", "count"),
    ("closedform.sample.points", "count"),
    ("closedform.jet.s", "s"), ("closedform.jet.calls", "count"),
    ("closedform.jet_per_sample", "ratio"),
    ("closedform.jet_arith.s", "s"), ("closedform.jet_arith.calls", "count"),
    ("families.build.s", "s"),
    ("calculus.s", "s"), ("calculus.calls", "count"), ("calculus.fd_points", "count"),
    ("calculus.analytic_share", "ratio"),
    ("integrability.riccati_fit.s", "s"), ("integrability.riccati_fit.points", "count"),
    ("sigma.transform.s", "s"), ("sigma.transform.calls", "count"), ("sigma.s", "s"),
    ("weierstrass.s", "s"), ("reporting.s", "s"),
    ("inducer.integrate.s", "s"), ("inducer.forms.s", "s"),
    ("inducer.export.s", "s"), ("inducer.export.bytes", "bytes"),
    ("cli.unattributed.s", "s"), ("cli.report.bytes", "bytes"),
    ("trace.overhead_s", "s"),
)


def layer_metrics(spans, run_start: float, run_end: float) -> tuple[dict, dict]:
    """Per-layer table from one traced process.

    `run_start`/`run_end` bound the command after set-up (family built to
    `main` returning); top-level spans outside it (the family build) count
    for their layer but not against the unattributed remainder. Returns
    the metrics and, for the full table, the self seconds and entry calls
    of every layer seen plus the bases of the two ratios.
    """
    n = len(spans)
    child_time = [0.0] * n
    direct_sample = [False] * n
    for rec in spans:
        p = rec[PARENT]
        if p >= 0:
            child_time[p] += rec[END] - rec[START]
            if rec[LAYER] == "closedform.sample":
                direct_sample[p] = True

    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    points: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    nbytes: dict[str, int] = {}
    analytic = fd = fd_points = 0
    covered = 0.0
    for i, rec in enumerate(spans):
        layer, func, p = rec[LAYER], rec[FUNC], rec[PARENT]
        dur = rec[END] - rec[START]
        self_s[layer] = self_s.get(layer, 0.0) + dur - child_time[i]
        nbytes[layer] = nbytes.get(layer, 0) + rec[NBYTES]
        if p < 0 or spans[p][LAYER] != layer:
            calls[layer] = calls.get(layer, 0) + 1
            points[layer] = points.get(layer, 0) + rec[POINTS]
            inclusive[layer] = inclusive.get(layer, 0.0) + dur
        if p < 0 and rec[START] >= run_start:
            covered += dur
        if layer == "calculus":
            # one derivative application: served by a closed form when it
            # samples one directly, a stencil otherwise; dxy and an FD-path
            # mixed_dzbar_dz only delegate to other calculus calls
            if func in _WIRTINGER and direct_sample[i]:
                analytic += 1
            elif func in _STENCILS:
                fd += 1
                fd_points += rec[POINTS]

    s = lambda layer: self_s.get(layer, 0.0)
    c = lambda layer: calls.get(layer, 0)
    metrics = {
        "closedform.sample.s": s("closedform.sample"),
        "closedform.sample.calls": c("closedform.sample"),
        "closedform.sample.points": points.get("closedform.sample", 0),
        "closedform.jet.s": s("closedform.jet"),
        "closedform.jet.calls": c("closedform.jet"),
        "closedform.jet_per_sample": (c("closedform.jet") / c("closedform.sample")
                                      if c("closedform.sample") else 0.0),
        "closedform.jet_arith.s": s("closedform.jet_arith"),
        "closedform.jet_arith.calls": c("closedform.jet_arith"),
        # inclusive: the sympy work and lambdify calls it makes through
        # closedform constructors (diagonal_form, ...) are the family construction
        "families.build.s": inclusive.get("families.build", 0.0),
        "calculus.s": s("calculus"),
        "calculus.calls": c("calculus"),
        "calculus.fd_points": fd_points,
        "calculus.analytic_share": analytic / (analytic + fd) if analytic + fd else 0.0,
        "integrability.riccati_fit.s": s("integrability.riccati_fit"),
        "integrability.riccati_fit.points": points.get("integrability.riccati_fit", 0),
        "sigma.transform.s": s("sigma.transform"),
        "sigma.transform.calls": c("sigma.transform"),
        "sigma.s": s("sigma"),
        "weierstrass.s": s("weierstrass"),
        "reporting.s": s("reporting"),
        "inducer.integrate.s": s("inducer.integrate"),
        "inducer.forms.s": s("inducer.forms"),
        "inducer.export.s": s("inducer.export"),
        "inducer.export.bytes": nbytes.get("inducer.export", 0),
        "cli.unattributed.s": (run_end - run_start) - covered,
    }
    bases = {"closedform.jet_per_sample": f"{c('closedform.jet')}/{c('closedform.sample')}",
             "calculus.analytic_share": f"{analytic}/{analytic + fd}"}
    return metrics, {"self_s": self_s, "calls": calls, "bases": bases}
