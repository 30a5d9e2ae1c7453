"""Command-line front door: verification suites, surface export, reports.

Subcommands
-----------
verify   run every residual suite applicable to the configured family at
         each refinement level; one JSON report per suite; exit 0 iff all
         pass (2 on numerical failure, including nonconvergent ratios).
induce   build the surface, write OBJ + CSV + a curvature-closure report.
report   merge suite JSONs from the output directory into one summary.

Each level of a report lists its row's named parts, and its max_norm and
l2_norm are the worst of them (reporting builds every row).

Exit codes: 0 pass, 2 numerical failure, 64 usage error, 66 missing or
unreadable inputs, 73 an output that cannot be created or written (the
sysexits table). The environment variable WSL_OUT overrides --out.
Outputs are deterministic byte-for-byte for identical configurations
(reports embed the grid, tolerances and library version; never
timestamps).

Tolerances: exact suites must reach 1e-12 (1e-10 where an extra
multiplication is involved). Finite-difference suites use the measured
model tol(h) = 10 * C_est * h^2 with C_est calibrated at the coarsest
level, floored at 1e-9 to keep machine-noise residuals from producing
meaningless ratios; ratios are enforced (>= 2.5 where 4 is expected) only
when the coarsest residual sits clearly above that floor. All tolerances
scale with --tol-scale.
"""
import json
import math
import os
import sys
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from . import __version__
from .calculus import mixed_dzbar_dz
from .families import FAMILY_NAMES, SolutionFamily, build_family
from .grid import GridSpec, NumericalBreakdown, _shared
from .inducer import (export_mesh, fundamental_forms, induce_surface,
                      path_independence_report)
from .integrability import (fit_riccati_coeffs, h_integrability_residual,
                            linear_system_residual,
                            linearization_constraint_residual, riccati_residual,
                            sinh_gordon_residual, zero_curvature_residual)
from .reporting import (RATIO_MIN, ResidualPart, ResidualReport, _masked_count, _unmasked,
                        joined, norms, report_from_parts, worst)
from .sigma import (compatibility_residual, deformed_ll_residual,
                    landau_lifshitz_residual, ll_commutator, multisoliton_product,
                    psi_from_rho, rho_from_psi, sigma_residual, spin_matrix,
                    unimodular_H_constancy_check)
from .weierstrass import (conservation_defect, current_J,
                          dbar_J_defect, density_p, gaussian_curvature_from_p,
                          modified_current, potential_conservation_residual,
                          weierstrass_residual)

EXIT_OK = 0
EXIT_NUMERICAL = 2
EXIT_USAGE = 64
EXIT_NOINPUT = 66
EXIT_CANTCREAT = 73

EXACT_TOL = 1e-12
POINTWISE_TOL = 1e-10
FD_FLOOR = 1e-9
FD_SAFETY = 10.0
# d dbar(1/H) at or below this classifies H as integrable; not scaled by --tol-scale
INTEGRABLE_TOL = 1e-6


# ---------------------------------------------------------------------------
# configuration: one row per key drives the config file, the flags, the
# report stamp and the commands that read it

class RunConfig(NamedTuple):
    family: str = "rational"
    lam: float | None = None
    a: float | None = None
    h0: float = 1.0
    grid: tuple[int, int] = (101, 101)
    domain: tuple[float, float, float, float] | None = None
    basepoint: tuple[float, float] | None = None
    tol_scale: float = 1.0
    levels: int = 2
    jobs: int = 1
    out: str = "out"
    format: str = "json"

    def describe(self) -> dict:
        """The settings that shape results, as stamped into every report.
        verify stamps basepoint and induce stamps levels, always at their
        defaults: a command takes a key it does not read only there."""
        return {k.key: k.report(getattr(self, k.field)) for k in _KEYS if k.report}


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        nx, ny = text.lower().split("x")
        grid = int(nx), int(ny)
    except ValueError as exc:
        raise ValueError(f"grid must look like 101x101, got {text!r}") from exc
    if min(grid) < 3:
        raise ValueError(f"grid needs at least 3x3 points for the stencils, got {text!r}")
    return grid


def _finite(text: str) -> float:
    value = float(text)
    # nan or inf would reach the families and the grid as a numerical error
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _floats(n: int, what: str):
    def parse(text: str) -> tuple[float, ...]:
        parts = text.split(",")
        if len(parts) != n:
            raise ValueError(f"{what} needs {n} comma-separated numbers, got {text!r}")
        return tuple(_finite(p) for p in parts)
    return parse


def _domain(text: str) -> tuple[float, ...]:
    x0, x1, y0, y1 = bounds = _floats(4, "domain")(text)
    if not (x0 < x1 and y0 < y1):
        raise ValueError(f"domain must be ordered as x_min,x_max,y_min,y_max, got {text!r}")
    return bounds


def _choice(what: str, names):
    def parse(text: str) -> str:
        if text not in names:
            raise ValueError(f"{what} must be one of {', '.join(names)}, got {text!r}")
        return text
    return parse


def _optional(parse):
    """`parse`, plus the literal `default` for the key's default, None."""
    return lambda text: None if text == "default" else parse(text)


def _tol_scale(text: str) -> float:
    value = float(text)
    # nan or inf would make every `residual > tol` comparison False
    if not 0.0 < value < math.inf:
        raise ValueError(f"tol_scale must be finite and positive, got {text!r}")
    return value


def _levels(text: str) -> int:
    value = int(text)
    # zero levels would compute no ratios and silently skip the ratio gate
    if value < 1:
        raise ValueError(f"levels must be at least 1, got {value}")
    return value


def _jobs(text: str) -> int:
    value = int(text)
    # verify runs on one thread; the key stays so that `--jobs 1` parses
    if value != 1:
        raise ValueError(f"jobs must be 1, got {value}")
    return value


def _json(v):
    return list(v) if isinstance(v, tuple) else v


class _Key(NamedTuple):
    key: str                    # config-file key, also the report-config key
    field: str                  # RunConfig field
    flag: str                   # command-line flag
    parse: Callable             # text (flag or config file) -> value
    report: Callable | None = None  # value -> report-config JSON; None: not stamped
    param: str | None = None    # a family parameter: its key in SolutionFamily.params
    # the commands that read the key; any other takes it only at its default
    commands: tuple = ("verify", "induce")


_KEYS = (
    _Key("family", "family", "--family", _choice("family", FAMILY_NAMES), report=_json),
    _Key("lambda", "lam", "--lambda", _optional(_finite), report=_json, param="lambda"),
    _Key("a", "a", "--A", _optional(_finite), report=_json, param="A"),
    _Key("h0", "h0", "--H0", _finite, report=_json, param="H0"),
    _Key("grid", "grid", "--grid", _parse_grid, report=lambda g: f"{g[0]}x{g[1]}"),
    _Key("domain", "domain", "--domain", _optional(_domain), report=_json),
    _Key("basepoint", "basepoint", "--basepoint", _optional(_floats(2, "basepoint")),
         report=_json, commands=("induce",)),
    _Key("tol_scale", "tol_scale", "--tol-scale", _tol_scale, report=_json),
    _Key("levels", "levels", "--levels", _levels, report=_json, commands=("verify",)),
    _Key("jobs", "jobs", "--jobs", _jobs, commands=()),
    _Key("out", "out", "--out", str, commands=("verify", "induce", "report")),
    _Key("format", "format", "--format", _choice("format", ("json", "csv")),
         commands=("report",)),
)


def parse_config_text(text: str) -> RunConfig:
    """Parse key=value lines; '#' starts a comment; unknown keys rejected."""
    keys = {k.key: k for k in _KEYS}
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in keys:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        cfg = _set(cfg, keys[key], val, f"line {lineno}: {key}")
    return cfg


def _away(cfg: RunConfig, key: _Key) -> bool:
    """Whether `cfg` sets `key` away from its default."""
    return getattr(cfg, key.field) != RunConfig._field_defaults[key.field]


def _set(cfg: RunConfig, key: _Key, text: str, where: str) -> RunConfig:
    """`cfg` with `key` parsed from `text`; a bad value names `where` it came from."""
    try:
        return cfg._replace(**{key.field: key.parse(text)})
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# suite machinery

# verify's inputs at one level, each built on first use and kept until the
# level ends; `reads` names the inputs one is built from. The *_fd inputs take
# the stencil path: h, rho and the spinor are the same samples without their
# analytic sources, so a level samples each form once (without spinor forms,
# the spinor is the transform of rho and h). SUITES lists every exact suite
# first, so no *_fd input exists while they run.
class _Input(NamedTuple):
    build: Callable             # fn(fam, grid, *reads) -> the input
    reads: tuple = ()


_INPUTS = {
    "rho": _Input(lambda fam, g: fam.rho(g)),
    "spinor": _Input(lambda fam, g, rho, h: fam.spinor(g) if fam.spinor_forms
                     else psi_from_rho(rho, h), ("rho", "h")),
    "h": _Input(lambda fam, g: fam.h(g)),
    "h_fd": _Input(lambda fam, g, h: h.without_source(), ("h",)),
    "spinor_fd": _Input(lambda fam, g, s: s.without_sources(), ("spinor",)),
    "rho_fd": _Input(lambda fam, g, rho: rho.without_source(), ("rho",)),
    "ll_commutator_fd": _Input(lambda fam, g, rho: ll_commutator(rho), ("rho_fd",)),
}


class SuiteSpec(NamedTuple):
    name: str
    kind: str                   # exact | fd | control | classify
    needs: dict                 # SolutionFamily fact -> the value the suite runs for
    inputs: tuple               # names in _INPUTS
    runner: object              # fn(family, *inputs) -> ResidualReport
    tol: float = EXACT_TOL      # for exact suites


# --- exact-path runners -----------------------------------------------------

def run_roundtrip_exact(fam, rho, h):
    back = rho_from_psi(psi_from_rho(rho, h))
    (b, bmask), (r, rmask) = back.stored, rho.stored
    return report_from_parts(rho.grid, [("rho", b - r, rmask | bmask)])


def run_transform_exact(fam, rho, h, spinor):
    a = weierstrass_residual(psi_from_rho(rho, h), h)
    derived = rho_from_psi(spinor)
    b = sigma_residual(derived, h)
    # the quotient's derivatives legitimately amplify rounding where |rho|
    # grows large, so that direction is judged relative to the size of the
    # second-derivative term it has to cancel
    mix, mmask = mixed_dzbar_dz(derived).stored
    scale = max(1.0, norms(mix, rho.grid, mmask)[0])
    relative = tuple(ResidualPart(p.name, p.max_norm / scale, p.l2_norm / scale)
                     for p in b.parts)
    grid, mask = _shared(rho, h, spinor)
    return joined(grid, _masked_count(mask, grid), a.parts + relative,
                  {"rho_direction_scale": scale})


def run_current_identity_exact(fam, s, h):
    (J, jmask), (p, pmask) = current_J(s).stored, density_p(s).stored
    vals = np.abs(J) ** 2 - p**4 * h.stored[0]**2
    return report_from_parts(s.grid, [("current_identity", vals, jmask | pmask | h.stored[1])])


def run_constraints_exact(fam, s):
    rep = linearization_constraint_residual(s)
    variance = rep.details["p_variance"]
    return joined(rep.grid, rep.masked_points,
                  rep.parts + (ResidualPart("p_variance", variance, variance),),
                  {"p_mean": rep.details["p_mean"]})


def run_multisoliton_exact(fam, rho, h):
    prod = multisoliton_product(rho, rho)
    rep = sigma_residual(prod, h)
    values, mask = prod.stored
    dev = ResidualPart("unimodularity", *norms(np.abs(values) - 1.0, prod.grid, mask))
    return joined(prod.grid, rep.masked_points, rep.parts + (dev,))


# --- finite-difference runners ----------------------------------------------

def run_roundtrip_fd(fam, s, h):
    back = psi_from_rho(rho_from_psi(s), h)
    grid, mask = _shared(s, back)
    (b1, b2), (p1, p2) = ((f.psi1.stored[0], f.psi2.stored[0]) for f in (back, s))
    # compare up to the global transform sign
    d_plus = _unmasked(np.abs(b2 - p2), grid, mask)
    d_minus = _unmasked(np.abs(b2 + p2), grid, mask)
    use_minus = float(np.sum(d_minus)) < float(np.sum(d_plus))
    sgn = -1.0 if use_minus else 1.0
    err = np.maximum(np.abs(sgn * b1 - p1), np.abs(sgn * b2 - p2))
    return report_from_parts(grid, [("spinor", err, mask)])


def run_modified_current_fd(fam, s, h):
    grid = s.grid
    cur = modified_current(s, h, grid.xs()[(grid.nx - 1) // 2])
    return conservation_defect(cur)


def run_riccati_fd(fam, rho):
    coeffs = fit_riccati_coeffs(rho)
    parts = riccati_residual(rho, coeffs).parts + zero_curvature_residual(coeffs).parts
    return joined(rho.grid, _masked_count(rho.stored[1], rho.grid), parts)


def run_path_independence_fd(fam, s):
    grid = s.grid
    i0, j0 = grid.center_index()
    z0 = (grid.xs()[i0], grid.ys()[j0])
    return path_independence_report(s, z0, (grid.x_max, grid.y_max))


# --- controls and classification ---------------------------------------------

def run_ll_necessity_control(fam, comm, h):
    """Undeformed spin equation must fail where the deformation is needed."""
    undeformed = landau_lifshitz_residual(comm)
    deformed = deformed_ll_residual(comm, h)
    return joined(comm.grid, _masked_count(comm.mask | h.stored[1], comm.grid),
                  undeformed.parts, {"deformed": deformed.max_norm})


def run_h_classification(fam, h):
    rep = h_integrability_residual(h)
    details = dict(rep.details)
    if fam.ddbar_inv_h is not None:
        details["expected"] = fam.ddbar_inv_h
    details["classified_integrable"] = bool(rep.max_norm <= INTEGRABLE_TOL)
    return rep._replace(details=details)


# `needs` states each suite's hypothesis as facts of the family; a comment
# names a fact that narrows a row below its hypothesis, and why.
SUITES = (
    SuiteSpec("dirac_exact", "exact", {"constant_rho": False}, ("spinor", "h"),
              lambda fam, s, h: weierstrass_residual(s, h)),
    SuiteSpec("sigma_exact", "exact", {}, ("rho", "h"), lambda fam, r, h: sigma_residual(r, h)),
    SuiteSpec("conservation_exact", "exact", {"constant_rho": False}, ("spinor",),
              lambda fam, s: potential_conservation_residual(s)),
    # varying H: also round-off on unimodular and holomorphic, never run there
    SuiteSpec("roundtrip_exact", "exact", {"constant_h": False}, ("rho", "h"),
              run_roundtrip_exact),
    # varying rho: at --lambda 0 rho_from_psi raises (psi2 vanishes); spinor
    # forms: holomorphic's transform spinor has order-1 jets, which would reach
    # a stencil
    SuiteSpec("transform_exact", "exact", {"constant_rho": False, "spinor_forms": True},
              ("rho", "h", "spinor"), run_transform_exact),
    SuiteSpec("spin_algebra_exact", "exact", {}, ("rho",),
              lambda fam, rho: spin_matrix(rho).algebra_report()),
    # |J|^2 = p^4 H^2 is sinh-Gordon at d dbar ln p = 0
    SuiteSpec("current_identity_exact", "exact", {"constant_density": True}, ("spinor", "h"),
              run_current_identity_exact, POINTWISE_TOL),
    # varying H, as in linear_system_*: unimodular passes too, never run there
    SuiteSpec("constraints_exact", "exact", {"constant_density": True, "constant_h": False},
              ("spinor",), run_constraints_exact, POINTWISE_TOL),
    SuiteSpec("linear_system_exact", "exact", {"constant_density": True, "constant_h": False},
              ("spinor", "h"), lambda fam, s, h: linear_system_residual(s, h, fam.p0),
              POINTWISE_TOL),
    # varying H: for constant H this is the undeformed equation of ll_fd
    SuiteSpec("deformed_ll_exact", "exact", {"constant_h": False}, ("rho", "h"),
              lambda fam, rho, h: deformed_ll_residual(ll_commutator(rho), h), POINTWISE_TOL),
    SuiteSpec("compatibility_exact", "exact", {"unit_rho": True, "constant_rho": False},
              ("rho", "h"), lambda fam, rho, h: compatibility_residual(rho, h), POINTWISE_TOL),
    SuiteSpec("h_constancy_exact", "exact", {"unit_rho": True}, ("rho", "h"),
              lambda fam, rho, h: unimodular_H_constancy_check(rho, h), POINTWISE_TOL),
    SuiteSpec("multisoliton_exact", "exact", {"unit_rho": True}, ("rho", "h"),
              run_multisoliton_exact, POINTWISE_TOL),
    # the stencil rows below that need a varying H pass for constant H too;
    # they check the stencils where the terms in H are not zero. On data of
    # z + conj(z) riccati_fd, ll_fd and path_independence_fd read round-off,
    # far below the 100 FD_FLOOR above which _gate enforces every ratio
    SuiteSpec("dirac_fd", "fd", {"constant_h": False}, ("spinor_fd", "h_fd"),
              lambda fam, s, h: weierstrass_residual(s, h)),
    SuiteSpec("sigma_fd", "fd", {"constant_h": False}, ("rho_fd", "h_fd"),
              lambda fam, rho, h: sigma_residual(rho, h)),
    SuiteSpec("conservation_fd", "fd", {"constant_h": False}, ("spinor_fd",),
              lambda fam, s: potential_conservation_residual(s)),
    SuiteSpec("roundtrip_fd", "fd", {"constant_h": False}, ("spinor_fd", "h_fd"),
              run_roundtrip_fd),
    # spinor forms: holomorphic's transform spinor passes too, never run there
    SuiteSpec("current_defect_fd", "fd", {"spinor_forms": True}, ("spinor_fd", "h_fd"),
              lambda fam, s, h: dbar_J_defect(s, h)),
    # integrates p^2 dH along rows, exact for data of z + conj(z)
    SuiteSpec("modified_current_fd", "fd", {"constant_h": False, "one_dimensional": True},
              ("spinor_fd", "h_fd"), run_modified_current_fd),
    SuiteSpec("sinh_gordon_fd", "fd", {"constant_h": False}, ("spinor_fd", "h_fd"),
              lambda fam, s, h: sinh_gordon_residual(s, h)),
    SuiteSpec("deformed_ll_fd", "fd", {"constant_h": False}, ("ll_commutator_fd", "h_fd"),
              lambda fam, comm, h: deformed_ll_residual(comm, h)),
    SuiteSpec("riccati_fd", "fd", {"constant_h": False}, ("rho_fd",), run_riccati_fd),
    SuiteSpec("linear_system_fd", "fd", {"constant_density": True, "constant_h": False},
              ("spinor_fd", "h_fd"), lambda fam, s, h: linear_system_residual(s, h, fam.p0)),
    SuiteSpec("ll_fd", "fd", {"constant_h": True}, ("ll_commutator_fd",),
              lambda fam, comm: landau_lifshitz_residual(comm)),
    # |rho| != 1: also round-off on unimodular, never run there
    SuiteSpec("path_independence_fd", "fd", {"unit_rho": False}, ("spinor",),
              run_path_independence_fd),
    # the undeformed equation fails only where H varies
    SuiteSpec("ll_necessity_control", "control", {"constant_h": False},
              ("ll_commutator_fd", "h_fd"), run_ll_necessity_control),
    # varying H: d dbar(1/H) = 0 holds trivially for constant H
    SuiteSpec("h_classification", "classify", {"constant_h": False}, ("h",), run_h_classification),
)


def _suites_for(fam: SolutionFamily) -> list[SuiteSpec]:
    return [s for s in SUITES if all(getattr(fam, k) == v for k, v in s.needs.items())]


def _level_inputs(fam: SolutionFamily, grid: GridSpec) -> Callable[[str], object]:
    """get(name): the input `name` at `grid`, built on first use and kept."""
    built = {}

    def get(name):
        if name not in built:
            spec = _INPUTS[name]
            built[name] = spec.build(fam, grid, *map(get, spec.reads))
        return built[name]
    return get


def _run_level(suites, fam, grid) -> list[ResidualReport]:
    """Each suite's report at `grid`, in the order of `suites`. A suite
    whose runner, or an input it reads, raises NumericalBreakdown gets a
    broken report instead: one part `breakdown` whose norms are NaN, no
    masked point counted, and the message as the `breakdown` detail, which
    `_gate` fails. The other suites run as they would on their own."""
    get = _level_inputs(fam, grid)
    reports = []
    for spec in suites:
        try:
            reports.append(spec.runner(fam, *map(get, spec.inputs)))
        except NumericalBreakdown as exc:
            reports.append(joined(grid, 0, [ResidualPart("breakdown", math.nan, math.nan)],
                                  {"breakdown": str(exc)}))
    return reports


def _level_entry(rep: ResidualReport) -> dict:
    """One level of a suite result, as its report file stores it."""
    g = rep.grid
    return {"nx": g.nx, "ny": g.ny, "hx": g.hx, "hy": g.hy, "max_norm": rep.max_norm,
            "l2_norm": rep.l2_norm, "masked_points": rep.masked_points,
            "parts": [{"name": p.name, "max_norm": p.max_norm, "l2_norm": p.l2_norm}
                      for p in rep.parts], "details": rep.details}


def _result(name: str, kind: str, notes: list, reports, ratios, tolerances) -> dict:
    """A suite result, as its report file stores it; it passes when `notes`
    holds no failed check."""
    return {"suite": name, "kind": kind, "passed": not notes, "notes": notes,
            "levels": [_level_entry(r) for r in reports], "ratios": ratios,
            "tolerances": tolerances}


def _gate(spec: SuiteSpec, reports, tol_scale) -> dict:
    """A suite's result from its reports at every level."""
    grids = [r.grid for r in reports]
    maxes = [r.max_norm for r in reports]
    # a finer level that reads 0 gives no ratio; None, since JSON has no
    # Infinity and jq or JSON.parse would reject the file
    ratios = [maxes[i] / maxes[i + 1] if maxes[i + 1] > 0 else None
              for i in range(len(maxes) - 1)]

    # one note per failed check; the suite passes when there are none. A NaN
    # compares false with every tolerance, so the checks below would miss it
    notes = []
    for k, r in enumerate(reports):
        if "breakdown" in r.details:
            notes.append(f"numerical breakdown at level {k}: {r.details['breakdown']}")
        elif not math.isfinite(r.max_norm):
            notes.append(f"non-finite residual {r.max_norm} at h={max(r.grid.hx, r.grid.hy):.4g}")
    tolerances = []
    if spec.kind == "exact":
        tol = spec.tol * tol_scale
        tolerances = [tol] * len(maxes)
        if any(m > tol for m in maxes):
            notes.append(f"exceeds exact tolerance {tol:.3e}")
    elif spec.kind == "fd":
        h0 = max(grids[0].hx, grids[0].hy)
        c_est = maxes[0] / h0**2
        for g, m in zip(grids, maxes):
            h = max(g.hx, g.hy)
            tol = max(FD_SAFETY * c_est * h**2, FD_FLOOR) * tol_scale
            tolerances.append(tol)
            if m > tol:
                notes.append(f"residual {m:.3e} above tol {tol:.3e} at h={h:.4g}")
        if maxes[0] > 100 * FD_FLOOR:
            for k, ratio in enumerate(ratios):
                if ratio is not None and ratio < RATIO_MIN:
                    notes.append(f"nonconvergent: ratio {ratio:.2f} < {RATIO_MIN} "
                                 f"at level {k} (4 expected)")
    elif spec.kind == "control":
        # the undeformed equation must fail by a clear margin
        floor = 10.0 * worst(reports[-1].details.get("deformed", 0.0), FD_FLOOR)
        tolerances = [floor] * len(maxes)
        if not maxes[-1] >= floor:
            notes.append(f"control too small: {maxes[-1]:.3e} < {floor:.3e}")
    elif spec.kind == "classify":
        expected = reports[-1].details.get("expected")
        if expected is not None:
            tolerances = [1e-6 * max(1.0, expected) * tol_scale] * len(maxes)
            if abs(maxes[-1] - expected) > tolerances[-1]:
                notes.append(f"classifier value {maxes[-1]:.6f} != {expected:.6f}")
        else:
            tolerances = [INTEGRABLE_TOL] * len(maxes)
            if maxes[-1] <= INTEGRABLE_TOL:
                notes.append("expected a non-integrable-class mean curvature")

    res = _result(spec.name, spec.kind, notes, reports, ratios, tolerances)
    if spec.kind == "fd" and not ratios:
        # one level calibrates its own bound and gives no ratio; a remark,
        # not a failed check, so the row passes or fails as it did
        res["notes"].append("one refinement level: no convergence ratio gated")
    return res


# ---------------------------------------------------------------------------
# commands

def _setup(cfg: RunConfig) -> tuple[SolutionFamily, list[GridSpec]]:
    """The family, and its grid refined cfg.levels - 1 times.

    A family parameter set away from its default for a family that does not
    read it is a usage error (ValueError): it would be stamped into every
    report without shaping any result. So is a run without --domain where
    the family has no default domain at its parameters."""
    fam = build_family(cfg.family, lam=cfg.lam, a=cfg.a, h0=cfg.h0)
    for key in _KEYS:
        if key.param and key.param not in fam.params and _away(cfg, key):
            raise ValueError(f"{key.flag}: the {cfg.family} family takes no {key.flag[2:]}")
    domain = cfg.domain or fam.default_domain
    if domain is None:
        raise ValueError(f"--domain: the {cfg.family} family has no default domain at "
                         + ", ".join(f"{k} = {v}" for k, v in fam.params.items()) + "; set one")
    grids = [GridSpec(*domain, *cfg.grid)]
    for _ in range(cfg.levels - 1):
        grids.append(grids[-1].refined())
    return fam, grids


def _json_text(v) -> str:
    """`v` as the text of a report file. JSON has no NaN or Infinity, which
    json.dumps would write and jq or JSON.parse reject, so each is written
    as null, and `report` reads it back as NaN (`_number`). Only a value
    that holds one is walked: the walk costs a fifth of the dump."""
    try:
        text = json.dumps(v, sort_keys=True, indent=1, allow_nan=False)
    except ValueError:
        text = json.dumps(_finite_or_null(v), sort_keys=True, indent=1)
    return text + "\n"


def _finite_or_null(v):
    """`v` with every non-finite float in it replaced by None."""
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    if isinstance(v, dict):
        return {k: _finite_or_null(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_finite_or_null(x) for x in v]
    return v


def _number(v) -> float:
    """A number of a report file, where null stands for a non-finite one."""
    return math.nan if v is None else float(v)


def _write_report(cfg: RunConfig, fam: SolutionFamily, res: dict) -> None:
    """Stamp a suite result and write it as <family>_<suite>.json."""
    res.update(family=fam.name, config=cfg.describe(), version=__version__)
    path = os.path.join(cfg.out, f"{fam.name}_{res['suite']}.json")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(_json_text(res))


def cmd_verify(cfg: RunConfig) -> int:
    fam, grids = _setup(cfg)
    suites = _suites_for(fam)
    levels = [_run_level(suites, fam, g) for g in grids]
    results = [_gate(spec, reports, cfg.tol_scale)
               for spec, reports in zip(suites, zip(*levels))]

    os.makedirs(cfg.out, exist_ok=True)
    for res in results:
        res["params"] = dict(sorted(fam.params.items()))
        _write_report(cfg, fam, res)
        status = "PASS" if res["passed"] else "FAIL"
        finest = res["levels"][-1]["max_norm"]
        print(f"{status}  {fam.name}:{res['suite']}  max={finest:.3e}"
              + (f"  [{'; '.join(res['notes'])}]" if res["notes"] else ""))

    failing = [r["suite"] for r in results if not r["passed"]]
    if failing:
        print(f"FAILED suites: {', '.join(failing)}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_induce(cfg: RunConfig) -> int:
    fam, grids = _setup(cfg)
    grid = grids[0]
    s = fam.spinor(grid)
    if s.stored[1].all():
        print("degenerate immersion", file=sys.stderr)
        return EXIT_NUMERICAL
    srf = induce_surface(s, cfg.basepoint)
    ff = fundamental_forms(srf)
    if ff.fully_degenerate:
        print("degenerate immersion", file=sys.stderr)
        return EXIT_NUMERICAL

    os.makedirs(cfg.out, exist_ok=True)
    nverts, nfaces = export_mesh(srf, os.path.join(cfg.out, f"{fam.name}_surface.obj"),
                                 csv_path=os.path.join(cfg.out, f"{fam.name}_surface.csv"),
                                 ff=ff)

    # the stored columns of H and K broadcast against the surface's curvatures
    h_num, (h_pre, h_mask) = ff.mean_curvature, fam.h(grid).stored
    k_num, (k_form, k_mask) = ff.gauss_curvature, gaussian_curvature_from_p(density_p(s)).stored
    check = report_from_parts(grid, [
        ("closure", np.abs(h_num.values) - np.abs(h_pre), h_num.mask | h_mask),
        ("k_consistency", k_num.values - k_form, k_num.mask | k_mask),
    ], exclude_rings=1)
    # the row counts the points the spinor masks, which the mesh leaves out
    level = joined(grid, _masked_count(s.stored[1], grid), check.parts,
                   {"vertices": nverts, "faces": nfaces})
    closure, k_err = (p.max_norm for p in level.parts)

    h = max(grid.hx, grid.hy)
    tol = max(50.0 * h**2, FD_FLOOR) * cfg.tol_scale
    passed = level.max_norm <= tol
    notes = [] if passed else [f"closure {closure:.3e} or K error {k_err:.3e} above {tol:.3e}"]
    _write_report(cfg, fam, _result("curvature_closure", "fd", notes, [level], [], [tol]))
    print(f"{'PASS' if passed else 'FAIL'}  {fam.name}:curvature_closure  "
          f"|H_num - H|={closure:.3e}  K error={k_err:.3e}  ({nverts} vertices)")
    return EXIT_OK if passed else EXIT_NUMERICAL


def _worst_part(level: dict) -> str:
    """`  (worst: name max_norm)` of a level's part with the largest
    max_norm, a NaN the largest of all; empty when it lists no parts."""
    parts = [(p["name"], _number(p["max_norm"])) for p in level.get("parts") or []]
    if not parts:
        return ""
    name, value = max(parts, key=lambda p: (math.isnan(p[1]), p[1]))
    return f"  (worst: {name} {value:.1e})"


def cmd_report(cfg: RunConfig) -> int:
    rows, worst_parts = [], []
    names = sorted(os.listdir(cfg.out)) if os.path.isdir(cfg.out) else []
    for fname in names:
        if not fname.endswith(".json") or fname.startswith("summary"):
            continue
        path = os.path.join(cfg.out, fname)
        try:
            with open(path, "r", encoding="ascii") as fh:
                data = json.load(fh)
            if not isinstance(data, dict) or "suite" not in data or "levels" not in data:
                continue
            if not (isinstance(data["levels"], list) and data["levels"]):
                raise ValueError("levels is not a non-empty list")
            for key in ("suite", "family", "kind"):
                if not isinstance(data.get(key, ""), str):
                    raise ValueError(f"{key} is not a string")
            if not isinstance(data.get("passed", False), bool):
                raise ValueError("passed is not true or false")
            finest = data["levels"][-1]
            rows.append({
                "file": fname,
                "family": data.get("family", "?"),
                "suite": data["suite"],
                "kind": data.get("kind", "?"),
                "max_norm": _number(finest["max_norm"]),
                "tolerance": _number((data.get("tolerances") or [None])[-1]),
                "ratio": (data.get("ratios") or [None])[-1],
                "passed": data.get("passed", False),
            })
            worst_parts.append("" if rows[-1]["passed"] else _worst_part(finest))
        except OSError as exc:  # not a readable file
            print(f"error: {path}: {exc.strerror}", file=sys.stderr)
            return EXIT_NOINPUT
        except (ValueError, LookupError, TypeError) as exc:  # not ASCII, JSON or a report
            print(f"error: {path}: {exc}", file=sys.stderr)
            return EXIT_NOINPUT
    if not rows:
        print(f"no reports found in {cfg.out!r}", file=sys.stderr)
        return EXIT_NOINPUT

    overall = all(r["passed"] for r in rows)
    header = f"{'family':<12} {'suite':<26} {'kind':<9} {'max_norm':>12} {'tol':>12} {'ratio':>8}  status"
    print(header)
    print("-" * len(header))
    for r, worst_part in zip(rows, worst_parts):
        ratio = f"{r['ratio']:.2f}" if isinstance(r["ratio"], float) else "-"
        print(f"{r['family']:<12} {r['suite']:<26} {r['kind']:<9} "
              f"{r['max_norm']:>12.3e} {r['tolerance']:>12.3e} {ratio:>8}  "
              f"{'PASS' if r['passed'] else 'FAIL'}{worst_part}")
    print(f"overall: {'PASS' if overall else 'FAIL'} ({len(rows)} suites)")

    with open(os.path.join(cfg.out, f"summary.{cfg.format}"), "w", encoding="ascii") as fh:
        if cfg.format == "json":
            fh.write(_json_text({"overall_passed": overall, "suites": rows,
                                 "version": __version__}))
        else:
            fh.write("family,suite,kind,max_norm,tolerance,ratio,passed\n")
            for r in rows:
                ratio = repr(r["ratio"]) if isinstance(r["ratio"], float) else ""
                fh.write(f"{r['family']},{r['suite']},{r['kind']},{r['max_norm']!r},"
                         f"{r['tolerance']!r},{ratio},{int(r['passed'])}\n")
    return EXIT_OK if overall else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# argument handling

_COMMANDS = {"verify": cmd_verify, "induce": cmd_induce, "report": cmd_report}


def _usage(command: str) -> str:
    """The usage of gwsurf, or of `command` with the flags of the keys it reads."""
    if command not in _COMMANDS:
        return "usage: gwsurf {verify,induce,report} [--FLAG VALUE]... | gwsurf --version"
    return f"usage: gwsurf {command} [--config FILE]" + "".join(
        f" [{k.flag} {k.key.upper()}]" for k in _KEYS if command in k.commands)


def _resolve(argv) -> tuple[str, RunConfig | None]:
    """The command and its configuration: defaults < --config < flags < WSL_OUT;
    or, when --version, -h or --help asks for a text, what it is asked of
    (gwsurf or the command) and None. Each flag is spelled in full and takes
    the next argument, whatever it begins with, or the text after `=`.

    Raises OSError when the config file cannot be read and ValueError on a
    usage error, or on a key that the command does not read set away from
    its default (it would shape no result)."""
    if argv[:1] in (["--version"], ["-h"], ["--help"]):
        return argv[0], None
    command = _choice("command", _COMMANDS)(argv[0] if argv else "")
    given, args = {}, iter(argv[1:])
    for arg in args:
        if arg in ("-h", "--help"):
            return command, None
        flag, eq, value = arg.partition("=")
        if flag not in ("--config", *(k.flag for k in _KEYS)):
            raise ValueError(f"{command} takes no argument {arg!r} (see gwsurf {command} --help)")
        given[flag] = value if eq else next(args, None)
        if given[flag] is None:
            raise ValueError(f"{flag}: expected a value")

    cfg = RunConfig()
    if given.get("--config"):
        with open(given["--config"], "r", encoding="ascii") as fh:
            cfg = parse_config_text(fh.read())
    for key in _KEYS:
        if key.flag in given:
            cfg = _set(cfg, key, given[key.flag], key.flag)
    if os.environ.get("WSL_OUT"):
        cfg = cfg._replace(out=os.environ["WSL_OUT"])
    for key in _KEYS:
        if command not in key.commands and _away(cfg, key):
            raise ValueError(f"{key.flag}: {command} does not read {key.key}")
    return command, cfg


def main(argv=None) -> int:
    try:
        try:
            command, cfg = _resolve(sys.argv[1:] if argv is None else list(argv))
        except OSError as exc:
            print(f"cannot read config file {exc.filename}: {exc.strerror}",
                  file=sys.stderr)
            return EXIT_NOINPUT
        if cfg is None:
            print(__version__ if command == "--version" else _usage(command))
            return EXIT_OK
        # a breakdown is reported by its one error line, not by numpy warnings
        with np.errstate(all="ignore"):
            return _COMMANDS[command](cfg)
    except NumericalBreakdown as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # an output that cannot be created or written
        print(f"error: {exc.filename or cfg.out}: {exc.strerror}", file=sys.stderr)
        return EXIT_CANTCREAT


if __name__ == "__main__":
    sys.exit(main())
