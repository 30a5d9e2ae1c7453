"""Command-line front door: verification suites, surface export, reports.

Subcommands
-----------
verify   run every residual suite applicable to the configured family at
         each refinement level; one JSON report per suite; exit 0 iff all
         pass (2 on numerical failure, including nonconvergent ratios).
induce   build the surface, write OBJ + CSV + a curvature-closure report.
report   merge suite JSONs from the output directory into one summary.

Exit codes: 0 pass, 2 numerical failure, 64 usage error, 66 missing
inputs. The environment variable WSL_OUT overrides --out. Outputs are
deterministic byte-for-byte for identical configurations (reports embed
the grid, tolerances and library version; never timestamps).

Tolerances: exact suites must reach 1e-12 (1e-10 where an extra
multiplication is involved). Finite-difference suites use the measured
model tol(h) = 10 * C_est * h^2 with C_est calibrated at the coarsest
level, floored at 1e-9 to keep machine-noise residuals from producing
meaningless ratios; ratios are enforced (>= 2.5 where 4 is expected) only
when the coarsest residual sits clearly above that floor. All tolerances
scale with --tol-scale.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .calculus import mixed_dzbar_dz
from .families import FAMILY_NAMES, SolutionFamily, build_family
from .grid import GridSpec, NumericalBreakdown
from .inducer import (export_mesh, fundamental_forms, induce_surface,
                      path_independence_report)
from .integrability import (fit_riccati_coeffs, h_integrability_residual,
                            linear_system_residual,
                            linearization_constraint_residual, riccati_residual,
                            sinh_gordon_residual, zero_curvature_residual)
from .reporting import RATIO_MIN, ResidualReport, worst
from .sigma import (compatibility_residual, deformed_ll_residual,
                    landau_lifshitz_residual, multisoliton_product, psi_from_rho,
                    rho_from_psi, sigma_residual, spin_matrix,
                    unimodular_H_constancy_check)
from .weierstrass import (MeanCurvature, conservation_defect, current_J,
                          dbar_J_defect, density_p, gaussian_curvature_from_p,
                          modified_current, potential_conservation_residual,
                          weierstrass_residual)

EXIT_OK = 0
EXIT_NUMERICAL = 2
EXIT_USAGE = 64
EXIT_NOINPUT = 66

EXACT_TOL = 1e-12
POINTWISE_TOL = 1e-10
FD_FLOOR = 1e-9
FD_SAFETY = 10.0


# ---------------------------------------------------------------------------
# configuration: one row per key drives the config file, the flags, the
# report stamp and the glue for negative values

@dataclass(frozen=True)
class RunConfig:
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

    def __post_init__(self):
        # zero levels would compute no ratios and silently skip the ratio gate
        for key in ("levels", "jobs"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be at least 1, got {getattr(self, key)}")

    def to_text(self) -> str:
        """Serialize as diff-able key=value lines (canonical order)."""
        return "".join(f"{k.key}={k.fmt(getattr(self, k.field))}\n" for k in _KEYS)

    def describe(self) -> dict:
        """The settings that shape results, as stamped into every report."""
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


def _fmt_grid(grid: tuple[int, int]) -> str:
    return f"{grid[0]}x{grid[1]}"


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


def _fmt_value(v) -> str:
    if v is None:
        return "default"
    if isinstance(v, tuple):
        return ",".join(map(_fmt_value, v))
    return repr(float(v)) if isinstance(v, float) else str(v)


def _json(v):
    return list(v) if isinstance(v, tuple) else v


@dataclass(frozen=True)
class _Key:
    key: str                    # config-file key, also the report-config key
    field: str                  # RunConfig field
    flag: str                   # command-line flag
    parse: Callable             # text (flag or config file) -> value
    fmt: Callable = _fmt_value  # value -> config-file text
    report: Callable | None = None  # value -> report-config JSON; None: not stamped
    signed: bool = False        # the flag takes values that begin with '-'
    families: tuple[str, ...] | None = None  # a family parameter: the families that read it


_KEYS = (
    _Key("family", "family", "--family", _choice("family", FAMILY_NAMES), report=_json),
    _Key("lambda", "lam", "--lambda", _optional(_finite), report=_json, signed=True,
         families=("rational", "exponential", "unimodular")),
    _Key("a", "a", "--A", _optional(_finite), report=_json, signed=True, families=("trig",)),
    _Key("h0", "h0", "--H0", _finite, report=_json, signed=True,
         families=("unimodular", "holomorphic")),
    _Key("grid", "grid", "--grid", _parse_grid, _fmt_grid, report=_fmt_grid),
    _Key("domain", "domain", "--domain", _optional(_domain),
         report=_json, signed=True),
    _Key("basepoint", "basepoint", "--basepoint", _optional(_floats(2, "basepoint")),
         report=_json, signed=True),
    _Key("tol_scale", "tol_scale", "--tol-scale", _tol_scale, report=_json, signed=True),
    _Key("levels", "levels", "--levels", int, report=_json),
    _Key("jobs", "jobs", "--jobs", int),
    _Key("out", "out", "--out", str),
    _Key("format", "format", "--format", _choice("format", ("json", "csv"))),
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


def _set(cfg: RunConfig, key: _Key, text: str, where: str) -> RunConfig:
    """`cfg` with `key` parsed from `text`; a bad value names `where` it came from."""
    try:
        return replace(cfg, **{key.field: key.parse(text)})
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# suite machinery

def _class_of(fam: SolutionFamily) -> str:
    """"varying_h" for the three families with nonconstant H, "constant_rho"
    for unimodular at lambda = 0 (rho is constant: no spinor pair to check),
    otherwise the family name."""
    if fam.name in ("rational", "exponential", "trig"):
        return "varying_h"
    if fam.name == "unimodular" and not fam.params["lambda"]:
        return "constant_rho"
    return fam.name


def _on(*classes):
    """Predicate over the family: its _class_of is one of `classes`."""
    return lambda fam: _class_of(fam) in classes


_ALL = _on("varying_h", "unimodular", "constant_rho", "holomorphic")
_VARYING_H = _on("varying_h")
_SPINOR = _on("varying_h", "unimodular", "holomorphic")
_UNIMODULAR = _on("unimodular", "constant_rho")


@dataclass(frozen=True)
class SuiteSpec:
    name: str
    kind: str                   # exact | fd | control | classify
    applies: object             # fn(family) -> bool: run for this family
    runner: object              # fn(family, grid) -> ResidualReport
    tol: float = EXACT_TOL      # for exact suites
    # fd suites: enforce the O(h^2) ratio; fn(family) -> bool in SUITES,
    # that function's value once _suites_for resolves the spec for a family
    expect_ratio: object = _ALL


def _fd_H(fam: SolutionFamily, grid: GridSpec) -> MeanCurvature:
    return MeanCurvature.from_field(fam.mean_curvature.sample(grid).without_source())


def _param(fam: SolutionFamily) -> float:
    return fam.params.get("lambda", fam.params.get("A", 1.0))


def _max_abs(values, mask) -> float:
    """max |values| over the points not in `mask`; 0 when all are masked."""
    return float(np.max(np.abs(values[~mask]), initial=0.0))


def _report_scalar(grid, value, **details) -> ResidualReport:
    return ResidualReport(name="scalar", grid=grid, max_norm=float(value),
                          l2_norm=float(value), masked_points=0, details=details)


# --- exact-path runners -----------------------------------------------------

def run_roundtrip_exact(fam, grid):
    rho = fam.rho(grid)
    back = rho_from_psi(psi_from_rho(rho, fam.mean_curvature))
    return _report_scalar(grid, _max_abs(back.rho.values - rho.rho.values,
                                         rho.rho.mask | back.rho.mask))


def run_transform_exact(fam, grid):
    H = fam.mean_curvature
    a = weierstrass_residual(psi_from_rho(fam.rho(grid), H), H)
    derived = rho_from_psi(fam.spinor(grid))
    b = sigma_residual(derived, H)
    # the quotient's derivatives legitimately amplify rounding where |rho|
    # grows large, so that direction is judged relative to the size of the
    # second-derivative term it has to cancel
    mixed = mixed_dzbar_dz(derived.rho)
    scale = max(1.0, _max_abs(mixed.values, mixed.mask))
    return _report_scalar(grid, worst(a.max_norm, b.max_norm / scale),
                          spinor_direction=a.max_norm, rho_direction=b.max_norm,
                          rho_direction_scale=scale)


def run_current_identity_exact(fam, grid):
    s = fam.spinor(grid)
    J = current_J(s).j
    p = density_p(s)
    h = fam.mean_curvature.sample(grid)
    vals = np.abs(J.values) ** 2 - p.values**4 * h.values**2
    return _report_scalar(grid, _max_abs(vals, J.mask | p.mask | h.mask))


def run_constraints_exact(fam, grid):
    rep = linearization_constraint_residual(fam.spinor(grid))
    return replace(rep, max_norm=worst(rep.max_norm, rep.details.get("p_variance", 0.0)))


def run_linear_system_exact(fam, grid):
    return linear_system_residual(fam.spinor(grid), fam.mean_curvature, abs(_param(fam)),
                                  exclude_rings=2)


def run_compatibility_exact(fam, grid):
    return compatibility_residual(fam.rho(grid), fam.mean_curvature, exclude_rings=2)


def run_h_constancy_exact(fam, grid):
    rep = unimodular_H_constancy_check(fam.rho(grid), fam.mean_curvature)
    if not rep.details.get("consistent", False):
        return replace(rep, max_norm=worst(rep.max_norm, 1.0))
    return rep


def run_multisoliton_exact(fam, grid):
    rho = fam.rho(grid)
    prod = multisoliton_product(rho, rho)
    rep = sigma_residual(prod, fam.mean_curvature)
    dev = _max_abs(np.abs(prod.rho.values) - 1.0, prod.rho.mask)
    return replace(rep, max_norm=worst(rep.max_norm, dev), details={"unimodularity": dev})


# --- finite-difference runners ----------------------------------------------

def run_sigma_fd(fam, grid):
    # the mixed second derivative composes two stencils, so the boundary
    # seam converges one order slower; the interior carries the O(h^2) claim
    return sigma_residual(fam.rho(grid, analytic=False), _fd_H(fam, grid), exclude_rings=2)


def run_roundtrip_fd(fam, grid):
    s = fam.spinor(grid, analytic=False)
    back = psi_from_rho(rho_from_psi(s), _fd_H(fam, grid))
    mask = s.mask | back.mask
    # compare up to the global transform sign
    d_plus = np.abs(back.psi2.values - s.psi2.values)
    d_minus = np.abs(back.psi2.values + s.psi2.values)
    use_minus = float(np.sum(d_minus[~mask])) < float(np.sum(d_plus[~mask]))
    sgn = -1.0 if use_minus else 1.0
    err = np.maximum(np.abs(sgn * back.psi1.values - s.psi1.values),
                     np.abs(sgn * back.psi2.values - s.psi2.values))
    return _report_scalar(grid, _max_abs(err, mask))


def run_current_defect_fd(fam, grid):
    return dbar_J_defect(fam.spinor(grid, analytic=False), _fd_H(fam, grid), exclude_rings=2)


def run_modified_current_fd(fam, grid):
    x0 = grid.xs()[(grid.nx - 1) // 2]
    cur = modified_current(fam.spinor(grid, analytic=False), _fd_H(fam, grid), x0)
    return conservation_defect(cur, exclude_rings=2)


def run_sinh_gordon_fd(fam, grid):
    return sinh_gordon_residual(fam.spinor(grid, analytic=False), _fd_H(fam, grid),
                                exclude_rings=2)


def run_deformed_ll_fd(fam, grid):
    return deformed_ll_residual(fam.rho(grid, analytic=False), _fd_H(fam, grid),
                                exclude_rings=2)


def run_ll_fd(fam, grid):
    return landau_lifshitz_residual(spin_matrix(fam.rho(grid, analytic=False)),
                                    exclude_rings=2)


def run_riccati_fd(fam, grid):
    rho = fam.rho(grid, analytic=False)
    coeffs = fit_riccati_coeffs(rho)
    a = riccati_residual(rho, coeffs, exclude_rings=2)
    b = zero_curvature_residual(coeffs, exclude_rings=2)
    return _report_scalar(grid, worst(a.max_norm, b.max_norm),
                          constraint=a.max_norm, zero_curvature=b.max_norm)


def run_path_independence_fd(fam, grid):
    i0, j0 = grid.center_index()
    z0 = (grid.xs()[i0], grid.ys()[j0])
    return path_independence_report(fam.spinor(grid), z0, (grid.x_max, grid.y_max))


def run_linear_system_fd(fam, grid):
    return linear_system_residual(fam.spinor(grid, analytic=False), _fd_H(fam, grid),
                                  abs(_param(fam)), exclude_rings=2)


# --- controls and classification ---------------------------------------------

def run_ll_necessity_control(fam, grid):
    """Undeformed spin equation must fail where the deformation is needed."""
    rho = fam.rho(grid, analytic=False)
    undeformed = landau_lifshitz_residual(spin_matrix(rho), exclude_rings=2)
    deformed = deformed_ll_residual(rho, _fd_H(fam, grid), exclude_rings=2)
    return _report_scalar(grid, undeformed.max_norm, deformed=deformed.max_norm)


def run_h_classification(fam, grid):
    rep = h_integrability_residual(fam.mean_curvature, grid, exclude_rings=2)
    details = dict(rep.details)
    if fam.name == "rational":
        # d dbar (1/H) of the rational family is the constant 2 lambda^2
        details["expected"] = 2.0 * _param(fam)**2
    details["classified_integrable"] = bool(rep.max_norm <= 1e-6)
    return replace(rep, details=details)


SUITES = (
    SuiteSpec("dirac_exact", "exact", _SPINOR,
              lambda fam, g: weierstrass_residual(fam.spinor(g), fam.mean_curvature)),
    SuiteSpec("sigma_exact", "exact", _ALL,
              lambda fam, g: sigma_residual(fam.rho(g), fam.mean_curvature)),
    SuiteSpec("conservation_exact", "exact", _SPINOR,
              lambda fam, g: potential_conservation_residual(fam.spinor(g))),
    SuiteSpec("roundtrip_exact", "exact", _VARYING_H, run_roundtrip_exact),
    SuiteSpec("transform_exact", "exact", _VARYING_H, run_transform_exact),
    SuiteSpec("spin_algebra_exact", "exact", _ALL,
              lambda fam, g: spin_matrix(fam.rho(g)).algebra_report()),
    SuiteSpec("current_identity_exact", "exact", _on("varying_h", "unimodular"),
              run_current_identity_exact, POINTWISE_TOL),
    SuiteSpec("constraints_exact", "exact", _VARYING_H, run_constraints_exact, POINTWISE_TOL),
    SuiteSpec("linear_system_exact", "exact", _VARYING_H, run_linear_system_exact, POINTWISE_TOL),
    SuiteSpec("deformed_ll_exact", "exact", _VARYING_H,
              lambda fam, g: deformed_ll_residual(fam.rho(g), fam.mean_curvature), POINTWISE_TOL),
    SuiteSpec("compatibility_exact", "exact", _on("unimodular"), run_compatibility_exact,
              POINTWISE_TOL),
    SuiteSpec("h_constancy_exact", "exact", _UNIMODULAR, run_h_constancy_exact, POINTWISE_TOL),
    SuiteSpec("multisoliton_exact", "exact", _UNIMODULAR, run_multisoliton_exact, POINTWISE_TOL),
    SuiteSpec("dirac_fd", "fd", _VARYING_H,
              lambda fam, g: weierstrass_residual(fam.spinor(g, analytic=False), _fd_H(fam, g))),
    SuiteSpec("sigma_fd", "fd", _VARYING_H, run_sigma_fd),
    SuiteSpec("conservation_fd", "fd", _VARYING_H,
              lambda fam, g: potential_conservation_residual(fam.spinor(g, analytic=False))),
    SuiteSpec("roundtrip_fd", "fd", _VARYING_H, run_roundtrip_fd),
    SuiteSpec("current_defect_fd", "fd", _on("varying_h", "unimodular"), run_current_defect_fd),
    SuiteSpec("modified_current_fd", "fd", _VARYING_H, run_modified_current_fd),
    SuiteSpec("sinh_gordon_fd", "fd", _VARYING_H, run_sinh_gordon_fd),
    SuiteSpec("deformed_ll_fd", "fd", _VARYING_H, run_deformed_ll_fd),
    SuiteSpec("riccati_fd", "fd", _VARYING_H, run_riccati_fd, expect_ratio=_on()),
    SuiteSpec("linear_system_fd", "fd", _VARYING_H, run_linear_system_fd),
    SuiteSpec("ll_fd", "fd", _on("unimodular", "constant_rho", "holomorphic"), run_ll_fd,
              expect_ratio=_on("holomorphic")),
    SuiteSpec("path_independence_fd", "fd", _on("varying_h", "holomorphic"),
              run_path_independence_fd, expect_ratio=_on("holomorphic")),
    SuiteSpec("ll_necessity_control", "control", _VARYING_H, run_ll_necessity_control),
    SuiteSpec("h_classification", "classify", _VARYING_H, run_h_classification),
)


def _suites_for(fam: SolutionFamily) -> list[SuiteSpec]:
    return [replace(s, expect_ratio=s.expect_ratio(fam)) for s in SUITES if s.applies(fam)]


def _evaluate_suite(spec: SuiteSpec, fam: SolutionFamily, grids, tol_scale):
    reports = [spec.runner(fam, g) for g in grids]
    maxes = [r.max_norm for r in reports]
    ratios = [maxes[i] / maxes[i + 1] if maxes[i + 1] > 0 else float("inf")
              for i in range(len(maxes) - 1)]

    # one note per failed check; the suite passes when there are none. A NaN
    # compares false with every tolerance, so the checks below would miss it
    notes = [f"non-finite residual {m} at h={max(g.hx, g.hy):.4g}"
             for g, m in zip(grids, maxes) if not math.isfinite(m)]
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
        if spec.expect_ratio and maxes[0] > 100 * FD_FLOOR:
            for k, ratio in enumerate(ratios):
                if ratio < RATIO_MIN:
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
            tolerances = [1e-3] * len(maxes)
            if maxes[-1] < 1e-3:
                notes.append("expected a non-integrable-class mean curvature")

    return {
        "suite": spec.name,
        "kind": spec.kind,
        "passed": not notes,
        "notes": notes,
        "levels": [{"nx": g.nx, "ny": g.ny, "hx": g.hx, "hy": g.hy,
                    "max_norm": r.max_norm, "l2_norm": r.l2_norm,
                    "masked_points": r.masked_points,
                    "details": dict(sorted(r.details.items()))}
                   for g, r in zip(grids, reports)],
        "ratios": ratios,
        "tolerances": tolerances,
    }


# ---------------------------------------------------------------------------
# commands

def _setup(cfg: RunConfig) -> tuple[SolutionFamily, list[GridSpec]]:
    """The family, and its grid refined cfg.levels - 1 times.

    A family parameter set away from its default for a family that does not
    read it is a usage error (ValueError): it would be stamped into every
    report without shaping any result."""
    for key in _KEYS:
        if (key.families and cfg.family not in key.families
                and getattr(cfg, key.field) != getattr(RunConfig, key.field)):
            raise ValueError(f"{key.flag}: the {cfg.family} family takes no "
                             f"{key.flag[2:]} (only {', '.join(key.families)} do)")
    fam = build_family(cfg.family, lam=cfg.lam, a=cfg.a, h0=cfg.h0)
    grids = [GridSpec(*(cfg.domain or fam.default_domain), *cfg.grid)]
    for _ in range(cfg.levels - 1):
        grids.append(grids[-1].refined())
    return fam, grids


def _write_report(cfg: RunConfig, fam: SolutionFamily, res: dict) -> None:
    """Stamp a suite result and write it as <family>_<suite>.json."""
    res.update(family=fam.name, config=cfg.describe(), version=__version__)
    path = os.path.join(cfg.out, f"{fam.name}_{res['suite']}.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(res, fh, sort_keys=True, indent=1)
        fh.write("\n")


def cmd_verify(cfg: RunConfig) -> int:
    fam, grids = _setup(cfg)
    suites = _suites_for(fam)

    def run(spec):
        # errstate is not inherited by pool threads, so each run sets it
        with np.errstate(all="ignore"):
            return _evaluate_suite(spec, fam, grids, cfg.tol_scale)

    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(run, suites))
    else:
        results = [run(spec) for spec in suites]

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
    if s.mask.all():
        print("degenerate immersion", file=sys.stderr)
        return EXIT_NUMERICAL
    srf = induce_surface(s, cfg.basepoint)
    ff = fundamental_forms(srf)
    if ff.fully_degenerate or srf.degenerate:
        print("degenerate immersion", file=sys.stderr)
        return EXIT_NUMERICAL

    os.makedirs(cfg.out, exist_ok=True)
    nverts, nfaces = export_mesh(srf, os.path.join(cfg.out, f"{fam.name}_surface.obj"),
                                 csv_path=os.path.join(cfg.out, f"{fam.name}_surface.csv"),
                                 ff=ff)

    rim = np.ones(grid.shape, dtype=bool)
    rim[1:-1, 1:-1] = False
    h_num = ff.mean_curvature
    h_pre = fam.mean_curvature.sample(grid)
    closure = _max_abs(np.abs(h_num.values) - np.abs(h_pre.values),
                       rim | h_num.mask | h_pre.mask)
    k_num = ff.gauss_curvature
    k_form = gaussian_curvature_from_p(density_p(s))
    k_err = _max_abs(k_num.values - k_form.values, rim | k_num.mask | k_form.mask)

    h = max(grid.hx, grid.hy)
    tol = max(50.0 * h**2, FD_FLOOR) * cfg.tol_scale
    passed = closure <= tol and k_err <= tol
    res = {
        "suite": "curvature_closure",
        "kind": "fd",
        "passed": bool(passed),
        "notes": [] if passed else [f"closure {closure:.3e} or K error {k_err:.3e} above {tol:.3e}"],
        "levels": [{"nx": grid.nx, "ny": grid.ny, "hx": grid.hx, "hy": grid.hy,
                    "max_norm": closure, "l2_norm": closure, "masked_points": int(s.mask.sum()),
                    "details": {"k_consistency": k_err,
                                "imag_residue": srf.imag_residue,
                                "determination_consistency": srf.determination_consistency,
                                "vertices": nverts, "faces": nfaces}}],
        "ratios": [],
        "tolerances": [tol],
    }
    _write_report(cfg, fam, res)
    print(f"{'PASS' if passed else 'FAIL'}  {fam.name}:curvature_closure  "
          f"|H_num - H|={closure:.3e}  K error={k_err:.3e}  ({nverts} vertices)")
    return EXIT_OK if passed else EXIT_NUMERICAL


def cmd_report(cfg: RunConfig) -> int:
    rows = []
    names = sorted(os.listdir(cfg.out)) if os.path.isdir(cfg.out) else []
    for fname in names:
        if not fname.endswith(".json") or fname.startswith("summary"):
            continue
        with open(os.path.join(cfg.out, fname), "r", encoding="ascii") as fh:
            data = json.load(fh)
        if "suite" not in data or "levels" not in data:
            continue
        finest = data["levels"][-1]
        rows.append({
            "file": fname,
            "family": data.get("family", "?"),
            "suite": data["suite"],
            "kind": data.get("kind", "?"),
            "max_norm": finest["max_norm"],
            "tolerance": (data.get("tolerances") or [float("nan")])[-1],
            "ratio": (data.get("ratios") or [None])[-1],
            "passed": bool(data.get("passed", False)),
        })
    if not rows:
        print(f"no reports found in {cfg.out!r}", file=sys.stderr)
        return EXIT_NOINPUT

    overall = all(r["passed"] for r in rows)
    header = f"{'family':<12} {'suite':<26} {'kind':<9} {'max_norm':>12} {'tol':>12} {'ratio':>8}  status"
    print(header)
    print("-" * len(header))
    for r in rows:
        ratio = f"{r['ratio']:.2f}" if isinstance(r["ratio"], float) else "-"
        print(f"{r['family']:<12} {r['suite']:<26} {r['kind']:<9} "
              f"{r['max_norm']:>12.3e} {r['tolerance']:>12.3e} {ratio:>8}  "
              f"{'PASS' if r['passed'] else 'FAIL'}")
    print(f"overall: {'PASS' if overall else 'FAIL'} ({len(rows)} suites)")

    if cfg.format == "json":
        out = os.path.join(cfg.out, "summary.json")
        with open(out, "w", encoding="ascii") as fh:
            json.dump({"overall_passed": overall, "suites": rows, "version": __version__},
                      fh, sort_keys=True, indent=1)
            fh.write("\n")
    else:
        out = os.path.join(cfg.out, "summary.csv")
        with open(out, "w", encoding="ascii") as fh:
            fh.write("family,suite,kind,max_norm,tolerance,ratio,passed\n")
            for r in rows:
                ratio = repr(r["ratio"]) if isinstance(r["ratio"], float) else ""
                fh.write(f"{r['family']},{r['suite']},{r['kind']},{r['max_norm']!r},"
                         f"{r['tolerance']!r},{ratio},{int(r['passed'])}\n")
    return EXIT_OK if overall else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# argument handling

def _resolve(argv) -> tuple[str, RunConfig]:
    """The command and its configuration: defaults < --config < flags < WSL_OUT.

    Raises SystemExit on a command-line usage error, OSError when the config
    file cannot be read and ValueError on a bad value."""
    parser = argparse.ArgumentParser(
        prog="gwsurf", description="verify and induce prescribed mean curvature surfaces")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("verify", "induce", "report"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="key=value config file; flags override it")
        for key in _KEYS:
            p.add_argument(key.flag, dest=key.field, metavar=key.key.upper())
    ns = parser.parse_args(_glue_negative_values(argv))

    cfg = RunConfig()
    if ns.config:
        with open(ns.config, "r", encoding="ascii") as fh:
            cfg = parse_config_text(fh.read())
    for key in _KEYS:
        if getattr(ns, key.field) is not None:
            cfg = _set(cfg, key, getattr(ns, key.field), key.flag)
    if os.environ.get("WSL_OUT"):
        cfg = replace(cfg, out=os.environ["WSL_OUT"])
    return ns.command, cfg


def _glue_negative_values(argv):
    """Join signed-value flags with a next argument that begins with a minus
    sign, so invocations like --domain -1,1,-1,1 parse as intended."""
    signed = {key.flag for key in _KEYS if key.signed}
    out = []
    for tok in argv:
        if out and out[-1] in signed and tok.startswith("-"):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    try:
        try:
            command, cfg = _resolve(sys.argv[1:] if argv is None else list(argv))
        except OSError as exc:
            print(f"cannot read config file {exc.filename}: {exc.strerror}",
                  file=sys.stderr)
            return EXIT_NOINPUT
        commands = {"verify": cmd_verify, "induce": cmd_induce, "report": cmd_report}
        # a breakdown is reported by its one error line, not by numpy warnings
        with np.errstate(all="ignore"):
            return commands[command](cfg)
    except SystemExit as exc:
        return 0 if exc.code == 0 else EXIT_USAGE
    except NumericalBreakdown as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
