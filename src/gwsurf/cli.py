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
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .calculus import mixed_dzbar_dz
from .families import FAMILY_NAMES, SolutionFamily, build_family
from .grid import GridSpec
from .inducer import (export_mesh, fundamental_forms, gauss_curvature_numeric,
                      induce_surface, mean_curvature_numeric,
                      path_independence_report, surface_to_csv)
from .integrability import (fit_riccati_coeffs, h_integrability_residual,
                            linear_system_residual,
                            linearization_constraint_residual, riccati_residual,
                            sinh_gordon_residual, zero_curvature_residual)
from .reporting import ResidualReport
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
RATIO_MIN = 2.5


# ---------------------------------------------------------------------------
# configuration

_CONFIG_KEYS = ("family", "lambda", "a", "h0", "grid", "domain", "basepoint",
                "tol_scale", "levels", "jobs", "out", "format")


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
        def fmt(v):
            if v is None:
                return "default"
            if isinstance(v, tuple):
                return ",".join(repr(float(x)) if isinstance(x, float) else str(x)
                                for x in v)
            if isinstance(v, float):
                return repr(v)
            return str(v)

        pairs = [
            ("family", self.family), ("lambda", self.lam), ("a", self.a),
            ("h0", self.h0), ("grid", f"{self.grid[0]}x{self.grid[1]}"),
            ("domain", self.domain), ("basepoint", self.basepoint),
            ("tol_scale", self.tol_scale), ("levels", self.levels),
            ("jobs", self.jobs), ("out", self.out), ("format", self.format),
        ]
        return "".join(f"{k}={fmt(v)}\n" for k, v in pairs)

    def describe(self) -> dict:
        return {
            "family": self.family, "lambda": self.lam, "a": self.a, "h0": self.h0,
            "grid": f"{self.grid[0]}x{self.grid[1]}",
            "domain": list(self.domain) if self.domain else None,
            "basepoint": list(self.basepoint) if self.basepoint else None,
            "tol_scale": self.tol_scale, "levels": self.levels,
        }


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        nx, ny = text.lower().split("x")
        return int(nx), int(ny)
    except ValueError as exc:
        raise ValueError(f"grid must look like 101x101, got {text!r}") from exc


def _parse_floats(text: str, n: int, what: str):
    parts = text.split(",")
    if len(parts) != n:
        raise ValueError(f"{what} needs {n} comma-separated numbers, got {text!r}")
    return tuple(float(p) for p in parts)


def parse_config_text(text: str) -> RunConfig:
    """Parse key=value lines; '#' starts a comment; unknown keys rejected."""
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key == "family":
            cfg = replace(cfg, family=val)
        elif key == "lambda":
            cfg = replace(cfg, lam=None if val == "default" else float(val))
        elif key == "a":
            cfg = replace(cfg, a=None if val == "default" else float(val))
        elif key == "h0":
            cfg = replace(cfg, h0=float(val))
        elif key == "grid":
            cfg = replace(cfg, grid=_parse_grid(val))
        elif key == "domain":
            cfg = replace(cfg, domain=None if val == "default"
                          else _parse_floats(val, 4, "domain"))
        elif key == "basepoint":
            cfg = replace(cfg, basepoint=None if val == "default"
                          else _parse_floats(val, 2, "basepoint"))
        elif key == "tol_scale":
            cfg = replace(cfg, tol_scale=float(val))
        elif key == "levels":
            cfg = replace(cfg, levels=int(val))
        elif key == "jobs":
            cfg = replace(cfg, jobs=int(val))
        elif key == "out":
            cfg = replace(cfg, out=val)
        elif key == "format":
            if val not in ("json", "csv"):
                raise ValueError(f"format must be json or csv, got {val!r}")
            cfg = replace(cfg, format=val)
    return cfg


# ---------------------------------------------------------------------------
# suite machinery

@dataclass(frozen=True)
class SuiteSpec:
    name: str
    kind: str                   # exact | fd | control | classify
    runner: object              # fn(family, grid) -> ResidualReport
    tol: float = EXACT_TOL      # for exact suites
    expect_ratio: bool = True   # fd suites: enforce the O(h^2) ratio


def _grids(cfg: RunConfig, fam: SolutionFamily) -> list[GridSpec]:
    if cfg.domain is not None:
        x0, x1, y0, y1 = cfg.domain
    else:
        x0, x1, y0, y1 = fam.default_domain
    g = GridSpec(x0, x1, y0, y1, cfg.grid[0], cfg.grid[1])
    out = [g]
    for _ in range(cfg.levels - 1):
        g = g.refined()
        out.append(g)
    return out


def _fd_H(fam: SolutionFamily, grid: GridSpec) -> MeanCurvature:
    return MeanCurvature.from_field(fam.mean_curvature.sample(grid))


def _param(fam: SolutionFamily) -> float:
    return fam.params.get("lambda", fam.params.get("A", 1.0))


def _report_scalar(name, grid, value, **details) -> ResidualReport:
    return ResidualReport(name=name, grid=grid, max_norm=float(value),
                          l2_norm=float(value), masked_points=0,
                          details=details)


# --- exact-path runners -----------------------------------------------------

def run_dirac_exact(fam, grid):
    return weierstrass_residual(fam.spinor(grid), fam.mean_curvature, name="dirac_exact")


def run_sigma_exact(fam, grid):
    return sigma_residual(fam.rho(grid), fam.mean_curvature, name="sigma_exact")


def run_conservation_exact(fam, grid):
    return potential_conservation_residual(fam.spinor(grid), name="conservation_exact")


def run_roundtrip_exact(fam, grid):
    rho = fam.rho(grid)
    back = rho_from_psi(psi_from_rho(rho, fam.mean_curvature))
    mask = rho.rho.mask | back.rho.mask
    err = np.abs(back.rho.values - rho.rho.values)
    val = float(np.max(err[~mask], initial=0.0))
    return _report_scalar("roundtrip_exact", grid, val)


def run_transform_exact(fam, grid):
    H = fam.mean_curvature
    a = weierstrass_residual(psi_from_rho(fam.rho(grid), H), H)
    derived = rho_from_psi(fam.spinor(grid))
    b = sigma_residual(derived, H)
    # the quotient's derivatives legitimately amplify rounding where |rho|
    # grows large, so that direction is judged relative to the size of the
    # second-derivative term it has to cancel
    mixed = mixed_dzbar_dz(derived.rho)
    scale = max(1.0, float(np.max(np.abs(mixed.values[~mixed.mask]), initial=0.0)))
    worst = max(a.max_norm, b.max_norm / scale)
    return _report_scalar("transform_exact", grid, worst,
                          spinor_direction=a.max_norm, rho_direction=b.max_norm,
                          rho_direction_scale=scale)


def run_spin_algebra_exact(fam, grid):
    return spin_matrix(fam.rho(grid)).algebra_report(name="spin_algebra_exact")


def run_current_identity_exact(fam, grid):
    s = fam.spinor(grid)
    J = current_J(s).j
    p = density_p(s)
    h = fam.mean_curvature.sample(grid)
    mask = J.mask | p.mask | h.mask
    vals = np.abs(J.values) ** 2 - p.values**4 * h.values**2
    val = float(np.max(np.abs(vals[~mask]), initial=0.0))
    return _report_scalar("current_identity_exact", grid, val)


def run_constraints_exact(fam, grid):
    rep = linearization_constraint_residual(fam.spinor(grid), name="constraints_exact")
    worst = max(rep.max_norm, rep.details.get("p_variance", 0.0))
    return ResidualReport(name=rep.name, grid=rep.grid, max_norm=worst,
                          l2_norm=rep.l2_norm, masked_points=rep.masked_points,
                          parts=rep.parts, details=rep.details)


def run_linear_system_exact(fam, grid):
    p0 = abs(_param(fam))
    return linear_system_residual(fam.spinor(grid), fam.mean_curvature, p0,
                                  name="linear_system_exact", exclude_rings=2)


def run_deformed_ll_exact(fam, grid):
    return deformed_ll_residual(fam.rho(grid), fam.mean_curvature,
                                name="deformed_ll_exact")


def run_compatibility_exact(fam, grid):
    return compatibility_residual(fam.rho(grid), fam.mean_curvature,
                                  name="compatibility_exact", exclude_rings=2)


def run_h_constancy_exact(fam, grid):
    rep = unimodular_H_constancy_check(fam.rho(grid), fam.mean_curvature,
                                       name="h_constancy_exact")
    if not rep.details.get("consistent", False):
        return ResidualReport(name=rep.name, grid=rep.grid, max_norm=max(rep.max_norm, 1.0),
                              l2_norm=rep.l2_norm, masked_points=rep.masked_points,
                              details=rep.details)
    return rep


def run_multisoliton_exact(fam, grid):
    rho = fam.rho(grid)
    prod = multisoliton_product(rho, rho)
    rep = sigma_residual(prod, fam.mean_curvature, name="multisoliton_exact")
    dev = float(np.max(np.abs(np.abs(prod.rho.values[~prod.rho.mask]) - 1.0), initial=0.0))
    worst = max(rep.max_norm, dev)
    return ResidualReport(name=rep.name, grid=rep.grid, max_norm=worst,
                          l2_norm=rep.l2_norm, masked_points=rep.masked_points,
                          parts=rep.parts, details={"unimodularity": dev})


# --- finite-difference runners ----------------------------------------------

def run_dirac_fd(fam, grid):
    return weierstrass_residual(fam.spinor(grid, analytic=False), _fd_H(fam, grid),
                                name="dirac_fd")


def run_sigma_fd(fam, grid):
    # the mixed second derivative composes two stencils, so the boundary
    # seam converges one order slower; the interior carries the O(h^2) claim
    return sigma_residual(fam.rho(grid, analytic=False), _fd_H(fam, grid),
                          name="sigma_fd", exclude_rings=2)


def run_conservation_fd(fam, grid):
    return potential_conservation_residual(fam.spinor(grid, analytic=False),
                                           name="conservation_fd")


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
    val = float(np.max(err[~mask], initial=0.0))
    return _report_scalar("roundtrip_fd", grid, val)


def run_current_defect_fd(fam, grid):
    return dbar_J_defect(fam.spinor(grid, analytic=False), _fd_H(fam, grid),
                         name="current_defect_fd", exclude_rings=2)


def run_modified_current_fd(fam, grid):
    x0 = grid.xs()[(grid.nx - 1) // 2]
    cur = modified_current(fam.spinor(grid, analytic=False), _fd_H(fam, grid), x0)
    return conservation_defect(cur, name="modified_current_fd", exclude_rings=2)


def run_sinh_gordon_fd(fam, grid):
    return sinh_gordon_residual(fam.spinor(grid, analytic=False), _fd_H(fam, grid),
                                name="sinh_gordon_fd", exclude_rings=2)


def run_deformed_ll_fd(fam, grid):
    return deformed_ll_residual(fam.rho(grid, analytic=False), _fd_H(fam, grid),
                                name="deformed_ll_fd", exclude_rings=2)


def run_ll_fd(fam, grid):
    S = spin_matrix(fam.rho(grid, analytic=False))
    return landau_lifshitz_residual(S, name="ll_fd", exclude_rings=2)


def run_riccati_fd(fam, grid):
    rho = fam.rho(grid, analytic=False)
    coeffs = fit_riccati_coeffs(rho)
    a = riccati_residual(rho, coeffs, name="riccati_fd", exclude_rings=2)
    b = zero_curvature_residual(coeffs, name="zero_curvature_fd", exclude_rings=2)
    worst = max(a.max_norm, b.max_norm)
    return _report_scalar("riccati_fd", grid, worst,
                          constraint=a.max_norm, zero_curvature=b.max_norm)


def run_path_independence_fd(fam, grid):
    s = fam.spinor(grid)
    x0, x1, y0, y1 = grid.x_min, grid.x_max, grid.y_min, grid.y_max
    i0, j0 = grid.center_index()
    z0 = (grid.xs()[i0], grid.ys()[j0])
    z1 = (x1, y1)
    return path_independence_report(s, z0, z1, name="path_independence_fd")


def run_linear_system_fd(fam, grid):
    p0 = abs(_param(fam))
    return linear_system_residual(fam.spinor(grid, analytic=False), _fd_H(fam, grid),
                                  p0, name="linear_system_fd", exclude_rings=2)


# --- controls and classification ---------------------------------------------

def run_ll_necessity_control(fam, grid):
    """Undeformed spin equation must fail where the deformation is needed."""
    rho = fam.rho(grid, analytic=False)
    undeformed = landau_lifshitz_residual(spin_matrix(rho), exclude_rings=2)
    deformed = deformed_ll_residual(rho, _fd_H(fam, grid), exclude_rings=2)
    return _report_scalar("ll_necessity_control", grid, undeformed.max_norm,
                          deformed=deformed.max_norm)


def run_h_classification(fam, grid):
    rep = h_integrability_residual(fam.mean_curvature, grid,
                                   name="h_classification", exclude_rings=2)
    lam = _param(fam)
    details = dict(rep.details)
    if fam.name == "rational":
        details["expected"] = 2.0 * lam**2
    details["classified_integrable"] = bool(rep.max_norm <= 1e-6)
    return ResidualReport(name=rep.name, grid=rep.grid, max_norm=rep.max_norm,
                          l2_norm=rep.l2_norm, masked_points=rep.masked_points,
                          parts=rep.parts, details=details)


def _suites_for(fam: SolutionFamily) -> list[SuiteSpec]:
    if fam.name in ("rational", "exponential", "trig"):
        return [
            SuiteSpec("dirac_exact", "exact", run_dirac_exact),
            SuiteSpec("sigma_exact", "exact", run_sigma_exact),
            SuiteSpec("conservation_exact", "exact", run_conservation_exact),
            SuiteSpec("roundtrip_exact", "exact", run_roundtrip_exact),
            SuiteSpec("transform_exact", "exact", run_transform_exact),
            SuiteSpec("spin_algebra_exact", "exact", run_spin_algebra_exact),
            SuiteSpec("current_identity_exact", "exact", run_current_identity_exact,
                      tol=POINTWISE_TOL),
            SuiteSpec("constraints_exact", "exact", run_constraints_exact,
                      tol=POINTWISE_TOL),
            SuiteSpec("linear_system_exact", "exact", run_linear_system_exact,
                      tol=POINTWISE_TOL),
            SuiteSpec("deformed_ll_exact", "exact", run_deformed_ll_exact,
                      tol=POINTWISE_TOL),
            SuiteSpec("dirac_fd", "fd", run_dirac_fd),
            SuiteSpec("sigma_fd", "fd", run_sigma_fd),
            SuiteSpec("conservation_fd", "fd", run_conservation_fd),
            SuiteSpec("roundtrip_fd", "fd", run_roundtrip_fd),
            SuiteSpec("current_defect_fd", "fd", run_current_defect_fd),
            SuiteSpec("modified_current_fd", "fd", run_modified_current_fd),
            SuiteSpec("sinh_gordon_fd", "fd", run_sinh_gordon_fd),
            SuiteSpec("deformed_ll_fd", "fd", run_deformed_ll_fd),
            SuiteSpec("riccati_fd", "fd", run_riccati_fd, expect_ratio=False),
            SuiteSpec("linear_system_fd", "fd", run_linear_system_fd),
            SuiteSpec("path_independence_fd", "fd", run_path_independence_fd,
                      expect_ratio=False),
            SuiteSpec("ll_necessity_control", "control", run_ll_necessity_control),
            SuiteSpec("h_classification", "classify", run_h_classification),
        ]
    if fam.name == "unimodular":
        suites = [
            SuiteSpec("sigma_exact", "exact", run_sigma_exact),
            SuiteSpec("spin_algebra_exact", "exact", run_spin_algebra_exact),
            SuiteSpec("h_constancy_exact", "exact", run_h_constancy_exact,
                      tol=POINTWISE_TOL),
            SuiteSpec("multisoliton_exact", "exact", run_multisoliton_exact,
                      tol=POINTWISE_TOL),
            SuiteSpec("ll_fd", "fd", run_ll_fd, expect_ratio=False),
        ]
        if fam.params.get("lambda"):
            suites[2:2] = [
                SuiteSpec("dirac_exact", "exact", run_dirac_exact),
                SuiteSpec("conservation_exact", "exact", run_conservation_exact),
                SuiteSpec("current_identity_exact", "exact", run_current_identity_exact,
                          tol=POINTWISE_TOL),
                SuiteSpec("compatibility_exact", "exact", run_compatibility_exact,
                          tol=POINTWISE_TOL),
            ]
            suites.append(SuiteSpec("current_defect_fd", "fd", run_current_defect_fd))
        return suites
    if fam.name == "holomorphic":
        return [
            SuiteSpec("sigma_exact", "exact", run_sigma_exact),
            SuiteSpec("dirac_exact", "exact", run_dirac_exact),
            SuiteSpec("conservation_exact", "exact", run_conservation_exact),
            SuiteSpec("spin_algebra_exact", "exact", run_spin_algebra_exact),
            SuiteSpec("ll_fd", "fd", run_ll_fd),
            SuiteSpec("path_independence_fd", "fd", run_path_independence_fd),
        ]
    raise ValueError(f"no suites for family {fam.name!r}")


def _evaluate_suite(spec: SuiteSpec, fam: SolutionFamily, grids, tol_scale):
    reports = [spec.runner(fam, g) for g in grids]
    maxes = [r.max_norm for r in reports]
    ratios = [maxes[i] / maxes[i + 1] if maxes[i + 1] > 0 else float("inf")
              for i in range(len(maxes) - 1)]

    passed = True
    notes = []
    tolerances = []
    if spec.kind == "exact":
        tol = spec.tol * tol_scale
        tolerances = [tol] * len(maxes)
        if any(m > tol for m in maxes):
            passed = False
            notes.append(f"exceeds exact tolerance {tol:.3e}")
    elif spec.kind == "fd":
        h0 = max(grids[0].hx, grids[0].hy)
        c_est = maxes[0] / h0**2
        for g, m in zip(grids, maxes):
            h = max(g.hx, g.hy)
            tol = max(FD_SAFETY * c_est * h**2, FD_FLOOR) * tol_scale
            tolerances.append(tol)
            if m > tol:
                passed = False
                notes.append(f"residual {m:.3e} above tol {tol:.3e} at h={h:.4g}")
        if spec.expect_ratio and maxes[0] > 100 * FD_FLOOR:
            for k, ratio in enumerate(ratios):
                if ratio < RATIO_MIN:
                    passed = False
                    notes.append(f"nonconvergent: ratio {ratio:.2f} < {RATIO_MIN} "
                                 f"at level {k} (4 expected)")
    elif spec.kind == "control":
        # the undeformed equation must fail by a clear margin
        floor = 10.0 * max(reports[-1].details.get("deformed", 0.0), FD_FLOOR)
        tolerances = [floor] * len(maxes)
        if maxes[-1] < floor:
            passed = False
            notes.append(f"control too small: {maxes[-1]:.3e} < {floor:.3e}")
    elif spec.kind == "classify":
        lam = _param(fam)
        if fam.name == "rational":
            expected = 2.0 * lam**2
            tolerances = [1e-6 * max(1.0, expected) * tol_scale] * len(maxes)
            err = abs(maxes[-1] - expected)
            if err > tolerances[-1]:
                passed = False
                notes.append(f"classifier value {maxes[-1]:.6f} != {expected:.6f}")
        else:
            tolerances = [1e-3] * len(maxes)
            if maxes[-1] < 1e-3:
                passed = False
                notes.append("expected a non-integrable-class mean curvature")

    return {
        "suite": spec.name,
        "kind": spec.kind,
        "passed": passed,
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

def _build_family_checked(cfg: RunConfig) -> SolutionFamily:
    return build_family(cfg.family, lam=cfg.lam, a=cfg.a, h0=cfg.h0)


def cmd_verify(cfg: RunConfig) -> int:
    fam = _build_family_checked(cfg)
    grids = _grids(cfg, fam)
    suites = _suites_for(fam)

    def run(spec):
        return _evaluate_suite(spec, fam, grids, cfg.tol_scale)

    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(run, suites))
    else:
        results = [run(spec) for spec in suites]

    os.makedirs(cfg.out, exist_ok=True)
    all_passed = True
    for res in results:
        res["family"] = fam.name
        res["params"] = dict(sorted(fam.params.items()))
        res["config"] = cfg.describe()
        res["version"] = __version__
        path = os.path.join(cfg.out, f"{fam.name}_{res['suite']}.json")
        with open(path, "w", encoding="ascii") as fh:
            json.dump(res, fh, sort_keys=True, indent=1)
            fh.write("\n")
        status = "PASS" if res["passed"] else "FAIL"
        finest = res["levels"][-1]["max_norm"]
        print(f"{status}  {fam.name}:{res['suite']}  max={finest:.3e}"
              + (f"  [{'; '.join(res['notes'])}]" if res["notes"] else ""))
        all_passed &= res["passed"]

    if not all_passed:
        failing = [r["suite"] for r in results if not r["passed"]]
        print(f"FAILED suites: {', '.join(failing)}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_induce(cfg: RunConfig) -> int:
    fam = _build_family_checked(cfg)
    grids = _grids(cfg, fam)
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
    obj_path = os.path.join(cfg.out, f"{fam.name}_surface.obj")
    csv_path = os.path.join(cfg.out, f"{fam.name}_surface.csv")
    nverts, nfaces = export_mesh(srf, obj_path)
    surface_to_csv(srf, csv_path, ff)

    h_num = mean_curvature_numeric(ff)
    h_pre = fam.mean_curvature.sample(grid)
    interior = np.zeros(grid.shape, dtype=bool)
    interior[1:-1, 1:-1] = True
    sel = interior & ~(h_num.mask | h_pre.mask)
    closure = float(np.max(np.abs(np.abs(h_num.values[sel]) - np.abs(h_pre.values[sel])),
                           initial=0.0))
    k_num = gauss_curvature_numeric(ff)
    k_form = gaussian_curvature_from_p(density_p(s))
    selk = interior & ~(k_num.mask | k_form.mask)
    k_err = float(np.max(np.abs(k_num.values[selk] - k_form.values[selk]), initial=0.0))

    h = max(grid.hx, grid.hy)
    tol = max(50.0 * h**2, FD_FLOOR) * cfg.tol_scale
    passed = closure <= tol and k_err <= tol
    res = {
        "suite": "curvature_closure",
        "kind": "fd",
        "family": fam.name,
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
        "config": cfg.describe(),
        "version": __version__,
    }
    with open(os.path.join(cfg.out, f"{fam.name}_curvature_closure.json"),
              "w", encoding="ascii") as fh:
        json.dump(res, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(f"{'PASS' if passed else 'FAIL'}  {fam.name}:curvature_closure  "
          f"|H_num - H|={closure:.3e}  K error={k_err:.3e}  ({nverts} vertices)")
    return EXIT_OK if passed else EXIT_NUMERICAL


def cmd_report(cfg: RunConfig) -> int:
    if not os.path.isdir(cfg.out):
        print(f"no reports found in {cfg.out!r}", file=sys.stderr)
        return EXIT_NOINPUT
    rows = []
    for fname in sorted(os.listdir(cfg.out)):
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

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_common(p: _Parser):
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--family", choices=FAMILY_NAMES)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--A", dest="a_param", type=float)
    p.add_argument("--H0", dest="h0", type=float)
    p.add_argument("--grid")
    p.add_argument("--domain")
    p.add_argument("--basepoint")
    p.add_argument("--tol-scale", dest="tol_scale", type=float)
    p.add_argument("--levels", type=int)
    p.add_argument("--jobs", type=int)
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "csv"))


def _merge(cfg: RunConfig, ns: argparse.Namespace) -> RunConfig:
    if getattr(ns, "family", None) is not None:
        cfg = replace(cfg, family=ns.family)
    if getattr(ns, "lam", None) is not None:
        cfg = replace(cfg, lam=ns.lam)
    if getattr(ns, "a_param", None) is not None:
        cfg = replace(cfg, a=ns.a_param)
    if getattr(ns, "h0", None) is not None:
        cfg = replace(cfg, h0=ns.h0)
    if getattr(ns, "grid", None) is not None:
        cfg = replace(cfg, grid=_parse_grid(ns.grid))
    if getattr(ns, "domain", None) is not None:
        cfg = replace(cfg, domain=None if ns.domain == "default"
                      else _parse_floats(ns.domain, 4, "domain"))
    if getattr(ns, "basepoint", None) is not None:
        cfg = replace(cfg, basepoint=None if ns.basepoint == "default"
                      else _parse_floats(ns.basepoint, 2, "basepoint"))
    if getattr(ns, "tol_scale", None) is not None:
        cfg = replace(cfg, tol_scale=ns.tol_scale)
    if getattr(ns, "levels", None) is not None:
        cfg = replace(cfg, levels=ns.levels)
    if getattr(ns, "jobs", None) is not None:
        cfg = replace(cfg, jobs=ns.jobs)
    if getattr(ns, "out", None) is not None:
        cfg = replace(cfg, out=ns.out)
    if getattr(ns, "format", None) is not None:
        cfg = replace(cfg, format=ns.format)
    if os.environ.get("WSL_OUT"):
        cfg = replace(cfg, out=os.environ["WSL_OUT"])
    return cfg


_VALUE_FLAGS = ("--domain", "--basepoint", "--lambda", "--A", "--H0", "--tol-scale")


def _glue_negative_values(argv):
    """Join value flags with arguments that begin with a minus sign, so
    invocations like --domain -1,1,-1,1 parse as intended."""
    out = []
    it = iter(argv)
    for tok in it:
        if tok in _VALUE_FLAGS:
            try:
                val = next(it)
            except StopIteration:
                out.append(tok)
                break
            out.append(f"{tok}={val}" if val.startswith("-") else tok)
            if not val.startswith("-"):
                out.append(val)
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = _Parser(prog="gwsurf",
                     description="verify and induce prescribed mean curvature surfaces")
    parser.add_argument("--version", action="version", version=__version__)
    # subparsers inherit _Parser (and its 64-on-usage-error behavior)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("verify", "induce", "report"):
        _add_common(sub.add_parser(name))

    if argv is None:
        argv = sys.argv[1:]
    argv = _glue_negative_values(list(argv))
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        return EXIT_USAGE if code not in (0,) else 0

    cfg = RunConfig()
    if ns.config:
        if not os.path.isfile(ns.config):
            print(f"config file not found: {ns.config}", file=sys.stderr)
            return EXIT_NOINPUT
        with open(ns.config, "r", encoding="ascii") as fh:
            try:
                cfg = parse_config_text(fh.read())
            except ValueError as exc:
                print(f"bad config: {exc}", file=sys.stderr)
                return EXIT_USAGE
    try:
        cfg = _merge(cfg, ns)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        if ns.command == "verify":
            return cmd_verify(cfg)
        if ns.command == "induce":
            return cmd_induce(cfg)
        if ns.command == "report":
            return cmd_report(cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
