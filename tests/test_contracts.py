"""API contracts: residuals reject an H sampled on another grid, every
module's export list is re-exported by the package, the public API
keeps one name for each curvature and one switch to stencils, every
field shows grid-shaped, read-only values and mask, however it is
stored, the command line decides nothing by a family's name, only the
inducer and the command line open files, the package runs on one
thread, a field gets an analytic source only from closedform, every
optional parameter is one that some call in the package sets, every
public name is one that some module of the package loads, every public
callable is one that some command runs, every call README names is a
public one, every report is RFC 8259 JSON, and only reporting builds a
report, whose norms are the worst of its named parts."""
import ast
import importlib
import inspect
import json
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import gwsurf
from gwsurf import (GridSpec, compatibility_residual, dbar_J_defect, deformed_ll_residual,
                    family_rational, family_unimodular, linear_system_residual, ll_commutator,
                    modified_current, psi_from_rho, sigma_residual, sinh_gordon_residual,
                    unimodular_H_constancy_check, weierstrass_residual)

G = GridSpec(-1, 1, -1, 1, 21, 21)
# the same shape on a shifted domain: only the grid check tells the two apart
OTHER = GridSpec(-1, 1, -0.5, 1.5, 21, 21)
RAT = family_rational(1.0)
UNI = family_unimodular(1.0, 1.0)


# every function that combines h with other fields on G, with the family
# whose H suits those fields
TAKES_H = {
    "weierstrass_residual": (RAT, lambda h: weierstrass_residual(RAT.spinor(G), h)),
    "dbar_J_defect": (RAT, lambda h: dbar_J_defect(RAT.spinor(G), h)),
    "modified_current": (RAT, lambda h: modified_current(RAT.spinor(G), h, 0.0)),
    "psi_from_rho": (RAT, lambda h: psi_from_rho(RAT.rho(G), h)),
    "sigma_residual": (RAT, lambda h: sigma_residual(RAT.rho(G), h)),
    "deformed_ll_residual": (RAT, lambda h: deformed_ll_residual(ll_commutator(RAT.rho(G)), h)),
    "compatibility_residual": (UNI, lambda h: compatibility_residual(UNI.rho(G), h)),
    "unimodular_H_constancy_check":
        (UNI, lambda h: unimodular_H_constancy_check(UNI.rho(G), h)),
    "sinh_gordon_residual": (RAT, lambda h: sinh_gordon_residual(RAT.spinor(G), h)),
    "linear_system_residual": (RAT, lambda h: linear_system_residual(RAT.spinor(G), h, 1.0)),
}


@pytest.mark.parametrize("name", sorted(TAKES_H))
def test_h_on_another_grid_rejected(name):
    fam, call = TAKES_H[name]
    call(fam.h(G))
    with pytest.raises(ValueError, match="different grids"):
        call(fam.h(OTHER))


def test_every_function_taking_h_is_checked():
    takers = {name for name, fn in vars(gwsurf).items()
              if inspect.isfunction(fn) and "h" in inspect.signature(fn).parameters}
    # these two read h and nothing else
    assert takers == set(TAKES_H) | {"h_integrability_residual", "log_derivatives"}


LIBRARY_MODULES = sorted(m.name for m in pkgutil.iter_modules(gwsurf.__path__)
                         if not m.name.startswith("_") and m.name != "cli")


@pytest.mark.parametrize("module", LIBRARY_MODULES)
def test_export_list_is_reexported(module):
    mod = importlib.import_module(f"gwsurf.{module}")
    for name in mod.__all__:
        assert hasattr(mod, name), name
        assert getattr(gwsurf, name, None) is getattr(mod, name), name


def _public_callables():
    """(name, function) for every function the package re-exports and every
    method of the classes it re-exports."""
    for name, obj in vars(gwsurf).items():
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, fn in vars(obj).items():
                if inspect.isfunction(fn):
                    yield f"{name}.{attr}", fn


def _fixed_value(param) -> bool:
    """A report label, a tolerance, a guard or the spinor's branch sign
    (the transform takes +1; -psi is the other preimage) that the library
    fixes itself rather than takes from its caller."""
    p = param.name
    return ((p == "name" and param.default is not param.empty)
            or p == "tol" or p.startswith("tol_") or p.endswith(("_tol", "_eps"))
            or p in ("guard_band", "admissible", "eps"))


def test_no_label_or_tolerance_options():
    offenders = [f"{name}({p.name})" for name, fn in _public_callables()
                 for p in inspect.signature(fn).parameters.values() if _fixed_value(p)]
    assert not offenders
    # each residual leaves out the boundary rings its derivative path needs
    # (reporting.STENCIL_RINGS); only the report builder takes a count
    rings = [name for name, fn in _public_callables()
             if "exclude_rings" in inspect.signature(fn).parameters]
    assert rings == ["report_from_parts"]


def _call_sites() -> dict:
    """name -> [(positional count, keyword names)] for every call in the
    package, by the called name or attribute; a starred argument sets every
    positional parameter and a ** argument every keyword (None)."""
    sites = {}
    for path in Path(gwsurf.__file__).parent.glob("*.py"):
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(n, ast.Call):
                name = getattr(n.func, "id", None) or getattr(n.func, "attr", None)
                npos = (float("inf") if any(isinstance(a, ast.Starred) for a in n.args)
                        else len(n.args))
                sites.setdefault(name, []).append((npos, {k.arg for k in n.keywords}))
    return sites


# defaults that no call in the package sets, kept for callers outside it
UNSET_DEFAULTS = {
    "ComplexField(mask)": "a field built from user values is unmasked unless told",
    "RealField(mask)": "a field built from user values is unmasked unless told",
}


def test_every_default_is_set_by_some_call():
    # an optional parameter that every caller leaves at its default is a
    # constant: the code should state it, not take it
    sites = _call_sites()
    unset = []
    for name, obj in vars(gwsurf).items():
        if inspect.isclass(obj) and not issubclass(obj, Exception):
            targets = [(name, name, obj, 0)] + [
                (f"{name}.{attr}", attr, fn, 1) for attr, fn in vars(obj).items()
                if inspect.isfunction(fn) and attr != "__init__"]
        elif inspect.isfunction(obj):
            targets = [(name, name, obj, 0)]
        else:
            continue
        for label, called, fn, skip in targets:
            params = list(inspect.signature(fn).parameters.values())[skip:]
            for k, p in enumerate(params):
                if p.default is p.empty:
                    continue
                if not any(p.name in kws or None in kws
                           or (p.kind != p.KEYWORD_ONLY and npos > k)
                           for npos, kws in sites.get(called, [])):
                    unset.append(f"{label}({p.name})")
    assert sorted(unset) == sorted(UNSET_DEFAULTS)


# public names that no module of the package loads and no command runs,
# kept for callers outside it
UNLOADED_NAMES = {
    "h_from_profile": "acceptance criterion 7 builds its in-class H from a profile Q: "
                      "the form of 1/(Q(z) + Q(zbar)) and its guard",
}


def test_every_public_name_is_loaded_in_the_package():
    # a public name that only tests reach is API kept for them: some module
    # loads it (by name or as an attribute), or it is listed with a reason
    loaded = set()
    for path in Path(gwsurf.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                loaded.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                loaded.add(n.attr)
    public = {name for module in LIBRARY_MODULES
              for name in importlib.import_module(f"gwsurf.{module}").__all__}
    assert sorted(public - loaded) == sorted(UNLOADED_NAMES)


def _public_code() -> dict:
    """code object -> name of every function the package re-exports and of
    every public method, property and __new__ of the classes it
    re-exports."""
    code = {}
    for name, obj in vars(gwsurf).items():
        if inspect.isfunction(obj):
            code[obj.__code__] = name
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_") and attr != "__new__":
                    continue
                fn = member.fget if isinstance(member, property) else member
                fn = getattr(fn, "__func__", fn)        # __new__ is a staticmethod
                if inspect.isfunction(fn):
                    code[fn.__code__] = f"{name}.{attr}"
    return code


def test_every_public_callable_runs_in_some_command(tmp_path, capsys):
    # the static census sees module-level names only; this one runs verify
    # and induce on every family and records each function entered, so a
    # method or property that only the tests call is caught too
    from gwsurf.cli import main
    ran = set()

    def record(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    codes = set()
    sys.setprofile(record)
    try:
        for name in gwsurf.FAMILY_NAMES:
            for command in ("verify", "induce"):
                codes.add(main([command, "--family", name, "--grid", "21x21",
                                "--out", str(tmp_path / name)]))
    finally:
        sys.setprofile(None)
    # every command ran to its end: a gate may fail at 21x21 (exit 2), but
    # no usage error or breakdown stopped one early
    assert codes <= {0, 2} and "error:" not in capsys.readouterr().err
    unrun = {label for code, label in _public_code().items() if code not in ran}
    assert sorted(unrun) == sorted(UNLOADED_NAMES)


# names that README calls and the package does not define
README_OUTSIDE_CALLS = {"einsum": "numpy's, whose summation order the fundamental forms keep"}


def test_readme_calls_name_public_callables():
    # every call that README writes in backticks, `name(...)`, names a
    # function or class the package re-exports or a method of such a class,
    # so a renamed or deleted name shows here
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    text = re.sub(r"```.*?```", "", text, flags=re.S)      # shell examples
    called = {name for span in re.findall(r"`([^`]*)`", text)
              for name in re.findall(r"([A-Za-z_]\w*)\(", span)}
    public = {name for name, obj in vars(gwsurf).items() if callable(obj)}
    public |= {attr for obj in vars(gwsurf).values() if inspect.isclass(obj)
               for attr, _ in inspect.getmembers(obj, inspect.isfunction)}
    assert called and sorted(called - public) == sorted(README_OUTSIDE_CALLS)


def test_export_mesh_writes_both_files_from_given_forms():
    # the OBJ, the CSV and the curvatures that fundamental_forms returns
    # for it are all required: the writer has no optional output and
    # computes no forms
    params = inspect.signature(gwsurf.export_mesh).parameters.values()
    assert [p.name for p in params if p.default is not p.empty] == []


def test_fundamental_forms_are_the_two_curvatures_induce_reads():
    # no form field, degenerate mask or cached value beside them
    assert list(gwsurf.FundamentalForms._fields) == ["mean_curvature", "gauss_curvature"]


def test_one_name_per_curvature_and_one_switch_to_stencils():
    # the numeric curvatures are FundamentalForms.mean_curvature and
    # .gauss_curvature; without_source() is how a sample drops its source
    for name in ("mean_curvature_numeric", "gauss_curvature_numeric",
                 "gauss_curvature_consistency"):
        assert not hasattr(gwsurf, name), name
        assert not hasattr(gwsurf.inducer, name), name
    takes = [name for name, fn in _public_callables() if name.startswith("SolutionFamily.")
             and "analytic" in inspect.signature(fn).parameters]
    assert not takes


@pytest.mark.parametrize("name", gwsurf.FAMILY_NAMES)
def test_fields_show_grid_shaped_read_only_arrays(name):
    # the fields that the families and verify's level inputs build; a
    # one-dimensional family stores one column (see gwsurf.grid)
    from gwsurf.cli import _INPUTS, _level_inputs
    fam = gwsurf.build_family(name)
    g = GridSpec(*fam.default_domain, 11, 7)
    get = _level_inputs(fam, g)
    built = [fam.h(g), fam.rho(g), fam.spinor(g)] + [get(n) for n in _INPUTS]
    fields = []
    for value in built:
        fields += [value.psi1, value.psi2] if hasattr(value, "psi1") else [value]
    fields = [f for f in fields if isinstance(f, (gwsurf.ComplexField, gwsurf.RealField))]
    # h, rho and psi1, psi2 as sampled, and from the level inputs each of
    # them with and without its source; the commutator holds plain arrays
    assert len(fields) == 4 + 2 * 4
    for f in fields:
        for arr in (f.values, f.mask):
            assert arr.shape == g.shape and not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 0
        assert all(a.shape in (g.shape, (g.nx, 1)) for a in f.stored)
        assert f.stored[0].shape == f.stored[1].shape


def test_cli_does_not_branch_on_family_names():
    # which suites run, and what they expect, follows from the facts a
    # family states; a family's name only names output files and lines
    import gwsurf.cli
    tree = ast.parse(inspect.getsource(gwsurf.cli))
    (config,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "RunConfig"]
    (default,) = [n.value for n in config.body
                  if isinstance(n, ast.AnnAssign) and n.target.id == "family"]
    names = [n for n in ast.walk(tree) if isinstance(n, ast.Constant)
             and n.value in gwsurf.FAMILY_NAMES and n is not default]
    assert not names, [(n.lineno, n.value) for n in names]
    readers = {f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
               for n in ast.walk(f) if isinstance(n, ast.Attribute) and n.attr == "name"
               and isinstance(n.value, ast.Name) and n.value.id == "fam"}
    assert readers == {"_write_report", "cmd_verify", "cmd_induce"}


def test_only_the_inducer_and_the_cli_open_files():
    # export_mesh writes the surface files and the command line writes the
    # reports; every other module computes without touching the disk
    openers = set()
    for path in Path(gwsurf.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "open"
               for n in ast.walk(tree)):
            openers.add(path.stem)
    assert openers == {"inducer", "cli"}


def test_no_module_starts_threads_or_processes():
    # verify runs its suites one after another; no cache needs a lock
    pools = {"threading", "concurrent", "multiprocessing"}
    found = []
    for path in Path(gwsurf.__file__).parent.glob("*.py"):
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(n, ast.Import):
                names = [a.name for a in n.names]
            elif isinstance(n, ast.ImportFrom):
                names = [n.module or ""]
            else:
                continue
            if any(m.split(".")[0] in pools for m in names):
                found.append(f"{path.stem}:{n.lineno}")
    assert not found


@pytest.mark.parametrize("cls", [gwsurf.ComplexField, gwsurf.RealField])
def test_public_field_constructors_take_no_source(cls):
    # sample and pointwise give a field its analytic source; a public
    # constructor builds a field of plain values
    assert "source" not in inspect.signature(cls).parameters


@pytest.fixture(scope="module")
def default_run_dir(tmp_path_factory):
    """verify and induce of every family at their defaults, then report,
    all writing into one directory."""
    from gwsurf.cli import main
    out = tmp_path_factory.mktemp("defaults")
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("WSL_OUT", raising=False)         # it would override --out
        for name in gwsurf.FAMILY_NAMES:
            for command in ("verify", "induce"):
                assert main([command, "--family", name, "--out", str(out)]) == 0
        assert main(["report", "--out", str(out)]) == 0
    return out


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON (RFC 8259)")


def test_reports_and_summary_are_json(default_run_dir):
    # json.dumps writes inf and nan as Infinity and NaN, which jq and
    # JSON.parse reject; a ratio over a finer level that reads 0 is null
    names = sorted(p.name for p in default_run_dir.glob("*.json"))
    assert len(names) == 23 + 23 + 23 + 11 + 6 + 5 + 1 and "summary.json" in names
    for name in names:
        json.loads((default_run_dir / name).read_text(encoding="ascii"),
                   parse_constant=_not_json)


def test_only_reporting_builds_a_report():
    # a row's max_norm and l2_norm are the worst of its parts': one module
    # builds reports, and no caller overrides their norms afterwards
    built, overridden = {}, []
    for path in sorted(Path(gwsurf.__file__).parent.glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(n, ast.Call):
                continue
            name = getattr(n.func, "id", None) or getattr(n.func, "attr", None)
            if name == "ResidualReport":
                built[path.stem] = built.get(path.stem, 0) + 1
            elif name == "_replace" and {k.arg for k in n.keywords} & {"max_norm", "l2_norm"}:
                overridden.append(f"{path.name}:{n.lineno}")
    assert list(built) == ["reporting"] and not overridden, (built, overridden)


LEVEL_KEYS = {"nx", "ny", "hx", "hy", "max_norm", "l2_norm", "masked_points", "parts", "details"}


def test_every_level_is_the_worst_of_its_named_parts(default_run_dir):
    reports = [p for p in sorted(default_run_dir.glob("*.json")) if p.name != "summary.json"]
    assert len(reports) == 23 + 23 + 23 + 11 + 6 + 5
    for path in reports:
        for level in json.loads(path.read_text(encoding="ascii"))["levels"]:
            assert set(level) == LEVEL_KEYS, path.name
            parts = level["parts"]
            assert parts and all(set(p) == {"name", "max_norm", "l2_norm"} for p in parts)
            names = [p["name"] for p in parts]
            # a part is named once, and details hold no residual
            assert len(set(names)) == len(names) and not set(names) & set(level["details"])
            assert level["max_norm"] == max(p["max_norm"] for p in parts), path.name
            assert level["l2_norm"] == max(p["l2_norm"] for p in parts), path.name
