"""Command-line behavior: exit codes, determinism, config handling."""
import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import gwsurf
from gwsurf.cli import (_KEYS, EXIT_CANTCREAT, EXIT_NOINPUT, EXIT_NUMERICAL, EXIT_OK,
                        EXIT_USAGE, RunConfig, _resolve, main, parse_config_text)


COMMANDS = ("verify", "induce", "report")


def run(args):
    return main(args)


def read_dir_bytes(d):
    out = {}
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name), "rb") as fh:
            out[name] = fh.read()
    return out


class TestConfig:
    def test_round_trip(self):
        cfg = RunConfig(family="trig", a=2.0, grid=(51, 61),
                        domain=(0.1, 0.5, -1.0, 1.0), tol_scale=2.0,
                        levels=3, out="elsewhere", format="csv")
        text = ("family=trig\nlambda=default\na=2.0\nh0=1.0\ngrid=51x61\n"
                "domain=0.1,0.5,-1.0,1.0\nbasepoint=default\ntol_scale=2.0\n"
                "levels=3\njobs=1\nout=elsewhere\nformat=csv\n")
        assert parse_config_text(text) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            parse_config_text("familly=rational\n")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config_text("# a comment\n\nfamily=exponential\nlambda=2.0\n")
        assert cfg.family == "exponential"
        assert cfg.lam == 2.0

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            parse_config_text("family rational\n")

    # one non-default value per config key, as both the flag and the file
    # spell it; jobs takes no value but its default
    SAMPLES = {"family": "trig", "lambda": "-1.5", "a": "1.25", "h0": "2.0",
               "grid": "31x41", "domain": "-1.0,0.5,-0.25,1.0", "basepoint": "-0.5,0.25",
               "tol_scale": "2.5", "levels": "3", "out": "elsewhere", "format": "csv"}
    # every config key at its default value, spelled as the file spells it
    DEFAULTS = {"family": "rational", "lambda": "default", "a": "default", "h0": "1.0",
                "grid": "101x101", "domain": "default", "basepoint": "default",
                "tol_scale": "1.0", "levels": "2", "jobs": "1", "out": "out",
                "format": "json"}

    @staticmethod
    def _text(values: dict) -> str:
        return "".join(f"{k}={v}\n" for k, v in values.items())

    @pytest.mark.parametrize("key", list(SAMPLES))
    def test_flag_and_config_file_agree(self, key, tmp_path, monkeypatch):
        monkeypatch.delenv("WSL_OUT", raising=False)
        (row,) = [k for k in _KEYS if k.key == key]
        command = row.commands[0]
        from_flag = _resolve([command, row.flag, self.SAMPLES[key]])[1]
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{key}={self.SAMPLES[key]}\n")
        from_file = _resolve([command, "--config", str(cfg_file)])[1]
        assert from_flag == from_file == parse_config_text(cfg_file.read_text())
        assert from_flag != RunConfig()
        every_key = self._text({**self.DEFAULTS, key: self.SAMPLES[key]})
        assert parse_config_text(every_key) == from_flag

    def test_table_covers_every_field_once(self):
        fields = [k.field for k in _KEYS]
        assert sorted(fields) == sorted(f.name for f in dataclasses.fields(RunConfig))
        assert sorted(self.DEFAULTS) == sorted(k.key for k in _KEYS)
        assert sorted(self.SAMPLES) == sorted(set(self.DEFAULTS) - {"jobs"})
        assert parse_config_text(self._text(self.DEFAULTS)) == RunConfig()

    @pytest.mark.parametrize("flag", ["--lambda", "--A", "--domain", "--basepoint"])
    def test_default_literal_on_flags(self, flag):
        # keys whose default is None take the literal `default`, as in the file
        assert _resolve(["verify", flag, "default"])[1] == RunConfig()

    # the command and key of every pair, and whether the command reads the key
    PAIRS = [(c, k.key, c in k.commands) for k in _KEYS for c in COMMANDS]
    # more non-default values: fewer levels than the default, as well as more
    MORE = {"levels": ("1",)}

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command, key, reads", PAIRS)
    def test_each_command_takes_only_the_keys_it_reads(self, tmp_path, capsys, monkeypatch,
                                                       command, key, reads, source):
        # a key that a command does not read would shape no result: it is
        # taken only at its default, and set away from it is a usage error
        # before any output is made. jobs takes no value but its default
        monkeypatch.delenv("WSL_OUT", raising=False)
        (row,) = [k for k in _KEYS if k.key == key]
        for value in ({**self.SAMPLES, "jobs": "2"}[key], *self.MORE.get(key, ())):
            cfg_file = tmp_path / "run.cfg"
            cfg_file.write_text(f"{key}={value}\n")
            given = [row.flag, value] if source == "flag" else ["--config", str(cfg_file)]
            if reads:
                resolved = _resolve([command, *given])
                assert resolved == (command, parse_config_text(cfg_file.read_text()))
                assert resolved[1] != RunConfig()
                continue
            out = tmp_path / "out"
            assert run([command, *given, "--out", str(out)]) == EXIT_USAGE
            assert not out.exists()
            err = capsys.readouterr().err
            if key == "jobs":
                # the value check names where the value came from
                where = row.flag if source == "flag" else "line 1: jobs"
                assert err.startswith(f"error: {where}: "), err
            else:
                assert err == f"error: {row.flag}: {command} does not read {key}\n"

    def test_read_sets(self):
        # 20 settable values in all; the other 16 pairs take only the default
        shared = {"family", "lambda", "a", "h0", "grid", "domain", "tol_scale", "out"}
        reads = {c: {k for c2, k, r in self.PAIRS if c2 == c and r} for c in COMMANDS}
        assert reads == {"verify": shared | {"levels"}, "induce": shared | {"basepoint"},
                         "report": {"out", "format"}}

    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_default_is_taken_by_every_command(self, tmp_path, monkeypatch, command):
        # a config file that spells every default shapes nothing, so any
        # command takes it
        monkeypatch.delenv("WSL_OUT", raising=False)
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(self._text(self.DEFAULTS))
        assert _resolve([command, "--config", str(cfg_file)]) == (command, RunConfig())

    def test_unread_keys_at_their_defaults_run(self, tmp_path):
        # the benchmark's argv shape: induce reads neither levels nor jobs
        assert run(["induce", "--grid", "21x21", "--levels", "2", "--jobs", "1",
                    "--out", str(tmp_path / "induce")]) == EXIT_OK
        assert run(["verify", "--family", "unimodular", "--grid", "21x21", "--levels", "1",
                    "--basepoint", "default", "--out", str(tmp_path / "verify")]) == EXIT_OK


_E, _P = 1e-12, 1e-10   # exact and pointwise tolerances
_VARYING_H_SUITES = {
    ("dirac_exact", "exact", _E), ("sigma_exact", "exact", _E),
    ("conservation_exact", "exact", _E), ("roundtrip_exact", "exact", _E),
    ("transform_exact", "exact", _E), ("spin_algebra_exact", "exact", _E),
    ("current_identity_exact", "exact", _P),
    ("constraints_exact", "exact", _P),
    ("linear_system_exact", "exact", _P),
    ("deformed_ll_exact", "exact", _P),
    ("dirac_fd", "fd", _E), ("sigma_fd", "fd", _E),
    ("conservation_fd", "fd", _E), ("roundtrip_fd", "fd", _E),
    ("current_defect_fd", "fd", _E), ("modified_current_fd", "fd", _E),
    ("sinh_gordon_fd", "fd", _E), ("deformed_ll_fd", "fd", _E),
    ("riccati_fd", "fd", _E), ("linear_system_fd", "fd", _E),
    ("path_independence_fd", "fd", _E),
    ("ll_necessity_control", "control", _E),
    ("h_classification", "classify", _E),
}
_CONSTANT_RHO_SUITES = {
    ("sigma_exact", "exact", _E), ("spin_algebra_exact", "exact", _E),
    ("h_constancy_exact", "exact", _P), ("multisoliton_exact", "exact", _P),
    ("ll_fd", "fd", _E),
}
_SUITE_SETS = {
    "rational": _VARYING_H_SUITES,
    "exponential": _VARYING_H_SUITES,
    "trig": _VARYING_H_SUITES,
    "unimodular": _CONSTANT_RHO_SUITES | {
        ("dirac_exact", "exact", _E), ("conservation_exact", "exact", _E),
        ("transform_exact", "exact", _E),
        ("current_identity_exact", "exact", _P),
        ("compatibility_exact", "exact", _P),
        ("current_defect_fd", "fd", _E),
    },
    "unimodular-lambda0": _CONSTANT_RHO_SUITES,
    "holomorphic": {
        ("sigma_exact", "exact", _E), ("dirac_exact", "exact", _E),
        ("conservation_exact", "exact", _E), ("spin_algebra_exact", "exact", _E),
        ("ll_fd", "fd", _E), ("path_independence_fd", "fd", _E),
    },
}


@pytest.mark.parametrize("case", sorted(_SUITE_SETS))
def test_suite_set_per_family(case):
    """Which suites run, of which kind and at which tolerance."""
    from gwsurf.cli import _suites_for
    from gwsurf.families import build_family
    name, _, lam = case.partition("-lambda")
    fam = build_family(name, lam=float(lam) if lam else None)
    specs = _suites_for(fam)
    resolved = {(s.name, s.kind, s.tol) for s in specs}
    assert len(resolved) == len(specs)
    assert resolved == _SUITE_SETS[case]


@pytest.mark.parametrize("name", ["rational", "exponential", "trig", "unimodular"])
def test_round_off_rows_sit_below_the_ratio_threshold(name):
    """On one-dimensional data riccati_fd, ll_fd and path_independence_fd
    read round-off; at the default grid's coarsest level it stays at most
    100 FD_FLOOR, where _gate starts to enforce the O(h^2) ratio."""
    from gwsurf.cli import FD_FLOOR, _run_level, _setup, _suites_for
    fam, grids = _setup(RunConfig(family=name))
    assert fam.one_dimensional
    rows = {"riccati_fd", "ll_fd", "path_independence_fd"}
    suites = [s for s in _suites_for(fam) if s.name in rows]
    assert suites
    with np.errstate(all="ignore"):
        reports = _run_level(suites, fam, grids[0])
    maxes = {s.name: r.max_norm for s, r in zip(suites, reports)}
    assert all(m <= 100 * FD_FLOOR for m in maxes.values()), maxes


@pytest.mark.parametrize("name", gwsurf.FAMILY_NAMES)
def test_exact_suites_reach_no_stencil(name, monkeypatch):
    """Every exact suite differentiates through analytic sources only: at
    the default grid and both levels it never runs a first-derivative
    stencil."""
    from gwsurf import calculus
    from gwsurf.cli import _level_inputs, _setup, _suites_for
    calls = []
    gradient = calculus._gradient
    monkeypatch.setattr(calculus, "_gradient",
                        lambda field, axis: calls.append(axis) or gradient(field, axis))
    fam, grids = _setup(RunConfig(family=name))
    suites = [spec for spec in _suites_for(fam) if spec.kind == "exact"]
    stencils = {}
    for g in grids:
        get = _level_inputs(fam, g)
        for spec in suites:
            # an input is charged to the first exact suite that reads it
            calls.clear()
            inputs = [get(n) for n in spec.inputs]
            with np.errstate(all="ignore"):
                spec.runner(fam, *inputs)
            stencils[spec.name, g.nx] = len(calls)
    assert stencils
    assert not any(stencils.values()), {k: n for k, n in stencils.items() if n}


def test_riccati_fit_reads_one_column():
    """`fit_riccati_coeffs` fits each point on its own: each rho that
    verify fits is one-dimensional and stored as one column, so no
    neighbourhood repeats. A full-grid one-dimensional rho repeats one
    neighbourhood per grid row; fitting it point by point takes 0.30 s at
    201x201 on a 2-core Xeon, where grouping equal neighbourhoods took
    0.04 s."""
    from gwsurf.cli import _level_inputs, _setup, _suites_for
    fitted = []
    for name in gwsurf.FAMILY_NAMES:
        fam, grids = _setup(RunConfig(family=name))
        fits = [spec for spec in _suites_for(fam) if spec.name == "riccati_fd"]
        for spec in fits:
            assert spec.inputs == ("rho_fd",)
            fitted.append(name)
            for g in grids:
                values, mask = _level_inputs(fam, g)("rho_fd").stored
                assert values.shape == mask.shape == (g.nx, 1), (name, g.nx)
    assert sorted(fitted) == ["exponential", "rational", "trig"]


@pytest.mark.parametrize("suite, call", [
    ("sigma_exact", lambda get: gwsurf.sigma_residual(get("rho"), get("h"))),
    ("sigma_fd", lambda get: gwsurf.sigma_residual(get("rho_fd"), get("h_fd"))),
    ("deformed_ll_exact",
     lambda get: gwsurf.deformed_ll_residual(gwsurf.ll_commutator(get("rho")), get("h"))),
    ("deformed_ll_fd",
     lambda get: gwsurf.deformed_ll_residual(gwsurf.ll_commutator(get("rho_fd")), get("h_fd"))),
    ("sinh_gordon_fd", lambda get: gwsurf.sinh_gordon_residual(get("spinor_fd"), get("h_fd"))),
    ("current_defect_fd", lambda get: gwsurf.dbar_J_defect(get("spinor_fd"), get("h_fd"))),
])
@pytest.mark.parametrize("family", ["rational", "trig"])
def test_library_call_returns_what_its_suite_reports(family, suite, call):
    # a residual decides its own boundary rings, so calling it on a suite's
    # inputs gives the suite's number on both derivative paths; on trig at
    # 21x21 every stencil row's largest residual lies on a boundary ring
    from gwsurf.cli import SUITES, _level_inputs, _run_level
    fam = gwsurf.build_family(family)
    g = gwsurf.GridSpec(*fam.default_domain, 21, 21)
    (spec,) = [s for s in SUITES if s.name == suite]
    (rep,) = _run_level([spec], fam, g)
    assert call(_level_inputs(fam, g)).max_norm == rep.max_norm


@pytest.fixture(scope="module")
def rational_101_counts():
    """One `verify --family rational --grid 101x101` (two levels), counting
    the builds of each (input, level), the `_d1` stencil calls and the
    distinct inputs they see, and the `sample` and `ClosedForm.jet` calls,
    and recording the shape of the values that each `_d1` and `_d2` call
    differences and the number of values that each `_integrate_from` call
    integrates."""
    import hashlib
    from gwsurf import calculus, cli, closedform, inducer, weierstrass
    builds, d1_calls, d1_inputs, samples, stencil_shapes = {}, [], set(), [], []
    line_sizes, jets = [], []

    def counted_build(name, build):
        def wrapper(fam, g, *reads):
            builds[name, g.nx] = builds.get((name, g.nx), 0) + 1
            return build(fam, g, *reads)
        return wrapper

    def d1(values, valid, h):
        d1_calls.append(1)
        stencil_shapes.append(values.shape)
        d1_inputs.add(hashlib.sha1(values.tobytes() + valid.tobytes() + repr(h).encode())
                      .hexdigest())
        return calculus._d1.__wrapped__(values, valid, h)

    def d2(values, valid, h):
        stencil_shapes.append(values.shape)
        return calculus._d2.__wrapped__(values, valid, h)

    def sample(*args, **kwargs):
        samples.append(1)
        return closedform.sample.__wrapped__(*args, **kwargs)

    def integrate_from(values, *args):
        line_sizes.append(np.size(values))
        return calculus._integrate_from(values, *args)

    d1.__wrapped__, d2.__wrapped__, sample.__wrapped__ = calculus._d1, calculus._d2, \
        closedform.sample
    inputs = {name: dataclasses.replace(spec, build=counted_build(name, spec.build))
              for name, spec in cli._INPUTS.items()}
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as out:
        mp.setattr(cli, "_INPUTS", inputs)
        mp.setattr(calculus, "_d1", d1)
        mp.setattr(calculus, "_d2", d2)
        mp.setattr(closedform.ClosedForm, "jet", _counted_jet(jets))
        # every namespace that binds sample, as `from .closedform import sample` copies it
        for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "gwsurf"]:
            if getattr(module, "sample", None) is sample.__wrapped__:
                mp.setattr(module, "sample", sample)
        for module in (inducer, weierstrass):
            mp.setattr(module, "_integrate_from", integrate_from)
        assert main(["verify", "--family", "rational", "--grid", "101x101",
                     "--out", out]) == EXIT_OK
    return {"builds": builds, "d1": len(d1_calls), "d1_inputs": len(d1_inputs),
            "sample": len(samples), "stencil_shapes": stencil_shapes,
            "line_sizes": line_sizes, "jet": len(jets)}


def _counted_jet(calls):
    """`ClosedForm.jet` that appends each order it is asked for to `calls`."""
    from gwsurf.closedform import ClosedForm
    jet = ClosedForm.jet

    def counted(self, z, order=2):
        calls.append(order)
        return jet(self, z, order)
    return counted


class TestSharedInputs:
    """verify builds each input once per level (counts, not timings)."""

    def test_each_input_built_once_per_level(self, rational_101_counts):
        from gwsurf.cli import _INPUTS
        builds = rational_101_counts["builds"]
        assert builds == {(name, n): 1 for name in _INPUTS for n in (101, 201)}

    def test_one_stencil_per_distinct_input(self, rational_101_counts):
        # what repeats is left to current_J and the commutator, which
        # difference fields built afresh from the inputs, and to the Riccati
        # coefficients, equal in pairs for a real rho
        counts = rational_101_counts
        assert counts["d1"] - counts["d1_inputs"] <= 16, counts

    def test_every_stencil_runs_on_one_column(self, rational_101_counts):
        # every field of the rational family depends on x only: it is stored
        # as one column, and only its x-derivative is a stencil
        shapes = rational_101_counts["stencil_shapes"]
        assert len(shapes) == rational_101_counts["d1"] == 72
        assert set(shapes) == {(101, 1), (201, 1)}

    def test_every_integral_runs_along_one_grid_line(self, rational_101_counts):
        # path independence integrates the four grid lines of its two paths,
        # the modified current one row: each call integrates one line of a
        # level's grid, 101 or 201 values, never the whole grid
        assert set(rational_101_counts["line_sizes"]) == {101, 201}

    def test_sample_calls(self, rational_101_counts):
        # h, rho and the two spinor components, once each per level: the
        # *_fd inputs are views of the same samples, and a derivative reads
        # its field's jet and samples nothing
        assert rational_101_counts["sample"] <= 8

    def test_jet_calls(self, rational_101_counts):
        # each sample asks its form for the values, then once for the jet
        # its source keeps: derivatives and formulas of it read that jet
        assert rational_101_counts["jet"] <= 16

    def test_holomorphic_jet_calls(self, monkeypatch, tmp_path):
        # rho and H, sampled once each per level, asked twice each
        from gwsurf import closedform
        calls = []
        monkeypatch.setattr(closedform.ClosedForm, "jet", _counted_jet(calls))
        assert main(["verify", "--family", "holomorphic", "--grid", "41x41",
                     "--out", str(tmp_path)]) == EXIT_OK
        assert len(calls) <= 8

    def test_psi_pair_runs_once_on_values_and_once_on_jets(self, monkeypatch, tmp_path):
        # holomorphic's spinor is the transform of rho: each component's
        # formula runs on the values, and once on jets, which the component
        # keeps for every derivative the suites take of it
        from gwsurf import sigma
        runs = []
        psi_pair = sigma.psi_pair
        monkeypatch.setattr(sigma, "psi_pair", lambda *a: runs.append(1) or psi_pair(*a))
        assert main(["verify", "--family", "holomorphic", "--grid", "41x41",
                     "--out", str(tmp_path)]) == EXIT_OK
        levels, components = 2, 2
        assert 0 < len(runs) <= 2 * components * levels

    def test_transform_spinor_reads_the_levels_rho_and_h(self, monkeypatch, tmp_path):
        # a family without spinor forms gets its spinor by the transform of
        # the level's rho and H: two samples per level, not four
        from gwsurf import families
        samples = []
        for name in ("sample", "sample_real"):
            fn = getattr(families, name)
            monkeypatch.setattr(families, name,
                                lambda *a, fn=fn, **k: samples.append(fn) or fn(*a, **k))
        assert main(["verify", "--family", "holomorphic", "--grid", "41x41",
                     "--out", str(tmp_path)]) == EXIT_OK
        levels = 2
        assert len(samples) == 2 * levels

    @pytest.mark.parametrize("name", gwsurf.FAMILY_NAMES)
    def test_stencil_inputs_built_after_exact_suites(self, name, monkeypatch):
        # each level keeps every input it builds until it ends, so the
        # exact suites, which read the jet-carrying inputs, run before any
        # stencil-path (*_fd) input exists
        from gwsurf import cli
        events = []

        def recorded(tag, fn):
            def wrapper(*args):
                events.append(tag)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(cli, "_INPUTS", {
            n: dataclasses.replace(spec, build=recorded(("build", n), spec.build))
            for n, spec in cli._INPUTS.items()})
        fam, grids = cli._setup(RunConfig(family=name, grid=(21, 21)))
        suites = [dataclasses.replace(spec, runner=recorded(("run", spec.kind), spec.runner))
                  for spec in cli._suites_for(fam)]
        for g in grids:
            events.clear()
            cli._run_level(suites, fam, g)
            built = [n for tag, n in events if tag == "build"]
            assert len(built) == len(set(built)), (name, g.nx, built)
            exact = [k for k, (tag, kind) in enumerate(events) if (tag, kind) == ("run", "exact")]
            fd = [k for k, (tag, n) in enumerate(events) if tag == "build" and n.endswith("_fd")]
            assert exact and fd, (name, events)
            assert max(exact) < min(fd), (name, g.nx, events)


def test_no_command_expands_a_stored_column(monkeypatch, tmp_path):
    # a compact field's column is read as stored: broadcast against
    # grid-shaped arrays and counted by reporting._masked_count, never
    # expanded into a new grid
    from gwsurf import grid
    expanded = []
    keep = grid._expanded

    def spy(arr, g):
        if arr.shape != g.shape:
            expanded.append(arr.shape)
        return keep(arr, g)

    monkeypatch.setattr(grid, "_expanded", spy)
    for argv in (["induce", "--family", "rational"], ["induce", "--family", "trig"],
                 ["verify", "--family", "rational"]):
        out = tmp_path / "-".join(argv)
        assert main(argv + ["--grid", "41x41", "--out", str(out)]) == EXIT_OK
        assert not expanded, argv


class TestVerify:
    def test_rational_passes(self, tmp_path):
        code = run(["verify", "--family", "rational", "--lambda", "1",
                    "--grid", "41x41", "--domain", "-1,1,-1,1",
                    "--out", str(tmp_path)])
        assert code == EXIT_OK
        files = [f for f in os.listdir(tmp_path) if f.endswith(".json")]
        assert len(files) >= 10

    def test_unimodular_passes(self, tmp_path):
        code = run(["verify", "--family", "unimodular", "--lambda", "2",
                    "--H0", "1", "--grid", "41x41", "--out", str(tmp_path)])
        assert code == EXIT_OK
        names = {json.loads((tmp_path / f).read_text())["suite"]
                 for f in os.listdir(tmp_path)}
        assert "ll_fd" in names

    def test_zero_lambda_is_usage_error(self, tmp_path):
        code = run(["verify", "--family", "rational", "--lambda", "0",
                    "--out", str(tmp_path)])
        assert code == EXIT_USAGE

    def test_unknown_flag_is_usage_error(self):
        assert run(["verify", "--no-such-flag"]) == EXIT_USAGE

    def test_missing_config_file(self):
        assert run(["verify", "--config", "/nonexistent/path.cfg"]) == EXIT_NOINPUT

    def test_config_file_name_may_begin_with_a_minus_sign(self, tmp_path, capsys,
                                                          monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out"
        assert run(["verify", "--config", "-x.cfg", "--out", str(out)]) == EXIT_NOINPUT
        assert not out.exists()
        assert capsys.readouterr().err == (
            "cannot read config file -x.cfg: No such file or directory\n")

    @pytest.mark.parametrize("family", ["rational", "exponential", "trig", "unimodular"])
    def test_one_dimensional_families_pass_at_401(self, tmp_path, family):
        # the Riccati fit's round-off does not grow under refinement: in rho
        # itself trig's riccati_fd read 1.1e-9 here, above the 1e-9 floor
        assert run(["verify", "--family", family, "--grid", "401x401",
                    "--out", str(tmp_path)]) == EXIT_OK

    def test_hand_built_rows_count_their_masked_points(self, tmp_path):
        # trig's guard band crosses this domain at x < 0.025; the rows that
        # cli joins from parts count the mask their parts were taken over,
        # which here is the guard band that sigma_exact counts
        run(["verify", "--family", "trig", "--domain", "0,0.6,-1,1", "--grid", "41x41",
             "--out", str(tmp_path)])
        masked = {}
        for name in os.listdir(tmp_path):
            rep = json.loads((tmp_path / name).read_text())
            masked[rep["suite"]] = [level["masked_points"] for level in rep["levels"]]
        band = masked["sigma_exact"]
        assert len(band) == 2 and min(band) > 0
        for suite in ("roundtrip_exact", "transform_exact", "current_identity_exact",
                      "roundtrip_fd", "riccati_fd", "ll_necessity_control"):
            assert masked[suite] == band, suite

    def test_deterministic_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["verify", "--family", "rational", "--lambda", "1",
                "--grid", "31x31", "--levels", "2"]
        assert run(args + ["--out", str(a)]) == EXIT_OK
        assert run(args + ["--out", str(b)]) == EXIT_OK
        assert read_dir_bytes(a) == read_dir_bytes(b)

    def test_env_out_override(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "env"
        monkeypatch.setenv("WSL_OUT", str(env_dir))
        code = run(["verify", "--family", "holomorphic", "--grid", "31x31",
                    "--out", str(tmp_path / "flag")])
        assert code == EXIT_OK
        assert env_dir.is_dir() and not (tmp_path / "flag").exists()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family=rational\nlambda=1.0\ngrid=31x31\n"
                       f"out={tmp_path / 'cfgout'}\n")
        code = run(["verify", "--config", str(cfg), "--grid", "33x33",
                    "--out", str(tmp_path / "flagout")])
        assert code == EXIT_OK
        data = json.loads((tmp_path / "flagout" / "rational_dirac_exact.json").read_text())
        assert data["levels"][0]["nx"] == 33   # the flag wins


class TestInduce:
    def test_rational_outputs(self, tmp_path):
        code = run(["induce", "--family", "rational", "--lambda", "1",
                    "--grid", "41x41", "--domain", "-1,1,-1,1",
                    "--out", str(tmp_path)])
        assert code == EXIT_OK
        obj = (tmp_path / "rational_surface.obj").read_text()
        assert obj.count("\nv ") + obj.startswith("v ") == 41 * 41
        assert (tmp_path / "rational_surface.csv").exists()
        closure = json.loads((tmp_path / "rational_curvature_closure.json").read_text())
        assert closure["passed"] is True

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["induce", "--family", "exponential", "--lambda", "1", "--grid", "31x31"]
        assert run(args + ["--out", str(a)]) == EXIT_OK
        assert run(args + ["--out", str(b)]) == EXIT_OK
        assert read_dir_bytes(a) == read_dir_bytes(b)

    @pytest.mark.parametrize("args", [
        # constant rho degenerates the transform: nothing to immerse
        ["induce", "--family", "unimodular", "--lambda", "0", "--grid", "31x31"],
        # H underflows below the zero guard, so 1/H is undefined
        ["verify", "--family", "rational", "--lambda", "1e8", "--grid", "21x21"],
        # the strip guard masks a band that the comparison paths cross
        ["verify", "--family", "trig", "--domain", "-1,1,-1,1", "--grid", "21x21"],
        # well-formed flags whose numbers overflow or underflow
        ["verify", "--lambda", "1e200", "--grid", "5x5", "--levels", "1"],
        ["verify", "--domain", "0,1e-320,0,1"],
        ["verify", "--family", "holomorphic", "--H0", "1e-320"],
    ], ids=["degenerate-spinor", "vanishing-H", "path-crosses-mask", "H-overflows",
            "subnormal-spacing", "subnormal-H"])
    def test_degenerate_spinor_is_numerical_failure(self, tmp_path, args):
        assert run(args + ["--out", str(tmp_path)]) == EXIT_NUMERICAL

    def test_holomorphic_default_does_not_warn(self, tmp_path):
        # an exact solution: the one-forms are closed up to the O(h^2) stencil defect
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["induce", "--family", "holomorphic", "--grid", "51x51",
                        "--out", str(tmp_path)])
        assert code == EXIT_OK

    def test_explicit_basepoint_flag(self, tmp_path):
        code = run(["induce", "--family", "rational", "--lambda", "1",
                    "--grid", "41x41", "--domain", "-1,1,-1,1",
                    "--basepoint", "0.5,0.5", "--out", str(tmp_path)])
        assert code == EXIT_OK

    @pytest.mark.parametrize("basepoint", [[], ["--basepoint", "0.003,0"]],
                             ids=["default", "explicit"])
    def test_masked_basepoint_is_numerical_failure(self, tmp_path, capsys, basepoint):
        # trig's guard masks the strip's centre and the grid point x = 0.003:
        # every path from there crosses a masked point
        code = run(["induce", "--family", "trig", "--domain", "0,0.03,-1,1",
                    "--grid", "21x21", *basepoint, "--out", str(tmp_path)])
        assert code == EXIT_NUMERICAL
        assert capsys.readouterr().err == "error: every integration path crosses a masked point\n"
        assert not list(tmp_path.glob("*.obj"))

    def test_density_computed_once(self, monkeypatch, tmp_path):
        # K's formula reads the density; degeneracy is read off the
        # fundamental forms, which need none
        calls, density_p = [], gwsurf.density_p
        for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "gwsurf"]:
            if getattr(module, "density_p", None) is density_p:
                monkeypatch.setattr(module, "density_p",
                                    lambda s: calls.append(1) or density_p(s))
        assert run(["induce", "--family", "holomorphic", "--grid", "41x41",
                    "--out", str(tmp_path)]) == EXIT_OK
        assert len(calls) == 1

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("levels", ["1", "3"])
    def test_induce_rejects_levels(self, tmp_path, capsys, source, levels):
        # induce builds one grid, so levels would only be stamped
        out = tmp_path / "out"
        argv = ["induce", "--family", "rational", "--grid", "21x21", "--out", str(out)]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"levels={levels}\n")
        given = ["--levels", levels] if source == "flag" else ["--config", str(cfg)]
        assert run(argv + given) == EXIT_USAGE
        assert not out.exists()
        assert capsys.readouterr().err == "error: --levels: induce does not read levels\n"
        assert run(argv + ["--levels", "2"]) == EXIT_OK


@pytest.mark.parametrize("command", ["verify", "induce"])
def test_out_naming_a_file_cannot_be_created(tmp_path, capsys, command):
    out = tmp_path / "out"
    out.write_text("")
    levels = ["--levels", "1"] if command == "verify" else []
    assert run([command, "--grid", "11x11", *levels, "--out", str(out)]) == EXIT_CANTCREAT
    assert capsys.readouterr().err == f"error: {out}: File exists\n"


class TestReport:
    def test_merges_suites(self, tmp_path):
        assert run(["verify", "--family", "rational", "--lambda", "1",
                    "--grid", "31x31", "--out", str(tmp_path)]) == EXIT_OK
        assert run(["report", "--out", str(tmp_path)]) == EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["overall_passed"] is True
        assert len(summary["suites"]) >= 10

    def test_empty_dir(self, tmp_path):
        assert run(["report", "--out", str(tmp_path)]) == EXIT_NOINPUT

    def test_missing_dir(self, tmp_path):
        assert run(["report", "--out", str(tmp_path / "nope")]) == EXIT_NOINPUT

    def test_mixed_results_propagate_failure(self, tmp_path):
        assert run(["verify", "--family", "rational", "--lambda", "1",
                    "--grid", "31x31", "--out", str(tmp_path)]) == EXIT_OK
        fake = {"suite": "broken", "kind": "exact", "passed": False,
                "levels": [{"nx": 3, "ny": 3, "hx": 1, "hy": 1,
                            "max_norm": 1.0, "l2_norm": 1.0,
                            "masked_points": 0, "details": {}}],
                "ratios": [], "tolerances": [0.0]}
        with open(tmp_path / "zz_broken.json", "w") as fh:
            json.dump(fake, fh)
        assert run(["report", "--out", str(tmp_path)]) == EXIT_NUMERICAL

    _GOOD = {"suite": "ok", "family": "rational", "kind": "exact", "passed": True,
             "levels": [{"max_norm": 1e-13}], "ratios": [], "tolerances": [1e-12]}

    # (file content, whether it is skipped; else an input error)
    @pytest.mark.parametrize("content, skipped", [
        ('"suite levels"', True), ('["suite", "levels"]', True), ("null", True), ("3", True),
        ('{"suite": "x", "levels": []}', False), ('{"suite": "x", "levels": "abc"}', False),
        ('{"suite": "x", "levels": {}}', False), ('{"suite": "x", "levels": [{}]}', False),
        ("not json {", False), ('{"suite": "x", "levels": [', False),
        (b'{"suite": "\xc3\xa9"}', False),
        ('{"suite": ["x"], "levels": [{"max_norm": 1}]}', False),
        ('{"suite": "x", "family": 3, "levels": [{"max_norm": 1}]}', False),
        ('{"suite": "x", "kind": null, "levels": [{"max_norm": 1}]}', False),
        ('{"suite": "x", "passed": "false", "levels": [{"max_norm": 1}]}', False),
        ('{"suite": "x", "passed": 1, "levels": [{"max_norm": 1}]}', False),
    ], ids=["string", "list", "null", "number", "empty-levels", "string-levels",
            "object-levels", "level-without-max-norm", "not-json", "truncated", "not-ascii",
            "list-suite", "number-family", "null-kind", "string-passed", "number-passed"])
    def test_malformed_json_is_skipped_or_an_input_error(self, tmp_path, capsys, content,
                                                          skipped):
        # the files in the output directory are not the program's to trust
        (tmp_path / "a_good.json").write_text(json.dumps(self._GOOD))
        bad = tmp_path / "b_bad.json"
        if isinstance(content, bytes):
            bad.write_bytes(content)
        else:
            bad.write_text(content)
        code = run(["report", "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        if skipped:
            assert code == EXIT_OK, err
            summary = json.loads((tmp_path / "summary.json").read_text())
            assert [r["file"] for r in summary["suites"]] == ["a_good.json"]
        else:
            assert code == EXIT_NOINPUT
            assert err.startswith(f"error: {bad}: ") and len(err.splitlines()) == 1, err
            assert not out and not (tmp_path / "summary.json").exists()

    def test_unreadable_report_is_an_input_error(self, tmp_path, capsys):
        (tmp_path / "a_good.json").write_text(json.dumps(self._GOOD))
        (tmp_path / "b_dir.json").mkdir()
        assert run(["report", "--out", str(tmp_path)]) == EXIT_NOINPUT
        out, err = capsys.readouterr()
        assert not out and err == f"error: {tmp_path / 'b_dir.json'}: Is a directory\n"

    def test_summary_that_cannot_be_written(self, tmp_path, capsys):
        (tmp_path / "a_good.json").write_text(json.dumps(self._GOOD))
        (tmp_path / "summary.json").mkdir()
        assert run(["report", "--out", str(tmp_path)]) == EXIT_CANTCREAT
        assert capsys.readouterr().err == f"error: {tmp_path / 'summary.json'}: Is a directory\n"

    def test_csv_format(self, tmp_path):
        assert run(["verify", "--family", "holomorphic",
                    "--grid", "31x31", "--out", str(tmp_path)]) == EXIT_OK
        assert run(["report", "--out", str(tmp_path), "--format", "csv"]) == EXIT_OK
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert lines[0] == "family,suite,kind,max_norm,tolerance,ratio,passed"
        assert len(lines) > 1


class TestCountValidation:
    @pytest.mark.parametrize("flag", ["--levels", "--jobs", "--tol-scale"])
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "abc"])
    def test_flag_below_one_is_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        code = run(["verify", "--family", "unimodular", "--grid", "21x21",
                    flag, value, "--out", str(out)])
        assert code == EXIT_USAGE
        assert not out.exists()
        assert capsys.readouterr().err.startswith(f"error: {flag}: ")

    @pytest.mark.parametrize("flag, value", [("--lambda", "abc"), ("--A", "x"), ("--H0", ""),
                                             ("--grid", "10"), ("--domain", "1,2"),
                                             ("--basepoint", "a,b"), ("--family", "nope"),
                                             ("--lambda", "nan"), ("--A", "nan"),
                                             ("--H0", "inf"), ("--domain", "nan,1,0,1"),
                                             ("--grid", "2x9"), ("--grid", "9x0"),
                                             ("--domain", "1,0,0,1"), ("--domain", "0,1,1,1"),
                                             ("--jobs", "2")])
    def test_bad_flag_value_names_the_flag(self, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        assert run(["verify", flag, value, "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        assert capsys.readouterr().err.startswith(f"error: {flag}: ")

    @pytest.mark.parametrize("flag", [k.flag for k in _KEYS if k.flag != "--out"])
    def test_value_with_a_minus_sign_reaches_the_flags_parser(self, tmp_path, capsys, flag):
        # every flag takes a value, so one that begins with '-' is the
        # flag's to judge, not argparse's (--out -d names a directory)
        out = tmp_path / "out"
        assert run(["verify", flag, "-zzz", "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        assert capsys.readouterr().err.startswith(f"error: {flag}: ")

    @pytest.mark.parametrize("line", ["levels=0", "jobs=0", "tol_scale=0", "tol_scale=-1",
                                      "tol_scale=nan", "tol_scale=inf", "h0=x",
                                      "lambda=abc", "grid=10", "h0=nan", "grid=2x9",
                                      "domain=1,0,0,1", "domain=0,1,2,-2", "jobs=2"])
    def test_config_below_one_is_usage_error(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"family=unimodular\ngrid=21x21\n{line}\n")
        out = tmp_path / "out"
        assert run(["verify", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        key = line.split("=")[0]
        assert capsys.readouterr().err.startswith(f"error: line 3: {key}: ")


class TestFamilyParameters:
    @pytest.mark.parametrize("family, flag, value", [
        ("trig", "--lambda", "1.5"), ("holomorphic", "--lambda", "1.5"),
        ("rational", "--A", "1.5"), ("exponential", "--A", "1.5"),
        ("unimodular", "--A", "1.5"), ("holomorphic", "--A", "1.5"),
        ("rational", "--H0", "3"), ("exponential", "--H0", "3"), ("trig", "--H0", "3"),
    ])
    @pytest.mark.parametrize("command", ["verify", "induce"])
    def test_ignored_parameter_is_usage_error(self, tmp_path, capsys, command,
                                              family, flag, value):
        out = tmp_path / "out"
        code = run([command, "--family", family, flag, value, "--grid", "21x21",
                    "--out", str(out)])
        assert code == EXIT_USAGE
        assert not out.exists()
        assert capsys.readouterr().err.startswith(f"error: {flag}: ")

    def test_ignored_parameter_from_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family=rational\ngrid=21x21\nh0=3\n")
        out = tmp_path / "out"
        assert run(["verify", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: --H0: ")

    @pytest.mark.parametrize("family, flag, value, name", [
        ("rational", "--lambda", "0", "lambda"), ("exponential", "--lambda", "0", "lambda"),
        ("trig", "--A", "0", "A"), ("trig", "--A", "16", "|A|"),
        ("unimodular", "--H0", "-1", "H0"), ("holomorphic", "--H0", "-1", "H0"),
    ])
    def test_bad_parameter_is_named(self, tmp_path, capsys, family, flag, value, name):
        out = tmp_path / "out"
        assert run(["verify", "--family", family, flag, value, "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        assert capsys.readouterr().err.startswith(f"error: {name} must be ")

    def test_family_without_a_default_domain_needs_one(self, tmp_path, capsys):
        # from |A| = pi/0.4 on, trig's default domain keeps nothing inside its
        # guard band, while its strip is not empty
        out = tmp_path / "out"
        assert run(["verify", "--family", "trig", "--A", "8", "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: --domain: ")
        assert run(["verify", "--family", "trig", "--A", "8", "--domain", "0.03,0.07,-1,1",
                    "--out", str(out)]) == EXIT_OK

    @pytest.mark.parametrize("family, params", [
        ("rational", ["--lambda", "1.5", "--H0", "1.0"]),
        ("exponential", ["--lambda", "1.5", "--A", "default"]),
        ("trig", ["--A", "1.5", "--lambda", "default"]),
        ("unimodular", ["--lambda", "1.5", "--H0", "2"]),
        ("holomorphic", ["--H0", "2"]),
    ])
    def test_parameters_the_family_reads_are_accepted(self, tmp_path, family, params):
        code = run(["induce", "--family", family, *params, "--grid", "31x31",
                    "--out", str(tmp_path)])
        assert code == EXIT_OK
        report = tmp_path / f"{family}_curvature_closure.json"
        stamped = json.loads(report.read_text())["config"]
        assert stamped["family"] == family
        keys = {k.flag: k.key for k in _KEYS}
        for flag, value in zip(params[::2], params[1::2]):
            assert stamped[keys[flag]] == (None if value == "default" else float(value))


def run_child(args):
    """`python -m gwsurf args` in a child running the same gwsurf as this
    process, installed or not."""
    src = os.path.dirname(os.path.dirname(gwsurf.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "gwsurf", *args], capture_output=True,
                          text=True, timeout=120, env=env)


def test_python_dash_m_gwsurf():
    out = run_child(["--version"])
    assert out.returncode == 0
    assert out.stdout.strip() == gwsurf.__version__


@pytest.mark.parametrize("command", [["verify", "--jobs", "1"], ["induce"]],
                         ids=["verify-1", "induce"])
@pytest.mark.parametrize("args", [
    ["--domain", "0,1e-320,0,1"],
    ["--family", "holomorphic", "--H0", "1e-320"],
], ids=["subnormal-spacing", "subnormal-H"])
def test_breakdown_prints_only_the_error_line(tmp_path, command, args):
    # numpy warnings raised on the way to the breakdown stay silent
    out = run_child(command + args + ["--out", str(tmp_path)])
    assert out.returncode == EXIT_NUMERICAL
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), out.stderr


def scalar_row(grid, value):
    """A row of one part whose two norms are `value`, unmasked, with the
    reference `deformed` that the control's gate reads."""
    return gwsurf.joined(grid, 0, [gwsurf.ResidualPart("row", value, value)],
                         {"deformed": 1e-6})


@pytest.mark.parametrize("kind", ["exact", "fd", "control", "classify"])
@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_residual_fails_the_gate(kind, level, bad):
    # nan > tol is False and max(nan * h^2, floor) is nan, so a NaN residual
    # slipped through every tolerance comparison
    from gwsurf import GridSpec
    from gwsurf.cli import SuiteSpec, _gate
    grids = [GridSpec(-1, 1, -1, 1, 11, 11)]
    grids.append(grids[0].refined())
    reports = [scalar_row(g, bad if g is grids[level] else 1e-3) for g in grids]
    spec = SuiteSpec("broken", kind, {"constant_h": False}, (), None)
    res = _gate(spec, reports, 1.0)
    assert not res["passed"]
    h = max(grids[level].hx, grids[level].hy)
    assert f"non-finite residual {bad} at h={h:.4g}" in res["notes"]


ONE_LEVEL = "one refinement level: no convergence ratio gated"


@pytest.mark.parametrize("kind", ["exact", "fd", "control", "classify"])
@pytest.mark.parametrize("residual", [1e-3, float("nan")])
def test_one_level_fd_row_notes_that_no_ratio_was_gated(kind, residual):
    # the note is a remark: passed is decided by the checks alone
    from gwsurf import GridSpec
    from gwsurf.cli import SuiteSpec, _gate
    grids = [GridSpec(-1, 1, -1, 1, 11, 11)]
    grids.append(grids[0].refined())
    spec = SuiteSpec("row", kind, {"constant_h": False}, (), None)
    one = _gate(spec, [scalar_row(grids[0], residual)], 1.0)
    two = _gate(spec, [scalar_row(g, residual) for g in grids], 1.0)
    assert (ONE_LEVEL in one["notes"]) == (kind == "fd")
    assert ONE_LEVEL not in two["notes"]
    failed = [n for n in one["notes"] if n != ONE_LEVEL]
    assert one["passed"] == (not failed)
    if kind == "fd":
        assert one["passed"] == math.isfinite(residual) and one["notes"][-1] == ONE_LEVEL


def test_verify_at_one_level_notes_every_fd_row(tmp_path, capsys):
    assert run(["verify", "--family", "unimodular", "--grid", "21x21", "--levels", "1",
                "--out", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    reports = [json.loads(p.read_text()) for p in sorted(tmp_path.glob("*.json"))]
    assert reports and all(r["passed"] for r in reports)
    for r in reports:
        assert r["notes"] == ([ONE_LEVEL] if r["kind"] == "fd" else [])
    fd_lines = [ln for ln in out.splitlines() if f"  [{ONE_LEVEL}]" in ln]
    assert len(fd_lines) == sum(r["kind"] == "fd" for r in reports) > 0


# fuzzed command lines: mostly well-formed values, one in six a malformed
# token, and now and then an unknown key
def _mostly(good, *bad):
    """`good` five times in six, else one of the `bad` tokens."""
    return st.sampled_from([False] * 5 + [True]).flatmap(
        lambda malformed: st.sampled_from(bad) if malformed else good)


def _ordered_domain(b):
    return f"{min(b[:2])},{max(b[:2])},{min(b[2:])},{max(b[2:])}"


_NUMBER = _mostly(st.sampled_from(["1", "0.5", "-1.3", "2", "-1", "0", "1e200", "1e-320",
                                   "default"]),
                  "", "nan", "inf", "-inf", "1e400", "abc")
_FUZZ_VALUES = {
    "family": _mostly(st.sampled_from(["rational", "exponential", "trig", "unimodular",
                                       "holomorphic"]), "", "nope"),
    "lambda": _NUMBER, "a": _NUMBER, "h0": _NUMBER, "tol_scale": _NUMBER,
    # 3 to 5 points per axis: at one or two levels the finest grid is at most 9x9
    "grid": _mostly(st.builds("{}x{}".format, st.integers(3, 5), st.integers(3, 5)),
                    "", "3x", "2x2", "x", "nan", "5x5x5", "1e400x3"),
    "domain": _mostly(st.lists(st.floats(-2, 2), min_size=4, max_size=4).map(_ordered_domain),
                      "", "1,0,0,1", "0,1,1,0", "0,1,0", "nan,1,0,1", "0,1e400,0,1",
                      "0,1e-320,0,1", "default", "1,2,3"),
    "basepoint": _mostly(st.builds("{},{}".format, st.floats(-2, 2), st.floats(-2, 2)),
                         "", "a,b", "nan,0", "default"),
    "levels": _mostly(st.sampled_from(["1", "2"]), "", "0", "-1", "nan", "3x"),
    "jobs": _mostly(st.just("1"), "", "0", "2", "1e400"),
    "format": _mostly(st.sampled_from(["json", "csv"]), "", "xml"),
}
_FLAGS = {k.key: k.flag for k in _KEYS}


@st.composite
def _settings(draw):
    """(key, value) pairs, now and then an unknown key."""
    keys = draw(st.lists(st.sampled_from(sorted(_FUZZ_VALUES) * 4 + ["familly", "bogus"]),
                         max_size=3))
    return [(k, draw(_FUZZ_VALUES.get(k, _NUMBER))) for k in keys]


@given(command=st.sampled_from(["verify", "induce", "report"]),
       grid=st.tuples(st.integers(3, 5), st.integers(3, 5)), lines=_settings(),
       flags=_settings())
@settings(max_examples=60, deadline=20000, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_fuzzed_config_and_flags_exit_with_a_documented_code(command, grid, lines, flags):
    # verify's and induce's config file starts from a grid of 3 to 5 points
    # per axis, which later lines and flags may only replace by another such grid
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ), warnings.catch_warnings():
        os.environ.pop("WSL_OUT", None)
        warnings.simplefilter("ignore")
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "w", encoding="ascii") as fh:
            start = f"grid={grid[0]}x{grid[1]}\n" if command != "report" else ""
            fh.write(start + "".join(f"{k}={v}\n" for k, v in lines) + "# a comment\n")
        argv = [command, "--config", cfg, "--out", os.path.join(tmp, "out")]
        for key, value in flags:
            argv += [_FLAGS.get(key, f"--{key}"), value]
        code = main(argv)
    assert code in (EXIT_OK, EXIT_NUMERICAL, EXIT_USAGE, EXIT_NOINPUT)
