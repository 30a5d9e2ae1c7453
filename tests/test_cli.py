"""Command-line behavior: exit codes, determinism, config handling."""
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
import warnings
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import gwsurf
from gwsurf.cli import (_KEYS, EXIT_NOINPUT, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE,
                        RunConfig, _resolve, main, parse_config_text)


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
                        levels=3, jobs=2, out="elsewhere", format="csv")
        text = cfg.to_text()
        again = parse_config_text(text)
        assert again == cfg
        assert parse_config_text(again.to_text()) == again

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

    # one non-default value per config key, as both the flag and the file spell it
    SAMPLES = {"family": "trig", "lambda": "-1.5", "a": "1.25", "h0": "2.0",
               "grid": "31x41", "domain": "-1.0,0.5,-0.25,1.0", "basepoint": "-0.5,0.25",
               "tol_scale": "2.5", "levels": "3", "jobs": "2", "out": "elsewhere",
               "format": "csv"}

    @pytest.mark.parametrize("key", [k.key for k in _KEYS])
    def test_flag_and_config_file_agree(self, key, tmp_path, monkeypatch):
        monkeypatch.delenv("WSL_OUT", raising=False)
        (row,) = [k for k in _KEYS if k.key == key]
        from_flag = _resolve(["verify", row.flag, self.SAMPLES[key]])[1]
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{key}={self.SAMPLES[key]}\n")
        from_file = _resolve(["verify", "--config", str(cfg_file)])[1]
        assert from_flag == from_file == parse_config_text(cfg_file.read_text())
        assert from_flag != RunConfig()
        assert parse_config_text(from_flag.to_text()) == from_flag

    def test_table_covers_every_field_once(self):
        fields = [k.field for k in _KEYS]
        assert sorted(fields) == sorted(f.name for f in dataclasses.fields(RunConfig))
        assert sorted(self.SAMPLES) == sorted(k.key for k in _KEYS)

    @pytest.mark.parametrize("flag", ["--lambda", "--A", "--domain", "--basepoint"])
    def test_default_literal_on_flags(self, flag):
        # keys whose default is None take the literal `default`, as in the file
        assert _resolve(["verify", flag, "default"])[1] == RunConfig()


_E, _P = 1e-12, 1e-10   # exact and pointwise tolerances
_VARYING_H_SUITES = {
    ("dirac_exact", "exact", _E, True), ("sigma_exact", "exact", _E, True),
    ("conservation_exact", "exact", _E, True), ("roundtrip_exact", "exact", _E, True),
    ("transform_exact", "exact", _E, True), ("spin_algebra_exact", "exact", _E, True),
    ("current_identity_exact", "exact", _P, True),
    ("constraints_exact", "exact", _P, True),
    ("linear_system_exact", "exact", _P, True),
    ("deformed_ll_exact", "exact", _P, True),
    ("dirac_fd", "fd", _E, True), ("sigma_fd", "fd", _E, True),
    ("conservation_fd", "fd", _E, True), ("roundtrip_fd", "fd", _E, True),
    ("current_defect_fd", "fd", _E, True), ("modified_current_fd", "fd", _E, True),
    ("sinh_gordon_fd", "fd", _E, True), ("deformed_ll_fd", "fd", _E, True),
    ("riccati_fd", "fd", _E, False), ("linear_system_fd", "fd", _E, True),
    ("path_independence_fd", "fd", _E, False),
    ("ll_necessity_control", "control", _E, True),
    ("h_classification", "classify", _E, True),
}
_CONSTANT_RHO_SUITES = {
    ("sigma_exact", "exact", _E, True), ("spin_algebra_exact", "exact", _E, True),
    ("h_constancy_exact", "exact", _P, True), ("multisoliton_exact", "exact", _P, True),
    ("ll_fd", "fd", _E, False),
}
_SUITE_SETS = {
    "rational": _VARYING_H_SUITES,
    "exponential": _VARYING_H_SUITES,
    "trig": _VARYING_H_SUITES,
    "unimodular": _CONSTANT_RHO_SUITES | {
        ("dirac_exact", "exact", _E, True), ("conservation_exact", "exact", _E, True),
        ("current_identity_exact", "exact", _P, True),
        ("compatibility_exact", "exact", _P, True),
        ("current_defect_fd", "fd", _E, True),
    },
    "unimodular-lambda0": _CONSTANT_RHO_SUITES,
    "holomorphic": {
        ("sigma_exact", "exact", _E, True), ("dirac_exact", "exact", _E, True),
        ("conservation_exact", "exact", _E, True), ("spin_algebra_exact", "exact", _E, True),
        ("ll_fd", "fd", _E, True), ("path_independence_fd", "fd", _E, True),
    },
}


@pytest.mark.parametrize("case", sorted(_SUITE_SETS))
def test_suite_set_per_family(case):
    """Which suites run, at which tolerance, and whether the O(h^2) ratio
    is enforced; report bytes show expect_ratio only when a ratio fails."""
    from gwsurf.cli import _suites_for
    from gwsurf.families import build_family
    name, _, lam = case.partition("-lambda")
    fam = build_family(name, lam=float(lam) if lam else None)
    specs = _suites_for(fam)
    resolved = {(s.name, s.kind, s.tol, s.expect_ratio) for s in specs}
    assert len(resolved) == len(specs)
    assert resolved == _SUITE_SETS[case]


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

    def test_deterministic_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["verify", "--family", "rational", "--lambda", "1",
                "--grid", "31x31", "--levels", "2"]
        assert run(args + ["--out", str(a)]) == EXIT_OK
        assert run(args + ["--out", str(b)]) == EXIT_OK
        assert read_dir_bytes(a) == read_dir_bytes(b)

    def test_jobs_do_not_change_results(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["verify", "--family", "rational", "--lambda", "1", "--grid", "31x31"]
        assert run(args + ["--out", str(a), "--jobs", "1"]) == EXIT_OK
        assert run(args + ["--out", str(b), "--jobs", "4"]) == EXIT_OK
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
                                             ("--domain", "1,0,0,1"), ("--domain", "0,1,1,1")])
    def test_bad_flag_value_names_the_flag(self, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        assert run(["verify", flag, value, "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        assert capsys.readouterr().err.startswith(f"error: {flag}: ")

    @pytest.mark.parametrize("line", ["levels=0", "jobs=0", "tol_scale=0", "tol_scale=-1",
                                      "tol_scale=nan", "tol_scale=inf", "h0=x",
                                      "lambda=abc", "grid=10", "h0=nan", "grid=2x9",
                                      "domain=1,0,0,1", "domain=0,1,2,-2"])
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


@pytest.mark.parametrize("command", [["verify", "--jobs", "1"], ["verify", "--jobs", "2"],
                                     ["induce"]], ids=["verify-1", "verify-2", "induce"])
@pytest.mark.parametrize("args", [
    ["--domain", "0,1e-320,0,1"],
    ["--family", "holomorphic", "--H0", "1e-320"],
], ids=["subnormal-spacing", "subnormal-H"])
def test_breakdown_prints_only_the_error_line(tmp_path, command, args):
    # numpy warnings raised on the way to the breakdown stay silent, in the
    # main thread and in the pool's worker threads alike
    out = run_child(command + args + ["--out", str(tmp_path)])
    assert out.returncode == EXIT_NUMERICAL
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), out.stderr


@pytest.mark.parametrize("kind", ["exact", "fd", "control", "classify"])
@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_residual_fails_the_gate(kind, level, bad):
    # nan > tol is False and max(nan * h^2, floor) is nan, so a NaN residual
    # slipped through every tolerance comparison
    from gwsurf import GridSpec
    from gwsurf.cli import SuiteSpec, _evaluate_suite, _report_scalar
    from gwsurf.families import build_family
    grids = [GridSpec(-1, 1, -1, 1, 11, 11)]
    grids.append(grids[0].refined())

    def runner(fam, grid):
        return _report_scalar(grid, bad if grid is grids[level] else 1e-3, deformed=1e-6)

    spec = SuiteSpec("broken", kind, None, runner, expect_ratio=False)
    res = _evaluate_suite(spec, build_family("rational"), grids, 1.0)
    assert not res["passed"]
    h = max(grids[level].hx, grids[level].hy)
    assert f"non-finite residual {bad} at h={h:.4g}" in res["notes"]


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
    "jobs": _mostly(st.sampled_from(["1", "2"]), "", "0", "1e400"),
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
    # the config file starts from a grid of 3 to 5 points per axis, which
    # later lines and flags may only replace by another such grid
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ), warnings.catch_warnings():
        os.environ.pop("WSL_OUT", None)
        warnings.simplefilter("ignore")
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "w", encoding="ascii") as fh:
            fh.write(f"grid={grid[0]}x{grid[1]}\n" + "".join(f"{k}={v}\n" for k, v in lines)
                     + "# a comment\n")
        argv = [command, "--config", cfg, "--out", os.path.join(tmp, "out")]
        for key, value in flags:
            argv += [_FLAGS.get(key, f"--{key}"), value]
        code = main(argv)
    assert code in (EXIT_OK, EXIT_NUMERICAL, EXIT_USAGE, EXIT_NOINPUT)
