"""Records: the package's value types are named tuples, which import
without the methods a dataclass generates and compiles, and every way of
building one that checks its values (the constructor, `_make` and
`_replace`) runs the checks."""
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import gwsurf
from gwsurf import ComplexField, GridSpec, NumericalBreakdown, RiccatiCoeffs, cli
from gwsurf.cli import EXIT_USAGE, main

RECORDS = [gwsurf.GridSpec, gwsurf.ClosedForm, gwsurf.SolutionFamily, gwsurf.Surface,
           gwsurf.FundamentalForms, gwsurf.RiccatiCoeffs, gwsurf.ResidualPart,
           gwsurf.ResidualReport, gwsurf.LLCommutator, cli.RunConfig, cli._Key, cli._Input,
           cli.SuiteSpec]


def _loaded_in_a_fresh_interpreter(code: str, module: str) -> bool:
    """Whether `module` is in sys.modules after `code` runs in a fresh
    interpreter that imports this gwsurf."""
    src = os.path.dirname(os.path.dirname(gwsurf.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = f"import sys; {code}; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, env=env)
    assert out.returncode == 0, out.stderr
    return {"True\n": True, "False\n": False}[out.stdout]


def test_importing_the_command_line_loads_no_dataclasses():
    # a frozen dataclass compiles its generated methods with exec on every
    # import, close to 1 ms a record; numpy does not load the module either
    assert not _loaded_in_a_fresh_interpreter("import gwsurf.cli", "dataclasses")


def test_reading_a_command_line_loads_no_argparse():
    # the key table reads the command line; argparse would cost its import
    # and a parser built on every call
    code = ("import gwsurf.cli; "
            "gwsurf.cli._resolve(['verify', '--grid', '21x21', '--domain', '-1,1,-1,1'])")
    assert not _loaded_in_a_fresh_interpreter(code, "argparse")


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_records_are_named_tuples_without_a_dict(record):
    # a subclass that adds checks keeps __slots__ = (), so its instances
    # take no attribute beside their fields
    assert issubclass(record, tuple) and record._fields
    assert record.__dictoffset__ == 0


GOOD = GridSpec(0.0, 1.0, 0.0, 1.0, 5, 5)

BOUNDS = "grid bounds must be finite"
ORDERED = "grid bounds must be ordered: x_max > x_min, y_max > y_min"
COUNTS = "need nx >= 3 and ny >= 3 for interior stencils"
BAD_GRIDS = [
    (dict(x_max=np.inf), ValueError, BOUNDS),
    (dict(y_min=np.nan), ValueError, BOUNDS),
    (dict(x_min=1.0, x_max=-1.0), ValueError, ORDERED),
    (dict(y_min=2.0), ValueError, ORDERED),
    (dict(nx=2), ValueError, COUNTS),
    (dict(ny=1), ValueError, COUNTS),
    (dict(x_max=1e-320), NumericalBreakdown, "grid spacing 2.5e-321 is subnormal"),
]

# the ways to build a record: the constructor and each copy method
BUILDS = {
    "constructor": lambda cls, good, kw: cls(**{**good._asdict(), **kw}),
    "_make": lambda cls, good, kw: cls._make({**good._asdict(), **kw}.values()),
    "_replace": lambda cls, good, kw: good._replace(**kw),
}


@pytest.mark.parametrize("build", BUILDS)
@pytest.mark.parametrize("bad, error, message", BAD_GRIDS)
def test_a_bad_grid_is_rejected_however_it_is_built(build, bad, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        BUILDS[build](GridSpec, GOOD, bad)
    assert BUILDS[build](GridSpec, GOOD, {}) == GOOD


@pytest.mark.parametrize("build", BUILDS)
def test_coefficients_on_two_grids_are_rejected_however_they_are_built(build):
    fields = {k: ComplexField(GOOD, np.zeros(GOOD.shape)) for k in RiccatiCoeffs._fields}
    good = RiccatiCoeffs(**fields)
    other = GridSpec(0.0, 1.0, 0.0, 2.0, 5, 5)
    with pytest.raises(ValueError, match="^coefficient fields live on different grids$"):
        BUILDS[build](RiccatiCoeffs, good, {"a21": ComplexField(other, np.zeros(other.shape))})
    assert BUILDS[build](RiccatiCoeffs, good, {}) == good


COUNT_ERRORS = [("levels", "0", "levels must be at least 1, got 0"),
                ("levels", "-3", "levels must be at least 1, got -3"),
                ("jobs", "2", "jobs must be 1, got 2"),
                ("jobs", "0", "jobs must be 1, got 0")]


@pytest.mark.parametrize("key, value, message", COUNT_ERRORS)
def test_bad_levels_or_jobs_exit_with_a_usage_error(tmp_path, capsys, key, value, message):
    # the key table's parsers check the counts, so a flag and a config file
    # are rejected alike, each error naming where the value came from
    out = tmp_path / "out"
    assert main(["verify", f"--{key}", value, "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: --{key}: {message}\n"
    config = tmp_path / "run.cfg"
    config.write_text(f"{key}={value}\n")
    assert main(["verify", "--config", str(config), "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: line 1: {key}: {message}\n"
    assert not out.exists()
