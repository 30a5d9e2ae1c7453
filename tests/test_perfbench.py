"""The benchmark's command lines stay ones the command line accepts:
perfbench/run.py is loaded read-only and every workload's argv resolves to
its command, family, grid and drawn parameter, so a removed or renamed
option shows here before every benchmark sample exits 64. Its traced child
runs each workload on a small grid, so a renamed function that the tracer
patches shows here too, and each workload's outputs on a small grid pass
the checks that every benchmark sample runs on them."""
import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gwsurf.cli import _KEYS, _resolve

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


@pytest.fixture
def perfbench_run(monkeypatch):
    """perfbench/run.py as a module, with no bytecode written beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)     # dataclasses look it up
    spec.loader.exec_module(module)
    yield module
    for name in set(sys.modules) - before:
        if Path(getattr(sys.modules[name], "__file__", None) or ROOT).parent == PERFBENCH:
            del sys.modules[name]           # reference and tracing, imported by run.py


def test_workloads_are_the_benchmark_json_ones(perfbench_run):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert sorted(perfbench_run.WORKLOADS) == sorted(w["name"] for w in declared["workloads"])


def test_workload_argv_resolves_to_its_command(perfbench_run, tmp_path):
    field = {key.flag: key.field for key in _KEYS}
    for name, wl in perfbench_run.WORKLOADS.items():
        value = wl.draw(name, 1)
        command, cfg = _resolve(wl.argv(value, tmp_path / name))
        assert command == wl.command, name
        assert (cfg.family, cfg.grid, cfg.out) == (wl.family, wl.shape(), str(tmp_path / name))
        assert getattr(cfg, field[wl.flag]) == value, name


def _files(path):
    return {p: p.stat().st_mtime_ns for p in path.rglob("*")}


def test_traced_child_runs_every_workload_on_a_small_grid(perfbench_run, tmp_path):
    # child.py times build_family returning and tracing.py patches
    # ClosedForm.jet and the export functions: each layer below is reached
    # only through those names
    before = _files(PERFBENCH)
    env = {k: v for k, v in os.environ.items() if k != "WSL_OUT"}     # it overrides --out
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(PERFBENCH)])
    for name, wl in perfbench_run.WORKLOADS.items():
        small = dataclasses.replace(wl, grid="21x21")
        result = tmp_path / f"{name}.json"
        argv = small.argv(small.draw(name, 1), tmp_path / name)
        proc = subprocess.run([sys.executable, "-B", str(PERFBENCH / "child.py"), str(result),
                               "1", *argv], env=env, cwd=tmp_path, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, (name, proc.stderr)
        child = json.loads(result.read_text(encoding="utf-8"))
        assert child["rc"] == 0 and child["t_built"] is not None, name
        layers = {span[0] for span in child["spans"]}      # tracing.LAYER
        want = {"closedform.jet", "closedform.sample", "calculus", "families.build"}
        if wl.command == "induce":
            want.add("inducer.export")
        assert want <= layers, (name, sorted(want - layers))
    assert _files(PERFBENCH) == before


def test_outputs_pass_the_benchmarks_own_checks(perfbench_run, tmp_path, monkeypatch):
    # every benchmark sample runs _check_outputs on what the command wrote: the
    # report count, every report passed, and induce's masked_points, vertices
    # and faces against its OBJ and CSV. A report format that fails it would
    # fail every sample, so it fails here first
    from gwsurf.cli import main
    monkeypatch.delenv("WSL_OUT", raising=False)        # it would override --out
    for name, wl in perfbench_run.WORKLOADS.items():
        small = dataclasses.replace(wl, grid="21x21")
        out = tmp_path / name
        assert main(small.argv(small.draw(name, 1), out)) == 0, name
        problems, _, _ = perfbench_run._check_outputs(small, out)
        assert problems == [], (name, problems)
