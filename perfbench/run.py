#!/usr/bin/env python3
"""gwsurf benchmark: time to a verified result for real command-line runs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds 60     # every workload

It measures the gwsurf source tree next to this directory (`src/gwsurf`
in the same checkout) and needs nothing installed; outputs go to the
checkout's `.perfbench/`. Each sample is one `gwsurf verify|induce`
invocation (`gwsurf.cli.main(argv)`) in a fresh interpreter, because
every user invocation pays the import, the sympy family construction and
first-call warm-up. Samples repeat while the next one would end by
`--seconds` give or take half a sample (at least MIN_SAMPLES); each
metric is the median over the samples of the run.

End-to-end metrics (`--trace 0`), per sample:
  setup_s      spawn until `build_family` has returned inside the command
  import_s     `import gwsurf` alone, inside the child
  run_s        `build_family` returned until the command returned, with
               every report, OBJ and CSV file written
  peak_rss_mb  the child's own peak resident set in MiB (ru_maxrss / 1024,
               from os.wait4)
The three timings are reported at a fixed host speed: each median is
scaled by REFERENCE_S over the run's median time of a fixed computation
timed before every sample (see reference.py). Raw medians are printed too.

With `--trace 1` untraced and traced samples alternate; the traced ones
give the per-layer table (see tracing.py) and `trace.overhead_s` is the
difference of the two `run_s` medians. End-to-end numbers never come from
traced samples.

Every sample is checked and a failing sample counts in `failed`: exit code
0, every report `passed`, the expected number of reports, report bytes
equal to the first sample of the run and to the first run of the same
seed on the same source tree, and for `induce` the OBJ vertex and face
counts and CSV rows that the grid implies. The last stdout line is the
JSON result; the exit code is 1 if any check failed.
"""
from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from reference import REFERENCE_S, reference_time
from tracing import PER_LAYER, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CHILD = HERE / "child.py"

MIN_SAMPLES = 3
BLAS_THREADS = 1          # single-threaded baseline; recorded with every result
CHILD_TIMEOUT_S = 150.0
STOP_STARTING_S = 120.0   # no new sample after this, so a run ends within 180 s

END_TO_END = (("setup_s", "s"), ("import_s", "s"), ("run_s", "s"),
              ("peak_rss_mb", "MB"))


@dataclass(frozen=True)
class Workload:
    command: str
    family: str
    grid: str
    flag: str           # the family parameter the seed draws
    low: float          # admissible range: every suite passes across it
    high: float
    reports: int        # report files the command must write

    def draw(self, name: str, seed: int) -> float:
        return round(random.Random(f"{name}:{seed}").uniform(self.low, self.high), 4)

    def argv(self, value: float, out: Path) -> list[str]:
        return [self.command, "--family", self.family, "--grid", self.grid,
                self.flag, repr(value), "--levels", "2", "--jobs", "1", "--out", str(out)]

    def shape(self) -> tuple[int, int]:
        nx, ny = self.grid.split("x")
        return int(nx), int(ny)


# Why each workload exists is stated in BENCHMARK.json. Grids are sized so
# that one invocation takes about three seconds and a 60 s run holds fifteen
# to twenty samples: on a shared host the time of one sample varies by tens
# of percent, so a run reports the median of many (and reference.py takes
# out the slower drift of the host's speed).
WORKLOADS = {
    "verify-rational-101": Workload("verify", "rational", "101x101", "--lambda", 0.5, 2.0, 23),
    "induce-rational-251": Workload("induce", "rational", "251x251", "--lambda", 0.5, 1.5, 1),
}


# ---------------------------------------------------------------------------
# one child process

@dataclass
class Sample:
    traced: bool
    wall: float
    problems: list
    setup_s: float | None = None
    import_s: float | None = None
    run_s: float | None = None
    peak_rss_mb: float | None = None
    layers: dict | None = None
    detail: dict | None = None


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "WSL_OUT"}   # it overrides --out
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(WORK)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _spawn(argv: list[str], traced: bool, tmp: Path, timeout: float):
    """Run child.py; returns (exit code or None on timeout, rusage, spawn time, wall)."""
    result = tmp / "child.json"
    logs = [(os.POSIX_SPAWN_OPEN, fd, str(tmp / name), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            for fd, name in ((1, "stdout.txt"), (2, "stderr.txt"))]
    t_spawn = time.monotonic()
    pid = os.posix_spawn(sys.executable,
                         [sys.executable, str(CHILD), str(result), "1" if traced else "0", *argv],
                         _child_env(), file_actions=logs)
    try:
        while True:
            done, status, usage = os.wait4(pid, os.WNOHANG)
            if done:
                return os.waitstatus_to_exitcode(status), usage, t_spawn, time.monotonic() - t_spawn
            if time.monotonic() - t_spawn > timeout:
                break
            time.sleep(0.02)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    os.kill(pid, signal.SIGKILL)
    _, _, usage = os.wait4(pid, 0)
    return None, usage, t_spawn, time.monotonic() - t_spawn


def _check_outputs(wl: Workload, out: Path) -> tuple[list, str, int]:
    """Problems found in one command's outputs, their digest, report bytes."""
    problems = []
    digest = hashlib.sha256()
    report_bytes = 0
    reports = []
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + hashlib.sha256(data).digest())
        if path.suffix == ".json":
            report_bytes += len(data)
            reports.append((path.name, json.loads(data)))
    if len(reports) != wl.reports:
        problems.append(f"{len(reports)} reports written, expected {wl.reports}")
    failing = [name for name, rep in reports if rep.get("passed") is not True]
    if failing:
        problems.append(f"reports not passed: {', '.join(failing)}")
    if wl.command == "induce":
        problems += _check_mesh(wl, out, reports)
    return problems, digest.hexdigest(), report_bytes


def _check_mesh(wl: Workload, out: Path, reports) -> list:
    nx, ny = wl.shape()
    obj = (out / f"{wl.family}_surface.obj").read_bytes()
    rows = (out / f"{wl.family}_surface.csv").read_bytes().count(b"\n") - 1
    verts = obj.count(b"\nv ") + obj.startswith(b"v ")
    faces = obj.count(b"\nf ") + obj.startswith(b"f ")
    level = reports[0][1]["levels"][0] if reports else {}
    masked = level.get("masked_points", -1)
    details = level.get("details", {})
    problems = []
    if verts != nx * ny - masked or verts != details.get("vertices"):
        problems.append(f"OBJ has {verts} vertices; grid implies {nx * ny} - {masked} masked")
    if masked == 0 and faces != 2 * (nx - 1) * (ny - 1):
        problems.append(f"OBJ has {faces} faces; grid implies {2 * (nx - 1) * (ny - 1)}")
    if faces != details.get("faces"):
        problems.append(f"OBJ has {faces} faces; report says {details.get('faces')}")
    if rows != nx * ny:
        problems.append(f"CSV has {rows} rows; grid implies {nx * ny}")
    return problems


def run_sample(wl: Workload, value: float, traced: bool, tmp: Path, timeout: float,
               expected_digest: list) -> Sample:
    """One invocation plus all its checks; `expected_digest` holds the
    run's reference digest once the first sample has set it."""
    out = tmp / "out"
    shutil.rmtree(out, ignore_errors=True)
    rc, usage, t_spawn, wall = _spawn(wl.argv(value, out), traced, tmp, timeout)
    sample = Sample(traced=traced, wall=wall, problems=[],
                    peak_rss_mb=usage.ru_maxrss / 1024.0)
    if rc is None:
        sample.problems.append(f"timed out after {timeout:.0f} s")
        return sample
    try:
        res = json.loads((tmp / "child.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        res = None
    if rc != 0 or res is None or res.get("t_built") is None:
        err = (tmp / "stderr.txt").read_text(encoding="utf-8", errors="replace")[-600:]
        sample.problems.append(f"exit code {rc}: {err.strip()}")
        return sample
    if not Path(res["gwsurf_file"]).resolve().is_relative_to(SRC.resolve()):
        sample.problems.append(f"imported gwsurf from {res['gwsurf_file']}, not {SRC}")

    sample.setup_s = res["t_built"] - t_spawn
    sample.import_s = res["t_imported"] - res["t_start"]
    sample.run_s = res["t_end"] - res["t_built"]
    problems, digest, report_bytes = _check_outputs(wl, out)
    sample.problems += problems
    if not expected_digest:
        expected_digest.append(digest)
    elif digest != expected_digest[0]:
        sample.problems.append("output bytes differ from the first sample of this run")
    if traced:
        layers, detail = layer_metrics(res["spans"], res["t_built"], res["t_end"])
        layers["cli.report.bytes"] = report_bytes
        sample.layers, sample.detail = layers, detail
    shutil.rmtree(out, ignore_errors=True)
    return sample


# ---------------------------------------------------------------------------
# one run

def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _check_against_first_run(name: str, seed: int, digest: str) -> str | None:
    """Output bytes must match the first run of this seed on this source tree."""
    ref = WORK / "ref" / f"{_source_digest()}-{name}-{seed}.sha256"
    if ref.exists():
        if ref.read_text(encoding="ascii").strip() != digest:
            return "output bytes differ from the first run of this seed on this source tree"
        return None
    ref.parent.mkdir(parents=True, exist_ok=True)
    ref.write_text(digest + "\n", encoding="ascii")
    return None


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass

    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"), "sympy": version("sympy"),
            "blas_threads": BLAS_THREADS}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_workload(name: str, seed: int, seconds: float, trace: bool, t0: float) -> dict:
    wl = WORKLOADS[name]
    value = wl.draw(name, seed)
    tmp = WORK / f"{name}-s{seed}-p{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    print(f"workload {name} seed {seed}: gwsurf "
          + " ".join(wl.argv(value, Path("OUT"))) + f"  ({wl.flag} drawn from "
          f"[{wl.low}, {wl.high}])", flush=True)

    samples: list[Sample] = []
    refs: list[float] = []
    digest: list = []
    start = time.monotonic()
    try:
        while True:
            traced = trace and len(samples) % 2 == 1
            timeout = min(CHILD_TIMEOUT_S, max(5.0, 170.0 - (time.monotonic() - t0)))
            if not trace:
                refs.append(reference_time())
            s = run_sample(wl, value, traced, tmp, timeout, digest)
            samples.append(s)
            for p in s.problems:
                print(f"  FAIL sample {len(samples)}{' (traced)' if traced else ''}: {p}",
                      file=sys.stderr, flush=True)
            elapsed = time.monotonic() - start
            typical = statistics.median(x.wall for x in samples)
            # start another sample if it would mostly fit: runs average `seconds`
            if len(samples) >= (2 if trace else MIN_SAMPLES) and elapsed + typical / 2 > seconds:
                break
            if time.monotonic() - t0 > STOP_STARTING_S:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if digest:
        problem = _check_against_first_run(name, seed, digest[0])
        if problem:
            print(f"  FAIL: {problem}", file=sys.stderr, flush=True)
            samples[0].problems.append(problem)
    failed = sum(1 for s in samples if s.problems)
    plain = [s for s in samples if not s.traced]
    traced = [s for s in samples if s.traced]

    metrics, lines = {}, []
    if trace:
        run_plain = [s.run_s for s in plain if s.run_s is not None]
        run_traced = [s.run_s for s in traced if s.run_s is not None]
        layered = [s.layers for s in traced if s.layers is not None]
        for metric, unit in PER_LAYER:
            if metric == "trace.overhead_s":
                vals = ([statistics.median(run_traced) - statistics.median(run_plain)]
                        if run_plain and run_traced else [])
            else:
                vals = [lay[metric] for lay in layered]
            metrics[metric] = {"value": statistics.median(vals) if vals else 0.0, "unit": unit}
            lines.append((metric, unit, vals))
    else:
        scale = REFERENCE_S / statistics.median(refs)
        for metric, unit in END_TO_END:
            vals = [getattr(s, metric) for s in plain if getattr(s, metric) is not None]
            value = statistics.median(vals) if vals else 0.0
            metrics[metric] = {"value": value * scale if unit == "s" else value, "unit": unit}
            lines.append((metric, unit, vals))
        lines.append(("reference_s", "s", refs))

    for metric, unit, vals in lines:
        if vals:
            lo, hi = _quartiles(vals)
            print(f"  {metric:<34} median {statistics.median(vals):>14.6g} {unit:<6}"
                  f" [p25 {lo:.6g}, p75 {hi:.6g}]  n={len(vals)}")
        else:
            print(f"  {metric:<34} no samples")
    if not trace:
        print(f"  reported at the reference speed (raw x {scale:.4f}): " + ", ".join(
            f"{m} {metrics[m]['value']:.6g} s" for m, unit in END_TO_END if unit == "s"))
    print(f"  {'fail_ratio':<34} {failed}/{len(samples)} = {failed / len(samples):.3f}")
    if trace and traced and traced[-1].detail:
        detail = traced[-1].detail
        print("  bases: " + ", ".join(f"{k} = {v}" for k, v in detail["bases"].items()))
        print("  self time by layer (last traced sample):")
        for layer, sec in sorted(detail["self_s"].items(), key=lambda kv: -kv[1]):
            print(f"    {layer:<30} {sec:10.4f} s  {detail['calls'].get(layer, 0):>8} calls")
    return {"correct": failed == 0, "attempted": len(samples), "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    t0 = time.monotonic()

    if not (SRC / "gwsurf" / "__init__.py").is_file():
        print(f"no gwsurf source tree at {SRC}; run from a gwsurf checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    compileall.compile_dir(str(SRC / "gwsurf"), quiet=1)   # users run from bytecode
    print("env " + json.dumps(environment(), sort_keys=True), flush=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace),
                                  time.monotonic() if args.workload == "all" else t0)
               for name in names}
    if args.workload == "all":
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{name}/{m}": v for name, r in results.items()
                              for m, v in r["metrics"].items()}}
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
