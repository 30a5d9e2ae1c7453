"""Fingerprints of the default outputs, and the script that rewrites them.

Each pinned command line runs through `gwsurf.cli.main` in this process,
writing into a fresh directory. Its fingerprint is the exit code, the
sha256 of its stdout and of its stderr, and the sha256 of every file it
writes. tests/fingerprints.json holds the fingerprints of the current
code, with the numpy version and machine they were taken on;
tests/test_fingerprints.py compares a fresh run with them.

    PYTHONPATH=src python tests/fingerprints.py     # rewrite the manifest

Rewrite it in the change that moves an output byte, so that the
manifest's diff shows which outputs moved.
"""
import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from gwsurf import FAMILY_NAMES

MANIFEST = Path(__file__).resolve().parent / "fingerprints.json"

# every command at its defaults, the benchmark's two command lines at its
# first drawn parameter (perfbench/run.py, seed 1), the trig guard band, the
# band at A = 1.5, where path_independence_fd breaks down and fails alone, a
# finer holomorphic grid and three usage errors, each one `error:` line
ARGVS = {
    **{f"{command}-{family}": [command, "--family", family]
       for command in ("verify", "induce") for family in FAMILY_NAMES},
    "verify-rational-101": ["verify", "--family", "rational", "--grid", "101x101",
                            "--lambda", "0.9917", "--levels", "2", "--jobs", "1"],
    "induce-rational-251": ["induce", "--family", "rational", "--grid", "251x251",
                            "--lambda", "0.9395", "--levels", "2", "--jobs", "1"],
    "verify-trig-band": ["verify", "--family", "trig", "--domain", "0,0.6,-1,1"],
    "verify-trig-breakdown": ["verify", "--family", "trig", "--A", "1.5",
                              "--domain", "0,0.6,-1,1"],
    "verify-holomorphic-201": ["verify", "--family", "holomorphic", "--grid", "201x201"],
    "usage-negative-grid": ["verify", "--grid", "-3x3"],
    "usage-unknown-flag": ["verify", "--no-such-flag"],
    "usage-abbreviated-flag": ["verify", "--fam", "rational"],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def host() -> dict:
    """What the bytes of a float computation depend on beyond the code."""
    return {"numpy": np.__version__, "machine": platform.machine()}


def fingerprint(argv, out: Path) -> dict:
    """Run `gwsurf argv --out out` in this process; its exit code, the
    sha256 of its stdout and stderr, and of each file it wrote, by name."""
    from gwsurf.cli import main
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([*argv, "--out", str(out)])
    files = sorted(out.iterdir()) if out.is_dir() else []
    return {"exit": code, "stdout": _sha(stdout.getvalue().encode()),
            "stderr": _sha(stderr.getvalue().encode()),
            "files": {p.name: _sha(p.read_bytes()) for p in files}}


def main() -> int:
    os.environ.pop("WSL_OUT", None)     # it would override --out
    with tempfile.TemporaryDirectory() as tmp:
        runs = {name: {"argv": argv, **fingerprint(argv, Path(tmp) / name)}
                for name, argv in ARGVS.items()}
    MANIFEST.write_text(json.dumps({"host": host(), "runs": runs}, indent=1, sort_keys=True)
                        + "\n", encoding="ascii")
    print(f"wrote {MANIFEST.name}: {len(runs)} runs, "
          f"{sum(len(r['files']) for r in runs.values())} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
