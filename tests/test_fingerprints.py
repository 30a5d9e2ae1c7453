"""Every pinned default run writes what tests/fingerprints.json records.

On the numpy version and machine the manifest was taken on, every byte
is compared: exit code, stdout, stderr and each output file. Elsewhere
float round-off may differ, so only the exit code and the names of the
files written are compared."""
import json

import pytest

from fingerprints import ARGVS, MANIFEST, fingerprint, host


@pytest.fixture(scope="module")
def manifest():
    return json.loads(MANIFEST.read_text(encoding="ascii"))


def test_manifest_pins_every_run(manifest):
    assert {name: run["argv"] for name, run in manifest["runs"].items()} == ARGVS


@pytest.mark.parametrize("name", sorted(ARGVS))
def test_outputs_match_the_manifest(name, manifest, tmp_path, monkeypatch):
    monkeypatch.delenv("WSL_OUT", raising=False)        # it would override --out
    want = manifest["runs"][name]
    got = fingerprint(ARGVS[name], tmp_path)
    if manifest["host"] == host():
        assert got == {k: want[k] for k in got}
    else:
        assert (got["exit"], sorted(got["files"])) == (want["exit"], sorted(want["files"]))
