"""Pinned reports of `sphere-geometry` runs.

The isotropic-pair verdict of `sphere-geometry` comes from
`isotropic_unit_pair_search`, and no benchmark command covers it except
at p = 13, d = 3. These runs cover a pair found, absent and informational
(p = 1 mod 4), at d = 1, 3 and 5, where the `for_dim` form of d = 5 negates
the last coordinate. Each run writes its report and CSV under relative
names in a fresh directory, so the resolved config is the same on every
machine; the report (without its timing block, re-serialized with sorted
keys) and the CSV bytes must keep these sha256 digests.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

# every run's CSV holds the same 20 families: the family sizes come from the
# seed alone, and every family passes both checks
CSV_SHA = "c706f7df831757df65d35fb5287208e74e4e51a0d6ff42895ea2714826fa74b3"
PINS = [
    (5, 1, True, "de11d741c325883716e33c2e5d7a064bda8625a72dd12721f6a946627b0507f3"),
    (7, 1, False, "76152c0166e535d82f94b44cfaed0c6dd5f33a8f356aed172b5e6c884213b7f6"),
    (11, 3, False, "d7f7347ef08d284dbd1cfb966670b46bfa748b3cfaf9073b7be88a840db1ee81"),
    (13, 3, True, "89594c3b4b8967ae273789b1a0b0f3b440ab4f86ee68c17ceb5837032558bed4"),
    (3, 5, False, "39f8eb923875eb4249c241d3fa0744b89b6344d57e7979ac49f619782b3913f8"),
    (5, 5, True, "1f187f73b07aab74e50eba3c32ff6c78b78c7830e185d696cbd6691d2b5aa7a5"),
    (7, 5, False, "a1e12ddaa2d02431f7b6563dc68b1481af6e84ca9b3f756f296eab9793767fc4"),
]


@pytest.mark.parametrize("p, d, found, report_sha", PINS, ids=[f"p{p}-d{d}" for p, d, _, _ in PINS])
def test_sphere_geometry_report_and_csv_are_pinned(tmp_path, p, d, found, report_sha):
    argv = ["--p", str(p), "--d", str(d), "--families", "20", "--kmax", "4", "--seed", "1"]
    r = subprocess.run(
        [sys.executable, "-m", "ffil.cli", "sphere-geometry", *argv, "--output", "r.json", "--csv", "r.csv"],
        capture_output=True, text=True, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert r.returncode == 0, r.stderr
    assert r.stderr == ""
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["achieved"]["isotropic_unit_pair_found"] is found
    report.pop("timing")
    assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest() == report_sha
    assert hashlib.sha256((tmp_path / "r.csv").read_bytes()).hexdigest() == CSV_SHA
