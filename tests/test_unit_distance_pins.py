"""Pinned reports of d = 1 (mod 4) unit-distance runs.

When d = 1 (mod 4) the report carries the re-embedding flag over F_{p^2},
and no benchmark command or README example runs that case. Each run here
writes its report and CSV under relative names in a fresh directory, so the
resolved config is the same on every machine; the report (without its
timing block, re-serialized with sorted keys) and the CSV bytes must keep
these sha256 digests.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

PINS = [
    (
        ["--d", "5", "--p", "3", "--s", "4", "--seed", "42"],
        "c30c561c24307c70c31cb5944a7a0546c40d57cca5e7534c9d6bd4f4d47b85e5",
        "6f2afc7a252351a9f9108f53a0d6edea058dcf2f07646b258c041575beaab996",
    ),
    (
        ["--d", "5", "--p", "7", "--n", "300", "--s", "3", "--seed", "1"],
        "b12eee67a4dc992d69d6de8bd940e9c703a2d80ee950ea05c4cb485a4dcd9182",
        "562e677fd074b7d64235fe42d53ac89a4c7c638fca6eb74f67cdd9c8cb6519e8",
    ),
    (
        ["--d", "9", "--p", "3", "--s", "4", "--seed", "1"],
        "27a7fce726a7a2f508a9bda0b9d62d7246792eab9dc10bee7136c459f217be9e",
        "06c07f2d5ad844b2ebcc38b6d79d5666bb4b43d92c0ffb6b0f867404b8c5213b",
    ),
]


@pytest.mark.parametrize("argv, report_sha, csv_sha", PINS, ids=["d5-p3", "d5-p7-n300", "d9-p3"])
def test_d1mod4_report_and_csv_are_pinned(tmp_path, argv, report_sha, csv_sha):
    r = subprocess.run(
        [sys.executable, "-m", "ffil.cli", "unit-distance", *argv, "--output", "r.json", "--csv", "r.csv"],
        capture_output=True, text=True, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert r.returncode == 2, r.stderr  # a K_{s,s} witness in every run
    assert r.stderr == ""
    report = json.loads((tmp_path / "r.json").read_text())
    assert "re-embedded over the quadratic extension (d = 1 mod 4)" in report["flags"]
    report.pop("timing")
    assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest() == report_sha
    assert hashlib.sha256((tmp_path / "r.csv").read_bytes()).hexdigest() == csv_sha
