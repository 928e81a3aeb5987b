"""Pinned reports of `sphere-geometry` runs.

The isotropic-pair verdict of `sphere-geometry` comes from
`isotropic_unit_pair_search`, and no benchmark command covers it except
at p = 13, d = 3. These runs cover a pair found, absent and informational
(p = 1 mod 4), at d = 1, 3 and 5, where the `for_dim` form of d = 5 negates
the last coordinate. The runs at d = 2 and 4, the 40-family run and the
runs up to planes (`--flat-dim-cap 2`) pin the flats counts of the flag
walk, one flat per level; their digests were recorded with the walk from
every sphere point, and held through the walk of all flats through s_0.
Each run writes its report and CSV under relative names in a fresh
directory, so the resolved config is the same on every machine; the report
(without its timing and counters blocks, re-serialized with sorted keys)
and the CSV bytes must keep these sha256 digests, and the counters must
keep the pinned `flat_pairs`, the pair tests of the flats walks: per level
of a walk, the sphere points after its flat's last spanning point.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

# the CSV of every run with 20 families: the family sizes come from the
# seed alone, and every family passes both checks
FAMILIES_20 = "c706f7df831757df65d35fb5287208e74e4e51a0d6ff42895ea2714826fa74b3"
# p, d, flags after the default 20 families, pair found, report and CSV digests, flat_pairs
PINS = [
    (5, 1, (), True, "de11d741c325883716e33c2e5d7a064bda8625a72dd12721f6a946627b0507f3", FAMILIES_20, 1),
    (7, 1, (), False, "76152c0166e535d82f94b44cfaed0c6dd5f33a8f356aed172b5e6c884213b7f6", FAMILIES_20, 1),
    (11, 3, (), False, "d7f7347ef08d284dbd1cfb966670b46bfa748b3cfaf9073b7be88a840db1ee81", FAMILIES_20, 218),
    (13, 3, (), True, "89594c3b4b8967ae273789b1a0b0f3b440ab4f86ee68c17ceb5837032558bed4", FAMILIES_20, 362),
    (3, 5, (), False, "39f8eb923875eb4249c241d3fa0744b89b6344d57e7979ac49f619782b3913f8", FAMILIES_20, 228),
    (5, 5, (), True, "1f187f73b07aab74e50eba3c32ff6c78b78c7830e185d696cbd6691d2b5aa7a5", FAMILIES_20, 1940),
    (7, 5, (), False, "a1e12ddaa2d02431f7b6563dc68b1481af6e84ca9b3f756f296eab9793767fc4", FAMILIES_20, 7144),
    (7, 2, (), None, "5158d7f007f9fe0dbb171c9e6de10d7725026f583ac8bb380dca8e0411b74916", FAMILIES_20, 7),
    (11, 4, (), None, "bcd5ebaa80707bdec90e52388294ced91d652f47cc67acf92e225369924fbeff", FAMILIES_20, 1319),
    (13, 4, ("--families", "40"), None, "7e892025c50c69c0dc88c5c7f39b957292a6f20a748a63735ebf146a66f1a8ea",
     "f2b63463e51367544f01692d24b7bb3fa29ca74a48f9e1d399c801e458475c52", 2183),
    (5, 4, ("--flat-dim-cap", "2"), None, "56bf4ae4dc2095a930bd3c4e6b0b3b202b831505198920d9f1b567fce50cf547",
     FAMILIES_20, 231),
    (7, 5, ("--flat-dim-cap", "2"), False, "09597784b24d36659b7977ecb4f2a8f2c1f766976000dda681d6e77cb1dd5311",
     FAMILIES_20, 9540),
]


@pytest.mark.parametrize("p, d, flags, found, report_sha, csv_sha, flat_pairs", PINS,
                         ids=["-".join([f"p{p}", f"d{d}", *(f.lstrip("-") for f in flags)])
                              for p, d, flags, *_ in PINS])
def test_sphere_geometry_report_and_csv_are_pinned(tmp_path, p, d, flags, found, report_sha, csv_sha, flat_pairs):
    argv = ["--p", str(p), "--d", str(d), "--families", "20", "--kmax", "4", *flags, "--seed", "1"]
    r = subprocess.run(
        [sys.executable, "-m", "ffil.cli", "sphere-geometry", *argv, "--output", "r.json", "--csv", "r.csv"],
        capture_output=True, text=True, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert r.returncode == 0, r.stderr
    assert r.stderr == ""
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["achieved"]["isotropic_unit_pair_found"] is found
    report.pop("timing")
    assert report.pop("counters") == {"flat_pairs": flat_pairs}
    assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest() == report_sha
    assert hashlib.sha256((tmp_path / "r.csv").read_bytes()).hexdigest() == csv_sha
