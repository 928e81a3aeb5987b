"""Pinned `--help` text of the CLI.

The help text documents every flag, default and CSV column (each
subcommand's epilog), so a parser rewrite must print it byte for byte. Each
output is taken at `COLUMNS=80`, where argparse wraps its lines, and must
keep its sha256 digest. The digests were recorded under Python 3.11; the
formatter's output may differ on other Python versions.
"""

import hashlib

import pytest

from ffil.cli import main

PINS = {
    "": "d5bc373feaa9dfe080e32d9e14f260daaa71dae10d2005591980a44a0b993de2",
    "zarankiewicz": "31f06296945a4f190c27c343c127ceb0628765b4601bbe2c257223dd4ce9e74f",
    "zero-patterns": "2204c07cddd9d29271b1d69720fdd9b4af600faac3d021872f5c26993703cc02",
    "containment-patterns": "ed92623522082fa0e087b29eccaeb04ff0d15a6a1a7407c8db391308454d56af",
    "shatter": "5ae869a3af34f62ff6eb796a99b3f12075fac60696e03d4bab10d84f4fefef4b",
    "zero-count": "86e0c8ee4091dcc35323ca01ae75a78cc29408b2aa1653b470ae30ae6c358927",
    "point-variety": "edde21a8bc423d18d3b2f58bb7c8a0817712574f581a0c39df55fa8770240c0d",
    "unit-distance": "61d1f4b8158ed4997b2849ba2a04a3d2d6374fe1513bdb01fe43f6e260a87736",
    "sphere-geometry": "7c6a2eeba4b7dd201df8c0356d1d03f58c9c60baad8521142d7972cdebe7a6fc",
    "pattern-scan": "334534680d088e5dc7bca42b2c9e8cf5f7423159446452715b86287a3b392ca1",
    "indep-set": "addfb4882d337ceb4ab5f4282b020a699778ae0ed2c5aef3d61dad7505ed524e",
}


@pytest.mark.parametrize("command, sha", PINS.items(), ids=[c or "ffil" for c in PINS])
def test_help_text_is_pinned(monkeypatch, capsys, command, sha):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"] if command else ["--help"])
    assert exit_.value.code == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == sha
