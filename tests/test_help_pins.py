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


# Usage errors, taken at COLUMNS=80 like the help text: the exit code and the
# sha256 of stdout followed by stderr. The unknown subcommand and the option
# before the subcommand list every subcommand; the others print one
# subcommand's usage, or the top usage for an argument no parser knows.
USAGE_PINS = {
    "": (1, "d5bc373feaa9dfe080e32d9e14f260daaa71dae10d2005591980a44a0b993de2"),
    "no-such-command": (1, "5947a885d187c8ca9332336b25d32e82cd432addecf1145f2e97926c584922fd"),
    "zarankiewicz --p 7 --seed 1":
        (1, "dfcda938c2e457afc7837c06a3a7fc7b35f834d0323425bfe68ebcb24b80339a"),
    "unit-distance --d 3 --p 7 --seed 1 --bogus 1":
        (1, "7f3ddfff902de64a04ae48d79658d55c9763af4c34e5663a21602348dc487975"),
    "unit-distance --d -1 --seed 1":
        (1, "a3ffb95ea4b603461bae7077a8903993466f793337c1140e481469a12d668962"),
    "unit-distance --d 3 --strategy x --seed 1":
        (1, "e61d217142cdd17c755e6ccc050485d3614c8bda64aa23c318c827501a9fc433"),
    "--seed 1": (1, "ec1a5736a90c5acda9e1b4b9c71c35e55f1029af395d4112273beeca027fde56"),
}


@pytest.mark.parametrize("args, pin", USAGE_PINS.items(), ids=[a or "ffil" for a in USAGE_PINS])
def test_usage_error_is_pinned(monkeypatch, capsys, args, pin):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(args.split())
    except SystemExit as exit_:
        code = exit_.code
    out, err = capsys.readouterr()
    assert (code, hashlib.sha256((out + err).encode()).hexdigest()) == pin
