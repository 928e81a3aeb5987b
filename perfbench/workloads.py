"""Benchmark workloads: lists of ffil CLI commands and their generated inputs.

Every per-command `--seed` and every input file is derived from the workload
seed alone, so one seed always gives the same commands and files. No command
passes `--jobs`. Why each workload exists, and which layers it exercises, is
in README.md beside this file.
"""

import hashlib
import itertools
import json
import random


def derive(seed, label):
    """32-bit seed for one command or input file, from the workload seed."""
    digest = hashlib.sha256(f"ffil-bench:{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _poly_line(rnd, p, nvars, degree, terms):
    """One line of ffil's textual polynomial format, e.g. 'p=7; vars=3; 2*x0^2*x1 + 5'."""
    monos = [e for e in itertools.product(range(degree + 1), repeat=nvars) if sum(e) <= degree]
    parts = []
    for exps in rnd.sample(monos, terms):
        factors = [str(rnd.randrange(1, p))]
        factors += [f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exps) if e]
        parts.append("*".join(factors))
    return f"p={p}; vars={nvars}; " + " + ".join(parts)


def write_fixture(path, seed, p=7, nvars=3, degree=2, count=12):
    """Polynomial fixture file for `zero-patterns --fixture`."""
    rnd = random.Random(derive(seed, "fixture"))
    lines = [_poly_line(rnd, p, nvars, degree, rnd.randint(2, 5)) for _ in range(count)]
    path.write_text("\n".join(lines) + "\n")


def _shattered(a, members):
    return len({a & b for b in members}) == 1 << bin(a).count("1")


def write_set_system(path, seed, ground=40, members=150, k=4):
    """Sparse set system for `shatter --input`, members of size 2..k.

    A k-set A can only be shattered if A itself is a trace, i.e. a member
    (no member is larger than k). Systems where some k-member is shattered are
    redrawn, so the shatter scan never stops early and always visits all
    C(ground, k) subsets.
    """
    rnd = random.Random(derive(seed, "sets"))
    while True:
        sets = [sorted(rnd.sample(range(ground), rnd.randint(2, k))) for _ in range(members)]
        masks = [sum(1 << v for v in s) for s in sets]
        if not any(len(s) == k and _shattered(m, masks) for s, m in zip(sets, masks)):
            break
    path.write_text(json.dumps({"ground": ground, "members": sets}))


def _poly_grid(tmp, seed):
    return [
        ["zero-count", "--p", "23", "--vars", "4", "--degree", "4", "--trials", "10"],
        ["zarankiewicz", "--p", "13", "--d1", "2", "--d2", "2", "--m", "169", "--n", "169",
         "--s", "4"],
        ["point-variety", "--m", "100", "--alpha", "1.0", "--dim", "2"],
    ]


def _pattern_enum(tmp, seed):
    fixture, sets = tmp / "fixture.txt", tmp / "sets.json"
    write_fixture(fixture, seed)
    write_set_system(sets, seed)
    return [
        ["containment-patterns", "--p", "11", "--vars", "4", "--k", "20", "--degree", "2",
         "--t", "2"],
        ["zero-patterns", "--p", "13", "--vars", "4", "--k", "40", "--degree", "2"],
        ["shatter", "--k", "4", "--input", str(sets)],
        ["zero-patterns", "--p", "7", "--vars", "3", "--k", "12", "--degree", "2",
         "--fixture", str(fixture)],
    ]


def _incidence(tmp, seed):
    return [
        ["unit-distance", "--d", "3", "--p", "7", "--s", "4"],
        ["unit-distance", "--d", "2", "--p", "47", "--s", "3"],
        ["pattern-scan", "--p", "5", "--d", "3", "--hosts", "10", "--host-size", "40"],
        ["sphere-geometry", "--p", "13", "--d", "3", "--families", "100", "--kmax", "4"],
        ["indep-set", "--n", "300", "--m", "400", "--k", "3"],
    ]


def _smoke(tmp, seed):
    """README-sized commands that reach every traced function; for self-tests."""
    fixture, sets = tmp / "fixture.txt", tmp / "sets.json"
    write_fixture(fixture, seed, count=3)
    write_set_system(sets, seed, ground=10, members=12)
    return [
        ["zero-count", "--p", "5", "--vars", "3", "--degree", "3", "--trials", "5"],
        ["point-variety", "--m", "49", "--alpha", "1.0", "--dim", "2"],
        ["containment-patterns", "--p", "5", "--vars", "2", "--k", "4", "--degree", "2"],
        ["zero-patterns", "--p", "7", "--vars", "3", "--k", "3", "--degree", "2",
         "--fixture", str(fixture)],
        ["shatter", "--k", "2", "--input", str(sets)],
        ["unit-distance", "--d", "2", "--p", "7", "--s", "3"],
        ["sphere-geometry", "--p", "5", "--d", "3", "--families", "5", "--kmax", "3"],
        ["pattern-scan", "--p", "3", "--d", "3", "--hosts", "2", "--host-size", "10"],
        ["indep-set", "--n", "30", "--m", "40", "--k", "3"],
    ]


WORKLOADS = {
    "poly-grid": _poly_grid,
    "pattern-enum": _pattern_enum,
    "incidence": _incidence,
}


def commands(name, tmp, seed):
    """(label, argv) pairs for a workload, or "smoke"; argv lacks --output."""
    build = _smoke if name == "smoke" else WORKLOADS[name]
    out = []
    for i, argv in enumerate(build(tmp, seed)):
        label = f"{i}:{argv[0]}"
        out.append((label, argv + ["--seed", str(derive(seed, label))]))
    return out
