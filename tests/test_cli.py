import argparse
import json
import os
import shlex
import subprocess
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
SRC = os.path.join(ROOT, "src")


def run_cli(*args):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONWARNINGS="ignore")
    return subprocess.run(
        [sys.executable, "-m", "ffil.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def load_report(path):
    with open(path) as fh:
        return json.load(fh)


def canonical(report):
    """Report without its timing block, re-serialized deterministically."""
    body = dict(report)
    body.pop("timing")
    return json.dumps(body, sort_keys=True)


def test_zarankiewicz_report_and_exit(tmp_path):
    out = tmp_path / "r.json"
    csvp = tmp_path / "r.csv"
    r = run_cli(
        "zarankiewicz", "--p", "7", "--d1", "1", "--d2", "1", "--m", "7", "--n", "7",
        "--s", "2", "--seed", "42", "--output", str(out), "--csv", str(csvp),
    )
    assert r.returncode == 0
    rep = load_report(out)
    assert {"config", "achieved", "bound", "verification", "retries", "timing"} <= set(rep)
    assert rep["achieved"]["edges"] >= 4
    assert rep["config"]["seed"] == 42
    assert rep["config"]["m"] == 7  # full resolved config embedded
    header = csvp.read_text().splitlines()[0]
    assert header == "p,d1,d2,m,n,s,seed,edges,edges_min,outcome"


def test_zero_patterns_fixture_example(tmp_path):
    fx = tmp_path / "fx.txt"
    fx.write_text("p=3; vars=1; x0\np=3; vars=1; x0 + 2\n")
    out = tmp_path / "zp.json"
    r = run_cli(
        "zero-patterns", "--p", "3", "--vars", "1", "--k", "2", "--degree", "1",
        "--fixture", str(fx), "--seed", "0", "--output", str(out),
    )
    assert r.returncode == 0
    rep = load_report(out)
    assert rep["achieved"]["pattern_count"] == 3
    assert rep["bound"] == {"rbg": 3, "tight_form": 2}


def assert_usage_error(r, needle=""):
    """Exit 1 with an `error:` line (containing `needle`) and no traceback."""
    assert r.returncode == 1, r.stderr
    assert "Traceback" not in r.stderr
    assert any(ln.startswith("error:") and needle in ln for ln in r.stderr.splitlines()), r.stderr


@pytest.mark.parametrize(
    "fixture, flags, needle",
    [
        ("p=7; vars=2; x0\n", ("--p", "5", "--vars", "4", "--k", "9", "--degree", "1"), "modulus"),
        ("p=3; vars=2; x0\np=3; vars=2; x1\n", ("--p", "3", "--vars", "1", "--k", "2", "--degree", "1"), "--vars"),
        ("p=3; vars=1; x0\np=3; vars=1; x0 + 2\n", ("--p", "3", "--vars", "1", "--k", "3", "--degree", "1"), "--k"),
        ("p=3; vars=1; x0^2\n", ("--p", "3", "--vars", "1", "--k", "1", "--degree", "1"), "--degree"),
    ],
    ids=["p", "vars", "k", "degree"],
)
def test_zero_patterns_fixture_must_match_flags(tmp_path, fixture, flags, needle):
    fx = tmp_path / "fx.txt"
    fx.write_text(fixture)
    r = run_cli("zero-patterns", *flags, "--fixture", str(fx), "--seed", "0")
    assert_usage_error(r, needle)


ZP = ("zero-patterns", "--p", "3", "--vars", "1", "--k", "1", "--degree", "1", "--fixture")


@pytest.mark.parametrize(
    "data, args",
    [
        (b"p=3; vars=1; 3*y\n", ZP),
        (None, ZP),  # the input file does not exist
        (b"\xff\xfe\x00", ZP),
        (b"2 2\n0 x\n", ("shatter", "--k", "2", "--graph")),
        (b'{"ground": 3}', ("shatter", "--k", "2", "--input")),
        (b'{"ground": 3, "members": [[0], [-1]]}', ("shatter", "--k", "2", "--input")),
        (b"{ground", ("shatter", "--k", "2", "--input")),
        (b'{"n": 5, "k": 2}', ("indep-set", "--n", "5", "--m", "1", "--k", "2", "--hypergraph")),
        # bool is a subclass of int: the first two used to end in a TypeError
        # and an IndexError traceback, and the third read as the edge [0, 1]
        (b'{"ground": true, "members": [[0]]}', ("shatter", "--k", "2", "--input")),
        (b'{"ground": 3, "members": [[true]]}', ("shatter", "--k", "2", "--input")),
        (b'{"n": 3, "k": 2, "edges": [[0, true]]}',
         ("indep-set", "--n", "3", "--m", "1", "--k", "2", "--hypergraph")),
        # a form of dimension 0 used to be reported as a bad signature entry;
        # the path is a writable report name, so the run reaches the form
        (None, ("sphere-geometry", "--p", "5", "--d", "0", "--output")),
        (None, ("pattern-scan", "--p", "5", "--d", "0", "--output")),
    ],
    ids=["poly-token", "missing-file", "not-text", "graph-token", "no-members",
         "negative-member", "not-json", "no-edges", "bool-ground", "bool-member", "bool-edge",
         "sphere-geometry-d0", "pattern-scan-d0"],
)
def test_malformed_input_exit_1(tmp_path, data, args):
    path = tmp_path / "input"
    if data is not None:
        path.write_bytes(data)
    assert_usage_error(run_cli(*args, str(path), "--seed", "1"), "dimension must be >= 1" if "--d" in args else "")


@pytest.mark.parametrize(
    "flags, needle",
    [
        (("--n", "5", "--m", "1", "--k", "3"), "--n"),
        (("--n", "30", "--m", "1", "--k", "2"), "--k"),
        (("--n", "30", "--m", "2", "--k", "3"), "--m"),
    ],
    ids=["n", "k", "m"],
)
def test_indep_set_hypergraph_must_match_flags(tmp_path, flags, needle):
    hg = tmp_path / "hg.json"
    hg.write_text(json.dumps({"n": 30, "k": 3, "edges": [[0, 1, 2]]}))
    r = run_cli("indep-set", *flags, "--hypergraph", str(hg), "--seed", "1")
    assert_usage_error(r, needle)
    ok = run_cli("indep-set", "--n", "30", "--m", "1", "--k", "3", "--hypergraph", str(hg),
                 "--seed", "1")
    assert ok.returncode == 0, ok.stderr
    assert json.loads(ok.stdout)["config"]["n"] == 30


@pytest.mark.parametrize("flag", ["--output", "--csv"])
def test_unwritable_output_exit_1_before_the_run(tmp_path, flag):
    # this run would exit 3 (enumeration cap), so exit 1 shows that the
    # output paths are checked before any computation
    run = ("zero-count", "--p", "101", "--vars", "5", "--degree", "3", "--trials", "1",
           "--seed", "1")
    target = tmp_path / "missing" / "out"
    assert_usage_error(run_cli(*run, flag, str(target)), str(target))
    assert not target.parent.exists()
    assert_usage_error(run_cli(*run, flag, str(tmp_path)), str(tmp_path))  # a directory


def test_sphere_geometry_rejects_kmax_below_2():
    r = run_cli("sphere-geometry", "--p", "5", "--d", "2", "--families", "2",
                "--kmax", "1", "--seed", "1")
    assert_usage_error(r, "--kmax")


PS = ("pattern-scan", "--p", "3", "--d", "3")
SG = ("sphere-geometry", "--p", "5", "--d", "3")


@pytest.mark.parametrize(
    "args, flag",
    [
        (PS + ("--hosts", "1", "--host-size", "-3"), "--host-size"),
        (PS + ("--hosts", "-1"), "--hosts"),
        (("indep-set", "--n", "-3", "--m", "2", "--k", "2"), "--n"),
        (("unit-distance", "--d", "2", "--n", "-5"), "--n"),
        (SG + ("--families", "-2"), "--families"),
        (SG + ("--flat-dim-cap", "-1"), "--flat-dim-cap"),
    ],
    ids=["host-size", "hosts", "indep-set-n", "unit-distance-n", "families", "flat-dim-cap"],
)
def test_negative_count_exit_1(args, flag):
    # before, the first four ended in a ValueError traceback and the rest
    # exited 0 with a vacuous report
    r = run_cli(*args, "--seed", "1")
    assert_usage_error(r, flag)
    assert "nonnegative" in r.stderr


def test_indep_set_k_above_n_exit_1():
    assert_usage_error(run_cli("indep-set", "--n", "3", "--m", "2", "--k", "5", "--seed", "1"), "--k")


def test_unit_distance_empty_point_set(tmp_path):
    out = tmp_path / "r.json"
    r = run_cli("unit-distance", "--d", "2", "--p", "7", "--n", "0", "--seed", "1",
                "--output", str(out))
    assert r.returncode == 0, r.stderr
    rep = load_report(out)
    assert rep["achieved"]["P_size"] == 0 and rep["achieved"]["unit_distances"] == 0


def readme_commands(tmp_path):
    """The README's CLI examples as argument lists, with their input files
    written to tmp_path."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        block = fh.read().split("## CLI", 1)[1].split("```")[1]
    commands = [shlex.split(ln)[1:] for ln in block.splitlines() if ln.startswith("ffil ")]
    assert len({c[0] for c in commands}) == 10  # one example per subcommand
    (tmp_path / "lines.txt").write_text("p=3; vars=1; x0\np=3; vars=1; x0 + 2\n")
    (tmp_path / "sets.json").write_text(json.dumps({"ground": 3, "members": [[0], [1], [2]]}))
    return commands


def test_readme_examples_do_not_import_numpy_ma(tmp_path):
    # under numpy 2.x a first flagless np.unique imports numpy.ma, about
    # 10 ms of every cold command (numpy 1.x imports it with numpy itself);
    # all examples run in one process, so any path counts
    script = (
        "import contextlib, io, json, sys\n"
        "import numpy\n"
        "eager = 'numpy.ma' in sys.modules\n"
        "from ffil.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(a) for a in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, eager, 'numpy.ma' in sys.modules]))\n"
    )
    commands = json.dumps(readme_commands(tmp_path))
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONWARNINGS="ignore")
    r = subprocess.run([sys.executable, "-c", script, commands], capture_output=True,
                       text=True, env=env, cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    codes, eager, imported = json.loads(r.stdout)
    assert codes == [0] * len(codes)
    assert imported == eager


def test_readme_cli_examples(tmp_path, monkeypatch):
    commands = readme_commands(tmp_path)
    monkeypatch.chdir(tmp_path)
    for args in commands:
        r = run_cli(*args)
        assert r.returncode == 0, (args, r.stderr)
        if "--output" in args:
            report = load_report(args[args.index("--output") + 1])
        else:
            report = json.loads(r.stdout)
        assert report["config"]["seed"] == int(args[args.index("--seed") + 1])


def test_readme_csv_headers_are_the_help_columns(tmp_path, monkeypatch):
    # each subcommand writes its CSV columns twice, in its --help epilog and
    # in its cmd_* header list: every README example, run with --csv,
    # writes the epilog's columns as its header row
    from ffil.cli import build_parser, main

    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    commands = readme_commands(tmp_path)
    monkeypatch.chdir(tmp_path)
    for args in commands:
        if "--csv" not in args:
            args = [*args, "--csv", "series.csv"]
        assert main(args) == 0, args
        header = (tmp_path / args[args.index("--csv") + 1]).read_text().splitlines()[0]
        assert f"CSV: {header}" == sub.choices[args[0]].epilog
    assert {args[0] for args in commands} == set(sub.choices)


def test_missing_flag_exit_1():
    r = run_cli("zarankiewicz", "--p", "7", "--seed", "1")
    assert r.returncode == 1
    assert "usage" in r.stderr.lower() or "error" in r.stderr.lower()


def test_unknown_subcommand_exit_1():
    assert run_cli("no-such-command").returncode == 1
    assert run_cli().returncode == 1


def test_invalid_parameter_exit_1(tmp_path):
    r = run_cli("zero-count", "--p", "4", "--vars", "3", "--degree", "3",
                "--trials", "5", "--seed", "1")
    assert r.returncode == 1
    assert "prime" in r.stderr


def test_verification_failure_exit_2(tmp_path):
    out = tmp_path / "ud.json"
    r = run_cli("unit-distance", "--d", "2", "--p", "11", "--s", "2", "--seed", "42",
                "--output", str(out))
    assert r.returncode == 2
    rep = load_report(out)
    assert rep["verification"]["outcome"] == "witness-found"
    assert rep["verification"]["witness"] is not None
    assert rep["verification"]["smallest_free_s"] == 3


def test_unit_distance_d3_p11_certified_free(tmp_path):
    # the full grid F_11^3 is certified K_{4,4}-free from the origin; the
    # plain search over all 1,331 points runs past PROBE_CAP
    out = tmp_path / "ud.json"
    r = run_cli("unit-distance", "--d", "3", "--p", "11", "--s", "4", "--seed", "42",
                "--output", str(out))
    assert r.returncode == 0, r.stderr
    rep = load_report(out)
    assert rep["verification"]["outcome"] == "verified-free"
    assert rep["counters"]["rooted_searches"] == 1
    assert rep["counters"]["kss_probes"] == 214089
    assert rep["achieved"]["P_size"] == 11**3


def test_zarankiewicz_p31_rung_certified_free(tmp_path):
    # two exact searches, on the full 961 x 961 graph and on its sampled
    # 400 x 400 subgraph, spending the probes of the one-at-a-time search
    out = tmp_path / "z.json"
    r = run_cli("zarankiewicz", "--p", "31", "--d1", "2", "--d2", "2", "--m", "400",
                "--n", "400", "--s", "4", "--seed", "1", "--output", str(out))
    assert r.returncode == 0, r.stderr
    rep = load_report(out)
    assert rep["verification"]["outcome"] == "verified-free"
    assert rep["counters"]["kss_probes"] == 3175948


def test_resource_error_exit_3():
    r = run_cli("zero-count", "--p", "101", "--vars", "5", "--degree", "3",
                "--trials", "1", "--seed", "1")
    assert r.returncode == 3
    assert "resource" in r.stderr.lower()


@pytest.mark.parametrize("d", ["3", "5"])
@pytest.mark.parametrize("command", ["sphere-geometry", "pattern-scan"])
def test_grid_over_cap_exit_3_before_any_grid(command, d):
    # 10007^d points: both commands used to build the grid first and die in
    # a numpy error (exit 1, traceback); past 2^64 points the center draw of
    # sphere-geometry fails too, so the cap is checked before it
    r = run_cli(command, "--p", "10007", "--d", d, "--seed", "1")
    assert r.returncode == 3, r.stderr
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("resource error:")


def test_sphere_geometry_checks_the_cap_before_building_the_form(capsys):
    # the form's d-entry signature used to be built first: 0.9 s and about
    # 180 MB before the exit 3 at --d 10^7
    import tracemalloc

    import ffil.cli

    tracemalloc.start()
    try:
        code = ffil.cli.main(["sphere-geometry", "--p", "3", "--d", "10000000", "--seed", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert peak < 10 * 2**20
    assert capsys.readouterr().err.startswith("resource error:")


def test_sphere_geometry_flat_pair_budget(tmp_path, monkeypatch, capsys):
    # at even d the report's flat_pairs are those of the one flats walk: the
    # run passes at FLAT_PAIR_CAP = flat_pairs and exits 3 one below
    import ffil.cli
    import ffil.geometry

    out = tmp_path / "r.json"
    argv = ["sphere-geometry", "--p", "13", "--d", "4", "--families", "2", "--kmax", "2", "--seed", "1",
            "--output", str(out)]
    assert ffil.cli.main(argv) == 0
    spent = load_report(out)["counters"]["flat_pairs"]
    assert spent == 2183  # one test per point of S after s_0
    monkeypatch.setattr(ffil.geometry, "FLAT_PAIR_CAP", spent)
    assert ffil.cli.main(argv) == 0
    monkeypatch.setattr(ffil.geometry, "FLAT_PAIR_CAP", spent - 1)
    assert ffil.cli.main(argv) == 3
    assert capsys.readouterr().err.startswith("resource error: flats walk budget")


def test_pattern_scan_samples_sub_hosts_without_the_whole_host(tmp_path):
    # F_1009^2 has 1,018,081 points: the whole point-sphere host would be a
    # 965 GiB matrix, a 1 x 25 x 25 sample needs only its own block
    out = tmp_path / "scan.json"
    r = run_cli("pattern-scan", "--p", "1009", "--d", "2", "--hosts", "1", "--seed", "1",
                "--output", str(out))
    assert r.returncode == 0, r.stderr
    achieved = load_report(out)["achieved"]
    assert achieved["host_shape"] == [1009**2, 1009**2]
    assert achieved["found"] is False


@pytest.mark.parametrize(
    "k, code, prefix", [("5", 3, "resource error:"), ("201", 1, "error:")], ids=["over-cap", "k>n"]
)
def test_shatter_cap_and_k_exit_codes(tmp_path, k, code, prefix):
    # C(200, 5) > ENUM_CAP subsets
    sets = tmp_path / "sets.json"
    sets.write_text(json.dumps({"ground": 200, "members": [[0, 1], [2, 3, 199]]}))
    r = run_cli("shatter", "--k", k, "--input", str(sets), "--seed", "1")
    assert r.returncode == code, r.stderr
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith(prefix)


@pytest.mark.parametrize("d", ["1", "2"])
def test_pattern_scan_tree_needs_d_3(d):
    r = run_cli("pattern-scan", "--p", "3", "--d", d, "--pattern", "tree", "--seed", "1")
    assert_usage_error(r, "--d")


def test_construction_failure_exit_3_with_best_report(tmp_path):
    # s = 1 freeness demands an edgeless graph while the edge target demands
    # edges: every retry fails, exercising the retry-cap path
    out = tmp_path / "fail.json"
    r = run_cli("zarankiewicz", "--p", "5", "--d1", "1", "--d2", "1", "--m", "5",
                "--n", "5", "--s", "1", "--seed", "3", "--output", str(out))
    assert r.returncode == 3
    assert "construction failure" in r.stderr.lower()
    rep = load_report(out)  # best attempt is still written
    assert rep["retries"] == {}
    assert rep["achieved"]["edges_full_best"] >= 0


@pytest.mark.parametrize(
    "args",
    [
        ("zero-count", "--p", "5", "--vars", "3", "--degree", "3", "--trials", "30"),
        ("zarankiewicz", "--p", "7", "--d1", "1", "--d2", "1", "--m", "7", "--n", "7", "--s", "2"),
        ("unit-distance", "--d", "2", "--p", "7", "--s", "4"),
        ("indep-set", "--n", "30", "--m", "40", "--k", "3"),
        ("pattern-scan", "--p", "3", "--d", "2", "--full-scan"),
    ],
)
def test_determinism_byte_identical(tmp_path, args):
    out = tmp_path / "rep.json"
    run_cli(*args, "--seed", "123", "--output", str(out))
    first = load_report(out)
    run_cli(*args, "--seed", "123", "--output", str(out))
    second = load_report(out)
    assert canonical(first) == canonical(second)


def test_shatter_graph_input(tmp_path):
    g = tmp_path / "g.txt"
    g.write_text("3 3\n0\n1\n2\n")  # a perfect matching
    out = tmp_path / "sh.json"
    r = run_cli("shatter", "--k", "2", "--graph", str(g), "--side", "a",
                "--seed", "1", "--output", str(out))
    assert r.returncode == 0
    assert load_report(out)["achieved"]["shatter"] == 3


@pytest.mark.parametrize("side, shatter", [("a", 3), ("b", 2)])
def test_shatter_graph_input_sides(tmp_path, side, shatter):
    # side a: the rows {0, 1}, {0}, {} over B = {0, 1} give three traces;
    # side b: the two columns {0, 1}, {0} over A give at most two
    g = tmp_path / "g.txt"
    g.write_text("3 2\n0 1\n0\n\n")
    out = tmp_path / "sh.json"
    r = run_cli("shatter", "--k", "2", "--graph", str(g), "--side", side,
                "--seed", "1", "--output", str(out))
    assert r.returncode == 0
    assert load_report(out)["achieved"]["shatter"] == shatter


def test_containment_csv_series(tmp_path):
    out, csvp = tmp_path / "c.json", tmp_path / "c.csv"
    r = run_cli("containment-patterns", "--p", "5", "--vars", "2", "--k", "4",
                "--degree", "2", "--t", "2", "--seed", "2",
                "--output", str(out), "--csv", str(csvp))
    assert r.returncode == 0
    lines = csvp.read_text().splitlines()
    assert lines[0] == "k_prefix,pattern_count"
    assert len(lines) == 5
    rep = load_report(out)
    counts = rep["achieved"]["counts_by_prefix"]
    assert counts == sorted(counts)


def test_sphere_geometry_cli(tmp_path):
    out = tmp_path / "sg.json"
    r = run_cli("sphere-geometry", "--p", "7", "--d", "3", "--families", "20",
                "--kmax", "4", "--seed", "11", "--output", str(out))
    assert r.returncode == 0
    rep = load_report(out)
    assert rep["achieved"]["identity_failures"] == 0
    assert rep["verification"]["pair_absence_ok"]


def test_pattern_scan_tree_mode(tmp_path):
    out = tmp_path / "ps.json"
    r = run_cli("pattern-scan", "--p", "3", "--d", "3", "--pattern", "tree",
                "--full-scan", "--seed", "1", "--output", str(out))
    assert r.returncode == 0
    rep = load_report(out)
    assert rep["verification"]["pattern_absent"]
    assert rep["achieved"]["pattern_shape"] == [9, 5]


def test_point_variety_cli(tmp_path):
    out, csvp = tmp_path / "pv.json", tmp_path / "pv.csv"
    r = run_cli("point-variety", "--m", "25", "--alpha", "1.0", "--dim", "2",
                "--seed", "8", "--output", str(out), "--csv", str(csvp))
    assert r.returncode == 0
    rep = load_report(out)
    assert rep["achieved"]["incidences"] >= rep["bound"]["incidences_min"]
    assert csvp.read_text().splitlines()[0] == "variety,section_degree,incident_points"


@pytest.mark.parametrize("flags, named", [
    (("--alpha", "0", "--dim", "2"), "--alpha"),
    (("--alpha", "1.0", "--dim", "0"), "--dim"),
])
def test_point_variety_rejects_dim_and_alpha_before_any_work(flags, named):
    # warnings stay on, so a construction started before the check would show
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONWARNINGS", None)
    r = subprocess.run([sys.executable, "-m", "ffil.cli", "point-variety", "--m", "20", *flags,
                        "--seed", "1"], capture_output=True, text=True, env=env)
    assert r.returncode == 1
    [line] = r.stderr.splitlines()  # no warning, no usage text
    assert line.startswith("error: need ") and named in line


@pytest.mark.parametrize("alpha", ["nan", "inf", "1e308"])
def test_point_variety_rejects_a_non_finite_alpha(alpha):
    # --alpha times --dim must be finite before its ceiling is taken
    test_point_variety_rejects_dim_and_alpha_before_any_work(("--alpha", alpha, "--dim", "2"), "--alpha")


@pytest.mark.parametrize("argv", [
    "point-variety --m 20 --alpha 3 --dim 2",  # C(72, 8) coefficients: 178 GiB
    "zarankiewicz --p 3 --d1 4 --d2 4 --m 3 --n 3 --s 2",  # the same draw
    "zero-patterns --p 3 --vars 5 --k 1 --degree 200",  # C(205, 5): 42.8 GiB
    "point-variety --m 20 --alpha 20 --dim 2",  # a grid of 5^42 points
    "point-variety --m 20 --alpha 1000 --dim 2",  # 20^1000 overflows a float
    "point-variety --m 20 --alpha 1e300 --dim 1",  # 5^(1 + 10^300) is never formed
], ids=["pv-terms", "zarankiewicz-terms", "zero-patterns-terms", "pv-grid", "pv-overflow", "pv-huge"])
def test_oversized_random_polynomials_exit_3_before_any_draw(argv):
    r = run_cli(*argv.split(), "--seed", "1")
    assert r.returncode == 3
    [line] = r.stderr.splitlines()
    assert line.startswith("resource error:")


def test_a_warning_is_one_stderr_line_without_a_source_location(tmp_path):
    # warnings stay on: the construction's UserWarning reaches stderr as one
    # line, whatever the layout of the source files
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONWARNINGS", None)
    r = subprocess.run([sys.executable, "-m", "ffil.cli", "zarankiewicz", "--p", "31", "--d1", "2",
                        "--d2", "2", "--m", "400", "--n", "400", "--s", "4", "--seed", "1",
                        "--output", str(tmp_path / "r.json")], capture_output=True, text=True, env=env)
    assert r.returncode == 0
    assert r.stderr == (
        "warning: s^2 = 16 exceeds min(delta, sqrt(p)) = 5: point values are not guaranteed "
        "independent at this scale; freeness is still verified exactly\n"
    )


@pytest.mark.parametrize("category", [RuntimeWarning, DeprecationWarning])
def test_error_warning_filters_still_raise_from_a_command(tmp_path, monkeypatch, category):
    # pyproject.toml turns these categories into errors; main must not record them away
    import warnings

    import ffil.cli

    def warn(args, rng):
        warnings.warn("checked", category)
        return {"verification": {}}, None

    monkeypatch.setattr(ffil.cli, "cmd_indep_set", warn)
    with pytest.raises(category, match="checked"):
        ffil.cli.main(["indep-set", "--n", "1", "--m", "0", "--k", "2", "--seed", "1",
                       "--output", str(tmp_path / "r.json")])
