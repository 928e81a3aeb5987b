"""The vectorized search kernels against their scalar reference copies.

`search_reference` holds the K_{s,s}, induced-pattern and sphere-flat
searches, the sphere-family check and the pattern-family and shatter loops
as they were written before vectorization. Here the fast kernels must give
the same witness or None, spend exactly as many probes or nodes (the
reference raises at cap c - 1 and not at c, c being the count the fast
kernel reports), list the same flats in the same order, give the same
family verdicts, collect the same patterns with the same witnesses in the
same order, and give the same shatter values after visiting as many
subsets.
"""

import itertools
import json
import math

import numpy as np
import pytest

import ffil.cli
import ffil.constructions
import ffil.geometry
import search_reference as ref
from search_reference import same_graph
from ffil import bigraph, patterns
from ffil.bigraph import (
    BipartiteGraph,
    Pattern,
    contains_kss,
    find_induced_pattern,
    prefix_tree_pattern,
    staircase_pattern,
)
from ffil.errors import DomainError, ResourceLimitError
from ffil.geometry import (
    AffineFlat,
    BilinearForm,
    Sphere,
    flats_in_sphere_check,
    intersect_spheres_to_flat,
    point_sphere_incidence,
    sphere_family_check,
    sphere_points,
    unit_distance_graph,
)
from ffil.gf import FieldCtx
from ffil.mpoly import ENUM_CAP, domain_points
from ffil.patterns import SetSystem, _collect, shatter_function
from ffil.rng import Rng


def random_graph(r, max_side, density):
    m = 1 + r.randbelow(max_side)
    n = 1 + r.randbelow(max_side)
    edges = [(i, j) for i in range(m) for j in range(n) if r.bernoulli(density)]
    return BipartiteGraph(m, n, edges)


def assert_exact_count(count, *searches):
    """`count` is the exact work of each search: each raises
    ResourceLimitError at cap count - 1 and none does at cap count."""
    for search in searches:
        if count:
            with pytest.raises(ResourceLimitError):
                search(count - 1)
        search(count)


def check_kss(g, s):
    counters = {}
    got = contains_kss(g, s, counters=counters)
    assert got == ref.contains_kss(g, s)
    assert_exact_count(
        counters["kss_probes"],
        lambda cap: contains_kss(g, s, probe_cap=cap),
        lambda cap: ref.contains_kss(g, s, probe_cap=cap),
    )
    return got


# class sizes just below, on and past 64-bit word boundaries
WORD_SHAPES = [(63, 64), (64, 65), (65, 129), (129, 63), (1, 130)]


@pytest.mark.parametrize(
    "pair_cells", [1 << 18, 1, 40, 7], ids=["default", "column-sums", "small-blocks", "mixed"]
)
def test_kss_matches_reference(monkeypatch, pair_cells):
    # the block-size threshold only chooses how survivors are counted; every
    # choice must give the reference's witness and probes
    monkeypatch.setattr(bigraph, "_PAIR_CELLS", pair_cells)
    rng = Rng(2024)
    found = 0
    for trial in range(120):
        r = rng.derive(trial)
        g = random_graph(r, 24, (0.25, 0.5, 0.75, 0.9)[r.randbelow(4)])
        found += check_kss(g, 1 + r.randbelow(5)) is not None
    assert 10 < found < 110  # both verdicts are exercised
    found = 0
    for m, n in WORD_SHAPES:
        r = rng.derive(m * n)
        for density, s in ((0.05, 3), (0.1, 3), (0.3, 4)):
            edges = [(i, j) for i in range(m) for j in range(n) if r.bernoulli(density)]
            found += check_kss(BipartiteGraph(m, n, edges), min(s, m)) is not None
    assert 0 < found < 3 * len(WORD_SHAPES)


def test_kss_matches_reference_on_unit_distance_graphs():
    for p, d, sig in ((7, 2, (1, 1)), (5, 3, (1, 1, 1)), (3, 4, (1, 1, 1, -1))):
        form = BilinearForm(FieldCtx.prime(p), sig)
        double = unit_distance_graph(domain_points(p, d).tolist(), form)
        for s in (2, 3, 4):
            check_kss(double, s)


def test_kss_probe_count_of_trivial_searches():
    counters = {}
    g = BipartiteGraph(3, 2, [(0, 0)])
    assert contains_kss(g, 3, counters=counters) is None  # s above a class size
    assert counters == {"kss_probes": 0}
    assert contains_kss(g, 1, counters=counters) == ([0], [0])
    assert counters == {"kss_probes": 1}


def check_pattern(g, pat, rooted=False):
    """The kernel's witness and node count c are the reference's: the
    reference returns the same result at cap c, and both searches raise at
    cap c - 1 and not at c."""
    counters = {}
    got = find_induced_pattern(g, pat, counters=counters, rooted=rooted)
    count = counters["pattern_nodes"]
    assert find_induced_pattern(g, pat, node_cap=count, rooted=rooted) == got
    assert ref.find_induced_pattern(g, pat, node_cap=count, rooted=rooted) == got
    if count:
        for search in (find_induced_pattern, ref.find_induced_pattern):
            with pytest.raises(ResourceLimitError):
                search(g, pat, node_cap=count - 1, rooted=rooted)
    return got


def random_pattern(r, max_a, max_b):
    pa, pb = 1 + r.randbelow(max_a), 1 + r.randbelow(max_b)
    return Pattern(["".join("01*"[r.randbelow(3)] for _ in range(pb)) for _ in range(pa)])


# Bounds of the pattern kernel's block working set (states x class size).
# A bound only chooses how many states are expanded at once; every choice
# must give the reference's witness and nodes. 1 expands one state at a
# time; 300 expands two to four states of a class of 65 to 140 vertices, or
# 30 or more of a class of up to 10.
SMALL_BLOCKS = {"one-state": 1, "few-states": 300}


def test_pattern_matches_reference():
    rng = Rng(77)
    found = 0
    for trial in range(300):
        r = rng.derive(trial)
        g = random_graph(r, 10, (0.2, 0.5, 0.8)[r.randbelow(3)])
        pat = random_pattern(r, 4, 4)
        found += check_pattern(g, pat, rooted=trial % 5 == 4) is not None
    assert 30 < found < 270


def wide_graph(r, density):
    """Random host whose classes take 2 or 3 64-bit words each."""
    m, n = 65 + r.randbelow(76), 65 + r.randbelow(76)
    edges = [(i, j) for i in range(m) for j in range(n) if r.bernoulli(density)]
    return BipartiteGraph(m, n, edges)


@pytest.mark.parametrize(
    "density, pat",
    [
        (0.06, Pattern(["111"] * 3)),  # mostly absent: the whole tree, ~6,000 nodes
        (0.94, Pattern(["000"] * 3)),  # the same on complemented words
        (0.05, staircase_pattern(3)),  # both verdicts
        (0.5, None),  # random 3 x 3 patterns, found early
    ],
    ids=["sparse-k33", "dense-co-k33", "staircase", "random"],
)
@pytest.mark.parametrize(
    "cells", [*SMALL_BLOCKS.values(), bigraph._PATTERN_CELLS], ids=[*SMALL_BLOCKS, "default"]
)
def test_pattern_matches_reference_on_wide_hosts(monkeypatch, cells, density, pat):
    monkeypatch.setattr(bigraph, "_PATTERN_CELLS", cells)
    rng = Rng(int(100 * density))
    for trial in range(3):
        r = rng.derive(trial)
        g = wide_graph(r, density)
        for rooted in (False, True):
            check_pattern(g, pat or random_pattern(r, 3, 3), rooted)


def tree_host(p, d):
    """The `pattern-scan --pattern tree` host, built point by point: column
    (normal, c) holds the points x with <x, normal> = c."""
    grid = domain_points(p, d).tolist()
    normals = [v for v in grid if next((c for c in v if c), None) == 1]
    return BipartiteGraph.from_bool_matrix(
        [[sum(a * b for a, b in zip(pt, nrm)) % p == c for nrm in normals for c in range(p)]
         for pt in grid]
    )


@pytest.mark.parametrize("p, d", [(3, 3), (5, 3), (7, 3), (3, 4)])
def test_pattern_scan_tree_host_matches_loop(monkeypatch, capsys, p, d):
    hosts = []

    def spy(g, pat, counters=None, rooted=False):
        hosts.append(g)
        raise ResourceLimitError("host captured; the search is not needed")

    monkeypatch.setattr(ffil.cli, "find_induced_pattern", spy)
    argv = ["pattern-scan", "--p", str(p), "--d", str(d), "--pattern", "tree", "--full-scan"]
    assert ffil.cli.main(argv + ["--seed", "1"]) == 3
    capsys.readouterr()
    [g] = hosts
    ref_host = tree_host(p, d)
    assert same_graph(g, ref_host)


@pytest.mark.parametrize("pattern, p, d", [("pi", 5, 2), ("pi", 3, 3), ("tree", 3, 3), ("tree", 5, 3)])
def test_pattern_scan_sub_hosts_are_induced_from_the_host(monkeypatch, capsys, pattern, p, d):
    # sub-hosts are built from their sampled rows and columns alone; they
    # must be the induced subgraphs of the whole host on the same draws
    hosts = []

    def spy(g, pat, counters=None, rooted=False):
        hosts.append(g)

    monkeypatch.setattr(ffil.cli, "find_induced_pattern", spy)
    argv = ["pattern-scan", "--p", str(p), "--d", str(d), "--pattern", pattern, "--full-scan",
            "--hosts", "4", "--host-size", "20", "--seed", "7"]
    assert ffil.cli.main(argv) == 0
    capsys.readouterr()
    host, *subs = hosts
    rng = Rng(7)
    for hi, sub in enumerate(subs):
        r = rng.derive(hi)
        want = host.induced(r.sample_indices(host.m, min(20, host.m)),
                            r.sample_indices(host.n, min(20, host.n)))
        assert same_graph(sub, want)


def test_pattern_matches_reference_tree_mode():
    # the host and sub-hosts of `pattern-scan --p 3 --d 3 --pattern tree`
    p, d = 3, 3
    host = tree_host(p, d)
    pat = prefix_tree_pattern(d - 1, 1)
    rng = Rng(5)
    for i in range(4):
        r = rng.derive(i)
        sub = host.induced(r.sample_indices(host.m, 15), r.sample_indices(host.n, 15))
        check_pattern(sub, pat)


@pytest.mark.parametrize("cells", SMALL_BLOCKS.values(), ids=SMALL_BLOCKS)
@pytest.mark.parametrize(
    "check",
    [test_pattern_matches_reference, test_pattern_matches_reference_tree_mode],
    ids=["random", "tree"],
)
def test_pattern_matches_reference_in_small_blocks(monkeypatch, cells, check):
    monkeypatch.setattr(bigraph, "_PATTERN_CELLS", cells)
    check()


# the --seed that perfbench/workloads.py gives the `incidence` workload's
# pattern-scan command at workload seed 1
INCIDENCE_SCAN_SEED = 455211955


def test_pattern_matches_reference_on_incidence_sub_hosts(monkeypatch, capsys):
    # the ten 40 x 40 sub-hosts of the benchmark's pattern-scan: 520,607
    # nodes in all, none holds the pattern
    searches = []

    def spy(g, pat, counters=None):
        searches.append((g, pat))
        return find_induced_pattern(g, pat, counters=counters)

    monkeypatch.setattr(ffil.cli, "find_induced_pattern", spy)
    argv = ["pattern-scan", "--p", "5", "--d", "3", "--hosts", "10", "--host-size", "40"]
    assert ffil.cli.main(argv + ["--seed", str(INCIDENCE_SCAN_SEED)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["counters"]["pattern_nodes"] == 520_607
    assert len(searches) == 10
    for g, pat in searches:
        assert check_pattern(g, pat) is None


def pi_host(grid, p, d):
    """The `pattern-scan --pattern pi --full-scan` host over a point list."""
    return point_sphere_incidence(grid, grid, BilinearForm.standard(FieldCtx.prime(p), d))


def is_embedding(g, pat, hit):
    map_a, map_b = hit
    return len(set(map_a)) == pat.a and len(set(map_b)) == pat.b and all(
        lbl == "*" or g.has_edge(map_a[i], map_b[j]) == (lbl == "1")
        for i, row in enumerate(pat.labels)
        for j, lbl in enumerate(row)
    )


# every full-scan `pi` host with p^d <= 81
@pytest.mark.parametrize("p, d", [(3, 2), (3, 3), (3, 4), (5, 2), (7, 2)])
def test_rooted_pattern_search_matches_plain(p, d):
    host = pi_host(domain_points(p, d).tolist(), p, d)
    pats = [staircase_pattern(k) for k in range(2, d + 2)]  # the last is pattern-scan's
    rng = Rng(100 * p + d)
    if d < 4:
        for _ in range(20):
            pa, pb = 2 + rng.randbelow(2), 2 + rng.randbelow(2)
            pats.append(
                Pattern(["".join("01*"[rng.randbelow(3)] for _ in range(pb)) for _ in range(pa)])
            )
    found = 0
    for pat in pats:
        if d < 4:  # the scalar reference takes seconds per search on F_3^4
            rooted = check_pattern(host, pat, rooted=True)
        else:
            rooted = find_induced_pattern(host, pat, rooted=True)
        plain = find_induced_pattern(host, pat)
        assert (rooted is None) == (plain is None)
        if rooted is not None:
            assert is_embedding(host, pat, rooted)
            found += 1
    assert 0 < found < len(pats)  # both answers are exercised


@pytest.mark.parametrize("host", ["point-removed", "permuted", "tree"])
def test_pattern_full_scan_off_the_full_grid_takes_plain_search(monkeypatch, capsys, host):
    grid = domain_points(3, 3)
    argv = ["pattern-scan", "--p", "3", "--d", "3", "--full-scan", "--seed", "1"]
    if host == "tree":
        argv += ["--pattern", "tree"]
    else:
        points = grid[:-1] if host == "point-removed" else grid[[1, 0] + list(range(2, 27))]
        monkeypatch.setattr(ffil.cli, "domain_points", lambda p, d: points)
    calls = []

    def spy(g, pat, counters=None, rooted=False):
        calls.append((g, pat, rooted))
        return find_induced_pattern(g, pat, counters=counters, rooted=rooted)

    monkeypatch.setattr(ffil.cli, "find_induced_pattern", spy)
    assert ffil.cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    [(g, pat, rooted)] = calls
    assert not rooted
    plain = {}
    find_induced_pattern(g, pat, counters=plain)
    assert report["counters"] == {"pattern_nodes": plain["pattern_nodes"], "rooted_searches": 0}


SIGNATURES = {
    "plus": lambda d: (1,) * d,
    "mixed": lambda d: (1,) * (d - 1) + (-1,),
    "minus": lambda d: (-1,) * d,
}
FLAT_CASES = [
    (p, d, cap)
    for p in (3, 5, 7, 11, 13)
    for d in (2, 3, 4)
    for cap in (0, 1, 2)
    if cap == 0 or p**d <= (343 if cap == 1 else 125) or (d == 2 and p**d <= 169)
] + [(3, 4, 3)]


@pytest.mark.parametrize("p, d, dim_cap", FLAT_CASES)
@pytest.mark.parametrize("sig", sorted(SIGNATURES))
def test_flats_match_reference(p, d, dim_cap, sig):
    form = BilinearForm(FieldCtx.prime(p), SIGNATURES[sig](d))
    for center in ((0,) * d, tuple((3 * i + 1) % p for i in range(d))):
        sphere = Sphere(form, center)
        got = flats_in_sphere_check(sphere, dim_cap).entries
        assert got == ref.flats_in_sphere_check(sphere, dim_cap).entries


def test_flats_match_reference_through_level_3():
    # the unit sphere of F_3^4 holds no planes, so the search stops before
    # level 3 there; the one of F_3^5 holds 80, and level 3 is searched
    sphere = Sphere(BilinearForm.standard(FieldCtx.prime(3), 5), (0,) * 5)
    got = flats_in_sphere_check(sphere, 3)
    assert [len(got.by_dim(r)) for r in range(4)] == [90, 480, 80, 0]
    assert got.entries == ref.flats_in_sphere_check(sphere, 3).entries


def test_flat_checks_match_reference_off_the_sphere(monkeypatch):
    # every flat inside a sphere passes both checks; on a point set that is
    # not a sphere, the plane x_3 = 0 of F_5^3, most lines and the plane
    # fail them, and the verdicts must agree all the same
    plane = [tuple(int(v) for v in pt) for pt in domain_points(5, 3) if pt[2] == 0]
    for module in (ffil.geometry, ref):
        monkeypatch.setattr(module, "sphere_points", lambda sphere, cap=None: plane)
    sphere = Sphere(BilinearForm.standard(FieldCtx.prime(5), 3), (0, 0, 1))
    got = flats_in_sphere_check(sphere, 2)
    assert [len(got.by_dim(r)) for r in range(3)] == [25, 30, 1]
    assert {(e.isotropic_ok, e.radial_ok) for e in got.by_dim(1)} == {
        (False, False), (True, False), (True, True)
    }
    assert got.entries == ref.flats_in_sphere_check(sphere, 2).entries


def _translated(flat):
    """`flat` moved by the first unit vector off its directions (None for the
    empty and the full flat)."""
    if flat.is_empty or flat.dim == flat.ambient:
        return None
    for j in range(flat.ambient):
        e = tuple(int(i == j) for i in range(flat.ambient))
        if not flat.contains(tuple(b + v for b, v in zip(flat.base, e))):
            return AffineFlat(flat.ctx, flat.ambient, tuple(b + v for b, v in zip(flat.base, e)),
                              flat.basis)


@pytest.mark.parametrize("p", (3, 5, 7, 13))
@pytest.mark.parametrize("d", (1, 2, 3, 4))
def test_sphere_family_rows_match_reference(monkeypatch, tmp_path, p, d):
    """The sphere-geometry CSV rows and centers against the reference family
    loop, with every center drawn as a row of the grid and k from 2 to 5;
    then two wrong flats in place of the intersection flat U: the full space
    and a translate of U."""
    seed, families = 100 * p + d, 20
    csv_path = tmp_path / "sg.csv"
    drawn = []

    def spy(spheres, flat):
        drawn.append([s.center for s in spheres])
        return sphere_family_check(spheres, flat)

    monkeypatch.setattr(ffil.geometry, "sphere_family_check", spy)
    ffil.cli.main(["sphere-geometry", "--p", str(p), "--d", str(d), "--families", str(families),
                   "--kmax", "5", "--flat-dim-cap", "0", "--seed", str(seed),
                   "--output", str(tmp_path / "sg.json"), "--csv", str(csv_path)])
    got = [[int(v) for v in ln.split(",")] for ln in csv_path.read_text().splitlines()[1:]]
    ctx = FieldCtx.prime(p)
    form = BilinearForm.standard(ctx, d)
    grid = [tuple(int(v) for v in r) for r in domain_points(p, d)]
    rng = Rng(seed)
    want = []
    rejected = 0
    for fi in range(families):
        r = rng.derive(fi)
        k = 2 + r.randbelow(4)
        spheres = [Sphere(form, grid[r.randbelow(len(grid))]) for _ in range(k)]
        assert drawn[fi] == [s.center for s in spheres]
        flat = intersect_spheres_to_flat(spheres)
        ok = ref.sphere_family_check(spheres, flat)
        assert sphere_family_check(spheres, flat) == ok
        want.append([fi, k, int(ok[0]), int(ok[1])])
        meet = any(all(s.contains(x) for s in spheres) for x in sphere_points(spheres[0]))
        # the full space is wrong unless the centers agree; a translate of
        # the flat misses the common points, if there are any
        for wrong, is_wrong in ((AffineFlat.full(ctx, d), flat.dim < d),
                                (_translated(flat), meet)):
            if wrong is not None:
                verdict = sphere_family_check(spheres, wrong)
                assert verdict == ref.sphere_family_check(spheres, wrong)
                assert not (is_wrong and verdict[0])
                rejected += is_wrong
    assert got == want
    assert all(row[2:] == [1, 1] for row in want)
    assert rejected > 0


@pytest.mark.parametrize(
    "argv",
    [
        ["unit-distance", "--d", "2", "--p", "7", "--s", "3"],
        ["unit-distance", "--d", "2", "--p", "7", "--s", "2"],  # witness, then smallest_free_s
        ["unit-distance", "--d", "3", "--p", "7", "--s", "4"],
        ["unit-distance", "--d", "2", "--s", "2", "--n", "100"],  # subsampled grid
        ["zarankiewicz", "--p", "7", "--d1", "1", "--d2", "1", "--m", "7", "--n", "7", "--s", "2"],
        ["point-variety", "--m", "25", "--alpha", "1.0", "--dim", "2"],
        ["pattern-scan", "--p", "3", "--d", "3", "--hosts", "3", "--host-size", "12"],
        ["pattern-scan", "--full-scan", "--p", "3", "--d", "3"],
    ],
    ids=lambda argv: argv[0] + "-" + argv[-1],
)
def test_report_counters_equal_reference_counts(monkeypatch, capsys, argv):
    """A report's counters block sums the exact work of its searches, and
    counts in rooted_searches those run on a rooted host: the n x |S| block
    of a full-grid unit-distance graph (the graph itself is square), or a
    rooted pattern search."""
    searches = []  # (reference search with a cap, count the kernel reported)
    on_root = []  # one entry per search run on a rooted host

    def spy_kss(g, s, probe_cap=bigraph.PROBE_CAP, counters=None):
        own = {}
        hit = contains_kss(g, s, probe_cap, own)
        searches.append((lambda cap: ref.contains_kss(g, s, probe_cap=cap), own["kss_probes"]))
        counters["kss_probes"] += own["kss_probes"]
        if argv[0] == "unit-distance" and g.m != g.n:
            on_root.append(g)
        return hit

    def spy_pattern(g, pat, node_cap=bigraph.PROBE_CAP, counters=None, rooted=False):
        own = {}
        hit = find_induced_pattern(g, pat, node_cap, own, rooted)
        searches.append(
            (
                lambda cap: ref.find_induced_pattern(g, pat, node_cap=cap, rooted=rooted),
                own["pattern_nodes"],
            )
        )
        counters["pattern_nodes"] += own["pattern_nodes"]
        if rooted:
            on_root.append(g)
        return hit

    monkeypatch.setattr(ffil.constructions, "contains_kss", spy_kss)
    monkeypatch.setattr(bigraph, "contains_kss", spy_kss)  # smallest_free_s
    monkeypatch.setattr(ffil.cli, "find_induced_pattern", spy_pattern)
    code = ffil.cli.main(argv + ["--seed", "1"])
    report = json.loads(capsys.readouterr().out)
    assert code in (0, 2)
    key = "pattern_nodes" if argv[0] == "pattern-scan" else "kss_probes"
    expected = {key: sum(count for _, count in searches)}
    if argv[0] in ("unit-distance", "pattern-scan"):
        expected["rooted_searches"] = len(on_root)
    assert report["counters"] == expected
    assert report["counters"][key] > 0
    # the full grids (no --n subsample, a full scan) take the rooted search
    assert bool(on_root) == ("--p" in argv if argv[0] == "unit-distance" else "--full-scan" in argv)
    for search, count in searches:
        assert_exact_count(count, search)


# -- pattern layer ------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 7, 8, 9, 40, 65])
def test_collect_matches_reference(k):
    # packed rows of 1 to 9 bytes, one row to many, with repeated rows and
    # all-true and all-false rows
    r = np.random.default_rng(k)
    for nrows in (1, 6, 300):
        for density in (0.0, 0.1, 0.5, 0.9, 1.0):
            mat = r.random((nrows, k)) < density
            if nrows > 2:
                mat[1], mat[2] = True, False
                mat[r.integers(0, nrows, nrows // 2)] = mat[r.integers(0, nrows, nrows // 2)]
            pts = r.integers(0, 97, size=(nrows, 3))
            fast, slow = _collect(pts, mat), ref._collect(pts, mat)
            assert fast.k == slow.k == k
            assert list(fast.witnesses.items()) == list(slow.witnesses.items())
            assert all(type(x) is int for w in fast.witnesses.values() for x in w)


def reference_shatter(monkeypatch, system, k, cap=ENUM_CAP):
    """(reference pi_F(k), number of k-subsets its loop visits)."""
    visited = 0
    combinations = itertools.combinations

    def counting(*args):
        nonlocal visited
        for subset in combinations(*args):
            visited += 1
            yield subset

    with monkeypatch.context() as m:
        m.setattr(itertools, "combinations", counting)  # imported by the reference per call
        value = ref.shatter_function(system, k, cap)
    return value, visited


def check_shatter(monkeypatch, system, k, cap=ENUM_CAP):
    """Value and visited-subset count of the kernel against the reference, or
    the same error; returns the reference's (value, visited) or None."""
    counters = {}
    try:
        want = reference_shatter(monkeypatch, system, k, cap)
    except (DomainError, ResourceLimitError) as exc:
        with pytest.raises(type(exc)):
            shatter_function(system, k, cap, counters)
        return None
    assert (shatter_function(system, k, cap, counters), counters["shatter_subsets"]) == want
    return want


def random_system(r):
    """At most 10 ground elements and 14 members, duplicate and empty ones included."""
    n = int(r.integers(0, 11))
    density = r.random()
    members = [
        int(sum(1 << int(v) for v in np.flatnonzero(r.random(n) < density)))
        for _ in range(int(r.integers(0, 15)))
    ]
    if len(members) > 2:
        members[-1], members[1] = members[0], 0
    return SetSystem(n, members)


SHATTER_BLOCKS = {"one-prefix": 1, "few-prefixes": 200, "default": patterns._SHATTER_CELLS}


@pytest.mark.parametrize("cells", SHATTER_BLOCKS.values(), ids=SHATTER_BLOCKS)
def test_shatter_matches_reference(monkeypatch, cells):
    monkeypatch.setattr(patterns, "_SHATTER_CELLS", cells)
    r = np.random.default_rng(cells)
    systems = [SetSystem(0, []), SetSystem(6, []), SetSystem(4, [0, 0]), SetSystem(3, [7, 7, 0])]
    systems += [random_system(r) for _ in range(80)]
    stops = {"first": 0, "later": 0, "none": 0}
    for system in systems:
        n = system.ground_size
        for k in range(n + 2):  # k = n + 1 raises
            got = check_shatter(monkeypatch, system, k)
            if got is not None and len(system.members):
                visited = got[1]
                stops["none" if got[0] < min(2**k, len(system.members)) else
                      "first" if visited == 1 else "later"] += 1
        k = n // 2
        for cap in (math.comb(n, k) - 1, math.comb(n, k)):  # raises at the first only
            check_shatter(monkeypatch, system, k, cap)
    assert min(stops.values()) > 0, stops


def test_shatter_matches_reference_on_benchmark_shaped_system(monkeypatch):
    # ground 40, 150 members of 2 to 4 elements, as the pattern-enum
    # benchmark draws them: no 4-subset is shattered, so k = 4 visits all
    # C(40, 4) = 91,390 subsets
    r = np.random.default_rng(1)
    members = [r.choice(40, size=int(r.integers(2, 5)), replace=False).tolist()
               for _ in range(150)]
    system = SetSystem(40, members)
    visits = [check_shatter(monkeypatch, system, k)[1] for k in (2, 3, 4)]
    assert visits[0] < visits[1] < visits[2] == math.comb(40, 4)


def test_shatter_checks_k_and_cap_before_any_matrix(monkeypatch):
    def no_matrix(*args):
        raise AssertionError("the member matrix was built before the checks")

    monkeypatch.setattr(patterns, "_unpack", no_matrix)
    system = SetSystem(200, [0b11, 0b1100 | 1 << 199])
    with pytest.raises(ResourceLimitError):
        shatter_function(system, 5)  # C(200, 5) > ENUM_CAP
    with pytest.raises(DomainError):
        shatter_function(system, 201)


# the sparse system never reaches 16 traces (all 495 subsets are visited),
# the dense one stops at its 54th subset
@pytest.mark.parametrize("density", [0.2, 0.6])
def test_shatter_report_counts_reference_subsets(monkeypatch, capsys, tmp_path, density):
    r = np.random.default_rng(int(10 * density))
    members = [np.flatnonzero(r.random(12) < density).tolist() for _ in range(30)]
    sets = tmp_path / "sets.json"
    sets.write_text(json.dumps({"ground": 12, "members": members}))
    reports = []
    for _ in range(2):
        assert ffil.cli.main(["shatter", "--k", "4", "--input", str(sets), "--seed", "1"]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    value, visited = reference_shatter(monkeypatch, SetSystem(12, members), 4)
    assert reports[0]["achieved"]["shatter"] == value
    assert reports[0]["counters"] == reports[1]["counters"] == {"shatter_subsets": visited}
