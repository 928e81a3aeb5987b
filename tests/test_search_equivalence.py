"""The vectorized search kernels against their scalar reference copies.

`search_reference` holds the K_{s,s}, induced-pattern and sphere-flat
searches, the sphere-family check and the pattern-family and shatter loops
as they were written before vectorization. Here the fast kernels must give
the same witness or None, spend exactly as many probes or nodes (the
reference raises at cap c - 1 and not at c, c being the count the fast
kernel reports), list the same flats in the same order (a flats check:
those through the sphere's least point, with the same verdicts and counts), give
the same family verdicts, collect the same patterns with the same witnesses in the
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
from ffil import bigraph, mpoly, patterns
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
    _affine_closure,
    _flat_levels,
    flats_in_sphere_check,
    intersect_spheres_to_flat,
    intersection_flats,
    isotropic_unit_pair_search,
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


def under_cap(module, name, search):
    """search() as a function of a cap, as the reference searches take one:
    each call runs it with module.name monkeypatched to that cap."""

    def run(cap):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(module, name, cap)
            return search()

    return run


def check_kss(g, s):
    counters = {}
    got = contains_kss(g, s, counters=counters)
    assert got == ref.contains_kss(g, s)
    assert_exact_count(
        counters["kss_probes"],
        under_cap(bigraph, "PROBE_CAP", lambda: contains_kss(g, s)),
        lambda cap: ref.contains_kss(g, s, probe_cap=cap),
    )
    return got


# Bounds of the search kernels' block working set (states x class size, or
# one slice of a K_{s,s} count product). A bound only chooses how many
# states are expanded and counted at once; every choice must give the
# reference's witness and probes or nodes. 1 expands one state at a time and
# counts over one vertex at a time; 300 expands two to four states of a
# class of 65 to 140 vertices, or 12 or more of a class of up to 24.
SMALL_BLOCKS = {"one-state": 1, "few-states": 300}


# class sizes just below, on and past 64-bit word boundaries
WORD_SHAPES = [(63, 64), (64, 65), (65, 129), (129, 63), (1, 130)]


@pytest.mark.parametrize(
    "cells", [*SMALL_BLOCKS.values(), bigraph._BLOCK_CELLS], ids=[*SMALL_BLOCKS, "default"]
)
def test_kss_matches_reference(monkeypatch, cells):
    monkeypatch.setattr(bigraph, "_BLOCK_CELLS", cells)
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
    # the rooted block `unit-distance --d 3 --p 7` certifies: the full grid
    # against the origin's unit sphere, 343 x 42
    form = BilinearForm.for_dim(FieldCtx.prime(7), 3)
    sphere = ffil.geometry._origin_sphere_points(form)
    block = point_sphere_incidence(domain_points(7, 3).tolist(), sphere, form)
    assert (block.m, block.n) == (343, 42)
    counters = {}
    assert check_kss(block, 4) is None
    contains_kss(block, 4, counters=counters)
    assert counters["kss_probes"] == 11218


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
    kernel = under_cap(bigraph, "PROBE_CAP", lambda: find_induced_pattern(g, pat, rooted=rooted))
    assert kernel(count) == got
    assert ref.find_induced_pattern(g, pat, node_cap=count, rooted=rooted) == got
    if count:
        for search in (kernel, lambda cap: ref.find_induced_pattern(g, pat, node_cap=cap, rooted=rooted)):
            with pytest.raises(ResourceLimitError):
                search(count - 1)
    return got


def random_pattern(r, max_a, max_b):
    pa, pb = 1 + r.randbelow(max_a), 1 + r.randbelow(max_b)
    return Pattern(["".join("01*"[r.randbelow(3)] for _ in range(pb)) for _ in range(pa)])


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
    "cells", [*SMALL_BLOCKS.values(), bigraph._BLOCK_CELLS], ids=[*SMALL_BLOCKS, "default"]
)
def test_pattern_matches_reference_on_wide_hosts(monkeypatch, cells, density, pat):
    monkeypatch.setattr(bigraph, "_BLOCK_CELLS", cells)
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
    monkeypatch.setattr(bigraph, "_BLOCK_CELLS", cells)
    check()


def twin_pattern(r, max_a, max_b):
    """Random pattern with at least one pair of equal rows and one pair of
    equal columns: rows and columns drawn with repetition from a random
    pattern, one or two more of each than it has."""
    base = random_pattern(r, max_a, max_b)
    rows = [base.labels[r.randbelow(base.a)] for _ in range(base.a + 1 + r.randbelow(2))]
    cols = [r.randbelow(base.b) for _ in range(base.b + 1 + r.randbelow(2))]
    return Pattern(["".join(row[j] for j in cols) for row in rows])


def check_against_plain(g, pat):
    """The twin rule changes no witness and adds no node: the kernel (checked
    against the twin-ordered reference) returns the plain search's witness,
    and the plain search spends at least the kernel's count c (it raises at
    cap c - 1)."""
    counters = {}
    got = check_pattern(g, pat)
    find_induced_pattern(g, pat, counters=counters)
    assert ref.find_induced_pattern(g, pat, twins=False) == got
    if counters["pattern_nodes"]:
        with pytest.raises(ResourceLimitError):
            ref.find_induced_pattern(g, pat, node_cap=counters["pattern_nodes"] - 1, twins=False)
    return got


@pytest.mark.parametrize(
    "cells", [*SMALL_BLOCKS.values(), bigraph._BLOCK_CELLS], ids=[*SMALL_BLOCKS, "default"]
)
def test_twin_rule_keeps_the_plain_witness(monkeypatch, cells):
    monkeypatch.setattr(bigraph, "_BLOCK_CELLS", cells)
    rng = Rng(1996)
    found = 0
    for trial in range(150):
        r = rng.derive(trial)
        g = random_graph(r, 12, (0.2, 0.5, 0.8)[r.randbelow(3)])
        found += check_against_plain(g, twin_pattern(r, 3, 3)) is not None
    assert 15 < found < 135  # both verdicts are exercised
    found = 0
    for m, n in WORD_SHAPES:
        r = rng.derive(m * n)
        for density in (0.1, 0.5, 0.9):
            edges = [(i, j) for i in range(m) for j in range(n) if r.bernoulli(density)]
            g = BipartiteGraph(m, n, edges)
            found += check_against_plain(g, twin_pattern(r, 2, 2)) is not None
    assert 0 < found < 3 * len(WORD_SHAPES)


# the --seed that perfbench/workloads.py gives the `incidence` workload's
# pattern-scan command at workload seed 1
INCIDENCE_SCAN_SEED = 455211955


def test_pattern_matches_reference_on_incidence_sub_hosts(monkeypatch, capsys):
    # the ten 40 x 40 sub-hosts of the benchmark's pattern-scan: 180,715
    # nodes in all (520,607 before the twin rule), none holds the pattern
    searches = []

    def spy(g, pat, counters=None):
        searches.append((g, pat))
        return find_induced_pattern(g, pat, counters=counters)

    monkeypatch.setattr(ffil.cli, "find_induced_pattern", spy)
    argv = ["pattern-scan", "--p", "5", "--d", "3", "--hosts", "10", "--host-size", "40"]
    assert ffil.cli.main(argv + ["--seed", str(INCIDENCE_SCAN_SEED)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["counters"]["pattern_nodes"] == 180_715
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


# every full-scan `pi` host with p^d <= 81
@pytest.mark.parametrize("p, d", [(3, 2), (3, 3), (3, 4), (5, 2), (7, 2)])
def test_rooted_twin_search_existence_matches_plain_reference(p, d):
    host = pi_host(domain_points(p, d).tolist(), p, d)
    rng = Rng(10 * p + d)
    pats = [staircase_pattern(k) for k in range(2, d + 2)]  # the last is pattern-scan's
    pats += [twin_pattern(rng.derive(i), 2, 2) for i in range(6)]
    found = 0
    for pat in pats:
        plain = ref.find_induced_pattern(host, pat, rooted=True, twins=False)
        if d < 4:  # the plain unrooted search of F_3^4 for staircase_pattern(5) takes 43 s
            assert (ref.find_induced_pattern(host, pat, twins=False) is None) == (plain is None)
        assert (find_induced_pattern(host, pat, rooted=True) is None) == (plain is None)
        found += plain is not None
    assert 0 < found < len(pats)


@pytest.mark.parametrize("p, nodes", [(5, 83_881), (7, 18_733)])
def test_pattern_full_scan_node_counts(capsys, p, nodes):
    # the rooted, twin-ordered search on F_p^3; the plain rooted search
    # spent 326,941 (p = 5) and 59,893 (p = 7) nodes
    argv = ["pattern-scan", "--p", str(p), "--d", "3", "--full-scan", "--seed", "1"]
    assert ffil.cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["counters"] == {"pattern_nodes": nodes, "rooted_searches": 1}


def test_pattern_full_scan_tree_takes_plain_search(monkeypatch, capsys):
    # the hyperplane host is not translation-invariant, so it is not rooted
    argv = ["pattern-scan", "--p", "3", "--d", "3", "--full-scan", "--pattern", "tree",
            "--seed", "1"]
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


def _dim_counts(records):
    """The number of flat records of each dimension, up to the largest one present."""
    dims = [e.dim for e in records]
    return [dims.count(r) for r in range(max(dims, default=0) + 1)]


def _level_arrays(report):
    """The level arrays of a flats report as lists: per level, each flat's
    sorted lex codes, and its two verdicts."""
    return [(rows.tolist(), iso.tolist(), radial.tolist())
            for rows, iso, radial in zip(report.rows, report.isotropic_ok, report.radial_ok)]


def _rooted_levels(records, s0, p, d):
    """The reference's records with base s0 as level arrays, by dimension up
    to the largest one present."""
    rooted = [e for e in records if e.base == s0]
    weights = [p ** (d - 1 - i) for i in range(d)]
    levels = []
    for r in range(max((e.dim for e in rooted), default=0) + 1):
        flats = [e for e in rooted if e.dim == r]
        points = [AffineFlat(FieldCtx.prime(p), d, e.base, e.basis).points() for e in flats]
        codes = [sorted(sum(w * v for w, v in zip(weights, x)) for x in pts) for pts in points]
        levels.append((codes, [e.isotropic_ok for e in flats], [e.radial_ok for e in flats]))
    return levels


@pytest.mark.parametrize("p, d, dim_cap", FLAT_CASES)
@pytest.mark.parametrize("sig", sorted(SIGNATURES))
def test_flats_match_reference(p, d, dim_cap, sig):
    # the check's level arrays are the reference's flats with base s_0, the
    # sphere's least point, flat by flat with both verdicts, and it counts
    # all of the reference's flats
    form = BilinearForm(FieldCtx.prime(p), SIGNATURES[sig](d))
    for center in ((0,) * d, tuple((3 * i + 1) % p for i in range(d))):
        sphere = Sphere(form, center)
        want = ref.flats_in_sphere_check(sphere, dim_cap)
        s0 = (sphere_points(sphere) or [None])[0]
        got = flats_in_sphere_check(sphere, dim_cap)
        assert _level_arrays(got) == _rooted_levels(want, s0, p, d)
        assert got.counts == _dim_counts(want)


@pytest.mark.parametrize("p, d, dim_cap", FLAT_CASES)
@pytest.mark.parametrize("sig", sorted(SIGNATURES))
def test_flats_match_reference_in_blocks_of_one(monkeypatch, p, d, dim_cap, sig):
    # one flat, one pair and one coset per block: every block boundary of
    # the flats pass is crossed
    monkeypatch.setattr(ffil.geometry, "_FLAT_CELLS", 1)
    test_flats_match_reference(p, d, dim_cap, sig)


def test_flats_match_reference_through_level_3():
    # the unit sphere of F_3^4 holds no planes, so the search stops before
    # level 3 there; the one of F_3^5 holds 80, and level 3 is searched
    sphere = Sphere(BilinearForm.standard(FieldCtx.prime(3), 5), (0,) * 5)
    want = ref.flats_in_sphere_check(sphere, 3)
    got = flats_in_sphere_check(sphere, 3)
    assert got.counts == _dim_counts(want) == [90, 480, 80]
    assert _level_arrays(got) == _rooted_levels(want, sphere_points(sphere)[0], 3, 5)


def test_flat_checks_match_reference_off_the_sphere(monkeypatch):
    # every flat inside a sphere passes both checks; on a point set that is
    # not a sphere, the plane x_3 = 0 of F_5^3, some lines through s_0 = 0
    # and the plane fail them, and the verdicts must agree all the same. The
    # walk gets the plane's points as the sphere's array; translations move
    # any of them to any other, so the rooted counts still hold
    plane = [tuple(int(v) for v in pt) for pt in domain_points(5, 3) if pt[2] == 0]
    monkeypatch.setattr(ref, "sphere_points", lambda sphere: plane)
    monkeypatch.setattr(ffil.geometry, "_sphere_array", lambda sphere: np.array(plane, dtype=np.int64))
    sphere = Sphere(BilinearForm.standard(FieldCtx.prime(5), 3), (2, 4, 1))
    got = flats_in_sphere_check(sphere, 2)
    assert got.counts == [25, 30, 1]
    assert set(zip(got.isotropic_ok[1].tolist(), got.radial_ok[1].tolist())) == {
        (False, False), (True, False), (True, True)
    }
    assert _level_arrays(got) == _rooted_levels(ref.flats_in_sphere_check(sphere, 2), plane[0], 5, 3)


@pytest.mark.parametrize("p, d, dim_cap", FLAT_CASES)
@pytest.mark.parametrize("sig", sorted(SIGNATURES))
def test_rooted_walk_lists_the_reference_flats_through_the_least_point(p, d, dim_cap, sig):
    # rooted at the origin sphere's lex-first point s_0, the walk lists the
    # reference's flats with base s_0, level by level; with first_flat it
    # lists the same levels but stops its last one at the first pass block
    # that yields a flat
    form = BilinearForm(FieldCtx.prime(p), SIGNATURES[sig](d))
    sphere = Sphere(form, (0,) * d)
    arr = np.array(sphere_points(sphere), dtype=np.int64).reshape(-1, d)
    s0 = tuple(arr[0].tolist()) if len(arr) else None
    records = ref.flats_in_sphere_check(sphere, dim_cap)
    want = [[(e.base, e.basis) for e in records if e.dim == r and e.base == s0] for r in range(dim_cap + 1)]

    def walk(first_flat):
        levels = [[(f.base, f.basis) for f in (_affine_closure(form.ctx, g) for g in gens.tolist())]
                  for _, gens in _flat_levels(arr, p, dim_cap, first_flat)]
        return levels + [[]] * (dim_cap + 1 - len(levels))

    assert walk(False) == want
    *whole, last = walk(True)
    assert whole == want[:-1]
    assert all(rec in want[-1] for rec in last) and bool(last) == bool(want[-1])


@pytest.mark.parametrize("p, d, dim_cap", FLAT_CASES)
@pytest.mark.parametrize("sig", sorted(SIGNATURES))
def test_rooted_walk_lists_the_reference_flats_in_blocks_of_one(monkeypatch, p, d, dim_cap, sig):
    monkeypatch.setattr(ffil.geometry, "_FLAT_CELLS", 1)
    test_rooted_walk_lists_the_reference_flats_through_the_least_point(p, d, dim_cap, sig)


PAIR_CASES = [
    (p, sig) for d in (1, 3) for sig in itertools.product((1, -1), repeat=d)
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
] + [
    (p, sig) for sig in ((1,) * 5, (1,) * 4 + (-1,), (1,) * 3 + (-1,) * 2, (-1,) * 5)
    for p in (3, 5, 7, 11)
]
SMALL_PAIR_CASES = [(p, sig) for p, sig in PAIR_CASES if p <= 5]


def _pair_ids(cases):
    return ["p%d%s" % (p, "".join("+-"[s < 0] for s in sig)) for p, sig in cases]


@pytest.mark.parametrize("p, sig", PAIR_CASES, ids=_pair_ids(PAIR_CASES))
def test_isotropic_unit_pair_search_matches_reference(p, sig):
    # the rooted flats walk and the RREF enumeration agree on whether a pair
    # exists, and each pair either returns is a pair
    form = BilinearForm(FieldCtx.prime(p), sig)
    got = isotropic_unit_pair_search(form)
    want = ref.isotropic_unit_pair_search(form)
    assert (got is None) == (want is None)
    for flat, w in filter(None, (got, want)):
        assert form.norm_sq(w) == 1 and all(form.inner(w, b) == 0 for b in flat.basis)
        assert flat.base == (0,) * len(sig) and flat.dim == len(sig) // 2
        assert ref.is_totally_isotropic(form, flat)


@pytest.mark.parametrize("p, sig", SMALL_PAIR_CASES, ids=_pair_ids(SMALL_PAIR_CASES))
def test_isotropic_unit_pair_search_matches_reference_in_blocks_of_one(monkeypatch, p, sig):
    # one pair per pass block: the last level stops at the first block that
    # yields a flat, not at the first block
    monkeypatch.setattr(ffil.geometry, "_FLAT_CELLS", 1)
    test_isotropic_unit_pair_search_matches_reference(p, sig)


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
    then one mixed batch of every family with its flat U and with wrong
    flats in place of U: the empty flat, the full space and a translate of
    U, checked family by family against the reference; every fifth entry
    again in blocks of one family and one origin point."""
    seed, families = 100 * p + d, 20
    csv_path = tmp_path / "sg.csv"
    drawn = []

    def spy(fams, flats):
        drawn.extend([s.center for s in spheres] for spheres in fams)
        return sphere_family_check(fams, flats)

    monkeypatch.setattr(ffil.geometry, "sphere_family_check", spy)
    ffil.cli.main(["sphere-geometry", "--p", str(p), "--d", str(d), "--families", str(families),
                   "--kmax", "5", "--flat-dim-cap", "0", "--seed", str(seed),
                   "--output", str(tmp_path / "sg.json"), "--csv", str(csv_path)])
    got = [[int(v) for v in ln.split(",")] for ln in csv_path.read_text().splitlines()[1:]]
    ctx = FieldCtx.prime(p)
    form = BilinearForm.standard(ctx, d)
    grid = [tuple(int(v) for v in r) for r in domain_points(p, d)]
    rng = Rng(seed)
    want, batch, wrong, fams, flats = [], [], [], [], []
    assert len(drawn) == families
    for fi in range(families):
        r = rng.derive(fi)
        k = 2 + r.randbelow(4)
        spheres = [Sphere(form, grid[r.randbelow(len(grid))]) for _ in range(k)]
        assert drawn[fi] == [s.center for s in spheres]
        flat = intersect_spheres_to_flat(spheres)
        fams.append(spheres)
        flats.append(flat)
        ok = ref.sphere_family_check(spheres, flat)
        want.append([fi, k, int(ok[0]), int(ok[1])])
        meet = any(all(s.contains(x) for s in spheres) for x in sphere_points(spheres[0]))
        # the empty flat is wrong if the spheres meet, the full space unless
        # the centers agree; a translate of U misses the common points
        for other, is_wrong in ((flat, False), (AffineFlat.empty(ctx, d), meet),
                                (AffineFlat.full(ctx, d), flat.dim < d), (_translated(flat), meet)):
            if other is not None:
                batch.append((spheres, other))
                wrong.append(is_wrong)
    # a family padded to the largest k in a batch keeps its flat
    assert [(f.base, f.basis) for f in intersection_flats(fams)] == [(f.base, f.basis) for f in flats]
    assert {len(s) for s, _ in batch} == {2, 3, 4, 5}
    verdicts = sphere_family_check([s for s, _ in batch], [f for _, f in batch])
    assert verdicts == [ref.sphere_family_check(s, f) for s, f in batch]
    assert not any(is_wrong and v[0] for v, is_wrong in zip(verdicts, wrong))
    monkeypatch.setattr(ffil.geometry, "_FLAT_CELLS", 1)
    assert sphere_family_check([s for s, _ in batch[::5]], [f for _, f in batch[::5]]) == verdicts[::5]
    assert got == want
    assert all(row[2:] == [1, 1] for row in want)
    assert any(wrong)


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

    def spy_kss(g, s, counters=None):
        own = {}
        hit = contains_kss(g, s, own)
        searches.append((lambda cap: ref.contains_kss(g, s, probe_cap=cap), own["kss_probes"]))
        counters["kss_probes"] += own["kss_probes"]
        if argv[0] == "unit-distance" and g.m != g.n:
            on_root.append(g)
        return hit

    def spy_pattern(g, pat, counters=None, rooted=False):
        own = {}
        hit = find_induced_pattern(g, pat, own, rooted)
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
    kernel = under_cap(mpoly, "ENUM_CAP", lambda: shatter_function(system, k, counters))
    try:
        want = reference_shatter(monkeypatch, system, k, cap)
    except (DomainError, ResourceLimitError) as exc:
        with pytest.raises(type(exc)):
            kernel(cap)
        return None
    assert (kernel(cap), counters["shatter_subsets"]) == want
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
