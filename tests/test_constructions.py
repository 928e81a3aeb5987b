import tracemalloc
import warnings

import numpy as np
import pytest

from ffil import (
    DomainError,
    FieldCtx,
    MultiPoly,
    evasive_point_set,
    point_variety_instance,
    random_algebraic_graph,
    unit_distance_instance,
    zero_count_experiment,
)
from ffil import constructions
from ffil.bigraph import contains_kss, smallest_free_s
from ffil.constructions import integer_nth_root, kss_verdict
from ffil.geometry import BilinearForm, Sphere, point_sphere_incidence, sphere_points
from ffil.mpoly import (
    bivariate_section,
    domain_points,
    evaluate_batch,
    parse_poly,
    sample_uniform,
    zero_mask,
)
from ffil.rng import Rng

from oracles import brute_kss
from search_reference import QuadraticField


def test_integer_nth_root():
    assert integer_nth_root(49, 2) == 7
    assert integer_nth_root(48, 2) == 6
    assert integer_nth_root(343, 3) == 7
    assert integer_nth_root(8, 3) == 2
    for n in (10**6, 10**6 + 1):
        for e in (1, 2, 3, 5):
            r = integer_nth_root(n, e)
            assert r**e <= n < (r + 1) ** e
    for e in range(1, 8):  # against the largest r with r^e <= n, counted up
        r = 0
        for n in range(3000):
            r += (r + 1) ** e <= n
            assert integer_nth_root(n, e) == r
    for e in (2, 3):  # past a float: n ** (1 / e) overflows
        r = integer_nth_root(10**400, e)
        assert r**e <= 10**400 < (r + 1) ** e


def test_zero_count_preconditions():
    rng = Rng(0)
    with pytest.raises(DomainError):
        zero_count_experiment(4, 3, 3, 10, rng)  # not prime
    with pytest.raises(DomainError):
        zero_count_experiment(5, 2, 3, 10, rng)  # nvars too small
    with pytest.raises(DomainError):
        zero_count_experiment(5, 3, 0, 10, rng)  # constant polynomials rejected


def test_zero_count_result():
    res = zero_count_experiment(5, 3, 3, 100, Rng(42))
    assert res.threshold == 12.5
    assert 0 <= res.fraction <= 1
    assert res.fraction >= 0.70
    assert abs(res.mean - 25) <= 2.5


def test_algebraic_graph_pipeline_small():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        inst = random_algebraic_graph(7, 1, 1, 7, 7, 2, Rng(42))
    rep = inst.report
    assert 2 * rep.achieved["edges"] * 7 >= 7 * 7
    assert rep.verification["outcome"] == "verified-free"
    assert not brute_kss(inst.graph, 2)
    assert rep.retries["poly"] <= 20
    # graph edges match the polynomial's zero relation on the chosen points
    for i, x in enumerate(inst.rows):
        for j, y in enumerate(inst.cols):
            assert inst.graph.has_edge(i, j) == (inst.poly.evaluate(x + y) == 0)


def test_algebraic_graph_identity_subsample():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        inst = random_algebraic_graph(5, 1, 1, 5, 5, 3, Rng(7))
    assert inst.rows == [(i,) for i in range(5)]
    assert inst.cols == [(j,) for j in range(5)]
    assert inst.report.achieved["edges"] == inst.report.achieved["edges_full"]


def test_algebraic_graph_rows_and_cols_are_the_chosen_grid_points():
    # subsampled rows and columns in F_11^2, decoded from their lex indices
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        inst = random_algebraic_graph(11, 2, 2, 30, 40, 16, Rng(5))
    for pts in (inst.rows, inst.cols):
        assert len(set(pts)) == len(pts)
        assert all(type(v) is int and 0 <= v < 11 for x in pts for v in x)
    mask = zero_mask(inst.poly).reshape(11**2, -1)
    ridx = [11 * a + b for a, b in inst.rows]
    cidx = [11 * a + b for a, b in inst.cols]
    sub = mask[np.ix_(ridx, cidx)]
    assert all(inst.graph.has_edge(i, j) == sub[i, j] for i in range(30) for j in range(40))
    assert all(inst.graph.has_edge(i, j) == (inst.poly.evaluate(x + y) == 0)
               for i, x in enumerate(inst.rows[:5]) for j, y in enumerate(inst.cols))


def test_algebraic_graph_warning_flag():
    with pytest.warns(UserWarning, match="not guaranteed independent"):
        inst = random_algebraic_graph(7, 1, 1, 7, 7, 2, Rng(1))
    assert any("not guaranteed independent" in f for f in inst.report.flags)


def test_algebraic_graph_edge_probability_sanity():
    # mean density of the full graph over 200 polynomials is close to 1/p
    p = 7
    ctx = FieldCtx.prime(p)
    from ffil.mpoly import sample_uniform

    rng = Rng(3)
    pts = domain_points(p, 2)
    dens = []
    for i in range(200):
        f = sample_uniform(ctx, 2, 4, rng.derive(i))
        dens.append(np.count_nonzero(evaluate_batch(f, pts) == 0) / 49)
    mean = sum(dens) / len(dens)
    assert abs(mean - 1 / p) <= 0.15 / p


def test_product_zero_mask_matches_pointwise_mask():
    rng = Rng(12)
    for p, d1, d2 in ((5, 1, 1), (5, 1, 2), (7, 2, 1), (3, 2, 2)):
        f = sample_uniform(FieldCtx.prime(p), d1 + d2, (d1 + d2) ** 2, rng.derive(p * d1))
        g1, g2 = domain_points(p, d1), domain_points(p, d2)
        n1, n2 = g1.shape[0], g2.shape[0]
        pts = np.hstack([np.repeat(g1, n2, axis=0), np.tile(g2, (n1, 1))])
        want = (evaluate_batch(f, pts) == 0).reshape(n1, n2)
        assert np.array_equal(zero_mask(f).reshape(p**d1, -1), want)


def test_algebraic_graph_input_validation():
    rng = Rng(0)
    with pytest.raises(DomainError):
        random_algebraic_graph(6, 1, 1, 5, 5, 2, rng)
    with pytest.raises(DomainError):
        random_algebraic_graph(5, 1, 1, 6, 5, 2, rng)  # m > p^d1


def test_point_variety_instance():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        inst = point_variety_instance(49, 1.0, 2, Rng(42))
    rep = inst.report
    assert 7 < rep.params["p"] <= 14
    assert rep.params["s"] == 16
    assert len(inst.points) == 49
    assert len(inst.section_degrees) == 49
    # incidences equal graph edges: every edge (x, q) is an incidence
    assert rep.achieved["incidences"] == rep.achieved["edges"]
    assert rep.achieved["incidences"] >= rep.bound["incidences_min"]
    assert rep.achieved["degree_proxy_ok"]
    assert rep.verification["outcome"] == "verified-free"
    # per-variety incidence counts are the graph's column degrees
    assert inst.incident_points == [
        sum(bin(word).count("1") for word in col) for col in inst.graph.cols.tolist()
    ]
    # section degrees equal those of the section polynomials, and (spot-check)
    # section zero sets agree with graph adjacency
    p = rep.params["p"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cols = random_algebraic_graph(p, 2, 2, 49, 49, 16, Rng(42)).cols  # the same draw
    sections = [bivariate_section(inst.poly, q) for q in cols]
    assert inst.section_degrees == [fq.total_degree for fq in sections]
    assert all(0 <= deg <= rep.params["delta"] for deg in inst.section_degrees)
    for j in (0, 7, 23):
        fq = sections[j]
        for i in (0, 11, 48):
            assert (fq.evaluate(inst.points[i]) == 0) == inst.graph.has_edge(i, j)


def assert_walk_matches_sections(f, d1, cols):
    cols = [tuple(int(x) for x in q) for q in cols]
    want = [bivariate_section(f, q).total_degree for q in cols]
    assert constructions._section_degrees(f, d1, cols) == want
    return want


def sparse_random_poly(p, d1, d2, rng):
    # a few terms on few heads, tail exponents up to 3p: heads cancel at some q
    ctx = FieldCtx.prime(p)
    terms = {}
    for _ in range(1 + rng.randbelow(12)):
        head = tuple(rng.randbelow(4) for _ in range(d1))
        terms[head + tuple(rng.randbelow(3 * p) for _ in range(d2))] = rng.randbelow(p)
    return MultiPoly(ctx, d1 + d2, terms)


def every_degree_poly(p):
    # the coefficient of x0^k is z * prod_{j<k} (y - j), so the section at
    # (y, z) = (a, 1) has degree a, and every section at z = 0 is zero
    ctx = FieldCtx.prime(p)
    x, y, z = (MultiPoly.variable(ctx, 3, v) for v in range(3))
    f, coef = MultiPoly.zero(ctx, 3), z
    for k in range(p):
        f += coef
        coef = coef * x * (y - MultiPoly.constant(ctx, 3, k))
    return f


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_section_degree_walk_matches_bivariate_section(p):
    rng = Rng(p)
    for trial in range(40):
        r = rng.derive(trial)
        d1, d2 = 1 + trial % 2, 1 + trial // 2 % 2
        f = sparse_random_poly(p, d1, d2, r)
        assert_walk_matches_sections(f, d1, domain_points(p, d2))
    # random draws: tail exponents reach past p, and the top level decides
    for d1, d2, deg in ((1, 2, 9), (2, 1, 8), (2, 2, 7)):
        f = sample_uniform(FieldCtx.prime(p), d1 + d2, deg, rng.derive(100 + deg))
        assert f.exps[:, d1:].max() >= p
        assert set(assert_walk_matches_sections(f, d1, domain_points(p, d2))) <= {deg}


def test_section_degree_walk_on_cancelling_heads(monkeypatch):
    f = parse_poly("p=5; vars=2; x0^2*x1 + 4*x0^2 + x0")  # x0^2 (x1 - 1) + x0
    assert assert_walk_matches_sections(f, 1, domain_points(5, 1)) == [2, 1, 2, 2, 2]
    # tail exponents past p fold; the head exponent 9 >= p stays formal
    f = MultiPoly(FieldCtx.prime(5), 4, {(1, 120, 120, 120): 1, (9, 7, 0, 5): 3,
                                         (2, 0, 5, 4): 2, (0, 4, 121, 0): 4, (0, 0, 0, 0): 1})
    assert set(assert_walk_matches_sections(f, 1, domain_points(5, 3))) == {0, 2, 9}
    g = every_degree_poly(7)
    qs = [(a, z) for z in (1, 0) for a in range(7)]
    assert assert_walk_matches_sections(g, 1, qs) == list(range(7)) + [0] * 7
    # small blocks end inside the levels that have more than one head (d1 = 2):
    # one head group per block at size 1, a few at size 8
    for block in (1, 8):
        monkeypatch.setattr(constructions, "_DEGREE_BLOCK", block)
        assert assert_walk_matches_sections(g, 1, qs[::-1]) == [0] * 7 + list(range(6, -1, -1))
        for p in (2, 3, 5, 7):
            for trial in range(10):
                f = sparse_random_poly(p, 2, 1, Rng(p).derive(trial))
                assert_walk_matches_sections(f, 2, domain_points(p, 1))


def test_section_degree_walk_in_bounded_memory():
    # the (17, 3 + 3, 36) draw: the dense section box would take 1.85 GiB
    f = sample_uniform(FieldCtx.prime(17), 6, 36, Rng(1))
    cols = domain_points(17, 3)[::17][:275]
    tracemalloc.start()
    try:
        degrees = constructions._section_degrees(f, 3, cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 150 * 10**6, peak
    assert degrees == [36] * 275


def test_evasive_set_map_image():
    U = evasive_point_set(7, 3, 1, "map-image", Rng(1))
    assert U.shape == (49, 3) and U.dtype == np.int64
    assert np.array_equal(U[:, :2], domain_points(7, 2))  # graph of a function, in lex order
    U0 = evasive_point_set(5, 2, 0, "map-image", Rng(1))
    assert len(U0) == 25  # k = 0: the whole grid
    with pytest.raises(DomainError):
        evasive_point_set(5, 2, 2, "map-image", Rng(1))


def test_evasive_set_random():
    U = evasive_point_set(5, 3, 1, "random", Rng(9))
    assert U.shape == (25, 3) and U.dtype == np.int64
    codes = U @ np.array([25, 5, 1])
    assert np.all((0 <= U) & (U < 5)) and np.all(np.diff(codes) > 0)  # distinct, in lex order


def test_unit_distance_d2():
    inst = unit_distance_instance(None, 2, Rng(42), p=7, s=4)
    rep = inst.report
    assert rep.achieved["U_size"] == 49
    assert rep.achieved["P_size"] == 49  # U is the whole plane at d = 2
    assert 2 * 7 * rep.achieved["cross_pairs"] >= 49**2
    assert rep.achieved["unit_distances"] == 49 * 8 // 2
    assert rep.verification["outcome"] == "verified-free"
    assert any(rep.achieved["shift"])  # x = 0 is excluded


def test_unit_distance_scaling_constant():
    # count >= |P|^(3/2) / 8 at d = 2 for each modulus
    for p in (7, 11, 19):
        rep = unit_distance_instance(None, 2, Rng(42), p=p, s=4).report
        n_pts = rep.achieved["P_size"]
        assert 8 * rep.achieved["unit_distances"] >= n_pts**1.5


def test_unit_distance_by_n():
    inst = unit_distance_instance(100, 2, Rng(5))
    rep = inst.report
    assert rep.params["p"] == 11  # smallest 3 mod 4 prime with p^2 > 100
    assert rep.achieved["P_size"] == 100
    with pytest.raises(DomainError):
        unit_distance_instance(48, 2, Rng(5))  # below the 7^2 guarantee floor


def test_unit_distance_replayable():
    a = unit_distance_instance(None, 2, Rng(99), p=11, s=4)
    b = unit_distance_instance(None, 2, Rng(99), p=11, s=4)
    assert a.report.achieved == b.report.achieved
    assert np.array_equal(a.points, b.points)


def test_unit_distance_d5_extension_branch():
    # the graph is built over F_3 under the dimension form; every pair of it
    # must match the standard F_9 relation of the reference-embedded points
    ext = QuadraticField(3)
    for seed, size in ((42, 111), (1, 145)):
        inst = unit_distance_instance(None, 5, Rng(seed), p=3, s=4)
        rep, g = inst.report, inst.graph
        assert rep.achieved["U_size"] == 81
        assert rep.achieved["P_size"] == size == g.m == g.n == len(inst.points)
        assert inst.form == BilinearForm.for_dim(FieldCtx.prime(3), 5)
        assert "re-embedded over the quadratic extension (d = 1 mod 4)" in rep.flags
        emb = ext.embed(inst.points)
        for i, x in enumerate(emb):
            for j, y in enumerate(emb):
                assert g.has_edge(i, j) == ext.unit_distance(x, y)
        assert rep.achieved["unit_distances"] * 2 == g.edge_count()
        # witness, if any, is genuine: all pairs at unit distance
        ver = rep.verification
        if ver["outcome"] == "witness-found":
            S, T = ver["witness"]
            for i in S:
                for j in T:
                    assert ext.unit_distance(emb[i], emb[j])
            assert ver["smallest_free_s"] is None or ver["smallest_free_s"] > rep.params["s"]


# every full-grid host (d = 2, 3 without --n) with p^d <= 2,500
FULL_GRIDS = [(2, p) for p in (3, 7, 11, 19, 23, 31, 43, 47)] + [(3, p) for p in (3, 7, 11)]
# the plain search of all of F_11^3 runs past PROBE_CAP on a K_{s,s}-free grid
PLAIN_OVER_CAP = {(3, 11)}


@pytest.mark.parametrize("d, p", FULL_GRIDS)
def test_unit_distance_rooted_matches_plain(d, p):
    grid = domain_points(p, d)
    form = BilinearForm.for_dim(FieldCtx.prime(p), d)
    sphere = sphere_points(Sphere(form, (0,) * d))
    block = point_sphere_incidence(grid, sphere, form)
    witnesses = 0
    for s in range(1, 6):
        inst = unit_distance_instance(None, d, Rng(42), p=p, s=s)
        rooted = inst.report
        witness = rooted.verification["witness"]
        witnesses += witness is not None
        if witness is not None:
            # the rooted block search spends the probes of the graph's search
            # up to the same witness, its columns being sphere indices
            on_block, on_graph = {}, {}
            rows, cols = contains_kss(block, s, on_block, rooted=True)
            assert contains_kss(inst.graph, s, on_graph) == witness
            assert witness[0] == rows and rows[0] == 0
            assert grid[witness[1]].tolist() == [list(sphere[c]) for c in cols]
            assert on_block == on_graph
        if (d, p) in PLAIN_OVER_CAP:
            continue
        # the plain reference: the same checks on the whole graph
        plain = {"kss_probes": 0, "rooted_searches": 0}
        verdict = kss_verdict(inst.graph, s, plain)
        if verdict["witness"] is not None:
            verdict["smallest_free_s"] = smallest_free_s(inst.graph, 4 * s, counters=plain)
        # same verdict, witness, smallest_free_s and counts
        assert rooted.verification == verdict
        assert rooted.achieved["unit_distances"] * 2 == inst.graph.edge_count()
        assert rooted.counters["rooted_searches"] >= 1
        assert plain["rooted_searches"] == 0
        assert rooted.counters["kss_probes"] < plain["kss_probes"]
        # the counts read from the sphere table equal the pair-matrix counts
        shifted = (grid + np.asarray(rooted.achieved["shift"])) % p
        assert rooted.achieved["cross_pairs"] == np.count_nonzero(
            form.unit_pair_matrix(grid, shifted)
        )
    assert witnesses >= 2  # s = 1, 2 find K_{s,s} on every grid


@pytest.mark.parametrize("strategy", ["map-image", "random"])
@pytest.mark.parametrize("d, p", [(2, 3), (2, 7), (3, 3), (3, 7), (4, 3), (5, 3)])
def test_unit_distance_roots_exactly_the_whole_grid(d, p, strategy):
    """The block search runs exactly when d <= 3 and no subsample is taken,
    and then the points are all of F_p^d in lex order."""
    size = unit_distance_instance(None, d, Rng(7), p=p, s=3, strategy=strategy).report
    size = size.achieved["P_size"]
    assert (size == p**d) == (d <= 3)
    for n in (None, size, size - 1):
        inst = unit_distance_instance(n, d, Rng(7), p=p, s=3, strategy=strategy)
        whole = d <= 3 and n != size - 1
        assert (inst.report.counters["rooted_searches"] > 0) == whole
        if whole:
            assert np.array_equal(inst.points, domain_points(p, d))


def test_unit_distance_full_grid_builds_no_pair_matrix(monkeypatch):
    cells = []
    pair_matrix = BilinearForm.unit_pair_matrix

    def spy(form, a, b):
        out = pair_matrix(form, a, b)
        cells.append(out.size)
        return out

    monkeypatch.setattr(BilinearForm, "unit_pair_matrix", spy)
    for d, p, s, outcome in (
        (2, 47, 3, "verified-free"),
        (3, 7, 4, "verified-free"),
        (3, 11, 4, "verified-free"),
        (2, 47, 2, "witness-found"),  # the witness comes from the block too
    ):
        cells.clear()
        inst = unit_distance_instance(None, d, Rng(1), p=p, s=s)
        assert inst.report.verification["outcome"] == outcome
        n = p**d
        size = len(sphere_points(Sphere(BilinearForm.for_dim(FieldCtx.prime(p), d), (0,) * d)))
        assert cells and max(cells) <= n * size
        assert "graph" not in vars(inst)  # the n x n graph was never built
        assert inst.report.achieved["unit_distances"] == n * size // 2


def test_unit_distance_d3_scaling_slope():
    # log-log slope of unit distances against n is 2 - 1/(ceil(d/2) + 1) = 5/3
    sizes, dists = [], []
    for p in (7, 11, 19):
        rep = unit_distance_instance(None, 3, Rng(42), p=p, s=4).report
        assert rep.verification["outcome"] == "verified-free"
        sizes.append(rep.achieved["P_size"])
        dists.append(rep.achieved["unit_distances"])
    slope = np.polyfit(np.log(sizes), np.log(dists), 1)[0]
    assert abs(slope - 5 / 3) <= 0.1


def test_unit_distance_rejects_bad_p():
    with pytest.raises(DomainError):
        unit_distance_instance(None, 2, Rng(1), p=5)  # 5 = 1 mod 4
    with pytest.raises(DomainError):
        unit_distance_instance(None, 1, Rng(1), p=7)
