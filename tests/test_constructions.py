import warnings

import numpy as np
import pytest

from ffil import (
    DomainError,
    FieldCtx,
    evasive_point_set,
    point_variety_instance,
    random_algebraic_graph,
    unit_distance_instance,
    zero_count_experiment,
)
from ffil import constructions
from ffil.bigraph import smallest_free_s
from ffil.constructions import _product_zero_mask, integer_nth_root, kss_verdict
from ffil.geometry import BilinearForm, Sphere, sphere_points
from ffil.mpoly import (
    bivariate_section,
    domain_points,
    evaluate_batch,
    sample_uniform,
    section_tensors,
)
from ffil.rng import Rng

from oracles import brute_kss
from search_reference import QuadraticField, tensor_poly


def test_integer_nth_root():
    assert integer_nth_root(49, 2) == 7
    assert integer_nth_root(48, 2) == 6
    assert integer_nth_root(343, 3) == 7
    assert integer_nth_root(8, 3) == 2
    for n in (0, 1, 2, 10**6, 10**6 + 1):
        for e in (1, 2, 3, 5):
            r = integer_nth_root(n, e)
            assert r**e <= n < (r + 1) ** e


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
    mask = _product_zero_mask(inst.poly, 2)
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
        assert np.array_equal(_product_zero_mask(f, d1), want)


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
    # section degrees read off the tensors equal those of the section polynomials,
    # and (spot-check) section zero sets agree with graph adjacency
    p = rep.params["p"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cols = random_algebraic_graph(p, 2, 2, 49, 49, 16, Rng(42)).cols  # the same draw
    cidx = np.ravel_multi_index(tuple(np.asarray(cols).T), (p,) * 2)
    sections = section_tensors(inst.poly, 2)[cidx]
    ctx = inst.poly.ctx
    assert inst.section_degrees == [tensor_poly(ctx, sec).total_degree for sec in sections]
    assert all(0 <= deg <= rep.params["delta"] for deg in inst.section_degrees)
    for j in (0, 7, 23):
        fq = tensor_poly(ctx, sections[j])
        assert fq == bivariate_section(inst.poly, cols[j])
        for i in (0, 11, 48):
            assert (fq.evaluate(inst.points[i]) == 0) == inst.graph.has_edge(i, j)


def test_point_variety_section_degrees_of_truncated_sections(monkeypatch):
    # every section of the random polynomial has its full degree, so cut them
    # to degrees -1..16 (-1: the zero section), keeping only x0^a x1^b with
    # |a - b| <= 1, where the largest exponent and the exponent sum differ
    full = constructions.section_tensors

    def truncated(f, d2):
        secs = full(f, d2)
        idx = np.indices(secs.shape[1:])
        for j, sec in enumerate(secs):
            sec[(idx.sum(axis=0) > j % 18 - 1) | (np.ptp(idx, axis=0) > 1)] = 0
        return secs

    monkeypatch.setattr(constructions, "section_tensors", truncated)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        inst = point_variety_instance(49, 1.0, 2, Rng(42))
        cols = random_algebraic_graph(11, 2, 2, 49, 49, 16, Rng(42)).cols
    assert inst.report.params["p"] == 11
    cidx = np.ravel_multi_index(tuple(np.asarray(cols).T), (11, 11))
    sections = truncated(inst.poly, 2)[cidx]
    want = [tensor_poly(inst.poly.ctx, sec).total_degree for sec in sections]
    assert inst.section_degrees == want
    assert len(set(want)) > 10 and 0 in want


def test_evasive_set_map_image():
    U = evasive_point_set(7, 3, 1, "map-image", Rng(1))
    assert len(U) == 49
    assert len({u[:2] for u in U}) == 49  # graph of a function
    U0 = evasive_point_set(5, 2, 0, "map-image", Rng(1))
    assert len(U0) == 25  # k = 0: the whole grid
    with pytest.raises(DomainError):
        evasive_point_set(5, 2, 2, "map-image", Rng(1))


def test_evasive_set_random():
    U = evasive_point_set(5, 3, 1, "random", Rng(9))
    assert len(U) == 25
    assert len(set(U)) == 25
    grid = {tuple(int(v) for v in r) for r in domain_points(5, 3)}
    assert set(U) <= grid


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
    assert a.points == b.points


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


# every full-grid host (d = 2, 3 without --n) with p^d <= 400
FULL_GRIDS = [(2, 3), (2, 7), (2, 11), (2, 19), (3, 3), (3, 7)]


@pytest.mark.parametrize("d, p", FULL_GRIDS)
def test_unit_distance_rooted_matches_plain(d, p):
    witnesses = 0
    for s in range(2, 6):
        inst = unit_distance_instance(None, d, Rng(42), p=p, s=s)
        rooted = inst.report
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
        witnesses += rooted.verification["witness"] is not None
        # the counts read from the sphere table equal the pair-matrix counts
        grid = domain_points(p, d)
        form = BilinearForm.for_dim(FieldCtx.prime(p), d)
        shifted = (grid + np.asarray(rooted.achieved["shift"])) % p
        assert rooted.achieved["cross_pairs"] == np.count_nonzero(
            form.unit_pair_matrix(grid, shifted)
        )
    assert witnesses >= 1  # s = 2 finds K_{2,2} on every grid


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
    for d, p, s in ((2, 47, 3), (3, 7, 4), (3, 11, 4)):
        cells.clear()
        inst = unit_distance_instance(None, d, Rng(1), p=p, s=s)
        assert inst.report.verification["outcome"] == "verified-free"
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
