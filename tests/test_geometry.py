import tracemalloc
from itertools import product

import numpy as np
import pytest

from ffil import (
    AffineFlat,
    BilinearForm,
    DomainError,
    FieldCtx,
    ResourceLimitError,
    Sphere,
    flats_in_sphere_check,
    intersect_spheres_to_flat,
    isotropic_unit_pair_search,
    point_sphere_incidence,
    sphere_points,
    unit_distance_graph,
)
import ffil.geometry
import ffil.mpoly
from ffil.geometry import intersection_flats, sphere_family_check
from ffil.mpoly import _plan, domain_points, lex_points
from ffil.rng import Rng
from search_reference import QuadraticField, is_totally_isotropic


def grid(p, d):
    return [tuple(int(v) for v in row) for row in domain_points(p, d)]


def test_inner_examples():
    ctx7 = FieldCtx.prime(7)
    form = BilinearForm.standard(ctx7, 2)
    assert form.inner((1, 2), (3, 1)) == 5
    f5 = BilinearForm.for_dim(FieldCtx.prime(5), 5)
    assert f5.norm_sq((0, 0, 0, 0, 1)) == 4  # last signature entry is -1
    # d not congruent 1 mod 4 keeps the standard form
    assert BilinearForm.for_dim(ctx7, 3).signature == (1, 1, 1)
    assert BilinearForm.for_dim(ctx7, 4).signature == (1, 1, 1, 1)
    with pytest.raises(DomainError):
        form.inner((1,), (2, 3))


def test_bilinearity_randomized():
    ctx = FieldCtx.prime(11)
    form = BilinearForm.for_dim(ctx, 5)
    rng = Rng(60)
    for _ in range(1000):
        u = tuple(rng.randbelow(11) for _ in range(5))
        u2 = tuple(rng.randbelow(11) for _ in range(5))
        v = tuple(rng.randbelow(11) for _ in range(5))
        left = form.inner(tuple((a + b) % 11 for a, b in zip(u, u2)), v)
        assert left == (form.inner(u, v) + form.inner(u2, v)) % 11


P31 = 2**31 - 1  # prime, = 3 (mod 4), so square roots are one pow away
MIXED_SIGNATURES = [(-1, -1, -1), (1, -1, -1), (-1, -1, 1, -1)]


def random_unit(form, r):
    """Random vector of norm 1: random head, last coordinate solved for."""
    p = form.ctx.p
    while True:
        head = tuple(r.randbelow(p) for _ in range(form.dim - 1))
        t = form.signature[-1] * (1 - form.norm_sq(head + (0,))) % p
        if pow(t, (p - 1) // 2, p) in (0, 1):
            return head + (pow(t, (p + 1) // 4, p),)


def test_vectorized_norms_exact_at_large_p():
    # squared coordinates near p^2 ~ 2^62 must not overflow int64 for any
    # mix of signs; unit pairs are planted so the graphs are not empty
    rng = Rng(66)
    for sig in MIXED_SIGNATURES:
        form = BilinearForm(FieldCtx.prime(P31), sig)
        d = len(sig)
        for trial in range(10):
            r = rng.derive(trial)
            base = [tuple(r.randbelow(P31) for _ in range(d)) for _ in range(40)]
            assert form.norms_of_rows(np.asarray(base)).tolist() == [
                form.norm_sq(x) for x in base
            ]
            pts = base[:4] + [
                tuple((a + b) % P31 for a, b in zip(x, random_unit(form, r)))
                for x in base[:4]
            ]
            g = unit_distance_graph(pts, form)
            assert g.edge_count() >= 4
            inc = point_sphere_incidence(pts, base[:4], form)
            assert inc.edge_count() >= 4
            for i, x in enumerate(pts):
                for j, y in enumerate(pts):
                    want = form.norm_sq(form.diff(x, y)) == 1
                    assert g.has_edge(i, j) == want
                for j, w in enumerate(base[:4]):
                    assert inc.has_edge(i, j) == Sphere(form, w).contains(x)


P_D1_INT64 = 99_999_971  # prime with (p - 1)^2 >= 2^53: int64 path even at d = 1


@pytest.mark.parametrize(
    "p, sig",
    [(p, s) for p in (7, P31) for s in MIXED_SIGNATURES]
    + [(101, (1, 1)), (P31, (-1,)), (P_D1_INT64, (1,)), (P_D1_INT64, (-1,))],
)
def test_gram_matches_inner(p, sig):
    form = BilinearForm(FieldCtx.prime(p), sig)
    d = len(sig)
    assert (_plan(d, p)[0] is np.float64) == (p < 2**20)  # both paths are exercised
    r = Rng(p + d)
    # entries in (-p, p): negative inputs must reduce like the scalar form
    a = np.array([[r.randbelow(2 * p - 1) - (p - 1) for _ in range(d)] for _ in range(24)])
    b = np.array([[r.randbelow(2 * p - 1) - (p - 1) for _ in range(d)] for _ in range(12)])
    want = [[form.inner(x, y) for y in b.tolist()] for x in a.tolist()]
    got = form.gram(a, b)
    assert got.dtype == np.int64 and got.tolist() == want
    batched = form.gram(a.reshape(4, 6, d), b.reshape(4, 3, d))
    assert batched.shape == (4, 6, 3)
    for k in range(4):
        assert batched[k].tolist() == [row[3 * k : 3 * k + 3] for row in want[6 * k : 6 * k + 6]]
    assert form.gram(a[:0], b).shape == (0, 12)


def test_unit_pair_matrix_matches_scalar_norms():
    rng = Rng(67)
    for p in (3, 7, 11):
        for sig in [(1, 1), (1, -1, -1)] + MIXED_SIGNATURES:
            form = BilinearForm(FieldCtx.prime(p), sig)
            d = len(sig)
            pts = [tuple(rng.randbelow(p) for _ in range(d)) for _ in range(300)]
            m = form.unit_pair_matrix(pts, pts[:40])
            assert m.shape == (300, 40)  # more rows than one block
            assert m.tolist() == [
                [form.norm_sq(form.diff(x, y)) == 1 for y in pts[:40]] for x in pts
            ]


def test_sphere_point_counts():
    assert len(sphere_points(Sphere(BilinearForm.standard(FieldCtx.prime(7), 2), (0, 0)))) == 8
    assert len(sphere_points(Sphere(BilinearForm.standard(FieldCtx.prime(5), 2), (0, 0)))) == 4


def test_sphere_points_match_scalar_membership():
    # every signature for d = 1..4 (d = 1 has an empty head grid), from a
    # freshly computed origin table, at the origin and at a shifted center
    import ffil.geometry as geo

    geo._ORIGIN_CACHE.clear()
    for p in (3, 5, 7, 11):
        for d in range(1, 5):
            pts = grid(p, d)
            for sig in product((1, -1), repeat=d):
                form = BilinearForm(FieldCtx.prime(p), sig)
                for center in ((0,) * d, tuple(range(1, d + 1))):
                    s = Sphere(form, center)
                    assert sphere_points(s) == [pt for pt in pts if s.contains(pt)]


def test_sphere_translation_invariance():
    form = BilinearForm.standard(FieldCtx.prime(7), 2)
    base = len(sphere_points(Sphere(form, (0, 0))))
    rng = Rng(61)
    for _ in range(20):
        w = (rng.randbelow(7), rng.randbelow(7))
        assert len(sphere_points(Sphere(form, w))) == base


def test_intersect_single_sphere_full_space():
    form = BilinearForm.standard(FieldCtx.prime(5), 2)
    flat = intersect_spheres_to_flat([Sphere(form, (0, 0))])
    assert flat.dim == 2


def test_intersect_two_circles_explicit():
    form = BilinearForm.standard(FieldCtx.prime(5), 2)
    flat = intersect_spheres_to_flat([Sphere(form, (0, 0)), Sphere(form, (1, 0))])
    pts = set(flat.points())
    assert pts == {(3, y) for y in range(5)}  # 2*x = 1 mod 5


def test_intersect_random_families_pointwise():
    rng = Rng(62)
    form = BilinearForm.standard(FieldCtx.prime(7), 3)
    pts = grid(7, 3)
    for trial in range(50):
        r = rng.derive(trial)
        centers = [pts[r.randbelow(343)] for _ in range(3)]
        spheres = [Sphere(form, c) for c in centers]
        flat = intersect_spheres_to_flat(spheres)
        inter = set(sphere_points(spheres[0]))
        for s in spheres[1:]:
            inter &= set(sphere_points(s))
        flat_pts = set() if flat.is_empty else set(flat.points())
        assert set(sphere_points(spheres[0])) & flat_pts == inter
        # orthogonality of the flat to the affine span of centers
        for b in flat.basis:
            for c in centers[1:]:
                dv = tuple((x - y) % 7 for x, y in zip(c, centers[0]))
                assert form.inner(b, dv) == 0


def test_intersect_dimension_drops_by_at_most_one():
    rng = Rng(63)
    form = BilinearForm.standard(FieldCtx.prime(5), 3)
    pts = grid(5, 3)
    for trial in range(30):
        r = rng.derive(trial)
        centers = [pts[r.randbelow(125)] for _ in range(4)]
        prev = intersect_spheres_to_flat([Sphere(form, centers[0])])
        for k in range(2, 5):
            cur = intersect_spheres_to_flat([Sphere(form, c) for c in centers[:k]])
            if prev.is_empty:
                assert cur.is_empty
            elif not cur.is_empty:
                assert cur.dim in (prev.dim, prev.dim - 1)
            prev = cur


def test_intersect_duplicate_spheres_harmless():
    form = BilinearForm.standard(FieldCtx.prime(5), 2)
    a, b = Sphere(form, (0, 0)), Sphere(form, (1, 0))
    once = intersect_spheres_to_flat([a, b])
    twice = intersect_spheres_to_flat([a, b, b, a])
    assert set(once.points()) == set(twice.points())


def test_isotropic_examples():
    ctx7 = FieldCtx.prime(7)
    std7 = BilinearForm.standard(ctx7, 2)
    assert is_totally_isotropic(std7, AffineFlat(ctx7, 2, (3, 4), []))  # a point
    assert not is_totally_isotropic(std7, AffineFlat(ctx7, 2, (0, 0), [(1, 0)]))
    ctx5 = FieldCtx.prime(5)
    std5 = BilinearForm.standard(ctx5, 2)
    assert is_totally_isotropic(std5, AffineFlat(ctx5, 2, (0, 0), [(1, 2)]))  # 1 + 4 = 0


def test_flats_in_sphere_f7_plane():
    report = flats_in_sphere_check(Sphere(BilinearForm.standard(FieldCtx.prime(7), 2), (0, 0)), 1)
    assert report.counts == [8]  # x^2 = -1 unsolvable: no isotropic directions
    assert [rows.shape for rows in report.rows] == [(1, 1)]  # the point s_0
    assert report.all_pass


def test_flats_in_sphere_f5_plane_has_no_lines():
    # the circle has 4 points; a line would need 5
    report = flats_in_sphere_check(Sphere(BilinearForm.standard(FieldCtx.prime(5), 2), (0, 0)), 1)
    assert report.counts == [4] and len(report.rows) == 1
    assert report.all_pass


def test_flats_in_sphere_f5_space():
    # e.g. the line (1, t, 2t) lies in the unit sphere of F_5^3
    form = BilinearForm.standard(FieldCtx.prime(5), 3)
    report = flats_in_sphere_check(Sphere(form, (0, 0, 0)), 1)
    assert len(report.counts) == 2 and len(report.rows[1]), "expected isotropic lines inside the sphere"
    assert report.all_pass
    line_pts = {(1, t % 5, 2 * t % 5) for t in range(5)}
    sphere_pt_set = set(sphere_points(Sphere(form, (0, 0, 0))))
    assert line_pts <= sphere_pt_set
    assert set(map(tuple, lex_points(report.rows[1].ravel(), 5, 3).tolist())) <= sphere_pt_set


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sphere_passes_keep_block_sized_temporaries(monkeypatch):
    # the flats pass up to planes on F_13^4 (2,184 points) and on F_7^5
    # (2,450 points) and the family pass over 2,000 families on F_13^3 hold
    # int64 temporaries of O(_FLAT_CELLS d) entries, plus O(d) per point of
    # the sphere or of a flat through s_0, or per family and center; without
    # blocks they take 3.0 MB and 20 MB (the lines through s_0 against S)
    # and 30 MB (families times |S| times k)
    cells = 1 << 14
    monkeypatch.setattr(ffil.geometry, "_FLAT_CELLS", cells)
    for p, d in ((13, 4), (7, 5)):
        sphere = Sphere(BilinearForm.standard(FieldCtx.prime(p), d), (0,) * d)
        points = len(sphere_points(sphere)) + sum(rows.size for rows in flats_in_sphere_check(sphere, 2).rows)
        assert _traced_peak(lambda: flats_in_sphere_check(sphere, 2)) < 4 * (cells + points) * d * 8
    form = BilinearForm.standard(FieldCtx.prime(13), 3)
    rng = Rng(7)
    families = []
    for _ in range(2000):
        drawn = [rng.randbelow(13**3) for _ in range(2 + rng.randbelow(4))]
        families.append([Sphere(form, tuple(c)) for c in lex_points(drawn, 13, 3).tolist()])
    flats = intersection_flats(families)
    sphere_family_check(families[:1], flats[:1])
    assert _traced_peak(lambda: sphere_family_check(families, flats)) < 4 * (cells + 5 * 2000) * 3 * 8


def test_sphere_table_build_holds_about_three_tables(monkeypatch):
    # the table of F_31^4 comes from the heads' partial norms and one head
    # index per point: about 3.0 times its bytes at the peak, where copying
    # every head twice beside both candidate roots took 5.6
    monkeypatch.setattr(ffil.geometry, "_ORIGIN_CACHE", {})
    form = BilinearForm.standard(FieldCtx.prime(31), 4)
    peak = _traced_peak(lambda: ffil.geometry._origin_sphere_points(form))
    assert peak < 3.25 * ffil.geometry._origin_sphere_points(form).nbytes


def test_isotropic_unit_pair_search():
    for p in (3, 7, 11):
        form = BilinearForm.for_dim(FieldCtx.prime(p), 3)
        assert isotropic_unit_pair_search(form) is None
    # hypothesis violated at p = 5: a pair exists and is verified
    form5 = BilinearForm.for_dim(FieldCtx.prime(5), 3)
    got = isotropic_unit_pair_search(form5)
    assert got is not None
    flat, w = got
    assert form5.norm_sq(w) == 1
    assert is_totally_isotropic(form5, flat)
    assert all(form5.inner(w, b) == 0 for b in flat.basis)


def test_isotropic_unit_pair_search_d5(monkeypatch):
    for p in (3, 7):
        form = BilinearForm.for_dim(FieldCtx.prime(p), 5)
        assert isotropic_unit_pair_search(form) is None
    with pytest.raises(DomainError):
        isotropic_unit_pair_search(BilinearForm.standard(FieldCtx.prime(3), 4))
    # the unit vectors come from the memoized sphere table, which still
    # enforces the cap once the table is built (it is, by the loop above)
    monkeypatch.setattr(ffil.mpoly, "ENUM_CAP", 7**5 - 1)
    with pytest.raises(ResourceLimitError):
        isotropic_unit_pair_search(form)
    with pytest.raises(ResourceLimitError):
        sphere_points(Sphere(form, (0,) * 5))


def test_flat_pair_budget_is_exact(monkeypatch):
    # a walk that spends c pair tests runs at FLAT_PAIR_CAP = c and raises
    # at c - 1: the rooted check up to planes, and the pair search at d = 5
    # found (p = 5) and absent (p = 7)
    sphere = Sphere(BilinearForm.standard(FieldCtx.prime(7), 5), (0,) * 5)
    forms = [BilinearForm.for_dim(FieldCtx.prime(p), 5) for p in (5, 7)]
    runs = [lambda c: flats_in_sphere_check(sphere, 2, counters=c).counts]
    runs += [lambda c, f=f: isotropic_unit_pair_search(f, c) is None for f in forms]
    for run in runs:
        counters = {}
        want = run(counters)
        monkeypatch.setattr(ffil.geometry, "FLAT_PAIR_CAP", counters["flat_pairs"])
        again = {}
        assert run(again) == want and again == counters
        monkeypatch.setattr(ffil.geometry, "FLAT_PAIR_CAP", counters["flat_pairs"] - 1)
        with pytest.raises(ResourceLimitError):
            run({})
        monkeypatch.undo()
    assert [run({}) for run in runs] == [[2450, 22400, 800], False, True]


def test_unit_distance_graph_examples():
    ctx = FieldCtx.prime(7)
    form = BilinearForm.standard(ctx, 2)
    g = unit_distance_graph([(0, 0), (1, 0), (3, 3)], form)
    assert g.has_edge(0, 1)  # differ by e_1
    assert not g.has_edge(0, 0)  # no self loops
    full = unit_distance_graph(grid(7, 2), form)
    assert full.edge_count() == 49 * 8  # each unit pair once per side
    # symmetry
    for i in range(full.n):
        for j in range(full.n):
            assert full.has_edge(i, j) == full.has_edge(j, i)
    assert full.rows is full.cols
    with pytest.raises(DomainError):
        unit_distance_graph([(0, 0, 0)], form)


def test_bipartite_double_view():
    ctx = FieldCtx.prime(7)
    form = BilinearForm.standard(ctx, 2)
    d = unit_distance_graph([(0, 0), (1, 0), (2, 0)], form)
    assert (d.m, d.n) == (3, 3)
    assert d.has_edge(0, 1) and d.has_edge(1, 0)
    assert not d.has_edge(0, 0)


def test_embed_to_standard_norm_equivalence():
    # pairwise unit relation is preserved exactly through the reference embedding
    p, d = 3, 5
    ctx = FieldCtx.prime(p)
    ext = QuadraticField(p)
    form_d = BilinearForm.for_dim(ctx, d)
    rng = Rng(64)
    pts = grid(p, d)
    sample = [pts[rng.randbelow(len(pts))] for _ in range(50)]
    emb = ext.embed(sample)
    for i in range(len(sample)):
        for j in range(i + 1, len(sample)):
            pre = form_d.norm_sq(form_d.diff(sample[i], sample[j])) == 1
            assert pre == ext.unit_distance(emb[i], emb[j]), (sample[i], sample[j])
    # the standard norm of an image is the dimension norm of its point
    for x, y in zip(pts, ext.embed(pts)):
        assert ext.norm_sq(y) == (form_d.norm_sq(x), 0)


def test_embed_examples():
    ext = QuadraticField(3)
    ctx = FieldCtx.prime(3)
    d = 5
    form_d = BilinearForm.for_dim(ctx, d)
    e_d = (0, 0, 0, 0, 1)
    assert form_d.norm_sq(e_d) == 2  # -1 mod 3: e_d is not unit under the form
    emb = ext.embed([(0,) * d, e_d])
    assert emb == [((0, 0),) * d, ((0, 0),) * (d - 1) + ((0, 1),)]
    diff = [ext.sub(a, b) for a, b in zip(emb[1], emb[0])]
    assert ext.norm_sq(diff) == (2, 0)  # alpha^2 = -1
    with pytest.raises(DomainError):
        QuadraticField(13)  # 13 = 1 mod 4: a^2 + 1 splits


def test_incidence_hosts_avoid_staircase_pattern_p5():
    # sub-hosts of the full point-vs-unit-sphere incidence graph at p = 5
    from ffil import find_induced_pattern, staircase_pattern

    rng = Rng(55)
    for d in (2, 3):
        ctx = FieldCtx.prime(5)
        form = BilinearForm.standard(ctx, d)
        pts = grid(5, d)
        host = point_sphere_incidence(pts, pts, form)
        pat = staircase_pattern(d + 1)
        for i in range(10):
            r = rng.derive(10 * d + i)
            size = min(25, host.m)
            sub = host.induced(
                r.sample_indices(host.m, size), r.sample_indices(host.n, size)
            )
            assert find_induced_pattern(sub, pat) is None


def test_point_sphere_incidence_matches_scalar():
    ctx = FieldCtx.prime(5)
    form = BilinearForm.standard(ctx, 2)
    pts = grid(5, 2)
    g = point_sphere_incidence(pts, pts, form)
    for i, x in enumerate(pts[:8]):
        for j, w in enumerate(pts[:8]):
            assert g.has_edge(i, j) == Sphere(form, w).contains(x)
