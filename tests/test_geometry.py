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
    embed_to_standard_norm,
    flats_in_sphere_check,
    intersect_spheres_to_flat,
    is_full_grid,
    isotropic_unit_pair_search,
    point_sphere_incidence,
    sphere_points,
    unit_distance_graph,
)
from ffil.mpoly import domain_points
from ffil.rng import Rng
from search_reference import is_totally_isotropic


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
    assert report.by_dim(1) == []  # x^2 = -1 unsolvable: no isotropic directions
    assert len(report.by_dim(0)) == 8
    assert report.all_pass


def test_flats_in_sphere_f5_plane_has_no_lines():
    # the circle has 4 points; a line would need 5
    report = flats_in_sphere_check(Sphere(BilinearForm.standard(FieldCtx.prime(5), 2), (0, 0)), 1)
    assert report.by_dim(1) == []
    assert report.all_pass


def test_flats_in_sphere_f5_space():
    # e.g. the line (1, t, 2t) lies in the unit sphere of F_5^3
    form = BilinearForm.standard(FieldCtx.prime(5), 3)
    report = flats_in_sphere_check(Sphere(form, (0, 0, 0)), 1)
    lines = report.by_dim(1)
    assert lines, "expected isotropic lines inside the sphere"
    assert report.all_pass
    line_pts = {(1, t % 5, 2 * t % 5) for t in range(5)}
    sphere_pt_set = set(sphere_points(Sphere(form, (0, 0, 0))))
    assert line_pts <= sphere_pt_set


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


def test_isotropic_unit_pair_search_d5():
    for p in (3, 7):
        form = BilinearForm.for_dim(FieldCtx.prime(p), 5)
        assert isotropic_unit_pair_search(form) is None
    with pytest.raises(DomainError):
        isotropic_unit_pair_search(BilinearForm.standard(FieldCtx.prime(3), 4))
    # the unit vectors come from the memoized sphere table, which still
    # enforces the cap once the table is built (it is, by the loop above)
    with pytest.raises(ResourceLimitError):
        isotropic_unit_pair_search(form, cap=7**5 - 1)
    with pytest.raises(ResourceLimitError):
        sphere_points(Sphere(form, (0,) * 5), cap=7**5 - 1)


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


def test_unit_distance_graph_rejects_extension_form():
    # re-embedded F_{p^2} points are never graphed; their F_p preimages are,
    # under BilinearForm.for_dim
    ext = FieldCtx.quadratic(7)
    pts = embed_to_standard_norm([(0, 0), (1, 0)], ext)
    with pytest.raises(DomainError):
        unit_distance_graph(pts, BilinearForm.standard(ext, 2))


def test_bipartite_double_view():
    ctx = FieldCtx.prime(7)
    form = BilinearForm.standard(ctx, 2)
    d = unit_distance_graph([(0, 0), (1, 0), (2, 0)], form)
    assert (d.m, d.n) == (3, 3)
    assert d.has_edge(0, 1) and d.has_edge(1, 0)
    assert not d.has_edge(0, 0)


def test_embed_to_standard_norm_equivalence():
    # pairwise unit relation is preserved exactly through the embedding
    p, d = 3, 5
    ctx = FieldCtx.prime(p)
    ext = FieldCtx.quadratic(p)
    form_d = BilinearForm.for_dim(ctx, d)
    form_std = BilinearForm.standard(ext, d)
    rng = Rng(64)
    pts = grid(p, d)
    sample = [pts[rng.randbelow(len(pts))] for _ in range(50)]
    emb = embed_to_standard_norm(sample, ext)
    one = (1, 0)
    for i in range(len(sample)):
        for j in range(i + 1, len(sample)):
            pre = form_d.norm_sq(form_d.diff(sample[i], sample[j])) == 1
            post = form_std.norm_sq(form_std.diff(emb[i], emb[j])) == one
            assert pre == post, (sample[i], sample[j])


def test_embed_examples():
    ext = FieldCtx.quadratic(3)
    ctx = FieldCtx.prime(3)
    d = 5
    form_d = BilinearForm.for_dim(ctx, d)
    e_d = (0, 0, 0, 0, 1)
    assert form_d.norm_sq(e_d) == 2  # -1 mod 3: e_d is not unit under the form
    emb = embed_to_standard_norm([(0,) * d, e_d], ext)
    diff = BilinearForm.standard(ext, d).diff(emb[1], emb[0])
    assert BilinearForm.standard(ext, d).norm_sq(diff) == (2, 0)  # alpha^2 = -1
    with pytest.raises(DomainError):
        embed_to_standard_norm([(0,) * d], ctx)


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


def test_is_full_grid():
    for p, d in ((3, 1), (3, 2), (5, 3), (7, 2)):
        grid = domain_points(p, d)
        assert is_full_grid(grid, p)
        assert is_full_grid([tuple(int(v) for v in r) for r in grid], p)
        assert not is_full_grid(grid, p + 2)
        assert not is_full_grid(grid[:-1], p)  # one point removed
        assert not is_full_grid(grid[::-1], p)  # reordered
        assert not is_full_grid(np.vstack([grid[:-1], grid[:1]]), p)  # a point twice
    grid = domain_points(3, 2).tolist()
    assert not is_full_grid(embed_to_standard_norm(grid, FieldCtx.quadratic(3)), 3)
    assert not is_full_grid([], 3)
