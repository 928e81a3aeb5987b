import ast
import itertools
import math
import pathlib
import tracemalloc

import numpy as np
import pytest

from ffil import (
    BilinearForm,
    DomainError,
    FieldCtx,
    MultiPoly,
    ResourceLimitError,
    bivariate_section,
    count_zeros,
    evaluate_batch,
    format_poly,
    monomial_count,
    monomials_upto,
    parse_poly,
    sample_uniform,
    zero_set,
)
from ffil import mpoly
from ffil.mpoly import (
    coefficient_tensor,
    domain_points,
    grid_slabs,
    matmul_mod,
    section_tensors,
    zero_mask,
)
from ffil.rng import Rng

import search_reference as ref
from oracles import scalar_zero_points


def test_evaluate_examples():
    ctx = FieldCtx.prime(5)
    f = MultiPoly(ctx, 2, {(1, 1): 1, (0, 0): 1})  # x0*x1 + 1
    assert f.evaluate((2, 3)) == 2  # 6 + 1 = 7 = 2 mod 5
    g = MultiPoly(ctx, 2, {(0, 0): 4, (2, 1): 3})
    assert g.evaluate((0, 0)) == 4  # constant term at the origin
    assert MultiPoly.zero(ctx, 2).evaluate((1, 4)) == 0


def test_evaluate_dimension_mismatch():
    ctx = FieldCtx.prime(5)
    f = MultiPoly.variable(ctx, 2, 0)
    with pytest.raises(DomainError):
        f.evaluate((1,))


def test_monomial_counts():
    assert monomial_count(2, 2) == 6
    assert monomial_count(3, 9) == 220
    assert len(monomials_upto(2, 2)) == 6
    assert len(monomials_upto(3, 9)) == 220
    # lex order is what the sampler's coefficient stream follows
    for nvars, degcap in ((1, 3), (3, 4), (4, 2)):
        box = itertools.product(range(degcap + 1), repeat=nvars)
        assert monomials_upto(nvars, degcap) == sorted(e for e in box if sum(e) <= degcap)
    assert monomials_upto(0, 5) == [()]


def test_sampler_uniformity_chi_square():
    # p=5, one variable, degree cap 1: 25 equally likely coefficient pairs
    ctx = FieldCtx.prime(5)
    rng = Rng(31337)
    n = 10_000
    counts = {}
    for i in range(n):
        f = sample_uniform(ctx, 1, 1, rng.derive(i))
        pair = (f.terms.get((0,), 0), f.terms.get((1,), 0))
        counts[pair] = counts.get(pair, 0) + 1
    assert len(counts) == 25
    expected = n / 25
    sigma = math.sqrt(n * (1 / 25) * (24 / 25))
    for pair, c in counts.items():
        assert abs(c - expected) <= 5 * sigma, (pair, c)
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 80  # 24 dof; generous ceiling


@pytest.mark.parametrize("p", [3, 13, 2**31 - 1])
def test_sample_uniform_matches_scalar_reference(p):
    # one stream feeds several draws, so the counter must also match
    ctx = FieldCtx.prime(p)
    for seed in (0, 9):
        fast, slow = Rng(seed), Rng(seed)
        for nvars in (1, 2, 4):
            for degcap in (0, 2, 16):
                f = sample_uniform(ctx, nvars, degcap, fast)
                g = ref.sample_uniform(ctx, nvars, degcap, slow)
                assert f.terms == g.terms and list(f.terms) == list(g.terms)
                assert fast._counter == slow._counter


def test_sample_uniform_terms_are_what_the_constructor_keeps():
    # sample_uniform stores its own terms unchecked; the checks would change nothing
    for p, nvars, degcap in ((2, 1, 0), (3, 2, 5), (13, 4, 16), (101, 3, 6), (2**31 - 1, 2, 4)):
        ctx = FieldCtx.prime(p)
        for seed in range(3):
            f = sample_uniform(ctx, nvars, degcap, Rng(seed))
            assert MultiPoly(ctx, nvars, f.terms) == f
            assert all(type(c) is int and 0 < c < p for c in f.terms.values())
            assert all(type(e) is int for exps in f.terms for e in exps)


def test_multipoly_validates_exponents():
    ctx = FieldCtx.prime(5)
    assert MultiPoly(ctx, 0, {(): 7}).terms == {(): 2}
    assert MultiPoly(ctx, 2, {(np.int64(1), 2): 3}).terms == {(1, 2): 3}
    with pytest.raises(DomainError, match="length"):
        MultiPoly(ctx, 2, {(1,): 1})
    with pytest.raises(DomainError, match="length"):
        MultiPoly(ctx, 0, {(0,): 1})
    with pytest.raises(DomainError, match="nonnegative"):
        MultiPoly(ctx, 3, {(1, -1, 0): 1})


def test_zero_set_examples():
    ctx3 = FieldCtx.prime(3)
    f = MultiPoly.variable(ctx3, 2, 0)
    assert zero_set(f) == [(0, 0), (0, 1), (0, 2)]
    ctx7 = FieldCtx.prime(7)
    circle = MultiPoly(ctx7, 2, {(2, 0): 1, (0, 2): 1, (0, 0): -1})
    assert len(zero_set(circle)) == 8
    one = MultiPoly.constant(ctx7, 2, 1)
    assert zero_set(one) == []


def test_zero_set_matches_scalar_oracle():
    # the oracle enumerates points in lex order, so this also pins the order
    rng = Rng(5)
    for trial in range(30):
        r = rng.derive(trial)
        p = (2, 3, 5, 7)[r.randbelow(4)]
        d = 1 + r.randbelow(3)
        f = sample_uniform(FieldCtx.prime(p), d, 1 + r.randbelow(8), r)
        assert zero_set(f) == scalar_zero_points(f)
        assert count_zeros(f) == len(scalar_zero_points(f))


def test_sample_uniform_term_cap(monkeypatch):
    # C(3 + 4, 3) = 35 coefficients: a raise at cap 34 and the same draw at 35
    ctx = FieldCtx.prime(7)
    want = sample_uniform(ctx, 3, 4, Rng(5))
    monkeypatch.setattr(mpoly, "TERM_CAP", 34)
    with pytest.raises(ResourceLimitError):
        sample_uniform(ctx, 3, 4, Rng(5))
    monkeypatch.setattr(mpoly, "TERM_CAP", 35)
    assert sample_uniform(ctx, 3, 4, Rng(5)) == want


def test_zero_set_cap(monkeypatch):
    ctx = FieldCtx.prime(7)
    f = MultiPoly.variable(ctx, 4, 0)
    monkeypatch.setattr(mpoly, "ENUM_CAP", 100)
    with pytest.raises(ResourceLimitError):
        zero_set(f)


def test_zero_set_of_product_is_union():
    ctx = FieldCtx.prime(5)
    rng = Rng(77)
    for trial in range(10):
        r = rng.derive(trial)
        f = sample_uniform(ctx, 2, 2, r)
        g = sample_uniform(ctx, 2, 2, r)
        want = sorted(set(zero_set(f)) | set(zero_set(g)))
        assert zero_set(f * g) == want


def test_zero_count_mean_matches_expectation():
    # mean |V(f)| over uniform f should sit near p^(D-1)
    p, d = 5, 3
    ctx = FieldCtx.prime(p)
    rng = Rng(2)
    total = sum(count_zeros(sample_uniform(ctx, d, 2, rng.derive(i))) for i in range(200))
    mean = total / 200
    assert abs(mean - p ** (d - 1)) <= 0.10 * p ** (d - 1)


def test_evaluate_ring_homomorphism_randomized():
    ctx = FieldCtx.prime(7)
    rng = Rng(11)
    for trial in range(1000):
        r = rng.derive(trial)
        f = sample_uniform(ctx, 2, 2, r)
        g = sample_uniform(ctx, 2, 2, r)
        x = (r.randbelow(7), r.randbelow(7))
        assert (f + g).evaluate(x) == (f.evaluate(x) + g.evaluate(x)) % 7
        assert (f * g).evaluate(x) == f.evaluate(x) * g.evaluate(x) % 7


def test_batch_matches_scalar():
    ctx = FieldCtx.prime(7)
    rng = Rng(13)
    pts = domain_points(7, 2)
    for trial in range(20):
        f = sample_uniform(ctx, 2, 3, rng.derive(trial))
        vals = evaluate_batch(f, pts)
        for row, v in zip(pts, vals):
            assert f.evaluate(tuple(int(c) for c in row)) == int(v)


def _grid_values(f, axes):
    return np.concatenate(list(grid_slabs(coefficient_tensor(f), f.ctx.p, axes)))


def _scalar_values(f, axes):
    shape = tuple(len(a) for a in axes)
    out = np.zeros(shape, dtype=np.int64)
    for idx in np.ndindex(*shape):
        out[idx] = f.evaluate(tuple(int(a[i]) for a, i in zip(axes, idx)))
    return out


@pytest.mark.parametrize(
    "p, regime",
    [
        (7, (np.float64, 9)),  # k (p-1)^2 < 2^53: one float64 BLAS pass
        (67108859, (np.int64, 2048)),  # ~2^26: int64, one reduction per axis
        (2**31 - 1, (np.int64, 2)),  # int64, a reduction every 2 terms
    ],
)
def test_grid_kernel_matches_scalar(p, regime):
    assert mpoly._plan(9, p) == regime
    ctx = FieldCtx.prime(p)
    rng = Rng(p)
    for trial in range(6):
        r = rng.derive(trial)
        f = sample_uniform(ctx, 3, 8, r)
        # small product sets with repeats, 0 and p - 1 in every axis
        axes = [[0, p - 1] + [r.randbelow(p) for _ in range(1 + t)] for t in range(3)]
        axes[1].append(axes[1][-1])
        assert np.array_equal(_grid_values(f, axes), _scalar_values(f, axes))


def test_grid_kernel_reduces_after_every_term(monkeypatch):
    # every product through `matmul_mod` - the grid kernel, `gram` and
    # `norms_of_rows` - then takes the int64 path with a reduction per term
    monkeypatch.setattr(mpoly, "_plan", lambda k, p: (np.int64, 1))
    p = 2**31 - 1
    f = sample_uniform(FieldCtx.prime(p), 2, 6, Rng(8))
    axes = [[0, 1, p - 1, 12345], [p - 2, 7, 0]]
    assert np.array_equal(_grid_values(f, axes), _scalar_values(f, axes))
    for q in (7, p):
        form = BilinearForm(FieldCtx.prime(q), (1, -1, 1))
        pts = [[0, q - 1, 1], [q - 1, q - 1, q - 1], [5, 0, q - 2], [q - 3, 2, 0]]
        want = [[form.inner(x, y) for y in pts] for x in pts]
        assert form.gram(pts, pts).tolist() == want
        assert form.gram(np.reshape(pts, (2, 2, 3)), pts[:1]).tolist() == [
            [row[:1] for row in want[:2]], [row[:1] for row in want[2:]]]
        assert form.norms_of_rows(pts).tolist() == [form.norm_sq(x) for x in pts]


# The primes on either side of each band edge: the smallest and the largest
# p whose first reduction comes after j of the 4 axes (k = 9) - after all 4
# (the final residues) for p = 263, and on the int64 path for p = 31635431.
@pytest.mark.parametrize(
    "p, first_reduction",
    [(31635431, 0), (31635403, 1), (48091, 1), (48079, 2), (1877, 2), (1873, 3), (269, 3),
     (263, 4)],
)
def test_grid_kernel_reduces_only_when_2_53_demands_it(monkeypatch, p, first_reduction):
    # degree 8 in 4 variables: every exponent axis has length k = 9
    k, ctx, rng = 9, FieldCtx.prime(p), Rng(p)
    bound, axes_done = p - 1, 0
    while axes_done < 4 and bound * k * (p - 1) < 2**53:
        bound, axes_done = bound * k * (p - 1), axes_done + 1
    assert axes_done == first_reduction
    events = []
    dot, residues = mpoly._dot, mpoly._residues
    monkeypatch.setattr(mpoly, "_dot",
                        lambda t, table, p: events.append("dot") or dot(t, table, p))
    monkeypatch.setattr(mpoly, "_residues", lambda t, p: events.append("mod") or residues(t, p))
    for trial in range(3):
        r = rng.derive(trial)
        f = sample_uniform(ctx, 4, 8, r)
        axes = [[0, p - 1] + [r.randbelow(p) for _ in range(1 + v % 3)] for v in range(4)]
        events.clear()
        assert np.array_equal(_grid_values(f, axes), _scalar_values(f, axes))
        # the first reduction (on the int64 path: the hand-over of residues
        # to it) comes after `first_reduction` products
        assert events[: first_reduction + 1] == ["dot"] * first_reduction + ["mod"]
        # force a zero at a point with coordinates 0 and p - 1; the zero test
        # sees its unreduced value, a multiple of p
        x0 = (0, p - 1, axes[2][-1], axes[3][0])
        g = f - MultiPoly.constant(ctx, 4, f.evaluate(x0))
        zeros = np.concatenate(list(mpoly._grid(coefficient_tensor(g), p, axes,
                                                mpoly._multiple_of_p)))
        assert zeros[(0, 1, len(axes[2]) - 1, 0)]
        assert np.array_equal(zeros, _scalar_values(g, axes) == 0)


@pytest.mark.parametrize("p", [2, 3, 2**31 - 1])
def test_multiple_of_p_is_exact_below_2_53(p):
    top = (2**53 - 1) // p * p  # the largest multiple of p below 2^53
    vals = [0, 1, p - 1, p, p + 1, top - 1, top, top + 1, 2**53 - 1]
    vals = [v for v in vals if 0 <= v < 2**53]
    want = [v % p == 0 for v in vals]
    for dtype in (np.float64, np.int64):
        v = np.array(vals, dtype=dtype)
        assert v.astype(object).tolist() == vals  # every value is held exactly
        assert mpoly._multiple_of_p(v, p).tolist() == want


# For the int64-path primes, `chunk` is the number of terms per reduction.
# Every length is one float64 product for p = 3 and 101, so there it is an
# arbitrary length.
@pytest.mark.parametrize("p, chunk", [(3, 64), (101, 64), (67108859, 2048), (2**31 - 1, 2)])
def test_matmul_mod_matches_python_ints(p, chunk):
    int64_path = (2**63 - 1) // (p - 1) ** 2 == chunk
    assert mpoly._plan(chunk + 1, p) == ((np.int64, chunk) if int64_path else (np.float64, chunk + 1))
    gen = np.random.default_rng(p)

    def entries(*shape):
        x = gen.integers(0, p, size=shape, dtype=np.int64)
        x.reshape(-1)[::3] = p - 1  # the largest terms
        x.reshape(-1)[1::7] = 0
        return x

    for k in (1, chunk, chunk + 1, 3 * chunk + 1):
        a, b = entries(2, 3, k), entries(2, k, 2)
        cases = [
            (a[0], b[0]),  # 2-D
            (a, b),  # batched
            (a[:, None], b),  # broadcast to (2, 2, 3, 2)
            (a[0, :0], b[1]),  # no rows
            (-a[1], b[0]),  # entries down to -(p - 1), as `gram` passes them
        ]
        for x, y in cases:
            want = (x.astype(object) @ y.astype(object)) % p
            got = matmul_mod(x, y, p)
            assert got.dtype == np.int64 and got.shape == want.shape
            assert got.tolist() == want.tolist(), (p, k, x.shape, y.shape)


def _reduced_products(source: str):
    """Lines where the result of an `@` is reduced with `%`, outside
    `matmul_mod`."""
    tree = ast.parse(source)
    owner = {id(n) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
             and f.name == "matmul_mod" for n in ast.walk(f)}
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod) and id(node) not in owner
        and any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.MatMult)
                for n in ast.walk(node.left))
    )


def test_every_product_mod_p_goes_through_matmul_mod():
    # the guard sees reductions through calls and sums, and passes lex codes
    # (a `% p` before the `@`) and counting products
    assert _reduced_products(
        "x = (a @ b).astype(int) % p\ny = (w + c @ d) % p\nz = (u - w) % p @ v\nn = f(a) @ g\n"
    ) == [1, 2]
    src = pathlib.Path(mpoly.__file__).parent
    found = {f.name: _reduced_products(f.read_text()) for f in sorted(src.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_count_zeros_peaks_in_slab_memory():
    # the whole-grid sweep holds the coefficient tensor and one slab, not the grid
    for p, d, deg in ((101, 3, 6), (31, 4, 16)):
        f = sample_uniform(FieldCtx.prime(p), d, deg, Rng(p))
        tracemalloc.start()
        try:
            count_zeros(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, (p, d, deg, peak)


def test_grid_kernel_slabs_and_full_grid(monkeypatch):
    # tiny slabs must give the same tensor, in lex order of domain_points
    ctx = FieldCtx.prime(5)
    f = sample_uniform(ctx, 3, 6, Rng(21))
    want = evaluate_batch(f, domain_points(5, 3)).reshape(5, 5, 5)
    assert np.array_equal(_grid_values(f, [range(5)] * 3), want)
    monkeypatch.setattr(mpoly, "_SLAB_ELEMS", 1)
    slabs = list(grid_slabs(coefficient_tensor(f), 5, [range(5)] * 3))
    assert len(slabs) == 5
    assert np.array_equal(np.concatenate(slabs), want)
    assert np.array_equal(zero_mask(f).ravel(), want.ravel() == 0)


def test_count_zeros_by_slabs_matches_mask(monkeypatch):
    rng = Rng(33)
    polys = [sample_uniform(FieldCtx.prime(p), d, deg, rng.derive(p * d))
             for p, d, deg in ((2, 3, 4), (5, 3, 6), (7, 2, 9), (3, 4, 5), (11, 1, 3))]
    polys.append(MultiPoly.variable(FieldCtx.prime(7), 3, 1))
    want = [int(np.count_nonzero(zero_mask(f))) for f in polys]
    monkeypatch.setattr(mpoly, "_SLAB_ELEMS", 7)
    for f, w in zip(polys, want):
        if f.nvars > 1:
            grid = [range(f.ctx.p)] * f.nvars
            coef = coefficient_tensor(f, fold=range(f.nvars))
            assert len(list(grid_slabs(coef, f.ctx.p, grid))) > 1
        assert count_zeros(f) == w
    for c, w in ((0, 1), (3, 0)):
        assert count_zeros(MultiPoly(FieldCtx.prime(5), 0, {(): c})) == w
    monkeypatch.setattr(mpoly, "ENUM_CAP", 300)
    with pytest.raises(ResourceLimitError):
        count_zeros(polys[-1])


def test_coefficient_tensor_round_trip():
    ctx = FieldCtx.prime(11)
    rng = Rng(4)
    for trial in range(20):
        f = sample_uniform(ctx, 1 + trial % 3, 5, rng.derive(trial))
        assert ref.tensor_poly(ctx, coefficient_tensor(f)) == f


def test_zero_set_with_exponents_above_p():
    # folded exponents keep the tensor within (p,) * nvars and the zeros exact
    for p in (2, 3, 5):
        ctx = FieldCtx.prime(p)
        f = MultiPoly(ctx, 3, {(1000, 999, 0): 1, (0, 0, p): 2, (p - 1, 2 * p, 1): 1,
                               (1, 0, 0): p - 1, (0, 0, 0): 1})
        assert all(k <= p for k in coefficient_tensor(f, fold=range(3)).shape)
        assert zero_set(f) == scalar_zero_points(f)


def test_section_tensors_match_bivariate_section():
    rng = Rng(19)
    for p, d1, d2, deg in ((5, 1, 2, 6), (7, 2, 1, 4), (3, 2, 2, 9)):
        ctx = FieldCtx.prime(p)
        f = sample_uniform(ctx, d1 + d2, deg, rng.derive(p))
        sections = section_tensors(f, d2)
        qs = domain_points(p, d2)
        assert sections.shape[0] == len(qs)
        for q, sec in zip(qs, sections):
            assert ref.tensor_poly(ctx, sec) == bivariate_section(f, tuple(int(x) for x in q))
    with pytest.raises(DomainError):
        section_tensors(f, 0)


def test_section_tensors_fold_the_tail_in_small_memory():
    # tail exponents >= p fold into (p,)-long axes, so the unfolded
    # 121^3-entry tensor is never built; the leading exponent 9 >= p is kept,
    # as section degrees are formal
    p = 5
    ctx = FieldCtx.prime(p)
    f = MultiPoly(ctx, 4, {(1, 120, 120, 120): 1, (9, 7, 0, 5): 3, (2, 0, p, p - 1): 2,
                           (0, 4, 121, 0): 4, (0, 0, 0, 0): 1})
    tracemalloc.start()
    try:
        sections = section_tensors(f, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert sections.shape == (p**3, 10)
    for q, sec in zip(domain_points(p, 3), sections):
        assert ref.tensor_poly(ctx, sec) == bivariate_section(f, tuple(int(x) for x in q))


def test_bivariate_section_examples():
    ctx = FieldCtx.prime(5)
    f = MultiPoly(ctx, 2, {(1, 1): 1})  # x0 * x1
    g = bivariate_section(f, (2,))
    assert g == MultiPoly(ctx, 1, {(1,): 2})
    h = MultiPoly(ctx, 2, {(1, 0): 1, (0, 2): 1})  # x0 + x1^2
    assert bivariate_section(h, (0,)) == MultiPoly.variable(ctx, 1, 0)


def test_bivariate_section_random_cross_check():
    ctx = FieldCtx.prime(7)
    rng = Rng(17)
    for trial in range(100):
        r = rng.derive(trial)
        f = sample_uniform(ctx, 3, 3, r)  # split as 1 + 2 variables
        q = (r.randbelow(7), r.randbelow(7))
        g = bivariate_section(f, q)
        assert g.nvars == 1
        assert g.total_degree <= f.total_degree
        x = (r.randbelow(7),)
        assert g.evaluate(x) == f.evaluate(x + q)


def test_fixture_round_trip():
    ctx = FieldCtx.prime(7)
    rng = Rng(23)
    for trial in range(50):
        f = sample_uniform(ctx, 2, 3, rng.derive(trial))
        assert parse_poly(format_poly(f)) == f
    z = MultiPoly.zero(ctx, 2)
    assert parse_poly(format_poly(z)) == z
    assert format_poly(parse_poly("p=7; vars=2; 3*x0^2*x1 + 1")) == "p=7; vars=2; 3*x0^2*x1 + 1"
    assert parse_poly("p=7; vars=1; 10*x0").terms == {(1,): 3}  # reduced mod p
