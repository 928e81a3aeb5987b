import math

import numpy as np
import pytest

from ffil import (
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
    section_tensors,
    tensor_poly,
    zero_mask,
)
from ffil.rng import Rng

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


def test_zero_set_cap():
    ctx = FieldCtx.prime(7)
    f = MultiPoly.variable(ctx, 4, 0)
    with pytest.raises(ResourceLimitError):
        zero_set(f, cap=100)


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
    monkeypatch.setattr(mpoly, "_plan", lambda k, p: (np.int64, 1))
    p = 2**31 - 1
    f = sample_uniform(FieldCtx.prime(p), 2, 6, Rng(8))
    axes = [[0, 1, p - 1, 12345], [p - 2, 7, 0]]
    assert np.array_equal(_grid_values(f, axes), _scalar_values(f, axes))


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


def test_coefficient_tensor_round_trip():
    ctx = FieldCtx.prime(11)
    rng = Rng(4)
    for trial in range(20):
        f = sample_uniform(ctx, 1 + trial % 3, 5, rng.derive(trial))
        assert tensor_poly(ctx, coefficient_tensor(f)) == f


def test_zero_set_with_exponents_above_p():
    # folded exponents keep the tensor within (p,) * nvars and the zeros exact
    for p in (2, 3, 5):
        ctx = FieldCtx.prime(p)
        f = MultiPoly(ctx, 3, {(1000, 999, 0): 1, (0, 0, p): 2, (p - 1, 2 * p, 1): 1,
                               (1, 0, 0): p - 1, (0, 0, 0): 1})
        assert all(k <= p for k in coefficient_tensor(f, fold=True).shape)
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
            assert tensor_poly(ctx, sec) == bivariate_section(f, tuple(int(x) for x in q))
    with pytest.raises(DomainError):
        section_tensors(f, 0)


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
