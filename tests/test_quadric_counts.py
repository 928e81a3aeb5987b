"""The sphere layer against closed forms for diagonal quadrics over F_p.

Let Q be a nondegenerate diagonal form in d variables over F_p, p odd, with
discriminant D = prod(sigma_i) and eta the quadratic character. By Lidl and
Niederreiter, Finite Fields, Theorems 6.26 and 6.27:
  d odd:  #{Q = c} = p^(d-1) + p^((d-1)/2) eta((-1)^((d-1)/2) c D);
  d even: #{Q = c} = p^(d-1) + nu(c) p^((d-2)/2) eta((-1)^(d/2) D),
          nu(0) = p - 1, nu(c) = -1 for c != 0.
The unit sphere is {Q = 1}. By Witt's theorem, in odd dimension d = 2k + 1
the form splits as k hyperbolic planes plus <1>, so a totally isotropic
k-space V with a unit vector w orthogonal to it exists, exactly when
(-1)^k D is a square; then w + V is an affine k-flat on the origin unit
sphere, and any such flat gives such a pair. A line s_0 + F_p v lies on
the unit sphere iff v is a nonzero isotropic vector of s_0^perp, so the
sphere's lines are counted in closed form too.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from ffil import (
    BilinearForm,
    FieldCtx,
    Sphere,
    flats_in_sphere_check,
    isotropic_unit_pair_search,
)
from ffil.constructions import unit_distance_instance
from ffil.geometry import _origin_sphere_points
from ffil.gf import is_prime
from ffil.mpoly import domain_points
from ffil.rng import Rng

PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
CONVENTIONS = {
    "standard": lambda d: (1,) * d,
    "last-negated": lambda d: (1,) * (d - 1) + (-1,),
}


def eta(a: int, p: int) -> int:
    """Quadratic character of a mod p (Euler's criterion), 0 at 0."""
    a %= p
    return 0 if a == 0 else 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def quadric_count(sig, c: int, p: int) -> int:
    """#{x in F_p^d : sum_i sig_i x_i^2 = c}, in closed form."""
    d, disc = len(sig), math.prod(sig)
    if d % 2:
        return p ** (d - 1) + p ** ((d - 1) // 2) * eta((-1) ** ((d - 1) // 2) * c * disc, p)
    nu = p - 1 if c % p == 0 else -1
    return p ** (d - 1) + nu * p ** ((d - 2) // 2) * eta((-1) ** (d // 2) * disc, p)


SPHERE_CASES = [(p, d) for d in range(1, 6) for p in PRIMES if p**d <= 2 * 10**5]


@pytest.mark.parametrize("convention", sorted(CONVENTIONS))
@pytest.mark.parametrize("p, d", SPHERE_CASES)
def test_origin_sphere_size_is_the_closed_form(p, d, convention):
    sig = CONVENTIONS[convention](d)
    form = BilinearForm(FieldCtx.prime(p), sig)
    assert len(_origin_sphere_points(form)) == quadric_count(sig, 1, p)
    # the O(Q)_0 orbits on the nonzero vectors are the level sets Q = c,
    # c != 0, and the nonzero isotropic vectors
    orbits = [quadric_count(sig, c, p) for c in range(1, p)] + [quadric_count(sig, 0, p) - 1]
    assert min(orbits) >= 0 and sum(orbits) == p**d - 1


@pytest.mark.parametrize("convention", sorted(CONVENTIONS))
@pytest.mark.parametrize("p, d", [(p, d) for p, d in SPHERE_CASES if p**d <= 3 * 10**4])
def test_every_level_set_is_the_closed_form(p, d, convention):
    sig = CONVENTIONS[convention](d)
    norms = BilinearForm(FieldCtx.prime(p), sig).norms_of_rows(domain_points(p, d))
    counts = np.bincount(norms, minlength=p).tolist()
    assert counts == [quadric_count(sig, c, p) for c in range(p)]


@pytest.mark.parametrize("p", [10007, 10009, 99991, 100003])
def test_line_sphere_size_is_the_closed_form(p):
    # d = 1: sigma x^2 = 1 has 1 + eta(sigma) roots; p = 3 and 1 (mod 4)
    for sig in ((1,), (-1,)):
        assert len(_origin_sphere_points(BilinearForm(FieldCtx.prime(p), sig))) == 1 + eta(sig[0], p)


@pytest.mark.parametrize("d, p", [(2, 7), (2, 11), (3, 7), (3, 11)])
def test_rooted_unit_distance_block_has_the_closed_form_width(d, p):
    # the rooted host is the p^d x |S| block of the grid against the origin
    # unit sphere S, so every count the report derives from it is p^d |S|
    inst = unit_distance_instance(None, d, Rng(1), p=p, s=4)
    width = quadric_count(inst.form.signature, 1, p)
    assert inst.report.counters["rooted_searches"] > 0
    assert inst.report.achieved["cross_pairs"] == p**d * width
    assert 2 * inst.report.achieved["unit_distances"] == p**d * width


WITT_CASES = [(1, p) for p in PRIMES[:6]] + [(3, p) for p in PRIMES[:8]] + [(5, 3), (5, 5)]


@pytest.mark.parametrize("convention", sorted(CONVENTIONS))
@pytest.mark.parametrize("d, p", WITT_CASES)
def test_isotropic_unit_pair_exists_exactly_when_witt_says(d, p, convention):
    sig = CONVENTIONS[convention](d)
    form = BilinearForm(FieldCtx.prime(p), sig)
    k = (d - 1) // 2
    expected = eta((-1) ** k * math.prod(sig), p) == 1
    assert (isotropic_unit_pair_search(form) is not None) == expected
    # (V, w) -> w + V: a pair exists exactly when the unit sphere holds a k-flat
    flats = flats_in_sphere_check(Sphere(form, (0,) * d), k)
    assert bool(sum(flats.counts[k:])) == expected  # the number of k-flats, if the walk reached level k


LINE_CASES = [(3, p) for p in range(3, 102) if is_prime(p)] + [(4, p) for p in PRIMES]


@pytest.mark.parametrize("convention", sorted(CONVENTIONS))
@pytest.mark.parametrize("d, p", LINE_CASES)
def test_points_and_lines_in_the_sphere_are_the_closed_form(d, p, convention):
    # a line s_0 + F_p v lies in S iff v is a nonzero isotropic vector of
    # s_0^perp, nondegenerate of dimension d - 1 and discriminant D (as
    # Q(s_0) = 1); those are N = #{Q' = 0} - 1 for Q' = <1, .., 1, D>. So
    # N / (p - 1) lines pass through each point, and S holds
    # |S| N / ((p - 1) p) lines, far past the reference walk's reach
    sig = CONVENTIONS[convention](d)
    size, isotropic = quadric_count(sig, 1, p), quadric_count((1,) * (d - 2) + (math.prod(sig),), 0, p) - 1
    lines, rest = divmod(size * isotropic, (p - 1) * p)
    report = flats_in_sphere_check(Sphere(BilinearForm(FieldCtx.prime(p), sig), (0,) * d), 1)
    assert rest == 0 and report.counts == [size, lines][: 1 + (lines > 0)]
    assert sum(report.counts) == size * (1 + Fraction(isotropic, (p - 1) * p))
    assert report.all_pass and [len(rows) for rows in report.rows] == [1, isotropic // (p - 1)][: len(report.counts)]


def test_line_counts_match_hand_checked_values():
    # F_13^3 holds 182 points and 28 lines (24 isotropic vectors in s_0^perp);
    # F_97^4 holds 1,834,560 points and lines
    assert quadric_count((1, 1), 0, 13) - 1 == 24 and quadric_count((1, 1, 1), 1, 13) == 182
    report = flats_in_sphere_check(Sphere(BilinearForm.standard(FieldCtx.prime(13), 3), (0,) * 3), 1)
    assert report.counts == [182, 182 * 24 // (12 * 13)] == [182, 28]
    size, isotropic = quadric_count((1,) * 4, 1, 97), quadric_count((1,) * 3, 0, 97) - 1
    assert size + size * isotropic // (96 * 97) == 1834560


def test_witt_cases_exercise_both_verdicts():
    verdicts = {eta((-1) ** ((d - 1) // 2) * math.prod(CONVENTIONS[c](d)), p) == 1
                for d, p in WITT_CASES for c in CONVENTIONS}
    assert verdicts == {True, False}
