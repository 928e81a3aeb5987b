import pytest

from ffil import DomainError, FieldCtx, find_prime, is_prime
from ffil.gf import _inverse_mod
from ffil.rng import Rng

from oracles import trial_division_prime
from search_reference import QuadraticField


def _ops(field):
    """(add, sub, mul, zero, one) of a prime context or a reference F_{p^2}."""
    if isinstance(field, QuadraticField):
        return field.add, field.sub, field.mul, field.zero, field.one
    p = field.p
    return (lambda x, y: (x + y) % p), (lambda x, y: (x - y) % p), (lambda x, y: x * y % p), 0, 1


def _raw(field, rng):
    if isinstance(field, QuadraticField):
        return (rng.randbelow(field.p), rng.randbelow(field.p))
    return rng.randbelow(field.p)


def _power(field, x, e):
    _, _, mul, _, out = _ops(field)
    while e:
        if e & 1:
            out = mul(out, x)
        x = mul(x, x)
        e >>= 1
    return out


def test_inverse_f7_exhaustive_oracle():
    # independent oracle: the unique y with a*y = 1 mod 7
    assert _inverse_mod(3, 7) == 5
    for a in range(1, 7):
        assert _inverse_mod(a, 7) == next(y for y in range(7) if a * y % 7 == 1)


def test_inverse_identity_and_zero():
    for p in (2, 3, 11, 101):
        assert _inverse_mod(1, p) == 1
        for zero in (0, p):
            with pytest.raises(DomainError, match="no inverse of zero"):
                _inverse_mod(zero, p)


def test_inverse_alpha_in_f49():
    ext = QuadraticField(7)
    assert ext.mul((0, 1), (0, 6)) == (1, 0)  # alpha * (-alpha) = 1


def test_find_prime_examples():
    assert find_prime(50) == 53
    assert find_prime(50, (3, 4)) == 59
    assert find_prime(2) == 3


def test_find_prime_independent_verification():
    for lower in (2, 10, 97, 500, 1234):
        for cls in (None, (3, 4), (1, 4)):
            p = find_prime(lower, cls)
            assert trial_division_prime(p)
            assert p > lower
            if cls:
                assert p % cls[1] == cls[0] % cls[1]
            # no smaller prime qualifies
            for q in range(lower + 1, p):
                if cls and q % cls[1] != cls[0] % cls[1]:
                    continue
                assert not trial_division_prime(q)


def test_find_prime_bad_inputs():
    with pytest.raises(DomainError):
        find_prime(1)
    with pytest.raises(DomainError):
        find_prime(10, (2, 4))  # gcd != 1


def test_sqrt_minus_one():
    # p = 3 (mod 4): F_p has no square root of -1, and alpha is one in F_{p^2}
    for p in (3, 7, 11, 19):
        assert all(y * y % p != p - 1 for y in range(p))
        assert QuadraticField(p).mul((0, 1), (0, 1)) == (p - 1, 0)


def test_ctx_validation():
    with pytest.raises(DomainError):
        FieldCtx.prime(6)
    with pytest.raises(DomainError):
        QuadraticField(5)  # 5 = 1 mod 4
    with pytest.raises(DomainError):
        FieldCtx.prime(2**31 + 11)
    assert FieldCtx.__slots__ == ("p",)
    assert FieldCtx(7) == FieldCtx.prime(7) != FieldCtx.prime(11)


def test_field_axioms_property():
    rng = Rng(2024)
    fields = [FieldCtx.prime(7), FieldCtx.prime(101), QuadraticField(7), QuadraticField(19)]
    for _ in range(10_000):
        field = fields[rng.randbelow(len(fields))]
        add, sub, mul, zero, _ = _ops(field)
        x, y, z = (_raw(field, rng) for _ in range(3))
        assert add(add(x, y), z) == add(x, add(y, z))
        assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
        assert sub(add(x, y), y) == x
        if x == zero:
            continue
        if isinstance(field, FieldCtx):
            assert mul(x, _inverse_mod(x, field.p)) == 1
        else:
            # x times its conjugate is its norm: a nonzero element of F_p
            norm = mul(x, (x[0], -x[1] % field.p))
            assert norm[1] == 0 and norm[0] != 0


def test_frobenius_small_primes():
    p = 2
    while p <= 101:
        ctx = FieldCtx.prime(p)
        for x in range(p):
            assert _power(ctx, x, p) == x
        p = find_prime(p)
    # on F_{p^2} the Frobenius map is conjugation: alpha^p = -alpha
    for p in (3, 7):
        ext = QuadraticField(p)
        for a in range(p):
            for b in range(p):
                assert _power(ext, (a, b), p) == (a, -b % p)


def test_extension_arithmetic_consistency():
    # (a + b*alpha)(c + d*alpha) against the defining relation, exhaustively for p = 3
    ext = QuadraticField(3)
    pairs = [(a, b) for a in range(3) for b in range(3)]
    for a, b in pairs:
        for c, d in pairs:
            want = ((a * c - b * d) % 3, (a * d + b * c) % 3)
            assert ext.mul((a, b), (c, d)) == want


def test_is_prime_against_trial_division():
    for n in range(2, 2000):
        assert is_prime(n) == trial_division_prime(n)
