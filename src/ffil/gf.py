"""Prime fields F_p: primality, prime search, inverses and the field context.

Field elements are ints in [0, p). A `FieldCtx` names the field and checks its
modulus once; the modules that use it compute mod `ctx.p` on ints and numpy
arrays.
"""

import math

from .errors import DomainError, ResourceLimitError

# Products of two residues must fit in 64-bit intermediates.
MAX_MODULUS = 2**31

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24 (covers 64-bit)."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def find_prime(lower: int, residue_class=None) -> int:
    """Smallest prime strictly greater than `lower`, optionally in a residue class.

    `residue_class` is a pair (r, m) with gcd(r, m) = 1. The search stops at
    4 * lower (comfortable headroom for Bertrand-type gaps in the classes used
    here); exceeding it raises ResourceLimitError.
    """
    if lower < 2:
        raise DomainError("find_prime requires lower >= 2")
    cap = 4 * lower
    if residue_class is None:
        n, step = lower + 1, 1
    else:
        r, m = residue_class
        if m < 1 or math.gcd(r % m if m else r, m) != 1:
            raise DomainError("residue class (r, m) must have gcd(r, m) = 1")
        n = lower + 1
        n += (r - n) % m
        step = m
    while n <= cap:
        if is_prime(n):
            return n
        n += step
    raise ResourceLimitError(f"no prime found in ({lower}, {cap}]")


def _inverse_mod(a: int, p: int) -> int:
    """Inverse of a mod p by extended Euclid; DomainError on zero."""
    a %= p
    if a == 0:
        raise DomainError("no inverse of zero")
    r0, r1 = p, a
    s0, s1 = 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    return s0 % p


class FieldCtx:
    """Field context of the prime field F_p.

    Immutable after construction, so contexts are safe to share freely.
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not 2 <= p <= MAX_MODULUS:
            raise DomainError(f"modulus {p} outside supported range [2, 2^31]")
        if not is_prime(p):
            raise DomainError(f"{p} is not prime")
        self.p = p

    @classmethod
    def prime(cls, p: int) -> "FieldCtx":
        return cls(p)

    def __repr__(self):
        return f"FieldCtx(F_{self.p})"

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and self.p == other.p

    def __hash__(self):
        return hash(self.p)
