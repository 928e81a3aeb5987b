"""Exact arithmetic in prime fields F_p and the quadratic extension F_{p^2}.

The extension is F_p[a] / (a^2 + 1) and is only defined for p = 3 (mod 4),
which makes a^2 + 1 irreducible. Raw values are ints in [0, p) for prime
contexts and pairs (x, y) meaning x + y*a for extension contexts; the rest of
the package works on raw values through the context methods.
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
    """Field context: prime F_p or quadratic extension F_{p^2}, a^2 = -1.

    Immutable after construction; all operations are pure functions on raw
    values, so contexts are safe to share freely.
    """

    __slots__ = ("kind", "p")

    def __init__(self, p: int, kind: str = "prime"):
        if kind not in ("prime", "ext"):
            raise DomainError(f"unknown field kind {kind!r}")
        if not 2 <= p <= MAX_MODULUS:
            raise DomainError(f"modulus {p} outside supported range [2, 2^31]")
        if not is_prime(p):
            raise DomainError(f"{p} is not prime")
        if kind == "ext" and p % 4 != 3:
            raise DomainError("quadratic extension needs p = 3 (mod 4)")
        self.kind = kind
        self.p = p

    @classmethod
    def prime(cls, p: int) -> "FieldCtx":
        return cls(p, "prime")

    @classmethod
    def quadratic(cls, p: int) -> "FieldCtx":
        return cls(p, "ext")

    def __repr__(self):
        return f"FieldCtx(F_{self.p})" if self.kind == "prime" else f"FieldCtx(F_{self.p}^2)"

    def __eq__(self, other):
        return (
            isinstance(other, FieldCtx) and self.kind == other.kind and self.p == other.p
        )

    def __hash__(self):
        return hash((self.kind, self.p))

    # -- raw-value arithmetic ------------------------------------------------

    def zero_raw(self):
        return 0 if self.kind == "prime" else (0, 0)

    def add(self, x, y):
        p = self.p
        if self.kind == "prime":
            return (x + y) % p
        return ((x[0] + y[0]) % p, (x[1] + y[1]) % p)

    def sub(self, x, y):
        p = self.p
        if self.kind == "prime":
            return (x - y) % p
        return ((x[0] - y[0]) % p, (x[1] - y[1]) % p)

    def mul(self, x, y):
        p = self.p
        if self.kind == "prime":
            return x * y % p
        a, b = x
        c, d = y
        return ((a * c - b * d) % p, (a * d + b * c) % p)
