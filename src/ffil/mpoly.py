"""Sparse multivariate polynomials over prime fields.

A MultiPoly maps exponent vectors to nonzero coefficients. The scalar
`evaluate` is the reference semantics (term-by-term powering), and
`bivariate_section` is the reference for fixing trailing variables.

Whole-grid sweeps (`zero_mask`, `zero_set`, `count_zeros`, and the grid
work in `constructions`) go through one separable kernel, `grid_slabs`: the
dense coefficient tensor (one axis per variable) is contracted one axis at a
time with the power table x^e mod p of that axis' coordinates, so a sweep of
n^D points costs about D n^(D+1) multiply-adds instead of terms x n^D, and
contracting only the trailing axes yields every section's coefficients at
once (Kronecker-structured evaluation, as in Yates' algorithm). It reduces
mod p only where a float64 product could reach 2^53 (the exactness rule of
`matmul_mod`, which every other product mod p calls), in cache-sized slabs.
`evaluate_batch` vectorizes the term-by-term arithmetic for scattered
points. The test suite cross-checks every path against `evaluate`.
`sample_uniform` draws all its coefficients in one block
(`Rng.randbelow_many`), the same stream as one scalar draw per monomial.

Supported arithmetic is deliberately small: add, multiply, substitute. No
GCDs, no factorization.
"""

import math
import re
from functools import cache
from itertools import chain

import numpy as np

from .errors import DomainError, ResourceLimitError
from .gf import FieldCtx

ENUM_CAP = 10**8  # points of one grid sweep, or subsets of one shatter scan
TERM_CAP = 10**7  # coefficients drawn for one random polynomial


class MultiPoly:
    """Multivariate polynomial over F_p in sparse exponent-map form."""

    __slots__ = ("ctx", "nvars", "terms")

    def __init__(self, ctx: FieldCtx, nvars: int, terms):
        if nvars < 0:
            raise DomainError("nvars must be nonnegative")
        p = ctx.p
        clean = {}
        for exps, c in dict(terms).items():
            exps = tuple(map(int, exps))
            if len(exps) != nvars:
                raise DomainError(f"exponent vector {exps} has length != {nvars}")
            if nvars and min(exps) < 0:
                raise DomainError("exponents must be nonnegative")
            c %= p
            if c:
                clean[exps] = c
        self.ctx = ctx
        self.nvars = nvars
        self.terms = clean

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, ctx, nvars):
        return cls(ctx, nvars, {})

    @classmethod
    def constant(cls, ctx, nvars, c):
        return cls(ctx, nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, ctx, nvars, i):
        if not 0 <= i < nvars:
            raise DomainError("variable index out of range")
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(ctx, nvars, {exps: 1})

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def total_degree(self) -> int:
        """Max exponent sum over stored terms; 0 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=0)

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.ctx == other.ctx
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ctx, self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"MultiPoly(p={self.ctx.p}, {format_poly(self)!r})"

    # -- arithmetic (builders for fixtures and sections) -------------------

    def _check_compat(self, other):
        if self.ctx != other.ctx or self.nvars != other.nvars:
            raise DomainError("polynomial context/arity mismatch")

    def __add__(self, other):
        self._check_compat(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return MultiPoly(self.ctx, self.nvars, out)

    def __neg__(self):
        return MultiPoly(self.ctx, self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_compat(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return MultiPoly(self.ctx, self.nvars, out)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, point) -> int:
        """Value at `point` (ints), term by term, as a residue in [0, p)."""
        if len(point) != self.nvars:
            raise DomainError(
                f"point has dimension {len(point)}, polynomial has {self.nvars}"
            )
        p = self.ctx.p
        acc = 0
        for exps, c in self.terms.items():
            t = c
            for x, e in zip(point, exps):
                if e:
                    t = t * pow(x, e, p) % p
            acc = (acc + t) % p
        return acc


def monomials_upto(nvars: int, degcap: int):
    """All exponent vectors of length nvars with sum <= degcap, lex order."""
    out = [()]
    for _ in range(nvars):
        out = [m + (e,) for m in out for e in range(degcap + 1 - sum(m))]
    return out


_monomials = cache(lambda n, deg: tuple(monomials_upto(n, deg)))  # memoized: read-only tuple


def monomial_count(nvars: int, degcap: int) -> int:
    return math.comb(nvars + degcap, nvars)


def sample_uniform(ctx: FieldCtx, nvars: int, degcap: int, rng) -> MultiPoly:
    """Uniformly random polynomial of total degree <= degcap.

    Each of the C(nvars + degcap, nvars) monomial coefficients is drawn
    i.i.d. uniform in F_p, in lex order of `monomials_upto`, by one
    `randbelow_many` call; zero coefficients are dropped from storage. More
    than TERM_CAP coefficients raise ResourceLimitError before any draw.
    """
    if nvars < 1:
        raise DomainError("sample_uniform needs nvars >= 1")
    if degcap < 0:
        raise DomainError("degree cap must be nonnegative")
    count = monomial_count(nvars, degcap)
    if count > TERM_CAP:
        raise ResourceLimitError(f"{count} polynomial coefficients exceed cap {TERM_CAP}")
    coeffs = rng.randbelow_many(ctx.p, count).tolist()
    f = MultiPoly(ctx, nvars, {})  # checks the field; the drawn terms need no checks
    f.terms = {e: c for e, c in zip(_monomials(nvars, degcap), coeffs) if c}
    return f


def domain_points(p: int, nvars: int) -> np.ndarray:
    """All points of F_p^nvars as an int64 array, lexicographic row order."""
    return lex_points(np.arange(p**nvars), p, nvars)


def _lex_weights(p: int, d: int) -> np.ndarray:
    """Weights of the lex code sum_i x_i p^(d-1-i) < p^d of a point of F_p^d:
    its row index in `domain_points(p, d)`, so code order is lex order."""
    return p ** np.arange(d - 1, -1, -1, dtype=np.int64)


def lex_points(codes, p: int, d: int) -> np.ndarray:
    """The rows of `domain_points(p, d)` at the given lex codes, without the grid."""
    return np.asarray(codes, dtype=np.int64).reshape(-1, 1) // _lex_weights(p, d) % p


def _pow_col(base: np.ndarray, e: int, p: int) -> np.ndarray:
    out = np.ones_like(base)
    b = base % p
    while e:
        if e & 1:
            out = out * b % p
        b = b * b % p
        e >>= 1
    return out


def evaluate_batch(f: MultiPoly, pts: np.ndarray) -> np.ndarray:
    """Values of f at each row of pts, as residues. Matches `evaluate` pointwise."""
    if pts.ndim != 2 or pts.shape[1] != f.nvars:
        raise DomainError("point array has wrong dimension")
    p = f.ctx.p
    n = pts.shape[0]
    acc = np.zeros(n, dtype=np.int64)
    powcache = {}
    for exps, c in f.terms.items():
        t = np.full(n, c, dtype=np.int64)
        for v, e in enumerate(exps):
            if not e:
                continue
            col = powcache.get((v, e))
            if col is None:
                col = _pow_col(pts[:, v], e, p)
                powcache[(v, e)] = col
            t = t * col % p
        acc = (acc + t) % p
    return acc


def _check_count(n: int, what: str) -> int:
    """n, unless it exceeds ENUM_CAP: then ResourceLimitError naming `what`."""
    if n > ENUM_CAP:
        raise ResourceLimitError(f"{what} {ENUM_CAP}")
    return n


def _check_enum_cap(p, nvars):
    """p^nvars (p >= 2) within ENUM_CAP; an nvars past its bit length never forms the power."""
    n = p**nvars if nvars < ENUM_CAP.bit_length() else ENUM_CAP + 1
    return _check_count(n, f"enumeration of {p}^{nvars} points exceeds cap")


# -- separable grid evaluation ---------------------------------------------

_SLAB_ELEMS = 1 << 15  # elements in the largest intermediate array of one slab


def coefficient_tensor(f: MultiPoly, fold=()) -> np.ndarray:
    """Dense int64 coefficients of f: one axis per variable, of length
    (largest exponent of that variable) + 1.

    On the variables listed in `fold`, every exponent e >= p first becomes
    1 + (e - 1) mod (p - 1). That leaves the function of those variables on
    F_p unchanged (x^p = x for every x) and caps their axes at length p, so
    the tensor is never larger than the grid they are evaluated on.
    """
    p = f.ctx.p
    count = len(f.terms) * f.nvars
    exps = np.fromiter(chain.from_iterable(f.terms), dtype=np.int64, count=count)
    exps = exps.reshape(len(f.terms), f.nvars)
    big = exps[:, fold] >= p
    merge = bool(big.any())  # only folding can merge exponents
    if merge:
        exps[:, fold] = np.where(big, 1 + (exps[:, fold] - 1) % (p - 1), exps[:, fold])
    shape = tuple(exps.max(axis=0) + 1) if f.terms else (1,) * f.nvars
    coef = np.zeros(shape, dtype=np.int64)
    if not merge:  # distinct exponents, coefficients already below p
        coef[tuple(exps.T)] = list(f.terms.values())
        return coef
    np.add.at(coef, tuple(exps.T), list(f.terms.values()))
    return coef % p


def _power_table(x, k: int, p: int) -> np.ndarray:
    """P[i, e] = x[i]^e mod p for 0 <= e < k (with 0^0 = 1), as int64."""
    x = np.asarray(x, dtype=np.int64) % p
    table = np.ones((x.shape[0], k), dtype=np.int64)
    for e in range(1, k):
        table[:, e] = table[:, e - 1] * x % p
    return table


def _plan(k: int, p: int):
    """(dtype, chunk) for exact length-k dot products mod p (see `matmul_mod`)."""
    bound = (p - 1) ** 2
    if k * bound < 2**53:
        return np.float64, k
    chunk = (2**63 - 1) // bound
    if chunk < 1:
        raise DomainError(f"p = {p} is too large for exact int64 products")
    return np.int64, chunk


def matmul_mod(a, b, p: int) -> np.ndarray:
    """int64 residues of a @ b mod p (matmul broadcasting; int64 arrays of at
    least 2-D, entries of absolute value below p): ffil's one exactness rule.

    A length-k dot product has terms of absolute value at most (p - 1)^2.
    While k (p - 1)^2 < 2^53 it is one float64 BLAS product, exact in any
    summation order, as every partial sum is an integer below 2^53. Else it
    is int64 products over chunks of terms, chunk (p - 1)^2 < 2^63, each
    reduced; their residues sum below 2^63, as p <= 2^31.
    """
    a, b = np.asarray(a), np.asarray(b)
    k = a.shape[-1]
    dtype, chunk = _plan(k, p)
    if dtype is np.float64:
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64) % p
    return sum(a[..., lo : lo + chunk] @ b[..., lo : lo + chunk, :] % p
               for lo in range(0, k, chunk)) % p


def _dot(t: np.ndarray, table: np.ndarray, p: int) -> np.ndarray:
    """Contract axis 0 of t with the (n, k) table; the new axis comes last.
    An int64 table gives residues (`matmul_mod`); a float64 one, the exact
    unreduced values."""
    flat = t.reshape(table.shape[1], -1).T
    out = matmul_mod(flat, table.T, p) if table.dtype == np.int64 else flat @ table.T
    return out.reshape(t.shape[1:] + table.shape[:1])


def _residues(t: np.ndarray, p: int) -> np.ndarray:
    """int64 residues of exact values (int64 ones are residues already)."""
    return t if t.dtype == np.int64 else t.astype(np.int64) % p


def _multiple_of_p(v: np.ndarray, p: int) -> np.ndarray:
    """v % p == 0 for integers 0 <= v < 2^53. If p | v, v / p and its
    product with p are exact; else v / p rounds into [q, q + 1], q = v // p,
    whose floor times p is q p < v or at least (q + 1) p > v."""
    return np.floor(v / p) * p == v


def _grid(coef: np.ndarray, p: int, axes, last):
    """`grid_slabs`, ending each slab with `last` on exact float64 values
    (or, on the int64 path, residues)."""
    coef, m = np.asarray(coef), len(axes)
    tables = [_power_table(x, k, p).astype(_plan(k, p)[0]) for x, k in zip(axes, coef.shape)]
    coef = np.ascontiguousarray(coef, dtype=tables[0].dtype)  # once, not per slab
    width = math.prod(max(t.shape) for t in tables[1:]) * math.prod(coef.shape[m:])
    step = max(1, _SLAB_ELEMS // max(1, width))
    for lo in range(0, len(tables[0]), step):
        t, bound = coef, p - 1  # bound: the largest value an entry of t can hold
        for table in [tables[0][lo : lo + step], *tables[1:]]:
            k = table.shape[1]
            if bound * k * (p - 1) >= 2**53:  # always so on the int64 path
                t, bound = _residues(t, p), p - 1
            t, bound = _dot(t, table, p), bound * k * (p - 1)
        # contracted axes were appended in order after the carried ones
        yield np.ascontiguousarray(np.moveaxis(last(t, p), range(t.ndim - m, t.ndim), range(m)))


def grid_slabs(coef: np.ndarray, p: int, axes):
    """Values of a polynomial on the product set axes[0] x ... x axes[m-1],
    yielded as int64 residues in slabs along axes[0].

    `coef` holds residues mod p. Its first m = len(axes) >= 1 axes are
    exponent axes (as from `coefficient_tensor`), each contracted in turn
    with the power table of its coordinate vector; further axes are carried
    through, so a slab has shape
    (rows, len(axes[1]), ..., len(axes[m-1]), *coef.shape[m:]).

    A bound B on the entries (p - 1 for `coef`) is carried along; an axis of
    length k takes it to B k (p - 1). While that is below 2^53 the axis is
    one float64 BLAS product with no `% p`, exact as in `matmul_mod`.
    Otherwise the entries are reduced first (B = p - 1), or, where k (p - 1)^2
    alone reaches 2^53, the axis is an int64 `matmul_mod` product. Residues
    are taken once per slab; zero tests run `_grid` with the exact
    `_multiple_of_p` as the last step instead. Slabs are cache-sized
    (`_SLAB_ELEMS` elements beyond `coef`), and no coordinate array of the
    product set is built.
    """
    return _grid(coef, p, axes, _residues)


def section_tensors(f: MultiPoly, d2: int) -> np.ndarray:
    """Coefficient tensors of the sections f(., q) for every q in F_p^d2.

    Contracts the trailing d2 >= 1 axes of f's coefficient tensor over all of
    F_p^d2 at once. Row j belongs to the j-th q in lexicographic order and
    holds the coefficients of `bivariate_section(f, q)` on the leading
    nvars - d2 axes. Only the contracted axes are folded: section degrees
    are formal, so the leading exponents stay as they are.
    """
    if not 1 <= d2 <= f.nvars:
        raise DomainError("need 1 <= d2 <= nvars")
    p, d1 = f.ctx.p, f.nvars - d2
    coef = coefficient_tensor(f, fold=range(d1, f.nvars))
    tail_first = np.moveaxis(coef, range(d1, f.nvars), range(d2))
    out = np.concatenate(list(grid_slabs(tail_first, p, [np.arange(p)] * d2)))
    return out.reshape(p**d2, *coef.shape[:d1])


def zero_mask(f: MultiPoly) -> np.ndarray:
    """Boolean tensor of shape (p,) * nvars, True at the zeros of f.

    Entry [x_0, ..., x_{D-1}] is f(x) == 0, so C-order flattening follows the
    lexicographic row order of `domain_points`.
    """
    p = f.ctx.p
    _check_enum_cap(p, f.nvars)
    if f.nvars == 0:
        return np.array(f.evaluate(()) == 0)
    mask = np.empty((p,) * f.nvars, dtype=bool)
    lo = 0
    axes = [np.arange(p)] * f.nvars
    for slab in _grid(coefficient_tensor(f, fold=range(f.nvars)), p, axes, _multiple_of_p):
        mask[lo : lo + slab.shape[0]] = slab
        lo += slab.shape[0]
    return mask


def zero_set(f: MultiPoly):
    """All rational zeros of f in F_p^nvars, in lexicographic order."""
    return [tuple(row) for row in np.argwhere(zero_mask(f)).tolist()]


def count_zeros(f: MultiPoly) -> int:
    """Number of zeros of f in F_p^nvars, counted slab by slab (no full mask)."""
    if f.nvars == 0:
        return int(zero_mask(f))
    p = f.ctx.p
    _check_enum_cap(p, f.nvars)
    coef = coefficient_tensor(f, fold=range(f.nvars))
    slabs = _grid(coef, p, [np.arange(p)] * f.nvars, _multiple_of_p)
    return sum(int(np.count_nonzero(slab)) for slab in slabs)


def bivariate_section(f: MultiPoly, q) -> MultiPoly:
    """Fix the trailing block of variables at q; returns a polynomial in the rest.

    For f on D1 + D2 variables and q in F_p^D2, the result g on D1 variables
    satisfies g(x) = f(x, q) for all x, with degree <= degree of f.
    """
    d2 = len(q)
    if d2 > f.nvars:
        raise DomainError("substitution point has more coordinates than f has variables")
    d1 = f.nvars - d2
    p = f.ctx.p
    out = {}
    for exps, c in f.terms.items():
        head, tail = exps[:d1], exps[d1:]
        for x, e in zip(q, tail):
            if e:
                c = c * pow(x, e, p) % p
        if c:
            out[head] = (out.get(head, 0) + c) % p
    return MultiPoly(f.ctx, d1, out)


# -- textual fixture format ----------------------------------------------
#
#   p=7; vars=2; 3*x0^2*x1 + 1
#
# Coefficients are integers reduced mod p; the printer emits terms in
# descending lexicographic exponent order and round-trips with the parser.

_MONO_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def format_poly(f: MultiPoly) -> str:
    if f.is_zero():
        body = "0"
    else:
        parts = []
        for exps in sorted(f.terms, reverse=True):
            c = f.terms[exps]
            factors = []
            if c != 1 or not any(exps):
                factors.append(str(c))
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(f"x{i}")
                elif e > 1:
                    factors.append(f"x{i}^{e}")
            parts.append("*".join(factors))
        body = " + ".join(parts)
    return f"p={f.ctx.p}; vars={f.nvars}; {body}"


def _fixture_int(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise DomainError(f"malformed polynomial fixture token {token!r}") from None


def parse_poly(text: str, ctx: FieldCtx | None = None) -> MultiPoly:
    pieces = [s.strip() for s in text.split(";")]
    if len(pieces) != 3:
        raise DomainError("expected 'p=..; vars=..; <terms>'")
    p = _fixture_int(pieces[0].partition("=")[2])
    nvars = _fixture_int(pieces[1].partition("=")[2])
    if ctx is None:
        ctx = FieldCtx.prime(p)
    elif ctx.p != p:
        raise DomainError("fixture modulus disagrees with supplied context")
    terms = {}
    body = pieces[2].strip()
    if body != "0":
        for term in body.split("+"):
            term = term.strip()
            coeff = 1
            exps = [0] * nvars
            for factor in term.split("*"):
                factor = factor.strip()
                m = _MONO_RE.match(factor)
                if m:
                    i, e = int(m.group(1)), int(m.group(2) or 1)
                    if i >= nvars:
                        raise DomainError(f"variable x{i} out of range")
                    exps[i] += e
                else:
                    coeff *= _fixture_int(factor)
            key = tuple(exps)
            terms[key] = terms.get(key, 0) + coeff
    return MultiPoly(ctx, nvars, terms)
