"""Zero-patterns, containment patterns, and shatter functions.

For a polynomial sequence f_1..f_k and a point x, the zero-pattern at x is
{i : f_i(x) = 0}; for a sequence of varieties (given as defining polynomial
systems) the containment pattern is {i : x in V_i}. Families are enumerated
over the rational points of F_p^D only.

Two binomial upper bounds are reported for k polynomials of degree <= delta
in D variables: C(k*delta + D, D), which holds on every instance we can test,
and the tighter C(k*delta, D), which already fails at k=2, delta=1, D=1
(three realized patterns versus a bound of two). Assertions therefore use the
former; both are carried in reports.

Both kernels work on 0/1 matrices rather than per-point sets: a family is
collected from the first occurrence of each distinct bit-packed row of the
point x index matrix, and the shatter function scores all extensions of a
block of (k-1)-prefixes with one matrix product of trace labels against the
members x ground matrix. Witnesses, answers and caps are those of the
point-by-point and subset-by-subset loops they replace.
"""

import math
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .errors import DomainError
from . import linalg
from .bigraph import _pack, _unpack
from .mpoly import _check_count, _check_enum_cap, domain_points, evaluate_batch


@dataclass
class PatternFamily:
    """Realized index subsets of [k], each with its first (lex) witness point."""

    k: int
    witnesses: dict  # frozenset[int] -> point tuple

    @property
    def count(self) -> int:
        return len(self.witnesses)

    def subsets(self):
        return sorted(self.witnesses, key=lambda s: (len(s), sorted(s)))

    def __contains__(self, subset) -> bool:
        return frozenset(subset) in self.witnesses


class SetSystem:
    """Family of subsets of a ground set, held as packed rows over it (see
    bigraph). `members` is such an array, or a list of iterables of ground
    elements."""

    __slots__ = ("ground_size", "members")

    def __init__(self, ground_size: int, members):
        self.ground_size = ground_size
        if not isinstance(members, np.ndarray):
            mat = np.zeros((len(members), ground_size), dtype=bool)
            for row, mem in zip(mat, members):
                mem = list(mem)
                if not all(0 <= v < ground_size for v in mem):
                    raise DomainError("member is not a subset of the ground set")
                row[mem] = True
            members = _pack(mat)
        self.members = members

    def __len__(self):
        return len(self.members)


def bound_with_ambient(k: int, delta: int, nvars: int) -> int:
    """C(k*delta + D, D): pattern-count bound that holds on all fixtures."""
    return math.comb(k * delta + nvars, nvars)


def bound_tight_form(k: int, delta: int, nvars: int) -> int:
    """C(k*delta, D): the tighter form, reported alongside for comparison."""
    return math.comb(max(k * delta, 0), nvars) if k * delta >= nvars else 0


def _shared_domain(polys):
    if not polys:
        raise DomainError("need at least one polynomial")
    ctx = polys[0].ctx
    nvars = polys[0].nvars
    for f in polys:
        if f.ctx != ctx or f.nvars != nvars:
            raise DomainError("polynomials must share context and arity")
    return ctx, nvars


def _zero_matrix(polys):
    """Boolean matrix: row per rational point (lex order), column per polynomial."""
    ctx, nvars = _shared_domain(polys)
    _check_enum_cap(ctx.p, nvars)
    pts = domain_points(ctx.p, nvars)
    cols = [evaluate_batch(f, pts) == 0 for f in polys]
    return pts, np.stack(cols, axis=1)


def _collect(pts, member_matrix) -> PatternFamily:
    """Family of the distinct rows of `member_matrix`, each witnessed by the
    point of its first row, in order of first occurrence.

    The rows are compared bit-packed; `np.unique` sorts stably, so
    `return_index` gives each distinct row's first occurrence, and only one
    frozenset is built per distinct row.
    """
    mat = np.asarray(member_matrix, dtype=bool)
    packed = np.packbits(mat, axis=1)
    rows = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    first = np.sort(np.unique(rows, return_index=True)[1])
    row_of, cols = np.nonzero(mat[first])
    ends = np.searchsorted(row_of, np.arange(1, first.size + 1)).tolist()
    cols = cols.tolist()
    fam = {}
    start = 0
    for end, pt in zip(ends, pts[first].tolist()):
        fam[frozenset(cols[start:end])] = tuple(pt)
        start = end
    return PatternFamily(mat.shape[1], fam)


def zero_patterns(polys) -> PatternFamily:
    """Family of zero-patterns of f_1..f_k over all rational points."""
    pts, zmat = _zero_matrix(polys)
    return _collect(pts, zmat)


def containment_patterns(systems) -> PatternFamily:
    """Family of containment patterns of the varieties V_1..V_k.

    Each variety is a list of defining polynomials; x lies in V_i exactly when
    all of them vanish at x. A system with no polynomials cuts out the whole
    space.
    """
    flat = [f for sys in systems for f in sys]
    pts, zmat = _zero_matrix(flat)
    cols = []
    pos = 0
    for sys in systems:  # an empty slice is all true: no polynomials, the whole space
        cols.append(zmat[:, pos : pos + len(sys)].all(axis=1))
        pos += len(sys)
    return _collect(pts, np.stack(cols, axis=1))


# shatter_function scores its (k-1)-prefixes in blocks whose one-hot and
# count arrays hold at most _SHATTER_CELLS cells each.
_SHATTER_CELLS = 1 << 17


def shatter_function(system: SetSystem, k: int, counters=None) -> int:
    """pi_F(k): max over k-subsets A of the ground set of |{A & B : B in F}|.

    The k-subsets are taken in lexicographic order, and the scan stops at the
    first one with min(2^k, |F|) traces, which no subset can beat. When
    `counters` is a dict, counters["shatter_subsets"] is increased by the
    number of subsets visited up to and including that one (all C(n, k) when
    no subset reaches it).

    A k-subset is a (k-1)-prefix P followed by an extension a > max(P), and
    prefix-then-extension order is lexicographic order. The prefixes are
    walked in blocks of lex-consecutive ones. Each member is labelled by its
    trace on P, built one column at a time as 2 * label + bit and, once that
    could reach |F|, replaced by the rank of (label, bit) within the prefix,
    so labels stay below min(2^(k-1), |F|) for every k. With c[l, a] the
    number of members of label l that contain a and size[l] the number of
    members of label l, P + {a} has sum_l [c[l, a] > 0] + [c[l, a] < size[l]]
    traces, and one matrix product of one-hot labels against the members x
    ground 0/1 matrix gives c for every extension of every prefix in a block
    (exact: counts are <= |F|).
    """
    n = system.ground_size
    if not 0 <= k <= n:
        raise DomainError("k must be between 0 and the ground set size")
    total = _check_count(math.comb(n, k), f"C({n}, {k}) subsets exceed cap")
    best, visited = _shatter_scan(system.members, n, k, total)
    if counters is not None:
        counters["shatter_subsets"] = counters.get("shatter_subsets", 0) + visited
    return best


def _shatter_scan(members, n: int, k: int, total: int):
    """(pi_F(k), subsets visited) for 0 <= k <= n; see shatter_function."""
    nmem = len(members)
    ceiling = min(2**k, nmem)
    if k == 0 or nmem == 0:  # the first subset has min(1, |F|) traces, every subset has 0
        return ceiling, 1 if ceiling else total
    inc = _unpack(members, n)  # members x ground
    cols = np.ascontiguousarray(inc.T)
    # a last column of ones makes the product carry size[l] after c[l, :]
    inc = np.hstack([inc, np.ones((nmem, 1), dtype=bool)]).astype(np.float64)
    j = k - 1
    width = min(2**j, nmem)  # labels on a j-prefix lie below this
    block = max(1, _SHATTER_CELLS // (width * max(nmem, n + 1)))
    label = np.arange(width)[:, None]
    ground = np.arange(n)
    prefixes = combinations(range(n - 1), j)  # the j-prefixes that have an extension
    best = visited = 0
    while True:
        pre = np.array(list(islice(prefixes, block)), dtype=np.int64)
        if not len(pre):
            return best, visited
        nb = len(pre)
        row = np.arange(nb)[:, None]
        labels = np.zeros((nb, nmem), dtype=np.int64)
        for t in range(j):
            labels = 2 * labels + cols[pre[:, t]]
            if 2 ** (t + 1) > nmem:  # rank the (label, bit) pairs back below |F|
                present = np.zeros((nb, 2 * min(2**t, nmem)), dtype=bool)
                present[row, labels] = True
                labels = (np.cumsum(present, axis=1) - 1)[row, labels]
        onehot = (labels[:, None, :] == label).astype(np.float64)
        c = (onehot.reshape(nb * width, nmem) @ inc).reshape(nb, width, n + 1)
        size = c[:, :, n:]
        c = c[:, :, :n]
        counts = (c > 0).sum(axis=1) + (c < size).sum(axis=1)
        valid = ground > (pre[:, -1:] if j else np.full((nb, 1), -1))
        hits = np.flatnonzero(valid & (counts == ceiling))
        if hits.size:
            return ceiling, visited + int(valid.ravel()[: hits[0] + 1].sum())
        best = max(best, int(counts[valid].max()))
        visited += int(valid.sum())


def witness_rank_check(polys, points) -> bool:
    """Full-rank check of the product-polynomial evaluation matrix.

    For witness points x_1..x_N with pairwise distinct zero-patterns of
    f_1..f_k, form g_j = product of the f_i NOT vanishing at x_j and the
    matrix M[j][l] = g_j(x_l) over F_p. Sorting by support size makes M
    triangular with nonzero diagonal, so the expected answer is always True;
    duplicate patterns raise DomainError.
    """
    ctx, nvars = _shared_domain(polys)
    p = ctx.p
    vals = [[f.evaluate(x) for f in polys] for x in points]
    supports = [frozenset(i for i, v in enumerate(row) if v != 0) for row in vals]
    if len(set(supports)) != len(supports):
        raise DomainError("witness points realize duplicate zero-patterns")
    n = len(points)
    mat = []
    for j in range(n):
        row = []
        for l in range(n):
            g = 1
            for i in supports[j]:
                g = g * vals[l][i] % p
            row.append(g)
        mat.append(row)
    return linalg.rank(mat, p) == n


def family_report(fam: PatternFamily, polys, kind: str = "zero-patterns") -> dict:
    """JSON-ready report for a pattern family.

    `polys` is the flat list of polynomials behind the family (for containment
    patterns: all defining polynomials); the binomial bounds are computed from
    that list, since containment patterns factor through the zero-patterns of
    the defining system.
    """
    ctx, nvars = _shared_domain(polys)
    delta = max((f.total_degree for f in polys), default=0)
    return {
        "kind": kind,
        "k": fam.k,
        "D": nvars,
        "p": ctx.p,
        "delta": delta,
        "pattern_count": fam.count,
        "bound_rbg": bound_with_ambient(len(polys), delta, nvars),
        "bound_paper": bound_tight_form(len(polys), delta, nvars),
        "patterns": [
            {"subset": sorted(s), "witness": list(fam.witnesses[s])}
            for s in fam.subsets()
        ],
    }
