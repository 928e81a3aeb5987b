"""Reference copies of the exact search kernels, for equivalence tests.

`contains_kss`, `find_induced_pattern` and `flats_in_sphere_check` are kept
here verbatim as they were before the search kernels were vectorized (scalar
probe loop, per-node `pick()`, closure of every point pair; the pattern
search has since gained the kernel's twin rule, and keeps the plain search
behind `twins=False`; the flats check walks from every point of the sphere
and returns one `FlatRecord` per flat), and with them
the scalar `is_totally_isotropic` and the per-family loop of the
`sphere-geometry` command as `sphere_family_check` (point sets of tuples
over the whole grid), `isotropic_unit_pair_search` as the canonical RREF
enumeration of totally isotropic direction spaces it was before the package
answered it from the rooted flats walk, and the pattern-layer loops
`_collect` (one frozenset per point) and `shatter_function` (one set of
traces per k-subset). The
fast kernels in `ffil` must return the same witness, raise
`ResourceLimitError` at the same caps, list the same flats and patterns and
give the same family verdicts and shatter values. The polynomial layer keeps
`sample_uniform` (one scalar `randbelow` per monomial), which the block
sampler must match term for term and counter for counter, and `tensor_poly`,
which turns a dense coefficient tensor back into a `MultiPoly`, and
`coefficient_tensor`, which builds that tensor term by term from the dict
view `MultiPoly.terms` for the array kernel to match. The scalar
searches read adjacency and set-system members as Python int bitmasks,
converted from the packed rows by `int_masks`. `QuadraticField` is the
F_{p^2} arithmetic behind the re-embedding flag of d = 1 (mod 4)
unit-distance reports, which the package only states. Do not optimize this
module.
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ffil.bigraph import BipartiteGraph, Pattern
from ffil.errors import DomainError, ResourceLimitError
from ffil.gf import is_prime
from ffil.geometry import (
    AffineFlat,
    BilinearForm,
    Sphere,
    _affine_closure,
    _origin_sphere_points,
    sphere_points,
)
from ffil.mpoly import ENUM_CAP, MultiPoly, domain_points, monomials_upto
from ffil.patterns import PatternFamily, SetSystem

PROBE_CAP = 10**8


def int_masks(words) -> list:
    """Python int bitmask of each packed row: bit j of entry r is bit j of words[r]."""
    return [int.from_bytes(row.tobytes(), "little") for row in words]


def same_graph(g, h) -> bool:
    """Equal class sizes and equal packed rows and columns."""
    return (g.m, g.n) == (h.m, h.n) and all(
        np.array_equal(x, y) for x, y in ((g.rows, h.rows), (g.cols, h.cols))
    )


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _first_bits(mask: int, s: int):
    out = []
    for b in _bits(mask):
        out.append(b)
        if len(out) == s:
            break
    return out


def contains_kss(g: BipartiteGraph, s: int, probe_cap: int = PROBE_CAP, rooted: bool = False):
    """Exact K_{s,s} detection; witness (rows_in_A, cols_in_B) or None.

    Iterates s-subsets of the smaller class in increasing lexicographic order,
    carrying the common neighborhood as a bitmask and pruning any branch whose
    common neighborhood falls below s, so the first witness found is the
    lexicographically least. Every subset extension counts against probe_cap;
    exhausting it raises ResourceLimitError (never a silent approximation).
    With rooted=True the subsets are of class A, and the first member picked
    may only be row 0.
    """
    if s < 1:
        raise DomainError("s must be >= 1")
    if s > g.m or s > g.n:
        return None
    swap = g.n < g.m and not rooted
    adj = int_masks(g.cols if swap else g.rows)
    size = g.n if swap else g.m
    other = g.m if swap else g.n
    full = (1 << other) - 1
    probes = 0

    def extend(start, chosen, common):
        nonlocal probes
        for v in range(start, 1 if rooted and not chosen else size - (s - len(chosen)) + 1):
            probes += 1
            if probes > probe_cap:
                raise ResourceLimitError("K_{s,s} search probe budget exhausted")
            c2 = common & adj[v]
            if c2.bit_count() < s:
                continue
            chosen.append(v)
            if len(chosen) == s:
                return list(chosen), _first_bits(c2, s)
            hit = extend(v + 1, chosen, c2)
            if hit:
                return hit
            chosen.pop()
        return None

    hit = extend(0, [], full)
    if hit is None:
        return None
    rows, cols = hit
    return (cols, rows) if swap else (rows, cols)


def find_induced_pattern(
    g: BipartiteGraph,
    pat: Pattern,
    node_cap: int = PROBE_CAP,
    rooted: bool = False,
    twins: bool = True,
):
    """Injective class-preserving embedding of `pat` into `g`, or None.

    Every '1'-labeled pair must map to an edge and every '0'-labeled pair to a
    non-edge; '*' pairs are free. Backtracking picks the next pattern vertex
    with the most already-assigned '1' constraints (ties: already-assigned
    non-* constraints, then '1' labels in all unless rooted, then total
    constraint count, then A before B, then index) and scans host candidates in
    increasing index through bitmask filtering, so the result is
    deterministic. Each candidate attempted counts against node_cap. With
    rooted=True the first pattern vertex picked may only map to host vertex 0.

    With twins=True (the kernel's rule) a pattern vertex whose label vector
    equals that of other vertices of its class (its twins) may only map
    above the largest host of an already-mapped twin. twins=False is the
    plain search, kept here only to check that the rule changes no witness
    and no existence verdict.
    """
    a, b = pat.a, pat.b
    if a > g.m or b > g.n:
        return None
    rows, cols = pat.labels, ["".join(row[j] for row in pat.labels) for j in range(b)]
    twins_a = [[k for k in range(a) if k != i and rows[k] == rows[i]] for i in range(a)]
    twins_b = [[k for k in range(b) if k != j and cols[k] == cols[j]] for j in range(b)]
    cons_a = [
        [(j, pat.labels[i][j]) for j in range(b) if pat.labels[i][j] != "*"]
        for i in range(a)
    ]
    cons_b = [
        [(i, pat.labels[i][j]) for i in range(a) if pat.labels[i][j] != "*"]
        for j in range(b)
    ]
    map_a = [-1] * a
    map_b = [-1] * b
    used_a = 0
    used_b = 0
    adj_a, adj_b = int_masks(g.rows), int_masks(g.cols)
    full_a = (1 << g.m) - 1
    full_b = (1 << g.n) - 1
    nodes = 0

    def pick():
        best = None
        best_key = None
        for side, count, cons, mapped, other_map in (
            ("A", a, cons_a, map_a, map_b),
            ("B", b, cons_b, map_b, map_a),
        ):
            for i in range(count):
                if mapped[i] != -1:
                    continue
                assigned = [lbl for o, lbl in cons[i] if other_map[o] != -1]
                ones = 0 if rooted else [lbl for _, lbl in cons[i]].count("1")
                key = (-assigned.count("1"), -len(assigned), -ones, -len(cons[i]), side, i)
                if best_key is None or key < best_key:
                    best_key = key
                    best = (side, i)
        return best

    def candidates(side, i):
        if side == "A":
            mask = full_a & ~used_a
            for o, lbl in cons_a[i]:
                h = map_b[o]
                if h == -1:
                    continue
                col = adj_b[h]
                mask &= col if lbl == "1" else full_a & ~col
        else:
            mask = full_b & ~used_b
            for o, lbl in cons_b[i]:
                h = map_a[o]
                if h == -1:
                    continue
                col = adj_a[h]
                mask &= col if lbl == "1" else full_b & ~col
        return mask

    def rec(depth):
        nonlocal used_a, used_b, nodes
        if depth == a + b:
            return True
        side, i = pick()
        mapped = map_a if side == "A" else map_b
        cands = candidates(side, i)
        if rooted and depth == 0:
            cands &= 1
        if twins:
            twin_of = twins_a[i] if side == "A" else twins_b[i]
            top = max((mapped[k] for k in twin_of), default=-1)  # -1 when none is mapped
            cands &= ~((1 << (top + 1)) - 1)
        for h in _bits(cands):
            nodes += 1
            if nodes > node_cap:
                raise ResourceLimitError("pattern search node budget exhausted")
            mapped[i] = h
            if side == "A":
                used_a |= 1 << h
            else:
                used_b |= 1 << h
            if rec(depth + 1):
                return True
            mapped[i] = -1
            if side == "A":
                used_a &= ~(1 << h)
            else:
                used_b &= ~(1 << h)
        return False

    if rec(0):
        return list(map_a), list(map_b)
    return None


def is_totally_isotropic(form, flat) -> bool:
    """True iff every difference of flat points has self-inner-product zero.

    Equivalent (char != 2) to all basis pairs having inner product zero;
    empty and 0-dimensional flats qualify vacuously.
    """
    for i, bi in enumerate(flat.basis):
        for bj in flat.basis[i:]:
            if form.inner(bi, bj) != 0:
                return False
    return True


def sphere_family_check(spheres, flat):
    """(identity_ok, orth_ok) of one `sphere-geometry` family, with the
    centers taken from the spheres and `flat` in place of the intersection
    flat the command computes."""
    form = spheres[0].form
    p = form.ctx.p
    centers = [s.center for s in spheres]
    first = set(sphere_points(spheres[0]))
    inter = set(first)
    for sph in spheres[1:]:
        inter &= set(sphere_points(sph))
    flat_pts = set() if flat.is_empty else set(flat.points())
    identity_ok = (first & flat_pts) == inter
    orth_ok = True
    base = centers[0]
    for b in flat.basis:
        for c in centers[1:]:
            dv = tuple((x - y) % p for x, y in zip(c, base))
            if form.inner(b, dv) != 0:
                orth_ok = False
    return identity_ok, orth_ok


@dataclass
class FlatRecord:
    dim: int
    base: tuple
    basis: list
    isotropic_ok: bool
    radial_ok: bool


def flats_in_sphere_check(sphere: Sphere, dim_cap: int, cap: int = ENUM_CAP) -> list:
    """Enumerate every flat of dimension <= dim_cap contained in the sphere
    and check two identities on each: total isotropy of the flat, and
    <x - w, x - y> = 0 for all flat points x, y (w the center). Returns the
    records by dimension, each dimension in lex order of the flats' points.

    Flats are built bottom-up: points, then closures of (flat, extra sphere
    point) pairs, deduplicated by their full point sets.
    """
    form = sphere.form
    ctx = form.ctx
    if ctx.p**form.dim > cap:
        raise ResourceLimitError(f"enumeration of {ctx.p}^{form.dim} points exceeds cap {cap}")
    pts = sphere_points(sphere)
    pt_set = set(pts)
    records = []
    levels = {0: {frozenset((q,)): AffineFlat(ctx, form.dim, q, []) for q in pts}}
    for r in range(1, dim_cap + 1):
        nxt = {}
        for key, flat in levels[r - 1].items():
            for q in pts:
                if q in key:
                    continue
                closure = _affine_closure(ctx, [flat.base] + [q] + sorted(key - {flat.base}))
                if closure.dim != r:
                    continue
                cl_pts = frozenset(closure.points())
                if cl_pts in nxt or not cl_pts <= pt_set:
                    continue
                nxt[cl_pts] = closure
        levels[r] = nxt
        if not nxt:
            break
    w = sphere.center
    for r in sorted(levels):
        for cl_pts, flat in sorted(levels[r].items(), key=lambda kv: sorted(kv[0])):
            iso = is_totally_isotropic(form, flat)
            radial = True
            members = sorted(cl_pts)
            for x in members:
                for y in members:
                    if form.inner(form.diff(x, w), form.diff(x, y)) != 0:
                        radial = False
                        break
                if not radial:
                    break
            records.append(FlatRecord(flat.dim, flat.base, flat.basis, iso, radial))
    return records


def _rref_row_candidates(p, d, pivot, other_pivots):
    """All RREF rows with leading 1 at `pivot`: zeros before it and at the
    other pivot columns, free entries elsewhere."""
    free = [c for c in range(pivot + 1, d) if c not in other_pivots]
    if not free:
        rows = np.zeros((1, d), dtype=np.int64)
    else:
        combos = domain_points(p, len(free))
        rows = np.zeros((combos.shape[0], d), dtype=np.int64)
        rows[:, free] = combos
    rows[:, pivot] = 1
    return rows


def isotropic_unit_pair_search(form: BilinearForm):
    """Exhaustive search for (V, w): a totally isotropic k-flat V and a
    norm-1 vector w orthogonal to V, in odd dimension d = 2k + 1.

    When x^2 = -1 has no root in F_p no such pair exists; the search verifies
    that by exhausting all totally isotropic k-dimensional direction spaces
    (canonical RREF enumeration) against all unit vectors, taken from the
    origin sphere table in lexicographic order. Returns the first pair found
    (deterministic order) or None.
    """
    d = form.dim
    if d % 2 == 0:
        raise DomainError("search is defined for odd dimensions d = 2k + 1")
    p = form.ctx.p
    k = (d - 1) // 2
    units = _origin_sphere_points(form)
    if k == 0:
        if units.shape[0]:
            w = tuple(int(v) for v in units[0])
            return AffineFlat(form.ctx, d, (0,) * d, []), w
        return None
    for pivots in combinations(range(d), k):
        pivot_set = set(pivots)
        cands = []
        for piv in pivots:
            rows = _rref_row_candidates(p, d, piv, pivot_set - {piv})
            cands.append(rows[form.norms_of_rows(rows) == 0])
        hit = _extend_isotropic(form, units, cands, [])
        if hit is not None:
            basis, w = hit
            flat = AffineFlat(form.ctx, d, (0,) * d, [tuple(int(v) for v in b) for b in basis])
            return flat, tuple(int(v) for v in w)
    return None


def _extend_isotropic(form, units, cands, chosen):
    """One isotropic row per pivot, each orthogonal to the rows before it,
    then the first unit vector orthogonal to all of them."""
    depth = len(chosen)
    if depth == len(cands):
        sols = units[~form.gram(chosen, units).any(axis=0)]
        return (list(chosen), sols[0]) if len(sols) else None
    pool = cands[depth]
    if chosen:
        pool = pool[~form.gram(chosen, pool).any(axis=0)]
    for row in pool:
        hit = _extend_isotropic(form, units, cands, chosen + [row])
        if hit is not None:
            return hit
    return None


def _collect(pts, member_matrix) -> PatternFamily:
    fam = {}
    for idx in range(member_matrix.shape[0]):
        key = frozenset(int(i) for i in np.nonzero(member_matrix[idx])[0])
        if key not in fam:
            fam[key] = tuple(int(x) for x in pts[idx])
    return PatternFamily(member_matrix.shape[1], fam)


def shatter_function(system: SetSystem, k: int, cap: int = ENUM_CAP) -> int:
    """pi_F(k): max over k-subsets A of the ground set of |{A & B : B in F}|."""
    n = system.ground_size
    if not 0 <= k <= n:
        raise DomainError("k must be between 0 and the ground set size")
    if math.comb(n, k) > cap:
        raise ResourceLimitError(f"C({n}, {k}) subsets exceed cap {cap}")
    from itertools import combinations

    members = int_masks(system.members)
    ceiling = min(2**k, len(members))
    best = 0
    for subset in combinations(range(n), k):
        amask = 0
        for v in subset:
            amask |= 1 << v
        traces = {amask & b for b in members}
        if len(traces) > best:
            best = len(traces)
            if best >= ceiling:
                break
    return best


def sample_uniform(ctx, nvars: int, degcap: int, rng) -> MultiPoly:
    """Uniform polynomial of total degree <= degcap, one scalar draw per
    monomial in the row order of `monomials_upto`; zero coefficients are dropped."""
    terms = {}
    for exps in map(tuple, monomials_upto(nvars, degcap).tolist()):
        c = rng.randbelow(ctx.p)
        if c:
            terms[exps] = c
    return MultiPoly(ctx, nvars, terms)


def coefficient_tensor(f: MultiPoly) -> np.ndarray:
    """`coefficient_tensor` by a scalar loop over `f.terms`: fold each
    exponent e >= p to 1 + (e - 1) mod (p - 1), sum the coefficients that
    land on one exponent, and size each axis by the largest folded exponent,
    cancelled terms included."""
    p = f.ctx.p
    sums = {}
    for exps, c in f.terms.items():
        key = tuple(1 + (e - 1) % (p - 1) if e >= p else e for e in exps)
        sums[key] = sums.get(key, 0) + c
    shape = tuple(max((key[v] for key in sums), default=0) + 1 for v in range(f.nvars))
    coef = np.zeros(shape, dtype=np.int64)
    for key, c in sums.items():
        coef[key] = c % p
    return coef


def tensor_poly(ctx, coef: np.ndarray) -> MultiPoly:
    """The polynomial whose dense coefficient tensor is `coef`; inverts
    `coefficient_tensor` up to trailing zero slices."""
    exps = np.argwhere(coef)
    coeffs = coef[tuple(exps.T)].tolist()
    return MultiPoly(ctx, coef.ndim, dict(zip(map(tuple, exps.tolist()), coeffs)))


class QuadraticField:
    """F_{p^2} = F_p[a] / (a^2 + 1) for a prime p = 3 (mod 4), which makes
    a^2 + 1 irreducible; x + y*a is the pair (x, y)."""

    zero, one = (0, 0), (1, 0)

    def __init__(self, p: int):
        if not is_prime(p) or p % 4 != 3:
            raise DomainError("quadratic extension needs a prime p = 3 (mod 4)")
        self.p = p

    def add(self, x, y):
        return ((x[0] + y[0]) % self.p, (x[1] + y[1]) % self.p)

    def sub(self, x, y):
        return ((x[0] - y[0]) % self.p, (x[1] - y[1]) % self.p)

    def mul(self, x, y):
        (a, b), (c, d) = x, y
        return ((a * c - b * d) % self.p, (a * d + b * c) % self.p)

    def embed(self, points) -> list:
        """(x_1, .., x_d) -> (x_1, .., x_{d-1}, a * x_d) for F_p points."""
        p = self.p
        return [tuple((int(c) % p, 0) for c in pt[:-1]) + ((0, int(pt[-1]) % p),) for pt in points]

    def norm_sq(self, v):
        """The standard form: the sum of the squared coordinates."""
        acc = self.zero
        for c in v:
            acc = self.add(acc, self.mul(c, c))
        return acc

    def unit_distance(self, u, v) -> bool:
        return self.norm_sq([self.sub(a, b) for a, b in zip(u, v)]) == self.one
