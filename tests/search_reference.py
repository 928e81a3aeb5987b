"""Reference copies of the exact search kernels, for equivalence tests.

`contains_kss`, `find_induced_pattern` and `flats_in_sphere_check` are kept
here verbatim as they were before the search kernels were vectorized (scalar
probe loop, per-node `pick()`, closure of every point pair; the pattern
search has since gained the kernel's twin rule, and keeps the plain search
behind `twins=False`), and with them
the scalar `is_totally_isotropic` and the per-family loop of the
`sphere-geometry` command as `sphere_family_check` (point sets of tuples
over the whole grid), and the pattern-layer loops `_collect` (one frozenset
per point) and `shatter_function` (one set of traces per k-subset). The
fast kernels in `ffil` must return the same witness, raise
`ResourceLimitError` at the same caps, list the same flats and patterns and
give the same family verdicts and shatter values. The polynomial layer keeps
`sample_uniform` (one scalar `randbelow` per monomial), which the block
sampler must match term for term and counter for counter, and `tensor_poly`,
which turns a dense coefficient tensor back into a `MultiPoly`. The scalar
searches read adjacency and set-system members as Python int bitmasks,
converted from the packed rows by `int_masks`. Do not optimize this module.
"""

import math

import numpy as np

from ffil.bigraph import BipartiteGraph, Pattern
from ffil.errors import DomainError, ResourceLimitError
from ffil.geometry import (
    AffineFlat,
    FlatRecord,
    Sphere,
    SphereFlatsReport,
    _affine_closure,
    sphere_points,
)
from ffil.mpoly import ENUM_CAP, MultiPoly, monomials_upto
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


def contains_kss(g: BipartiteGraph, s: int, probe_cap: int = PROBE_CAP):
    """Exact K_{s,s} detection; witness (rows_in_A, cols_in_B) or None.

    Iterates s-subsets of the smaller class in increasing lexicographic order,
    carrying the common neighborhood as a bitmask and pruning any branch whose
    common neighborhood falls below s, so the first witness found is the
    lexicographically least. Every subset extension counts against probe_cap;
    exhausting it raises ResourceLimitError (never a silent approximation).
    """
    if s < 1:
        raise DomainError("s must be >= 1")
    if s > g.m or s > g.n:
        return None
    swap = g.n < g.m
    adj = int_masks(g.cols if swap else g.rows)
    size = g.n if swap else g.m
    other = g.m if swap else g.n
    full = (1 << other) - 1
    probes = 0

    def extend(start, chosen, common):
        nonlocal probes
        for v in range(start, size - (s - len(chosen)) + 1):
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
    with the most already-assigned non-* constraints (ties: total constraint
    count, then A before B, then index) and scans host candidates in
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
                assigned = sum(1 for o, _ in cons[i] if other_map[o] != -1)
                key = (-assigned, -len(cons[i]), side, i)
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


def flats_in_sphere_check(sphere: Sphere, dim_cap: int, cap: int = ENUM_CAP) -> SphereFlatsReport:
    """Enumerate every flat of dimension <= dim_cap contained in the sphere
    and check two identities on each: total isotropy of the flat, and
    <x - w, x - y> = 0 for all flat points x, y (w the center).

    Flats are built bottom-up: points, then closures of (flat, extra sphere
    point) pairs, deduplicated by their full point sets.
    """
    form = sphere.form
    ctx = form.ctx
    if ctx.p**form.dim > cap:
        raise ResourceLimitError(f"enumeration of {ctx.p}^{form.dim} points exceeds cap {cap}")
    pts = sphere_points(sphere)
    pt_set = set(pts)
    report = SphereFlatsReport()
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
            report.entries.append(FlatRecord(flat.dim, flat.base, flat.basis, iso, radial))
    return report


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
    monomial in `monomials_upto` order; zero coefficients are dropped."""
    terms = {}
    for exps in monomials_upto(nvars, degcap):
        c = rng.randbelow(ctx.p)
        if c:
            terms[exps] = c
    return MultiPoly(ctx, nvars, terms)


def tensor_poly(ctx, coef: np.ndarray) -> MultiPoly:
    """The polynomial whose dense coefficient tensor is `coef`; inverts
    `coefficient_tensor` up to trailing zero slices."""
    exps = np.argwhere(coef)
    coeffs = coef[tuple(exps.T)].tolist()
    return MultiPoly(ctx, coef.ndim, dict(zip(map(tuple, exps.tolist()), coeffs)))
