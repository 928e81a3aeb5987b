"""Bilinear forms, unit spheres, affine flats, and unit-distance graphs.

All geometry is exact field arithmetic; membership tests never use
probabilistic shortcuts. Grid sweeps (sphere tables, pairwise norms) and
every graph are computed with numpy over prime fields. Extension-field
points only relabel prime-field ones (the F_{p^2} re-embedding); the scalar
context operations in `inner` are their reference. Sphere point tables for
origin-centered spheres are memoized in memory. Point sets on spheres are
compared as sorted int64 lexicographic codes (a point's row index in
`domain_points`), so sphere intersections, the family identity of
`sphere_family_check` and the flats of `flats_in_sphere_check` are array
operations that never list the grid.
"""

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import DomainError, ResourceLimitError
from .gf import FieldCtx
from . import linalg
from .bigraph import BipartiteGraph, _pack
from .mpoly import ENUM_CAP, domain_points

# Rows of the left point array per block of the pairwise-norm sweep, so the
# int64 temporaries are O(_PAIR_BLOCK * n * d) whatever the number of pairs.
_PAIR_BLOCK = 256


class BilinearForm:
    """Diagonal bilinear form with entries +-1 on F^d (odd characteristic)."""

    __slots__ = ("ctx", "dim", "signature")

    def __init__(self, ctx: FieldCtx, signature):
        if ctx.p == 2:
            raise DomainError("forms require characteristic != 2")
        sig = tuple(int(s) for s in signature)
        if not sig or any(s not in (1, -1) for s in sig):
            raise DomainError("signature entries must be +1 or -1")
        self.ctx = ctx
        self.dim = len(sig)
        self.signature = sig

    @classmethod
    def standard(cls, ctx: FieldCtx, d: int) -> "BilinearForm":
        return cls(ctx, (1,) * d)

    @classmethod
    def for_dim(cls, ctx: FieldCtx, d: int) -> "BilinearForm":
        """Sign convention used by the unit-distance experiments: standard,
        except the last coordinate is negated when d = 1 (mod 4)."""
        sig = [1] * d
        if d % 4 == 1:
            sig[-1] = -1
        return cls(ctx, sig)

    def __eq__(self, other):
        return (
            isinstance(other, BilinearForm)
            and self.ctx == other.ctx
            and self.signature == other.signature
        )

    def __hash__(self):
        return hash((self.ctx, self.signature))

    def __repr__(self):
        sig = "".join("+" if s == 1 else "-" for s in self.signature)
        return f"BilinearForm(p={self.ctx.p}, {sig})"

    def inner(self, u, v):
        """Sum of sigma_i * u_i * v_i; raw field value."""
        if len(u) != self.dim or len(v) != self.dim:
            raise DomainError("vector dimension mismatch")
        ctx = self.ctx
        if ctx.kind == "prime":
            p = ctx.p
            acc = 0
            for s, a, b in zip(self.signature, u, v):
                acc += a * b if s == 1 else -a * b
            return acc % p
        acc = ctx.zero_raw()
        for s, a, b in zip(self.signature, u, v):
            t = ctx.mul(a, b)
            acc = ctx.add(acc, t) if s == 1 else ctx.sub(acc, t)
        return acc

    def norm_sq(self, v):
        return self.inner(v, v)

    def diff(self, u, v):
        ctx = self.ctx
        if ctx.kind == "prime":
            p = ctx.p
            return tuple((a - b) % p for a, b in zip(u, v))
        return tuple(ctx.sub(a, b) for a, b in zip(u, v))

    def sig_array(self) -> np.ndarray:
        p = self.ctx.p
        return np.array([1 if s == 1 else p - 1 for s in self.signature], dtype=np.int64)

    def norms_of_rows(self, arr) -> np.ndarray:
        """Vectorized norm_sq along the last axis of an int array (prime ctx
        only).

        Each squared coordinate is added or subtracted and the sum reduced
        after every coordinate, so no intermediate exceeds p^2 and the int64
        arithmetic is exact for every p <= 2^31.
        """
        if self.ctx.kind != "prime":
            raise DomainError("vectorized norms require a prime context")
        p = self.ctx.p
        arr = np.asarray(arr, dtype=np.int64) % p
        acc = np.zeros(arr.shape[:-1], dtype=np.int64)
        for i, s in enumerate(self.signature):
            sq = arr[..., i] * arr[..., i] % p
            acc = (acc + sq if s == 1 else acc - sq) % p
        return acc

    def unit_pair_matrix(self, a, b) -> np.ndarray:
        """Boolean matrix M[i, j] = (norm_sq(a[i] - b[j]) == 1) for two point
        arrays (prime ctx only), swept in row blocks of a."""
        a, b = (np.asarray(x, dtype=np.int64).reshape(len(x), self.dim) for x in (a, b))
        out = np.empty((a.shape[0], b.shape[0]), dtype=bool)
        for lo in range(0, a.shape[0], _PAIR_BLOCK):
            diff = a[lo : lo + _PAIR_BLOCK, None, :] - b[None, :, :]
            out[lo : lo + _PAIR_BLOCK] = self.norms_of_rows(diff) == 1
        return out


@dataclass(frozen=True)
class Sphere:
    """Unit sphere {x : norm_sq(x - center) = 1} under a fixed form."""

    form: BilinearForm
    center: tuple

    def __post_init__(self):
        if len(self.center) != self.form.dim:
            raise DomainError("center dimension mismatch")

    def contains(self, x) -> bool:
        one = 1 if self.form.ctx.kind == "prime" else (1, 0)
        return self.form.norm_sq(self.form.diff(x, self.center)) == one


class AffineFlat:
    """Affine flat given by a basepoint and an independent direction basis.

    The empty flat is a distinguished value (is_empty = True, dim = -1), not
    an error: inconsistent sphere-intersection systems produce it.
    """

    __slots__ = ("ctx", "ambient", "base", "basis", "is_empty")

    def __init__(self, ctx: FieldCtx, ambient: int, base, basis, is_empty=False):
        self.ctx = ctx
        self.ambient = ambient
        self.is_empty = is_empty
        if is_empty:
            self.base = None
            self.basis = []
            return
        base = tuple(v % ctx.p for v in base)
        basis = [tuple(v % ctx.p for v in b) for b in basis]
        if len(base) != ambient or any(len(b) != ambient for b in basis):
            raise DomainError("flat vectors must match the ambient dimension")
        if basis and linalg.rank([list(b) for b in basis], ctx.p) != len(basis):
            raise DomainError("basis vectors must be linearly independent")
        self.base = base
        self.basis = basis

    @classmethod
    def empty(cls, ctx: FieldCtx, ambient: int) -> "AffineFlat":
        return cls(ctx, ambient, None, [], is_empty=True)

    @classmethod
    def full(cls, ctx: FieldCtx, ambient: int) -> "AffineFlat":
        basis = [tuple(1 if j == i else 0 for j in range(ambient)) for i in range(ambient)]
        return cls(ctx, ambient, (0,) * ambient, basis)

    @property
    def dim(self) -> int:
        return -1 if self.is_empty else len(self.basis)

    def points(self):
        """All p^dim points of the flat (none for the empty flat)."""
        if self.is_empty:
            return
        p = self.ctx.p
        if not self.basis:
            yield self.base
            return
        coeffs = domain_points(p, len(self.basis))
        arr = (np.asarray(self.base, dtype=np.int64) + coeffs @ np.asarray(self.basis, dtype=np.int64)) % p
        for row in arr:
            yield tuple(int(v) for v in row)

    def contains(self, x) -> bool:
        if self.is_empty:
            return False
        p = self.ctx.p
        diff = [(a - b) % p for a, b in zip(x, self.base)]
        rows = [list(b) for b in self.basis]
        return linalg.rank(rows + [diff], p) == len(self.basis)

    def __repr__(self):
        if self.is_empty:
            return "AffineFlat(empty)"
        return f"AffineFlat(dim={self.dim}, base={self.base})"


# -- sphere point tables -------------------------------------------------


_ORIGIN_CACHE = {}


def _origin_sphere_points(form: BilinearForm, cap: int) -> np.ndarray:
    """Points of the origin-centered unit sphere, lexicographic order: a
    memoized, read-only int64 array with one row per point.

    x_1..x_{d-1} range over the grid and sigma_d * x_d^2 = 1 - (partial norm)
    is solved with a square-root table: each head gives 0, 1 or 2 points, in
    increasing x_d.
    """
    p, d = form.ctx.p, form.dim
    if p**d > cap:  # also for a memoized table, so the cap never depends on call order
        raise ResourceLimitError(f"sphere enumeration over {p}^{d} points exceeds cap")
    key = (p, form.signature)
    pts = _ORIGIN_CACHE.get(key)
    if pts is not None:
        return pts
    head = domain_points(p, d - 1)
    partial = form.norms_of_rows(np.pad(head, ((0, 0), (0, 1))))
    target = form.signature[-1] * (1 - partial) % p
    half = np.arange((p + 1) // 2, dtype=np.int64)  # one root of each square
    root = np.full(p, -1, dtype=np.int64)
    root[half * half % p] = half
    r = root[target]
    last = np.stack([r, p - r], axis=1).reshape(-1, 1)
    keep = np.stack([r >= 0, r > 0], axis=1).reshape(-1)
    pts = np.hstack([np.repeat(head, 2, axis=0), last])[keep]
    pts.flags.writeable = False
    _ORIGIN_CACHE[key] = pts
    return pts


def sphere_points(sphere: Sphere, cap: int = ENUM_CAP):
    """All rational points of the sphere, lexicographic order.

    Computed by translating the memoized origin-centered table.
    """
    form = sphere.form
    if form.ctx.kind != "prime":
        raise DomainError("sphere enumeration is supported over prime fields only")
    p = form.ctx.p
    w = np.array([c % p for c in sphere.center], dtype=np.int64)
    pts = (_origin_sphere_points(form, cap) + w) % p
    pts = pts[np.lexsort(pts.T[::-1])]  # the first coordinate is the primary key
    return [tuple(row) for row in pts.tolist()]


def _lex_weights(p: int, d: int) -> np.ndarray:
    """Weights of the lexicographic code sum_i x_i p^(d-1-i) of a point of
    F_p^d: its row index in `domain_points(p, d)`, so code order is lex
    order. Codes stay below p^d, which the sphere-table cap bounds."""
    return p ** np.arange(d - 1, -1, -1, dtype=np.int64)


def lex_points(codes, p: int, d: int) -> np.ndarray:
    """The rows of `domain_points(p, d)` at the given lex codes, decoded
    without the grid."""
    return np.asarray(codes, dtype=np.int64).reshape(-1, 1) // _lex_weights(p, d) % p


def _is_member(table: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Elementwise test of `codes` against `table`: sorted codes followed by
    one sentinel larger than every code."""
    return table[np.searchsorted(table, codes)] == codes


# -- sphere intersections and isotropy -------------------------------------


def intersect_spheres_to_flat(spheres) -> AffineFlat:
    """Affine flat U with S_1 & ... & S_k = S_1 & U.

    Subtracting the defining equation of S_j from that of S_1 leaves the
    linear equation 2<x, w_j - w_1> + <w_1, w_1> - <w_j, w_j> = 0; U is the
    solution flat of those k - 1 equations (Gaussian elimination). Duplicate
    spheres contribute identical rows and are harmless. An inconsistent
    system yields the empty flat. U is orthogonal to the affine span of the
    centers.
    """
    spheres = list(spheres)
    if not spheres:
        raise DomainError("need at least one sphere")
    form = spheres[0].form
    if any(s.form != form for s in spheres):
        raise DomainError("all spheres must share one bilinear form")
    if form.ctx.kind != "prime":
        raise DomainError("flat computation is supported over prime fields only")
    ctx, d, p = form.ctx, form.dim, form.ctx.p
    if len(spheres) == 1:
        return AffineFlat.full(ctx, d)
    w1 = spheres[0].center
    n1 = form.norm_sq(w1)
    rows, rhs = [], []
    for s in spheres[1:]:
        wj = s.center
        coeff = [
            2 * sg * ((b - a) % p) % p
            for sg, a, b in zip(form.signature, w1, wj)
        ]
        rows.append([c % p for c in coeff])
        rhs.append((form.norm_sq(wj) - n1) % p)
    sol = linalg.solve_affine(rows, rhs, d, p)
    if sol is None:
        return AffineFlat.empty(ctx, d)
    x0, basis = sol
    return AffineFlat(ctx, d, x0, basis)


def sphere_family_check(spheres, flat: AffineFlat):
    """Check a flat U against a family of unit spheres S_1, .., S_k (prime
    ctx only): the identity S_1 & ... & S_k = S_1 & U, and the orthogonality
    <u, w_j - w_1> = 0 of every basis vector u of U to every center
    difference. Returns (identity_ok, orth_ok).

    Each sphere is the memoized origin table translated to its center, as
    lex codes; a code lies on every sphere iff it occurs k times among them.
    S_1 & U is S_1 filtered by linear equations that cut out U, so neither
    the grid nor the points of U are listed: memory is O(k |S|), |S| the
    sphere size.
    """
    form = spheres[0].form
    if form.ctx.kind != "prime":
        raise DomainError("sphere families are checked over prime fields only")
    p, d = form.ctx.p, form.dim
    origin = _origin_sphere_points(form, ENUM_CAP)
    centers = np.array([s.center for s in spheres], dtype=np.int64) % p
    pts = (origin + centers[:, None, :]) % p
    codes = pts @ _lex_weights(p, d)
    common, count = np.unique(codes, return_counts=True)
    if flat.is_empty:
        on_flat = np.zeros(len(origin), dtype=bool)
    else:
        # x - base lies in the span of U's basis iff every vector that is
        # dot-orthogonal to that span is dot-orthogonal to x - base too
        eqs = linalg.nullspace([list(b) for b in flat.basis], d, p)
        eqs = np.array(eqs, dtype=np.int64).reshape(len(eqs), d)
        on_flat = ~((pts[0] - np.array(flat.base, dtype=np.int64)) % p @ eqs.T % p).any(axis=1)
    identity_ok = np.array_equal(np.sort(codes[0][on_flat]), common[count == len(spheres)])
    dirs = np.array(flat.basis, dtype=np.int64).reshape(len(flat.basis), d)
    orth_ok = not ((dirs * form.sig_array()) % p @ (centers[1:] - centers[0]).T % p).any()
    return identity_ok, orth_ok


def _affine_closure(ctx: FieldCtx, pts):
    """Flat spanned by the given points (base = first point)."""
    base = pts[0]
    p = ctx.p
    dirs = [[(a - b) % p for a, b in zip(q, base)] for q in pts[1:]]
    reduced, pivots = linalg.row_reduce(dirs, p)
    basis = [tuple(reduced[r]) for r in range(len(pivots))]
    return AffineFlat(ctx, len(base), base, basis)


@dataclass
class FlatRecord:
    dim: int
    base: tuple
    basis: list
    isotropic_ok: bool
    radial_ok: bool


@dataclass
class SphereFlatsReport:
    entries: list = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(e.isotropic_ok and e.radial_ok for e in self.entries)

    def by_dim(self, d: int):
        return [e for e in self.entries if e.dim == d]


# Cells per block in `flats_in_sphere_check`: closure points of one flat's
# pass, or Gram entries of one level's identity checks. The int64
# temporaries are then O(_FLAT_CELLS * d) whatever the number of q, plus
# O(d) per point index that a level already holds.
_FLAT_CELLS = 1 << 16


def flats_in_sphere_check(sphere: Sphere, dim_cap: int, cap: int = ENUM_CAP) -> SphereFlatsReport:
    """Enumerate every flat of dimension <= dim_cap contained in the sphere
    and check two identities on each: total isotropy of the flat, and
    <x - w, x - y> = 0 for all flat points x, y (w the center).

    Flats are built bottom-up: the sphere points, then for each flat F of
    level r - 1 (in discovery order, base x) the closures F + F_p (q - x) of
    the sphere points q off F, deduplicated by their point sets, which are
    kept as sorted lex codes. Each F takes one array pass: the q for which
    x + 2(q - x) is off the sphere are dropped (every closure through x and q
    contains that point), the p^r closure points of all other q are tested
    against the sphere codes at once, and a closure contained in the sphere
    is recorded at its first q unless an earlier F found it. Only recorded
    flats get a basis (`_affine_closure`). Both identities are Gram-matrix
    reductions, over the basis and over all point pairs, for every flat of
    a level at once.
    """
    form = sphere.form
    ctx, p, d = form.ctx, form.ctx.p, form.dim
    pts = sphere_points(sphere, cap)
    arr = np.array(pts, dtype=np.int64).reshape(len(pts), d)
    weights = _lex_weights(p, d)
    codes = arr @ weights  # sorted: pts are in lex order
    table = np.append(codes, p**d)
    twice = 2 * arr
    steps = np.arange(p, dtype=np.int64)[:, None, None]
    # one dict per level: sorted point codes -> (flat, indices of its points)
    levels = [{(c,): (AffineFlat(ctx, d, q, []), np.array([i])) for i, (c, q) in
               enumerate(zip(codes.tolist(), pts))}]
    for r in range(1, dim_cap + 1):
        nxt = {}
        block = max(1, _FLAT_CELLS // p**r)
        for flat, members in levels[-1].values():
            x = np.array(flat.base, dtype=np.int64)
            off = _is_member(table, (twice - x) % p @ weights)
            off[members] = False
            cand = np.flatnonzero(off)
            span = [pts[i] for i in members.tolist() if pts[i] != flat.base]
            for lo in range(0, len(cand), block):
                qs = cand[lo : lo + block]
                # cl[i, t] holds the codes of F + t (q_i - x), t in F_p
                cl = (arr[members] + steps * (arr[qs] - x)[:, None, None, :]) % p @ weights
                inside = _is_member(table, cl).all(axis=(1, 2))
                qs, cl = qs[inside], cl[inside]
                # two closures through F meet only in F, so the least code
                # off F names the closure; keep the first q of each
                seen = set()
                for j, least in enumerate(cl[:, 1:].min(axis=(1, 2)).tolist()):
                    if least in seen:
                        continue
                    seen.add(least)
                    key = np.sort(cl[j], axis=None)
                    name = tuple(key.tolist())
                    if name not in nxt:
                        closure = _affine_closure(ctx, [flat.base, pts[qs[j]]] + span)
                        nxt[name] = (closure, np.searchsorted(codes, key))
        levels.append(nxt)
        if not nxt:
            break
    report = SphereFlatsReport()
    w = np.array(sphere.center, dtype=np.int64)
    sig = form.sig_array()
    for r, level in enumerate(levels):
        names = sorted(level)
        if not names:
            continue
        flats = [level[name][0] for name in names]
        members = np.array([level[name][1] for name in names])
        # <x - w, x - y> = G[x, x] - G[x, y], G the Gram matrix of the x - w;
        # it is built for all flats of the level at once, in blocks of rows
        rel = (arr[members] - w) % p
        srel = rel * sig % p
        diag = (srel * rel).sum(axis=2) % p
        radial = np.ones(len(names), dtype=bool)
        rows = max(1, _FLAT_CELLS // members.size)
        for lo in range(0, members.shape[1], rows):
            gram = srel[:, lo : lo + rows] @ rel.transpose(0, 2, 1) % p
            radial &= (gram == diag[:, lo : lo + rows, None]).all(axis=(1, 2))
        basis = np.array([f.basis for f in flats], dtype=np.int64).reshape(len(flats), r, d)
        iso = ~((basis * sig % p) @ basis.transpose(0, 2, 1) % p).any(axis=(1, 2))
        for f, f_iso, f_radial in zip(flats, iso.tolist(), radial.tolist()):
            report.entries.append(FlatRecord(f.dim, f.base, f.basis, f_iso, f_radial))
    return report


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


def isotropic_unit_pair_search(form: BilinearForm, cap: int = ENUM_CAP):
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
    if form.ctx.kind != "prime":
        raise DomainError("search runs over prime fields only")
    p = form.ctx.p
    k = (d - 1) // 2
    units = _origin_sphere_points(form, cap)
    if k == 0:
        if units.shape[0]:
            w = tuple(int(v) for v in units[0])
            return AffineFlat(form.ctx, d, (0,) * d, []), w
        return None
    sig = form.sig_array()

    def orthogonal_units(basis_rows):
        mat = (np.asarray(basis_rows, dtype=np.int64) * sig) % p
        prods = units @ mat.T % p
        mask = (prods == 0).all(axis=1)
        return units[mask]

    for pivots in combinations(range(d), k):
        pivot_set = set(pivots)
        cands = []
        for i, piv in enumerate(pivots):
            rows = _rref_row_candidates(p, d, piv, pivot_set - {piv})
            iso = form.norms_of_rows(rows) == 0
            cands.append(rows[iso])
        hit = _extend_isotropic(form, p, sig, cands, [], orthogonal_units)
        if hit is not None:
            basis, w = hit
            flat = AffineFlat(form.ctx, d, (0,) * d, [tuple(int(v) for v in b) for b in basis])
            return flat, tuple(int(v) for v in w)
    return None


def _extend_isotropic(form, p, sig, cands, chosen, orthogonal_units):
    depth = len(chosen)
    if depth == len(cands):
        sols = orthogonal_units(chosen)
        if sols.shape[0]:
            return list(chosen), sols[0]
        return None
    pool = cands[depth]
    if chosen:
        mat = (np.asarray(chosen, dtype=np.int64) * sig) % p
        mask = (pool @ mat.T % p == 0).all(axis=1)
        pool = pool[mask]
    for row in pool:
        hit = _extend_isotropic(form, p, sig, cands, chosen + [row], orthogonal_units)
        if hit is not None:
            return hit
    return None


# -- unit-distance graphs ---------------------------------------------------


def is_full_grid(points, p: int) -> bool:
    """True iff `points` is all of F_p^d in lexicographic order, d being the
    length of each point.

    On such a point list the translations of F_p^d act transitively, and the
    unit-distance graph and the point-sphere incidence graph (points against
    the same list of centers) are invariant under them, so every vertex can
    be moved onto vertex 0, the origin. Any other list, a reordered or
    incomplete grid included, fails the test.
    """
    arr = np.asarray(points)
    if arr.ndim != 2 or arr.shape[0] != p ** arr.shape[1]:
        return False
    return bool(np.array_equal(arr, domain_points(p, arr.shape[1])))


def unit_distance_graph(points, form: BilinearForm) -> BipartiteGraph:
    """Unit-distance graph of a point list under `form` (prime ctx only), as
    its bipartite double: both classes are the point list, and (i, j) is an
    edge iff norm_sq(points[i] - points[j]) = 1. The relation is symmetric,
    so the two classes share one packed array (rows is cols). A point is
    never adjacent to itself: the difference has norm zero, not one.
    """
    if form.ctx.kind != "prime":
        raise DomainError("unit-distance graphs are built over prime fields only")
    points = [tuple(pt) for pt in points]
    if any(len(pt) != form.dim for pt in points):
        raise DomainError("point dimension mismatch")
    g = BipartiteGraph.__new__(BipartiteGraph)
    g.m = g.n = len(points)
    g.rows = g.cols = _pack(form.unit_pair_matrix(points, points))
    return g


def point_sphere_incidence(points, centers, form: BilinearForm) -> BipartiteGraph:
    """Incidence graph: rows are points, columns are unit spheres (by center);
    an edge means the point lies on the sphere."""
    if form.ctx.kind != "prime":
        raise DomainError("incidence builder runs over prime fields only")
    return BipartiteGraph.from_bool_matrix(form.unit_pair_matrix(points, centers))


def embed_to_standard_norm(points, ext_ctx: FieldCtx):
    """Map (x_1, .., x_d) to (x_1, .., x_{d-1}, a * x_d) over F_{p^2}.

    Because a^2 = -1, the standard-form unit-distance relation between images
    coincides with the last-coordinate-negated relation between the original
    points. Requires an extension context (prime contexts are rejected).
    """
    if ext_ctx.kind != "ext":
        raise DomainError("embedding requires a quadratic-extension context")
    p = ext_ctx.p
    out = []
    for pt in points:
        head = tuple((int(c) % p, 0) for c in pt[:-1])
        out.append(head + (((0, int(pt[-1]) % p)),))
    return out
