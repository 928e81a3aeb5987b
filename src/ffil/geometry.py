"""Bilinear forms, unit spheres, affine flats, and unit-distance graphs.

All geometry is exact field arithmetic; membership tests never use
probabilistic shortcuts. Every form, sphere and graph lives over a prime
field F_p: grid sweeps (sphere tables, pairwise norms) and graphs are numpy
passes, and the scalar `inner` is their reference. Sphere point tables for
origin-centered spheres are memoized in memory. Points are named by int64
lexicographic codes (a point's row index in `domain_points`). The flats of
`flats_in_sphere_check` test membership in the sphere by one lookup in a
packed table of p^d bits, `sphere_family_check` tests it by polarization,
and both are blocked array passes that never list the grid.

Both flats searches walk a flag from the sphere's lex-first point s_0:
level r is the r-flats through F_{r-1}, the first flat of level r - 1, and
F_0 = s_0. O(Q) fixes the center, keeps both checked identities of a flat
and is transitive on the sphere S, and by Witt's theorem the stabiliser of
an (r - 1)-flat is transitive on the r-flats of S that contain it. So every
r-flat moves onto one through F_{r-1}: all flats pass iff those of the flag
levels do. Counting the pairs of an (r - 1)-flat in an r-flat two ways, S
holds N_r = N_{r-1} E_r / A_r r-flats, an exact division: N_0 = |S|, E_r
r-flats contain F_{r-1}, and an affine r-space has A_r = p(p^r - 1)/(p - 1)
hyperplanes. FLAT_PAIR_CAP bounds the pair tests of one walk.

Every product of point arrays through the form B is one `BilinearForm.gram`
call. As p is odd, pair norms follow by polarization, Q(a - b) = Q(a) +
Q(b) - 2 B(a, b). Every product mod p is one `mpoly.matmul_mod` call, whose
docstring states the exactness rule (one float64 BLAS product on every d >= 2
grid under `mpoly.ENUM_CAP`).
"""

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import DomainError, ResourceLimitError
from .gf import FieldCtx
from . import linalg
from .bigraph import BipartiteGraph, _pack, _pack_codes, _unpack
from .mpoly import _check_enum_cap, _lex_weights, domain_points, lex_points, matmul_mod

# Rows of the left point array per block of the pairwise-norm sweep, so the
# temporaries are O(_PAIR_BLOCK * n) whatever the number of pairs.
_PAIR_BLOCK = 256

FLAT_PAIR_CAP = 5 * 10**7  # pair tests (flat, sphere point) of one flats walk


class BilinearForm:
    """Diagonal bilinear form with entries +-1 on F^d (odd characteristic)."""

    __slots__ = ("ctx", "dim", "signature")

    def __init__(self, ctx: FieldCtx, signature):
        if ctx.p == 2:
            raise DomainError("forms require characteristic != 2")
        sig = tuple(int(s) for s in signature)
        if not sig:
            raise DomainError("form dimension must be >= 1, got 0")
        if any(s not in (1, -1) for s in sig):
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
        """Sum of sigma_i * u_i * v_i, an int in [0, p)."""
        if len(u) != self.dim or len(v) != self.dim:
            raise DomainError("vector dimension mismatch")
        acc = 0
        for s, a, b in zip(self.signature, u, v):
            acc += a * b if s == 1 else -a * b
        return acc % self.ctx.p

    def norm_sq(self, v):
        return self.inner(v, v)

    def diff(self, u, v):
        p = self.ctx.p
        return tuple((a - b) % p for a, b in zip(u, v))

    def norms_of_rows(self, arr) -> np.ndarray:
        """Vectorized norm_sq along the last axis of an int array: the squared
        residues times the signature, one `matmul_mod` product, exact for
        every p <= 2^31."""
        p = self.ctx.p
        arr = np.asarray(arr, dtype=np.int64) % p
        return matmul_mod(arr * arr % p, np.array(self.signature)[:, None], p)[..., 0]

    def gram(self, a, b) -> np.ndarray:
        """int64 residues G[..., i, j] = inner(a[..., i, :], b[..., j, :]) for
        int arrays of row vectors, with leading batch axes: one `matmul_mod`
        product, exact for every p <= 2^31."""
        p = self.ctx.p
        a, b = (np.asarray(x, dtype=np.int64) for x in (a, b))
        # residues skip the int64 `% p`, most of the cost of a small product
        a, b = (x % p if x.size and (x.min() < 0 or x.max() >= p) else x for x in (a, b))
        return matmul_mod(a * self.signature, np.swapaxes(b, -1, -2), p)

    def unit_pair_matrix(self, a, b) -> np.ndarray:
        """Boolean matrix M[i, j] = (norm_sq(a[i] - b[j]) == 1) for two point
        arrays, by polarization, in row blocks of a."""
        a, b = (np.asarray(x, dtype=np.int64).reshape(len(x), self.dim) for x in (a, b))
        na, nb = self.norms_of_rows(a), self.norms_of_rows(b)
        out = np.empty((a.shape[0], b.shape[0]), dtype=bool)
        for lo in range(0, a.shape[0], _PAIR_BLOCK):
            blk = slice(lo, lo + _PAIR_BLOCK)
            out[blk] = (na[blk, None] + nb - 2 * self.gram(a[blk], b)) % self.ctx.p == 1
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
        return self.form.norm_sq(self.form.diff(x, self.center)) == 1


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
        arr = (np.asarray(self.base, dtype=np.int64) + matmul_mod(coeffs, self.basis, p)) % p
        for row in arr:
            yield tuple(int(v) for v in row)

    def __repr__(self):
        if self.is_empty:
            return "AffineFlat(empty)"
        return f"AffineFlat(dim={self.dim}, base={self.base})"


# -- sphere point tables -------------------------------------------------


_ORIGIN_CACHE = {}


def _smaller_root_of_pm1(p: int, t: int) -> int:
    """The smaller square root of t = 1 or p - 1 mod p, or -1 if t is not a
    square: 1 for t = 1, and for t = -1, c^((p-1)/4) (or p minus it) for a
    non-square c when p = 1 (mod 4)."""
    if t == 1:
        return 1
    if p % 4 == 3:
        return -1
    c = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)  # Euler's criterion
    root = pow(c, (p - 1) // 4, p)
    return min(root, p - root)


def _origin_sphere_points(form: BilinearForm) -> np.ndarray:
    """Points of the origin-centered unit sphere, lexicographic order: a
    memoized, read-only int64 array with one row per point.

    x_1..x_{d-1} range over the grid and sigma_d * x_d^2 = 1 - (partial norm)
    is solved with a square-root table: each head gives 0, 1 or 2 points, in
    increasing x_d. The build holds about three times the table's bytes. At
    d = 1 the one target, sigma_1 = +-1, is solved directly, with no table.
    """
    p, d = form.ctx.p, form.dim
    _check_enum_cap(p, d)  # also for a memoized table, so the cap never depends on call order
    key = (p, form.signature)
    pts = _ORIGIN_CACHE.get(key)
    if pts is not None:
        return pts
    head = domain_points(p, d - 1)
    r = matmul_mod(head * head % p, np.array(form.signature[:-1], dtype=np.int64)[:, None], p)[:, 0]
    r = form.signature[-1] * (1 - r) % p  # x_d^2 of sigma_d x_d^2 = 1 - (partial norm)
    if d == 1:
        r = np.array([_smaller_root_of_pm1(p, int(r[0]))], dtype=np.int64)
    else:
        half = np.arange((p + 1) // 2, dtype=np.int64)  # one root of each square
        root = np.full(p, -1, dtype=np.int64)
        root[half * half % p] = half
        r = root[r]  # the smaller root x_d, or -1
    idx = np.repeat(np.arange(len(head)), np.sign(r) + 1)  # the head of each point: 0, 1 or 2 roots
    pts = np.empty((len(idx), d), dtype=np.int64)
    pts[:, :-1] = head[idx]
    pts[:, -1] = r[idx]
    second = np.flatnonzero(idx[1:] == idx[:-1]) + 1  # the root p - r of a head's second point
    pts[second, -1] = p - pts[second, -1]
    pts.flags.writeable = False
    _ORIGIN_CACHE[key] = pts
    return pts


def _sphere_array(sphere: Sphere) -> np.ndarray:
    """The sphere's points as int64 rows in lex order (the memoized table itself at the origin)."""
    form, p = sphere.form, sphere.form.ctx.p
    w = np.array([c % p for c in sphere.center], dtype=np.int64)
    pts = _origin_sphere_points(form)
    if w.any():
        pts = (pts + w) % p
        pts = pts[np.lexsort(pts.T[::-1])]  # the first coordinate is the primary key
    return pts


def sphere_points(sphere: Sphere):
    """All rational points of the sphere, lexicographic order."""
    return [tuple(row) for row in _sphere_array(sphere).tolist()]


# -- sphere intersections and isotropy -------------------------------------


def _family_centers(families):
    """The form and (F, k, d) centers of families, short ones padded with a duplicate sphere."""
    if not families or not all(families):
        raise DomainError("need at least one sphere")
    form = families[0][0].form
    if any(s.form != form for f in families for s in f):
        raise DomainError("all spheres must share one bilinear form")
    k = max(map(len, families))
    centers = [[s.center for s in f] + [f[0].center] * (k - len(f)) for f in families]
    return form, np.array(centers, dtype=np.int64).reshape(len(families), k, form.dim) % form.ctx.p


def intersection_flats(families) -> list:
    """`intersect_spheres_to_flat` of each family of spheres: all the linear
    systems are built in one array step, then each is solved by `solve_affine`."""
    form, centers = _family_centers(families)
    ctx, p, d = form.ctx, form.ctx.p, form.dim
    # row j of a system holds the coefficients B(2(w_j - w_1), e_i) of x_i
    rows = form.gram(2 * (centers[:, 1:] - centers[:, :1]), np.eye(d, dtype=np.int64))
    rhs = ((form.norms_of_rows(centers[:, 1:]) - form.norms_of_rows(centers[:, :1])) % p).tolist()
    sols = [linalg.solve_affine(mat, b, d, p) for mat, b in zip(rows.tolist(), rhs)]
    return [AffineFlat.empty(ctx, d) if s is None else AffineFlat(ctx, d, *s) for s in sols]


def intersect_spheres_to_flat(spheres) -> AffineFlat:
    """Affine flat U with S_1 & ... & S_k = S_1 & U.

    S_1 minus S_j leaves 2<x, w_j - w_1> + <w_1, w_1> - <w_j, w_j> = 0. U solves
    those k - 1 equations (the whole space for k = 1; a duplicate sphere adds
    nothing), is empty when they are inconsistent, and is orthogonal to the
    affine span of the centers.
    """
    return intersection_flats([list(spheres)])[0]


def sphere_family_check(families, flats) -> list:
    """(identity_ok, orth_ok) for each family of unit spheres S_1, .., S_k in
    `families` (lists of spheres of one form) and its flat U in
    `flats`, such as `intersection_flats(families)`: the identity
    S_1 & ... & S_k = S_1 & U, and <u, w_j - w_1> = 0 for U's basis.

    A point o + w_1 of S_1, o on the memoized origin sphere, is on S_j iff
    Q(o + w_1 - w_j) = 1, by polarization 2B(o, w_1 - w_j) = -Q(w_1 - w_j),
    and on U iff e.o = e.(base - w_1) for U's nullspace equations e: products
    over blocks of families and origin points, of at most _FLAT_CELLS entries.
    """
    form, centers = _family_centers(families)
    (nf, k, d), p = centers.shape, form.ctx.p
    origin, delta = _origin_sphere_points(form), (centers[:, :1] - centers) % p
    twice, need = 2 * delta % p, -form.norms_of_rows(delta)[:, None] % p
    base, basis, eqs = np.zeros((3, nf, d, d), dtype=np.int64)  # of each flat, zero-padded
    for i, flat in enumerate(flats):
        if not flat.is_empty:
            eq = np.reshape(linalg.nullspace(flat.basis, d, p), (-1, d))
            base[i], basis[i, : flat.dim], eqs[i, :, : len(eq)] = flat.base, np.reshape(flat.basis, (-1, d)), eq.T
    offset = matmul_mod((base[:, :1] - centers[:, :1]) % p, eqs, p)
    offset[[f.is_empty for f in flats]] = 1  # the empty flat as 0 = 1
    identity_ok, orth_ok = np.ones(nf, dtype=bool), ~form.gram(basis, delta).any(axis=(1, 2))
    fb, ob = max(1, _FLAT_CELLS // (max(k, d) * len(origin) or 1)), max(1, _FLAT_CELLS // max(k, d))
    for lo, olo in product(range(0, nf, fb), range(0, len(origin), ob)):
        blk, o = slice(lo, lo + fb), origin[olo : olo + ob]
        on_all = (form.gram(o, twice[blk]) == need[blk]).all(axis=2)
        on_flat = (matmul_mod(o, eqs[blk], p) == offset[blk]).all(axis=2)
        identity_ok[blk] &= (on_all == on_flat).all(axis=1)
    return list(zip(identity_ok.tolist(), orth_ok.tolist()))


def _affine_closure(ctx: FieldCtx, pts):
    """Flat spanned by the given points (base = first point)."""
    base = pts[0]
    p = ctx.p
    dirs = [[(a - b) % p for a, b in zip(q, base)] for q in pts[1:]]
    reduced, pivots = linalg.row_reduce(dirs, p)
    basis = [tuple(reduced[r]) for r in range(len(pivots))]
    return AffineFlat(ctx, len(base), base, basis)


@dataclass
class SphereFlatsReport:
    """counts[r], the number of r-flats in the sphere, from r = 0 up to its
    largest flats within the cap, and per level r the r-flats of the walk,
    those through the flag's (r - 1)-flat (module docstring): rows[r], their
    sorted lex codes in lex order, and isotropic_ok[r] and radial_ok[r], bool
    arrays of their two verdicts."""

    counts: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    isotropic_ok: list = field(default_factory=list)
    radial_ok: list = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(ok.all() for ok in self.isotropic_ok + self.radial_ok)


# Block size of the sphere passes, so their int64 temporaries hold O(_FLAT_CELLS * d)
# entries whatever p, k or the count of flats or families, plus O(d) per point or center.
_FLAT_CELLS = 1 << 13


def flats_in_sphere_check(sphere: Sphere, dim_cap: int, counters=None) -> SphereFlatsReport:
    """Count every flat of dimension <= dim_cap contained in the sphere from
    the flats of its flag walk (module docstring), and check two identities
    on each flat of the walk: total isotropy of the flat, and <x - w, x - y>
    = 0 for all flat points x, y (w the center). counters["flat_pairs"] is
    increased by the walk's pair tests."""
    form, (p, d) = sphere.form, (sphere.form.ctx.p, sphere.form.dim)
    arr = _sphere_array(sphere)
    report = SphereFlatsReport()
    count = len(arr)
    for r, (rows, gens) in enumerate(_flat_levels(arr, p, dim_cap, counters=counters)):
        if r:  # N_r = N_{r-1} E_r / A_r (module docstring)
            count = count * len(rows) // (p * (p**r - 1) // (p - 1))
        report.counts.append(count)
        # <x - w, x - y> = G[x, x] - G[x, y], G the Gram matrix of the x - w,
        # for all flats of the level at once, in blocks of rows
        rel = lex_points(rows, p, d).reshape(*rows.shape, d) - np.array(sphere.center)
        diag, radial = form.norms_of_rows(rel), np.ones(len(rows), dtype=bool)
        step = max(1, _FLAT_CELLS // (rows.size or 1))
        for lo in range(0, rows.shape[1], step):
            radial &= (form.gram(rel[:, lo : lo + step], rel) == diag[:, lo : lo + step, None]).all(axis=(1, 2))
        dirs = gens[:, 1:] - gens[:, :1]  # the spanning points' differences span each flat's directions
        report.rows.append(rows)
        report.isotropic_ok.append(~form.gram(dirs, dirs).any(axis=(1, 2)))
        report.radial_ok.append(radial)
    return report


def _flat_levels(arr, p, dim_cap, counters=None):
    """The flats of dimension <= dim_cap along a flag from the least point
    s_0 of the set S of the lex-sorted rows of `arr`: level r is (rows, gens),
    the r-flats in S through F, the first flat of level r - 1, as sorted lex
    codes, in lex order, and as r + 1 spanning points, base = s_0; level 0 is
    s_0, then each level up to the last nonempty one.

    Level r lists the records of the walk (the test reference) with base
    s_0 that contain F. Each C = F + F_p (q - s_0) is kept at q, its least point
    off F, so the levels come in increasing q, which is lex order. q comes
    after F's last spanning point: else F_{r-2} + F_p (q - s_0), an
    (r - 1)-flat of C, would precede F.

    Membership in S is one lookup in a packed p^d-bit table. The points q
    after F's last spanning point are the level's pair tests: they are added
    to counters["flat_pairs"], and ResourceLimitError is raised before a
    level that would take them past FLAT_PAIR_CAP. Each q needs 2q - s_0 in
    S (on the line s_0 + F_p (q - s_0)), one filter for every level; the q
    that pass have their cosets F + t(q - s_0), 0 < t < p, tested in blocks:
    all in S, none below q.
    """
    weights = _lex_weights(p, d := arr.shape[1])
    codes = arr @ weights  # increasing: the points are in lex order
    table = _pack_codes(codes, p**d)
    ends = np.flatnonzero(_unpack(table, (2 * arr - arr[:1]) % p @ weights))  # the q with 2q - s_0 in S
    levels, spent = [(codes[:1, None], arr[:1, None])], 0
    while len(levels) <= dim_cap and len(levels[-1][0]):
        flat, gens = lex_points(levels[-1][0][0], p, d), levels[-1][1][0]  # F's points and spanning points
        after = int(np.searchsorted(codes, gens[-1] @ weights, side="right"))
        if (spent := spent + len(codes) - after) > FLAT_PAIR_CAP:
            raise ResourceLimitError(f"flats walk budget of {FLAT_PAIR_CAP} pair tests exhausted")
        q = ends[ends >= after]
        kept, step = [q[:0]], max(1, _FLAT_CELLS // (len(flat) * d))
        for lo in range(0, len(q), step):
            live, t = q[lo : lo + step], 1
            while len(live) and t < p:
                c = (flat + t * (arr[live, None] - arr[0])) % p @ weights
                live, t = live[(_unpack(table, c) & (c >= codes[live, None])).all(axis=1)], t + 1
            kept.append(live)
        if not len(q := np.concatenate(kept)):
            break
        step, ts = max(1, step // p), np.arange(p)[:, None, None]
        cl = [(flat + ts * (arr[q[lo : lo + step], None, None] - arr[0])) % p @ weights for lo in range(0, len(q), step)]
        gens = np.concatenate([np.repeat(gens[None], len(q), axis=0), arr[q, None]], axis=1)
        levels.append((np.sort(np.concatenate(cl).reshape(len(q), -1)), gens))
    if counters is not None:
        counters["flat_pairs"] = counters.get("flat_pairs", 0) + spent
    return levels


def isotropic_unit_pair_search(form: BilinearForm, counters=None):
    """Exhaustive search for (V, w): a totally isotropic k-space V and a
    norm-1 vector w orthogonal to V, in odd dimension d = 2k + 1. Returns
    (V as a flat through 0, w = s_0) for the first k-flat w + V of the walk
    of `_flat_levels` in the origin unit sphere S, or None;
    counters["flat_pairs"] is increased by the walk's pair tests.

    This is exact. As p is odd, Q(w + tv) = 1 for every t forces Q(v) = 0
    and B(w, v) = 0, and B(v, v') = 0 follows from Q(v + v') = 0: the pairs
    are the k-flats in S, and S holds one iff one contains the walk's
    (k - 1)-flat (module docstring).
    """
    d = form.dim
    if d % 2 == 0:
        raise DomainError("search is defined for odd dimensions d = 2k + 1")
    levels = _flat_levels(_origin_sphere_points(form), form.ctx.p, d // 2, counters)
    if len(levels) <= d // 2 or not len(levels[-1][1]):
        return None
    flat = _affine_closure(form.ctx, levels[-1][1][0].tolist())
    return AffineFlat(form.ctx, d, (0,) * d, flat.basis), flat.base


# -- unit-distance graphs ---------------------------------------------------


def unit_distance_graph(points, form: BilinearForm) -> BipartiteGraph:
    """Unit-distance graph of a point array under `form` (int rows, or any
    array-like of them, the empty list included), as its bipartite double:
    both classes are the points, and (i, j) is an edge iff
    norm_sq(points[i] - points[j]) = 1. The relation is symmetric, so the two
    classes share one packed array (rows is cols). A point is never adjacent
    to itself: the difference has norm zero, not one.
    """
    points = np.asarray(points, dtype=np.int64)
    if points.size and points.shape[1:] != (form.dim,):
        raise DomainError("point dimension mismatch")
    g = BipartiteGraph.__new__(BipartiteGraph)
    g.m = g.n = len(points)
    g.rows = g.cols = _pack(form.unit_pair_matrix(points, points))
    return g


def point_sphere_incidence(points, centers, form: BilinearForm) -> BipartiteGraph:
    """Incidence graph: rows are points, columns are unit spheres (by center);
    an edge means the point lies on the sphere."""
    return BipartiteGraph.from_bool_matrix(form.unit_pair_matrix(points, centers))

