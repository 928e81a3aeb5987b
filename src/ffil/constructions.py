"""Randomized constructions with built-in verification and replayable reports.

Each construction records its parameters, seed, achieved counts, target
thresholds, retry counts, and the outcome of an exact complete-bipartite
check, so any report can be regenerated bit-for-bit from its seed. Targets
use halved expectations (p^(D-1)/2 zeros, mn/(2p) edges, |U|^2/(2p) unit
pairs); retry caps are sized so that exhausting one signals a bug or misuse,
not bad luck.
"""

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConstructionFailure, DomainError
from .gf import FieldCtx, find_prime, is_prime
from .mpoly import (
    MultiPoly,
    _check_enum_cap,
    _lex_weights,
    _power_table,
    count_zeros,
    domain_points,
    lex_points,
    sample_uniform,
    zero_mask,
)
from .bigraph import BipartiteGraph, _popcount, contains_kss, smallest_free_s
from .geometry import (
    BilinearForm,
    _origin_sphere_points,
    point_sphere_incidence,
    unit_distance_graph,
)

RETRY_POLY = 20
RETRY_SUBSAMPLE = 20
RETRY_SHIFT = 50
_DEGREE_BLOCK = 1 << 16  # products (terms x open columns) of one block of the section-degree walk


@dataclass
class ConstructionReport:
    """Replayable record of one construction run."""

    kind: str
    params: dict
    seed: int
    achieved: dict = field(default_factory=dict)
    bound: dict = field(default_factory=dict)
    verification: dict = field(default_factory=dict)
    retries: dict = field(default_factory=dict)
    flags: list = field(default_factory=list)
    # work done, e.g. kss_probes; not part of the verdict
    counters: dict = field(default_factory=dict)


def kss_verdict(graph, s: int, counters: dict) -> dict:
    """Exact K_{s,s} check as a report's verification block; the probes it
    spends are added to counters["kss_probes"]."""
    witness = contains_kss(graph, s, counters=counters)
    return {
        "s": s,
        "outcome": "verified-free" if witness is None else "witness-found",
        "witness": witness,
    }


def integer_nth_root(n: int, e: int) -> int:
    """Largest r with r^e <= n (exact integer arithmetic)."""
    if n < 0 or e < 1:
        raise DomainError("nth root needs n >= 0, e >= 1")
    r = 1 << -(-n.bit_length() // e)  # above the root, as n < 2^bit_length
    # Newton's steps from above decrease to the root (to 0 at n = 0)
    while r and (q := ((e - 1) * r + n // r ** (e - 1)) // e) < r:
        r = q
    return r


# -- zero-count statistics ----------------------------------------------------


@dataclass
class ZeroCountResult:
    p: int
    nvars: int
    degree: int
    trials: int
    counts: list
    threshold: float

    @property
    def fraction(self) -> float:
        hits = sum(1 for c in self.counts if 2 * c >= self.p ** (self.nvars - 1))
        return hits / self.trials

    @property
    def mean(self) -> float:
        return sum(self.counts) / self.trials


def zero_count_experiment(p, nvars, degree, trials, rng) -> ZeroCountResult:
    """Fraction of uniform degree-<=degree polynomials on F_p^nvars with at
    least p^(nvars-1)/2 rational zeros.

    Preconditions p >= 5 prime, nvars >= 3, degree >= 3 match the regime where
    values at distinct points are pairwise independent, making the success
    probability at least 3/4 per trial. Trial t draws from rng.derive(t).
    """
    if not is_prime(p) or p < 5:
        raise DomainError("p must be a prime >= 5")
    if nvars < 3 or degree < 3:
        raise DomainError("experiment requires nvars >= 3 and degree >= 3")
    if trials < 1:
        raise DomainError("need at least one trial")
    _check_enum_cap(p, nvars)
    ctx = FieldCtx.prime(p)
    counts = [
        count_zeros(sample_uniform(ctx, nvars, degree, rng.derive(t)))
        for t in range(trials)
    ]
    return ZeroCountResult(p, nvars, degree, trials, counts, p ** (nvars - 1) / 2)


# -- random algebraic graphs ---------------------------------------------------


@dataclass
class AlgebraicGraphInstance:
    graph: BipartiteGraph
    poly: MultiPoly
    rows: list  # chosen points in F_p^D1
    cols: list  # chosen points in F_p^D2
    report: ConstructionReport
    col_zeros: list  # per chosen column, its zeros over all of F_p^D1


def random_algebraic_graph(p, d1, d2, m, n, s, rng) -> AlgebraicGraphInstance:
    """K_{s,s}-free bipartite graph from the zero set of a random polynomial.

    Samples f uniform of degree <= (d1+d2)^2 on F_p^d1 x F_p^d2 and keeps it
    once the full graph G0 has at least p^(d1+d2-1)/2 edges and the exact
    K_{s,s} check certifies freeness (each event has probability >= 3/4 in
    the independent regime, so a 20-retry cap is generous). Then subsamples
    m rows and n columns until the subgraph keeps at least mn/(2p) edges.
    """
    if not is_prime(p):
        raise DomainError("p must be prime")
    if d1 + d2 < 1:  # the polynomial needs a variable
        raise DomainError(f"need --d1 + --d2 >= 1, got --d1 {d1} --d2 {d2}")
    _check_enum_cap(p, d1 + d2)  # the graph's grid, before p^d1 or p^d2 is formed
    if m < 1 or n < 1 or m > p**d1 or n > p**d2:
        raise DomainError("need 1 <= m <= p^d1 and 1 <= n <= p^d2")
    if s < 1:
        raise DomainError("s must be >= 1")
    ctx = FieldCtx.prime(p)
    delta = (d1 + d2) ** 2
    report = ConstructionReport(
        kind="random-algebraic-graph",
        counters={"kss_probes": 0},
        params={"p": p, "d1": d1, "d2": d2, "m": m, "n": n, "s": s, "delta": delta},
        seed=rng.seed,
    )
    if s * s > min(delta, math.isqrt(p)):
        msg = (
            f"s^2 = {s * s} exceeds min(delta, sqrt(p)) = "
            f"{min(delta, math.isqrt(p))}: point values are not guaranteed "
            "independent at this scale; freeness is still verified exactly"
        )
        warnings.warn(msg, stacklevel=2)
        report.flags.append(msg)
    full_target = p ** (d1 + d2 - 1)
    report.bound["edges_full_min"] = full_target / 2
    report.bound["edges_min"] = m * n / (2 * p)

    mask = f = None
    best_edges = -1
    for attempt in range(1, RETRY_POLY + 1):
        cand = sample_uniform(ctx, d1 + d2, delta, rng)
        cand_mask = zero_mask(cand).reshape(p**d1, -1)  # [x, y], both in lex order
        e0 = int(cand_mask.sum())
        best_edges = max(best_edges, e0)
        if 2 * e0 < full_target:
            continue
        g0 = BipartiteGraph.from_bool_matrix(cand_mask)
        if contains_kss(g0, s, counters=report.counters) is not None:
            continue
        f, mask = cand, cand_mask
        report.retries["poly"] = attempt
        report.achieved["edges_full"] = e0
        break
    if f is None:
        report.achieved["edges_full_best"] = best_edges
        raise ConstructionFailure(
            f"no admissible polynomial in {RETRY_POLY} tries", best=report
        )

    n1, n2 = p**d1, p**d2
    sub = rows_idx = cols_idx = None
    for attempt in range(1, RETRY_SUBSAMPLE + 1):
        ridx = list(range(n1)) if m == n1 else rng.sample_indices(n1, m)
        cidx = list(range(n2)) if n == n2 else rng.sample_indices(n2, n)
        cand_sub = mask[np.ix_(ridx, cidx)]
        if 2 * p * int(cand_sub.sum()) >= m * n:
            sub, rows_idx, cols_idx = cand_sub, ridx, cidx
            report.retries["subsample"] = attempt
            break
    if sub is None:
        raise ConstructionFailure(
            f"no admissible subsample in {RETRY_SUBSAMPLE} tries", best=report
        )

    graph = BipartiteGraph.from_bool_matrix(sub)
    report.achieved["edges"] = graph.edge_count()
    report.verification = kss_verdict(graph, s, report.counters)
    rows = [tuple(r) for r in lex_points(rows_idx, p, d1).tolist()]
    cols = [tuple(c) for c in lex_points(cols_idx, p, d2).tolist()]
    col_zeros = mask[:, cols_idx].sum(axis=0).tolist()
    return AlgebraicGraphInstance(graph, f, rows, cols, report, col_zeros)


# -- point-variety instances ---------------------------------------------------


@dataclass
class PointVarietyInstance:
    points: list
    section_degrees: list  # per variety, total degree of its defining section
    graph: BipartiteGraph
    poly: MultiPoly
    report: ConstructionReport
    incident_points: list  # per variety, how many of `points` lie on it


def _section_degrees(f: MultiPoly, d1: int, cols) -> list:
    """Total degree of `bivariate_section(f, q)` at each row q of `cols`: the
    largest |h| of a head h (a term's leading d1 exponents) whose coefficient
    sum_t c_t q^tail(t) is nonzero, else 0. Head degrees are walked down over
    the columns still open, tails folded as in `coefficient_tensor`, in blocks
    of whole head groups of about `_DEGREE_BLOCK` products. Residues are below
    p <= 2^31: a product is below 2^62, a head group's sum (< 2^32 terms) below 2^63."""
    p, cols = f.ctx.p, np.asarray(cols, dtype=np.int64)
    level = f.exps[:, :d1].sum(axis=1, dtype=np.int64)
    tables = [_power_table(cols[:, v], min(p, int(f.exps[:, d1 + v].max(initial=0)) + 1), p).T
              for v in range(cols.shape[1])]  # [e, j] = (q_j)_v^e
    degrees, open_ = np.zeros(len(cols), dtype=np.int64), np.arange(len(cols))
    h = int(level.max(initial=0))
    while h > 0 and len(open_):  # columns open at level 0 have degree 0
        at = np.flatnonzero(level == h)
        at = at[np.lexsort(f.exps[at, :d1].T[::-1])]  # grouped by head
        heads, tail = f.exps[at, :d1], f.exps[at, d1:].astype(np.int64)
        tail = np.where(tail >= p, 1 + (tail - 1) % (p - 1), tail)
        bounds = np.flatnonzero(np.r_[True, (heads[1:] != heads[:-1]).any(axis=1), True])
        g = 0  # the block's first head group
        while g < len(bounds) - 1 and len(open_):
            step = _DEGREE_BLOCK // len(open_)  # terms, rounded to whole head groups
            end = max(g + 1, np.searchsorted(bounds, bounds[g] + step, "right") - 1)
            lo, hi = bounds[g], bounds[end]
            prod = f.coefs[at[lo:hi], None]
            for v, table in enumerate(tables):
                prod = prod * table[np.ix_(tail[lo:hi, v], open_)] % p
            hit = (np.add.reduceat(prod, bounds[g:end] - lo, axis=0) % p).any(axis=0)
            degrees[open_[hit]] = h
            open_, g = open_[~hit], end
        h = int(level.max(initial=0, where=level < h))  # the next level present
    return degrees.tolist()


def point_variety_instance(m, alpha, dim, rng) -> PointVarietyInstance:
    """m points and n = floor(m^alpha) hypersurfaces in F_p^dim with many
    incidences and an exactly verified K_{s,s}-free incidence graph.

    p is the smallest prime above m^(1/dim); the second vertex class lives in
    F_p^dim2 with dim2 = ceil(alpha * dim). Each column point q yields the
    hypersurface cut out by fixing the trailing variables of the graph's
    polynomial at q. The full zero set is used as the variety (no
    factorization into irreducible components is attempted); the freeness of
    the emitted incidence graph is verified directly instead of inferred.
    """
    if dim < 1:
        raise DomainError(f"need --dim >= 1, got --dim {dim}")
    if not math.isfinite(alpha * dim):
        raise DomainError(f"need a finite --alpha * --dim, got --alpha {alpha} --dim {dim}")
    dim2 = math.ceil(alpha * dim)
    if dim2 < 1:
        raise DomainError(f"need ceil(--alpha * --dim) >= 1, got --alpha {alpha} --dim {dim}")
    if m < 2:  # then alpha > 0 makes floor(m^alpha) >= 1
        raise DomainError("need m >= 2 and floor(m^alpha) >= 1")
    _check_enum_cap(2, dim + dim2)  # p >= 2: the check below, before the root of m is formed
    p = find_prime(max(2, integer_nth_root(m, dim)))  # p^dim > m, so p^dim2 > m^alpha
    _check_enum_cap(p, dim + dim2)  # the graph's grid, before m^alpha is formed
    n = int(m**alpha)
    s = delta = (dim + dim2) ** 2  # K_{s,s} size and the graph polynomial's degree
    inst = random_algebraic_graph(p, dim, dim2, m, n, s, rng)

    degrees = _section_degrees(inst.poly, dim, inst.cols)
    # column j of the graph is the zero set of section j among the chosen points
    incident = _popcount(inst.graph.cols).tolist()
    proxy_ok = max(inst.col_zeros) <= delta * p ** (dim - 1)

    report = ConstructionReport(
        kind="point-variety",
        params={
            "m": m,
            "n": n,
            "alpha": alpha,
            "dim": dim,
            "dim2": dim2,
            "p": p,
            "s": s,
            "delta": delta,
        },
        seed=rng.seed,
        achieved={
            "incidences": sum(incident),
            "edges": inst.report.achieved["edges"],
            "degree_proxy_ok": proxy_ok,
        },
        bound={"incidences_min": m * n / (2 * p)},
        verification=inst.report.verification,
        retries=inst.report.retries,
        counters=inst.report.counters,
        flags=inst.report.flags
        + [
            "varieties are full zero sets of the sections; no irreducible "
            "factorization, freeness verified exactly on the emitted graph"
        ],
    )
    return PointVarietyInstance(inst.rows, degrees, inst.graph, inst.poly, report, incident)


# -- evasive point sets ----------------------------------------------------------


def evasive_point_set(p, d, k, strategy, rng) -> np.ndarray:
    """Point set of size exactly p^(d-k) in F_p^d, as int64 rows in lex order.

    'map-image' returns the graph {(y, g_1(y), .., g_k(y))} of monomial maps
    with strictly increasing odd total degrees; 'random' returns a uniform
    subset. No evasiveness guarantee is asserted either way; downstream
    experiments verify the properties they need directly.
    """
    if not 0 <= k < d:
        raise DomainError("need 0 <= k < d")
    _check_enum_cap(p, d)  # size <= p^d
    size = p ** (d - k)
    if strategy == "map-image":
        base = domain_points(p, d - k)
        squares = np.ones(len(base), dtype=np.int64)
        for j in range(1, d - k):
            squares = squares * _power_table(base[:, j], 3, p)[:, 2] % p
        # y_1^(2i+1) * prod_{j>=2} y_j^2 for i = 1..k: odd total degrees
        # 2i + 1 + 2(d-k-1), strictly increasing in i
        odd = _power_table(base[:, 0], 2 * k + 2, p)[:, 3::2]
        return np.hstack([base, odd * squares[:, None] % p])
    if strategy == "random":
        return lex_points(rng.sample_indices(p**d, size), p, d)
    raise DomainError(f"unknown strategy {strategy!r}")


# -- unit-distance instances ------------------------------------------------------


@dataclass
class UnitDistanceInstance:
    """The point set as one (n, d) int64 array in lex order (a subsample
    keeps it), its form and its report."""

    points: np.ndarray
    form: BilinearForm
    report: ConstructionReport

    @cached_property
    def graph(self) -> BipartiteGraph:
        """unit_distance_graph of the points (the bipartite double), built on
        first access: never by a rooted run."""
        return unit_distance_graph(self.points, self.form)


def unit_distance_instance(
    n, d, rng, p=None, s=4, strategy="map-image"
) -> UnitDistanceInstance:
    """Point set in dimension d spanning many unit distances, with an exact
    K_{s,s} check on its unit-distance graph.

    With k = floor(d/2) and e = ceil(d/2) + 1, picks the smallest prime
    p = 3 (mod 4) with p^e > n (requires n >= 7^e; pass p explicitly to drive
    the modulus directly, e.g. p = 7 which no admissible n reaches), builds a
    base set U of size p^e, and samples nonzero shifts x until U and U + x
    span at least |U|^2/(2p) ordered unit pairs under the dimension form. The
    final set is U union (U + x), subsampled to n points when n is given and
    smaller. The points, the dimension form `BilinearForm.for_dim` and the
    graph are all over F_p.

    When d = 1 (mod 4) the dimension form negates the last coordinate, and
    the report flags the re-embedding (x_1, .., x_{d-1}, a * x_d) over
    F_{p^2}, with a^2 = -1 (p = 3 mod 4, so a is not in F_p). The map
    multiplies the last square by a^2 = -1, so the standard norm of the
    images is the dimension norm of the points, and the images span the
    standard unit distances of exactly the graph built here: the flag records
    a fact about the set, not a computation.

    For d = 2, 3 (k = 1), U is all of F_p^d by construction: every point has
    the |S| points of x + S as unit neighbours, S being the origin-centered
    unit sphere, so cross_pairs is |U| |S|. With no subsample (n absent or
    p^d) the final set is F_p^d in lex order, unit_distances is n |S| / 2,
    and no pair matrix of all points is built. The graph is then the Cayley
    graph of F_p^d with connection set S, and any K_{s,s} in it translates
    onto one through the origin, vertex 0, whose neighbours are S. So the
    n x |S| block of the graph on the columns S contains K_{s,s} exactly
    when the graph does, for every s: the verdict and smallest_free_s are
    decided on that block, by the plain search of its smaller class. The
    graph's lex-first witness contains row 0, since moving a witness by minus
    its least row gives one through 0, lex-smaller unless that row is 0, and
    its columns lie in N(0) = S. The rooted search of the block
    (`contains_kss(..., rooted=True)`) walks the same states below row 0, in
    the same order and with the same probes, as the graph's search. So a
    witness the block has is taken from that search, its columns read as the
    lex codes of the sphere points, and the graph (`inst.graph`) is never
    built. counters["rooted_searches"] counts the searches run on the block.
    """
    if d < 2:
        raise DomainError("construction needs d >= 2")
    _check_enum_cap(2, d)  # p >= 2: before the form's d entries and 7^e
    if s < 1:
        raise DomainError(f"need --s >= 1, got --s {s}")
    k = d // 2
    e = (d + 1) // 2 + 1  # = ceil(d/2) + 1
    if p is None:
        if n is None:
            raise DomainError("provide n or p")
        if n < 7**e:
            raise DomainError(
                f"n^(1/{e}) >= 7 required for the prime-gap guarantee (n >= {7**e})"
            )
        p = find_prime(max(2, integer_nth_root(n, e)), (3, 4))
    else:
        if not is_prime(p) or p % 4 != 3:
            raise DomainError("p must be a prime congruent to 3 mod 4")
    ctx = FieldCtx.prime(p)
    form = BilinearForm.for_dim(ctx, d)
    u = evasive_point_set(p, d, k - 1, strategy, rng)
    u_size = len(u)

    report = ConstructionReport(
        kind="unit-distance",
        counters={"kss_probes": 0, "rooted_searches": 0},
        params={"n": n, "d": d, "p": p, "k": k, "s": s, "strategy": strategy},
        seed=rng.seed,
        bound={"cross_pairs_min": u_size**2 / (2 * p)},
        flags=[
            "thresholds are halved expectations, not asymptotic constants",
            f"evasive generator strategy: {strategy}",
            f"freeness checked at configured s = {s}",
        ],
    )

    # U = F_p^d: each u has exactly the |S| points u + S as unit partners in
    # U + x = F_p^d
    whole = k == 1
    shift = cross = None
    for attempt in range(1, RETRY_SHIFT + 1):
        x = tuple(rng.randbelow(p) for _ in range(d))
        while not any(x):
            x = tuple(rng.randbelow(p) for _ in range(d))
        if whole:
            count = u_size * len(_origin_sphere_points(form))
        else:
            count = int(np.count_nonzero(form.unit_pair_matrix(u, (u + x) % p)))
        if 2 * p * count >= u_size**2:
            shift, cross = x, count
            report.retries["shift"] = attempt
            break
    if shift is None:
        raise ConstructionFailure(
            f"no admissible shift in {RETRY_SHIFT} tries", best=report
        )

    weights = _lex_weights(p, d)
    points = u  # U = F_p^d in lex order holds U + x
    if not whole:
        codes = np.sort(np.vstack((u, (u + shift) % p)) @ weights)  # U, U + x
        points = lex_points(codes[np.diff(codes, prepend=-1) > 0], p, d)
    if n is not None:
        if n > len(points):
            raise DomainError(f"requested n = {n} exceeds constructed {len(points)} points")
        if n < len(points):
            points = points[rng.sample_indices(len(points), n)]

    if d % 4 == 1:
        report.flags.append("re-embedded over the quadratic extension (d = 1 mod 4)")
    inst = UnitDistanceInstance(points, form, report)
    rooted = whole and len(points) == p**d  # no subsample: the points are F_p^d in lex order
    if rooted:
        sphere = _origin_sphere_points(form)
        host = point_sphere_incidence(points, sphere, form)
        edges = len(points) * len(sphere)
    else:
        host = inst.graph
        edges = host.edge_count()
    report.counters["rooted_searches"] += rooted
    report.verification = kss_verdict(host, s, report.counters)
    if rooted and report.verification["witness"] is not None:  # the graph's lex-first witness
        rows, cols = contains_kss(host, s, report.counters, rooted=True)
        report.verification["witness"] = (rows, (sphere[cols] @ weights).tolist())
        report.counters["rooted_searches"] += 1
    report.achieved = {
        "U_size": u_size,
        "P_size": len(points),
        "cross_pairs": cross,
        "unit_distances": edges // 2,
        "shift": list(shift),
    }
    if report.verification["witness"] is not None:
        # the guaranteed freeness level is not numeric; report the smallest
        # s at which the exhaustive check certifies freeness instead
        free = smallest_free_s(host, 4 * s, counters=report.counters)
        if rooted:  # one search for each s up to the answer
            report.counters["rooted_searches"] += 4 * s if free is None else free
        report.verification["smallest_free_s"] = free
    return inst
