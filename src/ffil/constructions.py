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
    section_tensors,
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
    r = max(0, round(n ** (1.0 / e)))
    while r**e > n:
        r -= 1
    while (r + 1) ** e <= n:
        r += 1
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


def _product_zero_mask(f: MultiPoly, d1: int) -> np.ndarray:
    """mask[i, j] is f(x_i, y_j) == 0 for x_i, y_j in lex order of F_p^d1, F_p^d2."""
    return zero_mask(f).reshape(f.ctx.p**d1, -1)


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
        cand_mask = _product_zero_mask(cand, d1)
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
    p = find_prime(max(2, integer_nth_root(m, dim)))  # p^dim > m, so p^dim2 > m^alpha
    _check_enum_cap(p, dim + dim2)  # the graph's grid, before m^alpha is formed
    n = int(m**alpha)
    s = delta = (dim + dim2) ** 2  # K_{s,s} size and the graph polynomial's degree
    inst = random_algebraic_graph(p, dim, dim2, m, n, s, rng)

    cidx = np.ravel_multi_index(tuple(np.asarray(inst.cols).T), (p,) * dim2)
    sections = section_tensors(inst.poly, dim2)[cidx]
    # a section's degree is the largest index sum of its nonzero coefficients
    index_sum = sum(np.indices(sections.shape[1:]))
    degrees = np.where(sections != 0, index_sum, 0).reshape(len(sections), -1).max(axis=1).tolist()
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


def evasive_point_set(p, d, k, strategy, rng):
    """Point set of size exactly p^(d-k) in F_p^d.

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
        arr = np.hstack([base, odd * squares[:, None] % p])
        return list(map(tuple, arr.tolist()))
    if strategy == "random":
        idx = rng.sample_indices(p**d, size)
        return list(map(tuple, lex_points(idx, p, d).tolist()))
    raise DomainError(f"unknown strategy {strategy!r}")


# -- unit-distance instances ------------------------------------------------------


@dataclass
class UnitDistanceInstance:
    points: list
    form: BilinearForm
    report: ConstructionReport

    @cached_property
    def graph(self) -> BipartiteGraph:
        """unit_distance_graph of the points (the bipartite double), built on
        first access."""
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
    decided on that block, and the graph (`inst.graph`, built on first
    access) is searched only for the lex-first witness when the block has
    one. counters["rooted_searches"] counts the searches run on the block.
    """
    if d < 2:
        raise DomainError("construction needs d >= 2")
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
    u_set = evasive_point_set(p, d, k - 1, strategy, rng)
    u_arr = np.asarray(u_set, dtype=np.int64)
    u_size = len(u_set)

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
            count = int(np.count_nonzero(form.unit_pair_matrix(u_arr, (u_arr + x) % p)))
        if 2 * p * count >= u_size**2:
            shift, cross = x, count
            report.retries["shift"] = attempt
            break
    if shift is None:
        raise ConstructionFailure(
            f"no admissible shift in {RETRY_SHIFT} tries", best=report
        )

    codes = np.sort(np.vstack((u_arr, (u_arr + shift) % p)) @ _lex_weights(p, d))  # U, U + x
    merged = list(map(tuple, lex_points(codes[np.diff(codes, prepend=-1) > 0], p, d).tolist()))
    if n is not None:
        if n > len(merged):
            raise DomainError(f"requested n = {n} exceeds constructed {len(merged)} points")
        if n < len(merged):
            idx = rng.sample_indices(len(merged), n)
            merged = [merged[i] for i in idx]

    if d % 4 == 1:
        report.flags.append("re-embedded over the quadratic extension (d = 1 mod 4)")
    inst = UnitDistanceInstance(merged, form, report)
    rooted = whole and len(merged) == p**d  # no subsample: merged is F_p^d in lex order
    if rooted:
        sphere = _origin_sphere_points(form)
        host = point_sphere_incidence(merged, sphere, form)
        edges = len(merged) * len(sphere)
    else:
        host = inst.graph
        edges = host.edge_count()
    report.counters["rooted_searches"] += rooted
    report.verification = kss_verdict(host, s, report.counters)
    if rooted and report.verification["witness"] is not None:
        report.verification = kss_verdict(inst.graph, s, report.counters)  # lex-first witness
    report.achieved = {
        "U_size": u_size,
        "P_size": len(merged),
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
