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

from .errors import ConstructionFailure, DomainError, ResourceLimitError
from .gf import FieldCtx, find_prime, is_prime
from .mpoly import (
    ENUM_CAP,
    MultiPoly,
    _pow_col,
    count_zeros,
    domain_points,
    grid_slabs,
    sample_uniform,
    section_tensors,
    zero_mask,
)
from .bigraph import BipartiteGraph, contains_kss, smallest_free_s
from .geometry import (
    BilinearForm,
    _origin_sphere_points,
    embed_to_standard_norm,
    is_full_grid,
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


def kss_verdict(graph, s: int, counters: dict, rooted=None) -> dict:
    """Exact K_{s,s} check as a report's verification block; the probes it
    spends are added to counters["kss_probes"].

    `rooted`, when given, is a subgraph that contains K_{s,s} exactly when
    the graph does (see unit_distance_instance). Freeness is then certified
    on it, counted in counters["rooted_searches"], and `graph` is a function
    that builds the graph: it is called and searched only when the subgraph
    has a witness, so the witness reported is always the graph's lex-first
    one.
    """
    if rooted is not None:
        counters["rooted_searches"] += 1
        if contains_kss(rooted, s, counters=counters) is None:
            return {"s": s, "outcome": "verified-free", "witness": None}
        graph = graph()
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
    if p**nvars > ENUM_CAP:
        raise ResourceLimitError("zero counting domain exceeds cap")
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
    grid1 = domain_points(p, d1)
    grid2 = domain_points(p, d2)
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

    n1, n2 = grid1.shape[0], grid2.shape[0]
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
    rows = [tuple(int(v) for v in grid1[i]) for i in rows_idx]
    cols = [tuple(int(v) for v in grid2[j]) for j in cols_idx]
    return AlgebraicGraphInstance(graph, f, rows, cols, report)


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
    n = int(m**alpha)
    if m < 2 or n < 1:
        raise DomainError("need m >= 2 and floor(m^alpha) >= 1")
    p = find_prime(max(2, integer_nth_root(m, dim)))
    dim2 = math.ceil(alpha * dim)
    s = (dim + dim2) ** 2
    if n > p**dim2:
        raise DomainError(f"n = {n} exceeds p^dim2 = {p**dim2}")
    inst = random_algebraic_graph(p, dim, dim2, m, n, s, rng)
    delta = (dim + dim2) ** 2

    cidx = np.ravel_multi_index(tuple(np.asarray(inst.cols).T), (p,) * dim2)
    sections = section_tensors(inst.poly, dim2)[cidx]
    # a section's degree is the largest index sum of its nonzero coefficients
    index_sum = sum(np.indices(sections.shape[1:]))
    degrees = np.where(sections != 0, index_sum, 0).reshape(len(sections), -1).max(axis=1).tolist()
    # Column j of `zeros` is the zero set of section j over F_p^dim.
    grid = np.arange(p, dtype=np.int64)
    per_col = np.moveaxis(sections, 0, -1)
    zeros = np.concatenate(list(grid_slabs(per_col, p, [grid] * dim))) == 0
    zeros = zeros.reshape(p**dim, len(sections))
    ridx = np.ravel_multi_index(tuple(np.asarray(inst.rows).T), (p,) * dim)
    incident = zeros[ridx].sum(axis=0).tolist()
    proxy_ok = bool((zeros.sum(axis=0) <= delta * p ** (dim - 1)).all())

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


def evasive_point_set(p, d, k, strategy, rng, cap: int = ENUM_CAP):
    """Point set of size exactly p^(d-k) in F_p^d.

    'map-image' returns the graph {(y, g_1(y), .., g_k(y))} of monomial maps
    with strictly increasing odd total degrees; 'random' returns a uniform
    subset. No evasiveness guarantee is asserted either way; downstream
    experiments verify the properties they need directly.
    """
    if not 0 <= k < d:
        raise DomainError("need 0 <= k < d")
    size = p ** (d - k)
    if size > cap or p**d > cap:
        raise ResourceLimitError("evasive set size exceeds cap")
    if strategy == "map-image":
        base = domain_points(p, d - k)
        cols = [base]
        for i in range(1, k + 1):
            # monomial y_1^(2i+1) * prod_{j>=2} y_j^2: odd total degree
            # 2i + 1 + 2(d-k-1), strictly increasing in i
            col = np.copy(base[:, 0])
            col = _pow_col(col, 2 * i + 1, p)
            for j in range(1, d - k):
                col = col * _pow_col(base[:, j], 2, p) % p
            cols.append(col.reshape(-1, 1))
        arr = np.hstack(cols)
        return [tuple(int(v) for v in row) for row in arr]
    if strategy == "random":
        idx = rng.sample_indices(p**d, size)
        grid = domain_points(p, d)
        return [tuple(int(v) for v in grid[i]) for i in idx]
    raise DomainError(f"unknown strategy {strategy!r}")


# -- unit-distance instances ------------------------------------------------------


@dataclass
class UnitDistanceInstance:
    points: list
    form: BilinearForm
    report: ConstructionReport
    # the points and form over F_p the graph is built from; they differ from
    # points and form only when d = 1 (mod 4)
    prime_points: list
    prime_form: BilinearForm

    @cached_property
    def graph(self) -> BipartiteGraph:
        """unit_distance_graph of the points (the bipartite double), built on
        first access."""
        return unit_distance_graph(self.prime_points, self.prime_form)


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
    smaller. The graph is always built over F_p under the dimension form;
    when d = 1 (mod 4) the returned points and form are the re-embedding over
    F_{p^2}, where the relation is the standard one and the graph the same.

    For d = 2, 3, U is all of F_p^d. Then every point has the |S| points of
    x + S as unit neighbours, S being the origin-centered unit sphere, so
    cross_pairs is |U| |S| and, when no subsample is taken (the final set
    passes geometry.is_full_grid), unit_distances is n |S| / 2; no pair
    matrix of all points is built. The graph is then the Cayley graph of
    F_p^d with connection set S, and any K_{s,s} in it translates onto one
    through the origin, vertex 0, whose neighbours are S. So the n x |S|
    block of the graph on the columns S contains K_{s,s} exactly when the
    graph does, for every s: the verdict and smallest_free_s are decided on
    that block, and the graph itself (`inst.graph`, built on first access)
    is only built to find the lex-first witness when the block has one.
    counters["rooted_searches"] counts the searches run on the block.
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
    whole = len(set(u_set)) == p**d
    shift = cross = None
    for attempt in range(1, RETRY_SHIFT + 1):
        x = tuple(rng.randbelow(p) for _ in range(d))
        while not any(x):
            x = tuple(rng.randbelow(p) for _ in range(d))
        if whole:
            count = u_size * len(_origin_sphere_points(form, ENUM_CAP))
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

    merged = sorted(
        set(u_set) | set(tuple((a + b) % p for a, b in zip(pt, shift)) for pt in u_set)
    )
    if n is not None:
        if n > len(merged):
            raise DomainError(f"requested n = {n} exceeds constructed {len(merged)} points")
        if n < len(merged):
            idx = rng.sample_indices(len(merged), n)
            merged = [merged[i] for i in idx]

    pts_final, form_final = merged, form
    if d % 4 == 1:
        # a^2 = -1, so the embedded points under the standard form span the
        # same unit pairs as `merged` under the dimension form
        ext = FieldCtx.quadratic(p)
        pts_final = embed_to_standard_norm(merged, ext)
        form_final = BilinearForm.standard(ext, d)
        report.flags.append("re-embedded over the quadratic extension (d = 1 mod 4)")
    inst = UnitDistanceInstance(pts_final, form_final, report, merged, form)
    block = None
    if is_full_grid(merged, p):
        sphere = _origin_sphere_points(form, ENUM_CAP)
        block = BipartiteGraph.from_bool_matrix(form.unit_pair_matrix(merged, sphere))
        report.verification = kss_verdict(lambda: inst.graph, s, report.counters, block)
        edges = len(merged) * len(sphere)
    else:
        report.verification = kss_verdict(inst.graph, s, report.counters)
        edges = inst.graph.edge_count()
    report.achieved = {
        "U_size": u_size,
        "P_size": len(pts_final),
        "cross_pairs": cross,
        "unit_distances": edges // 2,
        "shift": list(shift),
    }
    if report.verification["witness"] is not None:
        # the guaranteed freeness level is not numeric; report the smallest
        # s at which the exhaustive check certifies freeness instead
        free = smallest_free_s(
            inst.graph if block is None else block, 4 * s, counters=report.counters
        )
        if block is not None:  # one search for each s up to the answer
            report.counters["rooted_searches"] += 4 * s if free is None else free
        report.verification["smallest_free_s"] = free
    return inst
