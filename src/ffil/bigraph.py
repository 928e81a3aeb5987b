"""Bipartite graphs with exact search kernels.

Adjacency is held as packed 64-bit bitsets over the opposite class, and the
searches unpack only the blocks they count, which keeps the complete-bipartite
and induced-pattern searches exact and fast at desk scale. Searches never approximate: when a probe budget runs out they
raise ResourceLimitError rather than return a possibly-wrong verdict.
"""

import bisect
import math
from itertools import product

import numpy as np

from .errors import ConstructionFailure, DomainError, ResourceLimitError

PROBE_CAP = 10**8


def _pack(mat) -> np.ndarray:
    """(rows, ceil(cols / 64)) uint64 words of a 2-D boolean matrix: bit j of
    row i is mat[i, j], and the padding bits are zero. Read-only."""
    mat = np.asarray(mat, dtype=bool)
    words = np.zeros((mat.shape[0], -(-mat.shape[1] // 64)), dtype="<u8")
    packed = np.packbits(mat, axis=1, bitorder="little")
    words.view(np.uint8)[:, : packed.shape[1]] = packed
    words.flags.writeable = False
    return words


def _unpack(words, cols) -> np.ndarray:
    """Boolean block of packed rows (a 1-D row or a 2-D array of rows):
    entry [..., k] is bit cols[k] of each row, or bit k for k < cols when
    cols is an int."""
    raw = words.view(np.uint8)
    if isinstance(cols, int):
        return np.unpackbits(raw, axis=-1, count=cols, bitorder="little").view(bool)
    return (raw[..., cols >> 3] >> (cols & 7).astype(np.uint8) & 1).view(bool)


_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _popcount(words) -> np.ndarray:
    """Set bits of each packed row, as int64."""
    return _POPCOUNT[words.view(np.uint8)].sum(axis=-1, dtype=np.int64)


class BipartiteGraph:
    """Bipartite graph on classes A (size m) and B (size n).

    rows[i] packs the neighbours of A-vertex i over B, an (m, ceil(n / 64))
    uint64 array, and cols is its transpose. Immutable once built.
    """

    __slots__ = ("m", "n", "rows", "cols")

    def __init__(self, m: int, n: int, edges=()):
        if m < 0 or n < 0:
            raise DomainError("class sizes must be nonnegative")
        mat = np.zeros((m, n), dtype=bool)
        for i, j in edges:
            if not (0 <= i < m and 0 <= j < n):
                raise DomainError(f"edge ({i}, {j}) out of range")
            mat[i, j] = True
        self.m, self.n, self.rows, self.cols = m, n, _pack(mat), _pack(mat.T)

    @classmethod
    def from_bool_matrix(cls, mat) -> "BipartiteGraph":
        """Build from an m x n boolean adjacency matrix (rows = class A)."""
        mat = np.asarray(mat, dtype=bool)
        if mat.ndim != 2:  # [] has no column axis
            mat = mat.reshape(0, 0)
        g = cls.__new__(cls)
        g.m, g.n = mat.shape
        g.rows, g.cols = _pack(mat), _pack(mat.T)
        return g

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.rows.view(np.uint8)[i, j >> 3] >> (j & 7) & 1)

    def edge_count(self) -> int:
        return int(_popcount(self.rows).sum())

    def induced(self, a_idx, b_idx) -> "BipartiteGraph":
        """Induced subgraph on the given A- and B-index lists (reindexed)."""
        a, b = (np.asarray(idx, dtype=np.int64) for idx in (a_idx, b_idx))
        return BipartiteGraph.from_bool_matrix(_unpack(self.rows[a], b))


# contains_kss counts pair survivors in float32 pair-count blocks and uint8
# column-sum blocks of at most _PAIR_CELLS cells, whatever the graph size.
_PAIR_CELLS = 1 << 18


def contains_kss(g: BipartiteGraph, s: int, probe_cap: int = PROBE_CAP, counters=None):
    """Exact K_{s,s} detection; witness (rows_in_A, cols_in_B) or None.

    Searches s-subsets of the smaller class in increasing lexicographic
    order, carrying the common neighborhood, and prunes any branch whose
    common neighborhood falls below s, so the first witness found is the
    lexicographically least. The search node for a chosen prefix considers
    the candidates v from one past its last vertex up to the last index that
    leaves room for the rest of the subset; a probe is one candidate v
    considered at one node, and exhausting probe_cap raises
    ResourceLimitError (never a silent approximation). When `counters` is a
    dict, counters["kss_probes"] is increased by the probes a search that
    returns has spent.

    The candidates are filtered a whole node at a time. A child's surviving
    candidates (v with |N(v) & common| >= s) are among its parent's, so each
    node finds which of its survivors survive at each of its children at
    once: one product of the 0/1 block of its common neighborhood against its
    survivors, or per-child column sums when that block would exceed
    _PAIR_CELLS; only these blocks are unpacked from the packed rows. A child
    with no survivor is charged its probes without being visited. Probes are
    charged in bulk, so the count at return, and whether probe_cap is
    exceeded, equal those of the loop that tries one candidate at a time.
    """
    if s < 1:
        raise DomainError("s must be >= 1")
    hit, probes = _kss_search(g, s, probe_cap) if s <= min(g.m, g.n) else (None, 0)
    if counters is not None:
        counters["kss_probes"] = counters.get("kss_probes", 0) + probes
    return hit


def _kss_search(g: BipartiteGraph, s: int, probe_cap: int):
    """(witness or None, probes) for 1 <= s <= min(g.m, g.n); see contains_kss."""
    swap = g.n < g.m
    adj, inc = (g.cols, g.rows) if swap else (g.rows, g.cols)  # inc: the other class's rows
    size, other = (g.n, g.m) if swap else (g.m, g.n)
    probes = 0

    def charge(count):
        nonlocal probes
        probes += count
        if probes > probe_cap:
            raise ResourceLimitError("K_{s,s} search probe budget exhausted")

    def live_kids(common, cand, nkids, limit):
        """(i, survivors of kid cand[i]) for the kids i < nkids whose
        survivors (later candidates w with |N(kid) & N(w) & common| >= s)
        include one below `limit`, in order."""
        if not nkids or len(cand) < 2:  # a kid's survivors come after it
            return
        arr = np.asarray(cand, dtype=np.int64)
        block = max(1, _PAIR_CELLS // arr.size)
        idx = np.flatnonzero(_unpack(common, other))
        dense = idx.size * arr.size <= _PAIR_CELLS
        if dense:  # one product gives the pair counts of all kids
            sub = _unpack(inc[idx], arr).astype(np.float32)
        for lo in range(0, nkids, block):
            kids = arr[lo : min(nkids, lo + block)]
            if dense:
                surv = sub[:, lo : lo + kids.size].T @ sub >= s  # exact: < 2^24 ones
            else:
                surv = np.zeros((kids.size, arr.size), dtype=bool)
                for i, u in enumerate(kids.tolist()):
                    rows = np.flatnonzero(_unpack(common & adj[u], other))
                    surv[i, lo + i + 1 :] = _later_counts(inc, rows, arr[lo + i + 1 :]) >= s
            surv &= arr[None, :] > kids[:, None]
            live = surv.any(axis=1) if limit > arr[-1] else (surv & (arr < limit)).any(axis=1)
            for i in np.flatnonzero(live).tolist():
                yield lo + i, arr[surv[i]].tolist()

    def node(chosen, common, cand):
        # cand: this node's survivors in [start, size), ascending. Its kids
        # are those below hi; a kid scans up to hi_kid, and one with no
        # survivor below that is charged its probes without a visit.
        t = len(chosen)
        hi = size - (s - t) + 1
        hi_kid = hi + 1
        last = t + 2 == s  # the kids are last-level nodes: any survivor is a witness
        pos = chosen[-1] + 1 if chosen else 0
        nkids = bisect.bisect_left(cand, hi)
        prev = 0  # kids before prev are settled

        def unvisited(end):  # probes of the kids cand[prev:end], none visited
            return (end - prev) * (hi_kid - 1) - sum(cand[prev:end])

        for i, nxt in live_kids(common, cand, nkids, hi_kid):
            u = cand[i]
            charge(u + 1 - pos + unvisited(i))
            pos, prev = u + 1, i + 1
            if last:
                charge(nxt[0] - u)
                rows = chosen + [u, nxt[0]]
                cols = np.flatnonzero(_unpack(common & adj[u] & adj[nxt[0]], other))
                return (cols[:s].tolist(), rows) if swap else (rows, cols[:s].tolist())
            hit = node(chosen + [u], common & adj[u], nxt)
            if hit is not None:
                return hit
        charge(hi - pos + unvisited(nkids))
        return None

    survivors = np.flatnonzero(_popcount(adj) >= s).tolist()
    if s == 1:
        if not survivors:
            charge(size)
            return None, probes
        v = survivors[0]
        charge(v + 1)
        rows, cols = [v], np.flatnonzero(_unpack(adj[v], other))[:1].tolist()
        return ((cols, rows) if swap else (rows, cols)), probes
    return node([], _pack(np.ones((1, other), dtype=bool))[0], survivors), probes


def _later_counts(inc, rows, later) -> np.ndarray:
    """|N(w) & rows| for each w in `later`: column sums of the packed rows
    inc[rows], unpacked in blocks of at most _PAIR_CELLS cells; uint8 sums
    of at most 255 rows are exact."""
    width = 64 * inc.shape[1]
    per = min(255, max(1, _PAIR_CELLS // width))
    counts = np.zeros(width, dtype=np.int64)
    for r0 in range(0, rows.size, per):
        counts += _unpack(inc[rows[r0 : r0 + per]], width).sum(axis=0, dtype=np.uint8)
    return counts[later]


def smallest_free_s(g: BipartiteGraph, s_cap: int, probe_cap: int = PROBE_CAP, counters=None):
    """Smallest s <= s_cap for which g is K_{s,s}-free, or None if even
    s = s_cap finds a witness.

    Containment of K_{s,s} is monotone decreasing in s, so a linear scan
    upward from 1 suffices. `counters` is passed to every contains_kss call.
    """
    for s in range(1, s_cap + 1):
        if contains_kss(g, s, probe_cap, counters) is None:
            return s
    return None


class Pattern:
    """Edge-labeled complete bipartite template over {'0', '1', '*'}.

    '1' demands an edge, '0' demands a non-edge, '*' is unconstrained. Rows
    index class A, columns class B; the label matrix is total.
    """

    __slots__ = ("a", "b", "labels")

    def __init__(self, labels):
        rows = [str(r) for r in labels]
        if not rows:
            raise DomainError("pattern needs at least one row")
        b = len(rows[0])
        for r in rows:
            if len(r) != b or any(ch not in "01*" for ch in r):
                raise DomainError("pattern rows must be equal-length strings over 0/1/*")
        self.a = len(rows)
        self.b = b
        self.labels = tuple(rows)

    def __repr__(self):
        return f"Pattern({self.a}x{self.b})"


def find_induced_pattern(
    g: BipartiteGraph, pat: Pattern, node_cap: int = PROBE_CAP, counters=None, rooted=False
):
    """Injective class-preserving embedding of `pat` into `g`, or None.

    Every '1'-labeled pair must map to an edge and every '0'-labeled pair to a
    non-edge; '*' pairs are free. Backtracking maps the pattern vertices in a
    static order, computed once before the search: next comes the vertex with
    the most non-* constraints to vertices already in the order (ties: total
    constraint count, then A before B, then index). The vertices mapped at
    depth t are always the first t of that order, so each depth also knows
    in advance which constraints it must check. Host candidates are taken
    in increasing index, so the search tree is ordered lexicographically by
    the host vertices chosen at depths 0, 1, ..., and the embedding returned
    is the lex-first one.

    The tree is walked depth-first over blocks of lex-consecutive states of
    one depth rather than one candidate at a time: one step filters every
    state of a block against packed 64-bit adjacency words and lists the
    children in lex order, and the block holding the lex-first unexplored
    state is always expanded next. A node is one candidate attempted, and
    the count is exactly that of a one-candidate-at-a-time backtracking
    search: the nodes up to and including the first node at the last depth
    (the hit) in depth-first order, or all nodes of the tree when there is
    no hit. The search raises ResourceLimitError exactly when that count
    exceeds node_cap, after at most one block of work past the cap. When
    `counters` is a dict, counters["pattern_nodes"] is increased by the
    count of a search that returns.

    With rooted=True the vertex mapped at depth 0 may only go to host vertex 0
    of its class. That is exact for existence on a host whose automorphisms
    move every vertex of each class onto vertex 0 while acting on both
    classes at once, such as `point_sphere_incidence(grid, grid)` with
    `geometry.is_full_grid(grid)`: translating an embedding so that its
    depth-0 vertex lands on the origin gives another embedding. The
    embedding returned is then not the one the plain search would return.
    """
    fits = pat.a <= g.m and pat.b <= g.n
    steps, hosts, nodes = _pattern_search(g, pat, node_cap, rooted) if fits else (None, None, 0)
    if counters is not None:
        counters["pattern_nodes"] = counters.get("pattern_nodes", 0) + nodes
    if hosts is None:
        return None
    map_a, map_b = [-1] * pat.a, [-1] * pat.b
    for (is_a, i, _), h in zip(steps, hosts):
        (map_a if is_a else map_b)[i] = h
    return map_a, map_b


# _pattern_search expands blocks of states of one depth; a block's candidate
# bits hold at most _PATTERN_CELLS cells (states x host class size), so the
# states waiting at each depth number at most max(_PATTERN_CELLS, class
# size), whatever node_cap is.
_PATTERN_CELLS = 1 << 16


def _pattern_search(g: BipartiteGraph, pat: Pattern, node_cap: int, rooted: bool):
    """(steps, host vertex per step or None, nodes); see find_induced_pattern."""
    a, b = pat.a, pat.b
    # non-* constraints of each pattern vertex: [(other vertex, is_edge)]
    cons = {("A", i): [] for i in range(a)} | {("B", j): [] for j in range(b)}
    for i, row in enumerate(pat.labels):
        for j, lbl in enumerate(row):
            if lbl != "*":
                cons["A", i].append((("B", j), lbl == "1"))
                cons["B", j].append((("A", i), lbl == "1"))
    # steps[t] = (is_a, index, [(depth of other vertex, is_edge)]) for the
    # vertex mapped at depth t and its constraints to those mapped before
    order, steps = {}, []
    for _ in range(a + b):
        best = min(
            (v for v in cons if v not in order),
            key=lambda v: (-sum(o in order for o, _ in cons[v]), -len(cons[v]), v),
        )
        steps.append(
            (best[0] == "A", best[1], [(order[o], one) for o, one in cons[best] if o in order])
        )
        order[best] = len(order)
    depth_count = a + b
    # A candidates are filtered by the B host's column over A, and vice versa
    cols = {True: g.cols, False: g.rows}
    width = [g.m if is_a else g.n for is_a, _, _ in steps]
    block = [max(1, _PATTERN_CELLS // max(1, w)) for w in width]
    # earlier depths of the same class: their hosts are used
    same = [[u for u in range(t) if steps[u][0] == steps[t][0]] for t in range(depth_count)]

    def expand(hosts, t):
        """(state, candidate) pairs of depth t below the states `hosts`, lex order."""
        is_a, _, checks = steps[t]
        if checks:
            mask = None
            for u, one in checks:
                col = cols[is_a][hosts[:, u]]  # a copy, safe to change
                if not one:
                    np.invert(col, out=col)
                if mask is None:
                    mask = col
                else:
                    mask &= col
            bits = _unpack(mask, width[t])  # nonzero is much faster on bool than on 0/1 bytes
        else:
            bits = np.ones((len(hosts), width[t]), dtype=bool)
        rows = np.arange(len(hosts))
        for u in same[t]:
            bits[rows, hosts[:, u]] = False
        if rooted and t == 0:
            bits[:, 1:] = False
        return np.divmod(np.flatnonzero(bits), width[t])

    def checked(nodes):
        if nodes > node_cap:
            raise ResourceLimitError("pattern search node budget exhausted")
        return nodes

    # The tree is walked depth-first, one block of lex-consecutive states of
    # one depth at a time. pc of a depth-t node counts the nodes at depths
    # <= t that come no later in lex order: pc(parent) + serial + 1, serial
    # being the number of depth-t nodes created before it (creation order is
    # lex order). When a block is popped, the deeper nodes created so far all
    # lie under lex-earlier states, so pc plus those is the node number a
    # one-candidate-at-a-time search gives the block's first state.
    created = [0] * depth_count  # nodes created at each depth
    stack = [(np.zeros((1, 0), dtype=np.int32), np.zeros(1, dtype=np.int64))]
    while stack:
        hosts, pc = stack.pop()
        t = hosts.shape[1]
        checked(int(pc[0]) + sum(created[t:]))
        parent, cand = expand(hosts, t)
        if not len(cand):
            continue
        if t == depth_count - 1:  # the first node created here is the lex-first hit
            nodes = checked(int(pc[parent[0]]) + created[t] + 1)
            return steps, hosts[parent[0]].tolist() + [int(cand[0])], nodes
        kids_pc = pc[parent] + np.arange(created[t] + 1, created[t] + len(cand) + 1)
        created[t] += len(cand)
        kids = np.empty((len(cand), t + 1), dtype=np.int32)
        kids[:, :t] = hosts[parent]
        kids[:, t] = cand
        size = block[t + 1]
        for lo in reversed(range(0, len(cand), size)):  # the lex-first block on top
            stack.append((kids[lo : lo + size], kids_pc[lo : lo + size]))
    return steps, None, checked(sum(created))


def prefix_tree_pattern(d: int, delta: int, size_cap: int = 5_000_000) -> Pattern:
    """Fully 0/1-labeled obstruction pattern for membership graphs of
    degree-<= delta, dimension-d solution families.

    The right class is layered: two root vertices, then for each layer
    l = 3..d+1 one vertex per sequence in [k]^(l-2), where k = 2^(delta^d) + 1.
    For every layer-l sequence the left class holds k vertices adjacent to the
    two roots and to the vertices of every prefix of that sequence, so each
    left vertex has degree at most d + 1, and two right vertices beyond the
    roots share a neighbor exactly when one sequence is a prefix of the other.
    """
    if d < 2:
        raise DomainError("pattern is defined for d >= 2 (left class empty below)")
    k = 2 ** (delta**d) + 1
    b_index = {("root", 1): 0, ("root", 2): 1}  # right vertex -> column
    for layer in range(3, d + 2):
        for seq in product(range(1, k + 1), repeat=layer - 2):
            b_index[("v", layer, seq)] = len(b_index)
    n_b = len(b_index)
    a_rows = []
    for layer in range(3, d + 2):
        for seq in product(range(1, k + 1), repeat=layer - 2):
            nbrs = [0, 1] + [b_index[("v", l2, seq[: l2 - 2])] for l2 in range(3, layer + 1)]
            a_rows.extend([nbrs] * k)
    if len(a_rows) * n_b > size_cap:
        raise ResourceLimitError(
            f"pattern with {len(a_rows)}x{n_b} labels exceeds size cap"
        )
    rows = []
    for nbrs in a_rows:
        row = ["0"] * n_b
        for j in nbrs:
            row[j] = "1"
        rows.append("".join(row))
    return Pattern(rows)


def staircase_pattern(d: int) -> Pattern:
    """d x d staircase pattern: (i, j) is '1' for i >= j - 1 (1-based), '0' on
    the diagonal j = i + 2, and '*' elsewhere.

    Membership graphs of points versus unit spheres in (d-1)-dimensional space
    never realize this pattern; its absence is what the pattern-scan
    experiments verify.
    """
    if d < 2:
        raise DomainError("staircase pattern needs d >= 2")
    rows = []
    for i in range(1, d + 1):
        row = []
        for j in range(1, d + 1):
            if i >= j - 1:
                row.append("1")
            elif j == i + 2:
                row.append("0")
            else:
                row.append("*")
        rows.append("".join(row))
    return Pattern(rows)


class Hypergraph:
    """k-uniform hypergraph: vertex count and a list of k-sets."""

    __slots__ = ("n", "k", "edges")

    def __init__(self, n: int, k: int, edges):
        if k < 1 or n < 0:
            raise DomainError("need k >= 1 and n >= 0")
        clean = []
        for e in edges:
            fs = frozenset(int(v) for v in e)
            if len(fs) != k:
                raise DomainError(f"edge {sorted(fs)} is not a {k}-set of distinct vertices")
            if any(not 0 <= v < n for v in fs):
                raise DomainError("edge vertex out of range")
            clean.append(fs)
        self.n = n
        self.k = k
        self.edges = clean

    @property
    def m(self) -> int:
        return len(self.edges)


def independent_set_bound(n: int, m: int, k: int) -> int:
    """ceil(N^(k/(k-1)) / (4 (M+N)^(1/(k-1)))) -- the guaranteed set size."""
    return math.ceil(n ** (k / (k - 1)) / (4 * (m + n) ** (1 / (k - 1))))


def hypergraph_independent_set(h: Hypergraph, rng, retry_cap: int = 200) -> list:
    """Independent set meeting the N^(k/(k-1)) / (4 (M+N)^(1/(k-1))) bound.

    Samples each vertex with probability q = (N / (2 (M+N)))^(1/(k-1)), then
    deletes one vertex (the largest) from every edge still inside the sample.
    Retries until the size target is met; by the expectation argument a hit of
    the retry cap (200 by default) signals a bug, and raises
    ConstructionFailure.
    """
    if h.k < 2:
        raise DomainError("independent-set procedure needs uniformity k >= 2")
    if h.n < 1:
        raise DomainError("hypergraph must have at least one vertex")
    n, m, k = h.n, h.m, h.k
    target = independent_set_bound(n, m, k)
    q = (n / (2 * (m + n))) ** (1.0 / (k - 1))
    for _ in range(retry_cap):
        picked = set(v for v in range(n) if rng.bernoulli(q))
        for edge in h.edges:
            if edge <= picked:
                picked.discard(max(edge))
        if len(picked) >= target:
            return sorted(picked)
    raise ConstructionFailure(
        f"independent set of size {target} not found in {retry_cap} tries"
    )


# -- fixture formats ---------------------------------------------------------


def parse_graph(text: str) -> BipartiteGraph:
    """Header 'm n', then one line per A-vertex listing neighbor indices."""
    lines = text.splitlines()
    if not lines:
        raise DomainError("empty graph fixture")
    try:
        m, n = (int(t) for t in lines[0].split())
        edges = []
        for i in range(m):
            row = lines[1 + i] if 1 + i < len(lines) else ""
            for tok in row.split():
                edges.append((i, int(tok)))
    except ValueError as exc:
        raise DomainError(f"malformed graph fixture: {exc}") from None
    return BipartiteGraph(m, n, edges)
