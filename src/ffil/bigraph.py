"""Bipartite graphs with exact search kernels.

Adjacency is held as packed 64-bit bitsets over the opposite class. The
complete-bipartite and induced-pattern searches both run on _lex_walk, one
depth-first walk of a lex-ordered search tree that expands blocks of states
of one depth at a time and unpacks only the blocks it counts. They report
and cap the work of the search that tries one candidate at a time, and never
approximate: when a probe or node budget runs out they raise
ResourceLimitError rather than return a possibly-wrong verdict. The pattern
search maps twins (pattern vertices with equal labels) to increasing hosts,
which keeps its witness: swapping two twins' hosts gives another embedding,
so the lex-first one already orders them.
"""

import math
from itertools import product

import numpy as np

from .errors import ConstructionFailure, DomainError, ResourceLimitError

PROBE_CAP = 10**8  # probes or nodes of one search
PATTERN_CAP = 5_000_000  # labels of one prefix-tree pattern
RETRY_INDEPENDENT = 200  # samples drawn by the independent-set procedure


def _pack(mat) -> np.ndarray:
    """(rows, ceil(cols / 64)) uint64 words of a 2-D boolean matrix: bit j of
    row i is mat[i, j], and the padding bits are zero. Read-only."""
    mat = np.asarray(mat, dtype=bool)
    words = np.zeros((mat.shape[0], -(-mat.shape[1] // 64)), dtype="<u8")
    packed = np.packbits(mat, axis=1, bitorder="little")
    words.view(np.uint8)[:, : packed.shape[1]] = packed
    words.flags.writeable = False
    return words


def _pack_codes(codes, size: int) -> np.ndarray:
    """Packed row of `size` bits, bit c set for each c in `codes`: `_pack`'s layout, unpadded."""
    row = np.zeros(-(-size // 8), dtype=np.uint8)
    np.bitwise_or.at(row, codes >> 3, (1 << (codes & 7)).astype(np.uint8))
    return row


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


# Both searches expand blocks of states whose working set (states x candidates,
# or a slice of a K_{s,s} count product) holds at most _BLOCK_CELLS cells.
_BLOCK_CELLS = 1 << 16


def contains_kss(g: BipartiteGraph, s: int, counters=None, rooted=False):
    """Exact K_{s,s} detection; witness (rows_in_A, cols_in_B) or None.

    Searches s-subsets of the smaller class in increasing lexicographic
    order, carrying the common neighborhood, and prunes any branch whose
    common neighborhood falls below s, so the first witness found is the
    lexicographically least. A depth-t state is an increasing tuple of t
    rows; it considers the candidates v from one past its last row up to the
    last index that leaves room for the rest of the subset, and its children
    are the v with |N(v) & common| >= s. A probe is one candidate considered
    at one state. The count is that of the search that tries one candidate
    at a time, and exhausting PROBE_CAP raises ResourceLimitError (never a
    silent approximation). When `counters` is a dict, counters["kss_probes"]
    is increased by the probes a search that returns has spent.

    _lex_walk expands blocks of states: depth 0 reads its children off the
    degrees, deeper blocks count theirs with one float32 product of their
    unpacked common neighborhoods against the candidates' columns, and below
    depth 1 the candidates are the first row's depth-1 children, kept while
    the descendants of their depth-1 block are walked.

    With rooted=True the search runs on A whatever the class sizes, and depth
    0 considers only row 0, as one probe: the witness returned is the
    lex-first one through row 0. When the plain search of A finds that one
    first, both spend the same probes. On a Cayley graph of F_p^d it does, as
    a translation moves every witness onto one through row 0, and the block
    of the columns N(0) alone gives the same witness and probes (see
    `constructions.unit_distance_instance`).
    """
    if s < 1:
        raise DomainError("s must be >= 1")
    swap = g.n < g.m and not rooted
    adj, inc = (g.cols, g.rows) if swap else (g.rows, g.cols)  # inc: the other class's rows
    size, other = (g.n, g.m) if swap else (g.m, g.n)
    deg_ok = _popcount(adj) >= s
    first = None  # (first rows, their depth-1 children) of the current depth-1 block

    def expand(hosts, t):
        nonlocal first
        hi = 1 if rooted and not t else size - s + t + 1  # row 0, or room for the rest
        last = hosts[:, -1] if t else np.full(1, -1)
        if t < 2:
            cols, ok = np.flatnonzero(deg_ok), True
        else:  # the children of the block's first rows, a run of rows of `first`
            r = np.searchsorted(first[0], hosts[:, 0])
            kids = first[2][r[0] : r[-1] + 1]
            keep = kids.any(axis=0)
            cols, ok = first[1][keep], kids[:, keep][r - r[0]]
        end = size if t == 1 else hi  # depth 1 keeps children past hi: deeper states take them
        span = slice(np.searchsorted(cols, last.min() + 1), np.searchsorted(cols, end))
        cols, ok = cols[span], (cols[span] > last[:, None]) & (ok if t < 2 else ok[:, span])
        if t:
            common = adj[hosts[:, 0]]
            for u in range(1, t):
                common = common & adj[hosts[:, u]]
            ok &= _pair_counts(common, inc, cols, hosts[:, 0]) >= s
        if t == 1:
            first = (hosts[:, 0], cols, ok)
            ok = ok & (cols < hi)
        parent, k = np.nonzero(ok)
        cand = cols[k]
        spend = hi - 1 - last  # probes of each state
        before = np.cumsum(spend) - spend
        return parent, cand, before[parent] + cand - last[parent], int(spend.sum())

    fits = s <= min(g.m, g.n)  # else no walk and 0 probes, an empty class too
    rows, probes = _lex_walk(expand, s, [max(1, _BLOCK_CELLS // size)] * s) if fits else (None, 0)
    if counters is not None:
        counters["kss_probes"] = counters.get("kss_probes", 0) + probes
    if rows is None:
        return None
    cols = np.flatnonzero(_unpack(np.bitwise_and.reduce(adj[rows], axis=0), other))[:s].tolist()
    return (cols, rows) if swap else (rows, cols)


def _pair_counts(common, inc, cols, firsts) -> np.ndarray:
    """(states, len(cols)) float32 counts |common[i] & N(cols[k])|, exact
    below 2^24: products of 0/1 blocks of at most _BLOCK_CELLS cells over
    slices of states that unpack only the vertices in their common rows and
    end where the first row changes if they can (the common rows of one first
    row's states lie in its neighbourhood, so they unpack few vertices)."""

    def used(rows):
        return np.flatnonzero(_unpack(np.bitwise_or.reduce(rows, axis=0), len(inc)))

    counts = np.zeros((len(common), cols.size), dtype=np.float32)
    idx = used(common)
    per = max(1, _BLOCK_CELLS // max(1, idx.size))  # states per slice
    step = max(1, _BLOCK_CELLS // max(per, cols.size))
    runs = np.flatnonzero(firsts[1:] != firsts[:-1]) + 1  # where the first row changes
    r0 = 0
    while r0 < len(common):
        r1 = min(len(common), r0 + per)
        j = np.searchsorted(runs, r1, side="right")
        if r1 < len(common) and j and runs[j - 1] > r0:
            r1 = runs[j - 1]
        idx = idx if per >= len(common) else used(common[r0:r1])
        for lo in range(0, idx.size, step):
            part = idx[lo : lo + step]
            c, x = _unpack(common[r0:r1], part), _unpack(inc[part], cols)
            counts[r0:r1] += c.astype(np.float32) @ x.astype(np.float32)
        r0 = r1
    return counts


def smallest_free_s(g: BipartiteGraph, s_cap: int, counters=None):
    """Smallest s <= s_cap for which g is K_{s,s}-free, or None if even
    s = s_cap finds a witness.

    Containment of K_{s,s} is monotone decreasing in s, so a linear scan
    upward from 1 suffices. `counters` is passed to every contains_kss call.
    """
    for s in range(1, s_cap + 1):
        if contains_kss(g, s, counters) is None:
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
        self.a, self.b, self.labels = len(rows), b, tuple(rows)

    def __repr__(self):
        return f"Pattern({self.a}x{self.b})"


def find_induced_pattern(g: BipartiteGraph, pat: Pattern, counters=None, rooted=False):
    """Injective class-preserving embedding of `pat` into `g`, or None.

    Every '1'-labeled pair must map to an edge and every '0'-labeled pair to a
    non-edge; '*' pairs are free. Backtracking maps the pattern vertices in a
    static order, computed once before the search (any order finds the same
    embeddings): next comes the vertex with the most '1' constraints to
    vertices already in the order, as a '1' cuts a sparse host's candidates
    to one neighbourhood and a '0' barely cuts them (ties: non-* constraints
    to them, then '1' labels in all unless rooted, then total constraint
    count, then A before B, then index). Rooted, that tie-break puts a twin
    on the `pi` staircases' root, where its bound above host 0 prunes
    nothing, and about doubles their nodes. The vertices mapped at depth t
    are always the first t of that order, so each depth also knows in
    advance which constraints it must check. Host candidates are taken in
    increasing index, so the search tree is ordered lexicographically by the
    host vertices chosen at depths 0, 1, ..., and the embedding returned is
    the lex-first one.

    Twins, pattern vertices of one class with equal label vectors, map to
    increasing hosts: a candidate must lie above the latest earlier twin's
    host. Swapping two twins' hosts gives another embedding, a lex-smaller
    one if they were out of order, so the lex-first embedding is returned
    unchanged and only nodes are pruned.

    _lex_walk expands blocks of lex-consecutive states, filtering a whole
    block against packed 64-bit adjacency words at once. A node is one
    twin-ordered candidate attempted; the count is that of the backtracking
    search that tries one candidate at a time, and exceeding PROBE_CAP raises
    ResourceLimitError. When `counters` is a dict, counters["pattern_nodes"]
    is increased by the count of a search that returns.

    With rooted=True the vertex mapped at depth 0 may only go to host vertex 0
    of its class. That is exact for existence on a host whose automorphisms
    move every vertex of each class onto vertex 0 while acting on both
    classes at once: `point_sphere_incidence(grid, grid)` on all of F_p^d in
    lex order under the translations (see `constructions.unit_distance_instance`),
    or the points of F_p^d against its affine hyperplanes, each once, under
    AGL(d, p). Moving an embedding with its depth-0 vertex on vertex 0 gives
    another, and twin swaps then leave the root in place (its twins lie above
    host 0).
    The embedding returned is not the one the plain search would return.
    """
    a, b = pat.a, pat.b
    # non-* constraints of each pattern vertex: [(other vertex, is_edge)]
    cons = {("A", i): [] for i in range(a)} | {("B", j): [] for j in range(b)}
    for i, row in enumerate(pat.labels):
        for j, lbl in enumerate(row):
            if lbl != "*":
                cons["A", i].append((("B", j), lbl == "1"))
                cons["B", j].append((("A", i), lbl == "1"))
    # steps[t] = (is_a, index, [(depth of other vertex, is_edge)]) for the
    # vertex mapped at depth t and its constraints to those mapped before;
    # twin[t] is the latest earlier depth of a twin (equal constraints), or -1
    order, steps, twin = {}, [], []
    ones = {v: 0 if rooted else sum(one for _, one in c) for v, c in cons.items()}
    for _ in range(a + b):
        placed = {v: [one for o, one in cons[v] if o in order] for v in cons if v not in order}
        best = min(placed, key=lambda v: (
            -sum(placed[v]), -len(placed[v]), -ones[v], -len(cons[v]), v))
        steps.append(
            (best[0] == "A", best[1], [(order[o], one) for o, one in cons[best] if o in order])
        )
        twins = [order[v] for v in order if v[0] == best[0] and cons[v] == cons[best]]
        twin.append(twins[-1] if twins else -1)
        order[best] = len(order)
    # A candidates are filtered by the B host's column over A, and vice versa
    cols = {True: g.cols, False: g.rows}
    width = [g.m if is_a else g.n for is_a, _, _ in steps]
    block = [max(1, _BLOCK_CELLS // max(1, w)) for w in width]
    span = [np.arange(w, dtype=np.int32) for w in width]  # compared with int32 hosts
    # earlier depths of the same class: their hosts are used
    same = [[u for u in range(t) if steps[u][0] == steps[t][0]] for t in range(a + b)]

    def expand(hosts, t):
        """Children of the states `hosts` of depth t, in lex order; each is a node."""
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
        flat, row0 = bits.reshape(-1), np.arange(0, bits.size, width[t])  # a view: bits is fresh
        for u in same[t]:
            flat[row0 + hosts[:, u]] = False
        if rooted and t == 0:
            bits[:, 1:] = False
        if twin[t] >= 0:  # above the host of the latest twin
            bits &= span[t] > hosts[:, twin[t], None]
        hit = np.flatnonzero(bits)
        parent = hit // width[t]  # faster than np.divmod
        return parent, hit - parent * width[t], np.arange(1, len(hit) + 1), len(hit)

    hosts, nodes = _lex_walk(expand, a + b, block) if a <= g.m and b <= g.n else (None, 0)
    if counters is not None:
        counters["pattern_nodes"] = counters.get("pattern_nodes", 0) + nodes
    if hosts is None:
        return None
    map_a, map_b = [-1] * a, [-1] * b
    for (is_a, i, _), h in zip(steps, hosts):
        (map_a if is_a else map_b)[i] = h
    return map_a, map_b


def _lex_walk(expand, depth: int, block):
    """(hosts of the lex-first state at the last depth, or None; work) of a
    depth-first walk, in lex order, of a tree with `depth` levels of states
    below an empty root, one block of lex-consecutive states of one depth at
    a time; a depth-t block holds at most block[t] states.

    expand(hosts, t) takes a block of depth-t states, one row of t host
    vertices each, and returns (parent, cand, pos, total): the children in
    lex order (the index of the parent in `hosts`, the new vertex), each
    child's 1-based position among the units of work (nodes or probes) the
    expansion spends in the order a one-at-a-time search spends them, and
    the units spent. The work returned is that search's: the units up to and
    including the first child at the last depth, or the whole tree's when
    there is none. ResourceLimitError is raised exactly when it exceeds
    PROBE_CAP, after at most one block of work past it.
    """

    def checked(count):
        if count > PROBE_CAP:
            raise ResourceLimitError(f"search budget of {PROBE_CAP} exhausted")
        return count

    # pc of a depth-t state counts the units spent by depths < t that come
    # no later in lex order: pc(parent) + charged[t - 1] + pos, charged[t]
    # being the units spent so far by depth-t expansions (all lex-earlier).
    # When a block is popped, the deeper units spent so far all lie under
    # lex-earlier states, so pc plus those is the count a one-at-a-time
    # search has reached at the block's first state.
    charged = [0] * depth
    stack = [(np.zeros((1, 0), dtype=np.int32), np.zeros(1, dtype=np.int64))]
    while stack:
        hosts, pc = stack.pop()
        t = hosts.shape[1]
        checked(int(pc[0]) + sum(charged[t:]))
        parent, cand, pos, total = expand(hosts, t)
        if len(cand) and t == depth - 1:  # the first child is the lex-first hit
            count = checked(int(pc[parent[0]]) + charged[t] + int(pos[0]))
            return hosts[parent[0]].tolist() + [int(cand[0])], count
        kids_pc = pc[parent] + charged[t] + pos
        charged[t] += total
        if not len(cand):
            continue
        kids = np.empty((len(cand), t + 1), dtype=np.int32)
        kids[:, :t], kids[:, t] = hosts.take(parent, axis=0), cand
        del parent, cand, pos  # not kept while the blocks below are expanded
        size = block[t + 1]
        for lo in reversed(range(0, len(kids), size)):  # the lex-first block on top
            stack.append((kids[lo : lo + size], kids_pc[lo : lo + size]))
    return None, checked(sum(charged))


def prefix_tree_pattern(d: int, delta: int) -> Pattern:
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
    if delta**d >= PATTERN_CAP.bit_length():  # k > PATTERN_CAP, and so is the label count
        raise ResourceLimitError(f"pattern with k = 2^{delta**d} + 1 exceeds size cap")
    k = 2 ** (delta**d) + 1
    layers = sum(k**j for j in range(1, d))  # right vertices beyond the roots
    if k * layers * (2 + layers) > PATTERN_CAP:  # (left rows) x (right columns)
        raise ResourceLimitError(f"pattern with {k * layers}x{2 + layers} labels exceeds size cap")
    col, rows = {}, []  # sequence -> column; the roots are columns 0 and 1
    for length in range(1, d):
        for seq in product(range(1, k + 1), repeat=length):
            col[seq] = 2 + len(col)
            row = ["0"] * (2 + layers)
            for j in [0, 1] + [col[seq[:i]] for i in range(1, length + 1)]:
                row[j] = "1"
            rows.extend(["".join(row)] * k)
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
    idx = range(1, d + 1)
    return Pattern(
        ["".join("1" if i >= j - 1 else "0" if j == i + 2 else "*" for j in idx) for i in idx]
    )


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


def hypergraph_independent_set(h: Hypergraph, rng) -> list:
    """Independent set meeting the N^(k/(k-1)) / (4 (M+N)^(1/(k-1))) bound.

    Samples each vertex with probability q = (N / (2 (M+N)))^(1/(k-1)), then
    deletes one vertex (the largest) from every edge still inside the sample.
    Retries until the size target is met; by the expectation argument a hit of
    RETRY_INDEPENDENT retries signals a bug, and raises
    ConstructionFailure.
    """
    if h.k < 2:
        raise DomainError("independent-set procedure needs uniformity k >= 2")
    if h.n < 1:
        raise DomainError("hypergraph must have at least one vertex")
    n, m, k = h.n, h.m, h.k
    target = independent_set_bound(n, m, k)
    q = (n / (2 * (m + n))) ** (1.0 / (k - 1))
    for _ in range(RETRY_INDEPENDENT):
        picked = set(v for v in range(n) if rng.bernoulli(q))
        for edge in h.edges:
            if edge <= picked:
                picked.discard(max(edge))
        if len(picked) >= target:
            return sorted(picked)
    raise ConstructionFailure(
        f"independent set of size {target} not found in {RETRY_INDEPENDENT} tries"
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
