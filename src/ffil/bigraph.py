"""Bipartite graphs with exact search kernels.

Adjacency is stored as per-vertex int bitmasks over the opposite class, which
keeps the complete-bipartite and induced-pattern searches exact and fast at
desk scale. Searches never approximate: when a probe budget runs out they
raise ResourceLimitError rather than return a possibly-wrong verdict.
"""

import math

import numpy as np

from .errors import ConstructionFailure, DomainError, ResourceLimitError

PROBE_CAP = 10**8


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


def bool_rows_to_masks(mat) -> list:
    """Int bitmask of each row of a 2-D boolean matrix: bit j of entry i is
    mat[i][j]."""
    packed = np.packbits(np.asarray(mat, dtype=bool), axis=1, bitorder="little")
    raw, width = packed.tobytes(), packed.shape[1]
    return [
        int.from_bytes(raw[i * width : (i + 1) * width], "little")
        for i in range(packed.shape[0])
    ]


class BipartiteGraph:
    """Bipartite graph on classes A (size m) and B (size n).

    adj_a[i] is a bitmask over B, adj_b[j] the mirror over A; the two stay
    consistent by construction. Immutable once built.
    """

    __slots__ = ("m", "n", "adj_a", "adj_b")

    def __init__(self, m: int, n: int, edges=()):
        if m < 0 or n < 0:
            raise DomainError("class sizes must be nonnegative")
        adj_a = [0] * m
        adj_b = [0] * n
        for i, j in edges:
            if not (0 <= i < m and 0 <= j < n):
                raise DomainError(f"edge ({i}, {j}) out of range")
            adj_a[i] |= 1 << j
            adj_b[j] |= 1 << i
        self.m = m
        self.n = n
        self.adj_a = adj_a
        self.adj_b = adj_b

    @classmethod
    def from_bool_matrix(cls, mat) -> "BipartiteGraph":
        """Build from an m x n boolean adjacency matrix (rows = class A)."""
        mat = np.asarray(mat, dtype=bool)
        if mat.ndim != 2:  # [] has no column axis
            mat = mat.reshape(0, 0)
        g = cls.__new__(cls)
        g.m, g.n = mat.shape
        g.adj_a = bool_rows_to_masks(mat)
        g.adj_b = bool_rows_to_masks(mat.T)
        return g

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.adj_a[i] >> j & 1)

    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self.adj_a)

    def induced(self, a_idx, b_idx) -> "BipartiteGraph":
        """Induced subgraph on the given A- and B-index lists (reindexed)."""
        edges = []
        pos_b = {j: c for c, j in enumerate(b_idx)}
        for r, i in enumerate(a_idx):
            mask = self.adj_a[i]
            for j, c in pos_b.items():
                if mask >> j & 1:
                    edges.append((r, c))
        return BipartiteGraph(len(a_idx), len(b_idx), edges)


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
    adj = g.adj_b if swap else g.adj_a
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


def smallest_free_s(g: BipartiteGraph, s_cap: int, probe_cap: int = PROBE_CAP):
    """Smallest s <= s_cap for which g is K_{s,s}-free, or None if even
    s = s_cap finds a witness.

    Containment of K_{s,s} is monotone decreasing in s, so a linear scan
    upward from 1 suffices.
    """
    for s in range(1, s_cap + 1):
        if contains_kss(g, s, probe_cap) is None:
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

    def label(self, i, j) -> str:
        return self.labels[i][j]

    def count(self, ch: str) -> int:
        return sum(r.count(ch) for r in self.labels)

    def __eq__(self, other):
        return isinstance(other, Pattern) and self.labels == other.labels

    def __repr__(self):
        return f"Pattern({self.a}x{self.b})"


def find_induced_pattern(g: BipartiteGraph, pat: Pattern, node_cap: int = PROBE_CAP):
    """Injective class-preserving embedding of `pat` into `g`, or None.

    Every '1'-labeled pair must map to an edge and every '0'-labeled pair to a
    non-edge; '*' pairs are free. Backtracking picks the next pattern vertex
    with the most already-assigned non-* constraints (ties: total constraint
    count, then A before B, then index) and scans host candidates in
    increasing index through bitmask filtering, so the result is
    deterministic. Each candidate attempted counts against node_cap.
    """
    a, b = pat.a, pat.b
    if a > g.m or b > g.n:
        return None
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
                col = g.adj_b[h]
                mask &= col if lbl == "1" else full_a & ~col
        else:
            mask = full_b & ~used_b
            for o, lbl in cons_b[i]:
                h = map_a[o]
                if h == -1:
                    continue
                col = g.adj_a[h]
                mask &= col if lbl == "1" else full_b & ~col
        return mask

    def rec(depth):
        nonlocal used_a, used_b, nodes
        if depth == a + b:
            return True
        side, i = pick()
        mapped = map_a if side == "A" else map_b
        for h in _bits(candidates(side, i)):
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
    b_index = {}
    order = []
    for name in (("root", 1), ("root", 2)):
        b_index[name] = len(order)
        order.append(name)
    for layer in range(3, d + 2):
        for seq in _sequences(k, layer - 2):
            b_index[("v", layer, seq)] = len(order)
            order.append(("v", layer, seq))
    n_b = len(order)
    a_rows = []
    for layer in range(3, d + 2):
        for seq in _sequences(k, layer - 2):
            nbrs = [b_index[("root", 1)], b_index[("root", 2)]]
            nbrs += [b_index[("v", l2, seq[: l2 - 2])] for l2 in range(3, layer + 1)]
            for _ in range(k):
                a_rows.append(nbrs)
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


def _sequences(k: int, length: int):
    """All sequences in [k]^length (1-based entries), lexicographic."""
    if length == 0:
        yield ()
        return
    for head in range(1, k + 1):
        for tail in _sequences(k, length - 1):
            yield (head,) + tail


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
