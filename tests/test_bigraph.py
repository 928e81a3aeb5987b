import tracemalloc

import numpy as np
import pytest

from ffil import (
    BipartiteGraph,
    ConstructionFailure,
    DomainError,
    Hypergraph,
    Pattern,
    ResourceLimitError,
    contains_kss,
    find_induced_pattern,
    hypergraph_independent_set,
    independent_set_bound,
    prefix_tree_pattern,
    staircase_pattern,
)
from ffil import bigraph
from ffil.bigraph import parse_graph, smallest_free_s
from ffil.rng import Rng

from oracles import brute_kss, brute_pattern
from search_reference import int_masks, same_graph


def random_host(r, max_side=6):
    m = 2 + r.randbelow(max_side - 1)
    n = 2 + r.randbelow(max_side - 1)
    edges = [(i, j) for i in range(m) for j in range(n) if r.bernoulli(0.5)]
    return BipartiteGraph(m, n, edges)


def count(pat, ch):
    return sum(row.count(ch) for row in pat.labels)


def test_kss_examples():
    c4 = BipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert contains_kss(c4, 2) == ([0, 1], [0, 1])
    p3 = BipartiteGraph(2, 1, [(0, 0), (1, 0)])  # path on 3 vertices
    assert contains_kss(p3, 2) is None


def test_kss_witness_is_complete():
    rng = Rng(101)
    for trial in range(50):
        g = random_host(rng.derive(trial), max_side=10)
        wit = contains_kss(g, 2)
        if wit:
            S, T = wit
            assert all(g.has_edge(i, j) for i in S for j in T)


def test_kss_brute_force_agreement():
    rng = Rng(7)
    for trial in range(300):
        r = rng.derive(trial)
        g = random_host(r)
        s = 1 + r.randbelow(3)
        assert (contains_kss(g, s) is not None) == brute_kss(g, s)


def test_kss_brute_force_agreement_10x10():
    # half-density 10x10 hosts at s = 2: all pairs-of-pairs enumerated
    rng = Rng(70)
    for trial in range(30):
        r = rng.derive(trial)
        edges = [(i, j) for i in range(10) for j in range(10) if r.bernoulli(0.5)]
        g = BipartiteGraph(10, 10, edges)
        assert (contains_kss(g, 2) is not None) == brute_kss(g, 2)


def test_kss_edge_iff_k11():
    rng = Rng(8)
    for trial in range(50):
        g = random_host(rng.derive(trial))
        assert (contains_kss(g, 1) is not None) == (g.edge_count() >= 1)


def test_kss_monotone_in_s():
    rng = Rng(9)
    for trial in range(50):
        g = random_host(rng.derive(trial), max_side=8)
        for s in (3, 2):
            if contains_kss(g, s) is not None:
                assert contains_kss(g, s - 1) is not None


def test_kss_probe_cap(monkeypatch):
    g = BipartiteGraph(20, 20, [(i, j) for i in range(20) for j in range(20)])
    monkeypatch.setattr(bigraph, "PROBE_CAP", 3)
    with pytest.raises(ResourceLimitError):
        contains_kss(g, 10)


def test_pattern_examples():
    single_edge = Pattern(["1"])
    g = BipartiteGraph(3, 3, [(1, 2)])
    assert find_induced_pattern(g, single_edge) == ([1], [2])
    c4 = BipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    k22 = Pattern(["11", "11"])
    assert find_induced_pattern(c4, k22) is not None
    p3ish = BipartiteGraph(2, 2, [(0, 0), (1, 0)])
    assert find_induced_pattern(p3ish, k22) is None


def test_pattern_brute_force_agreement():
    rng = Rng(12)
    for trial in range(300):
        r = rng.derive(trial)
        g = random_host(r)
        pa, pb = 1 + r.randbelow(3), 1 + r.randbelow(3)
        pat = Pattern(["".join("01*"[r.randbelow(3)] for _ in range(pb)) for _ in range(pa)])
        got = find_induced_pattern(g, pat)
        assert (got is not None) == brute_pattern(g, pat)
        if got:
            amap, bmap = got
            for i in range(pa):
                for j in range(pb):
                    lbl = pat.labels[i][j]
                    if lbl != "*":
                        assert (lbl == "1") == g.has_edge(amap[i], bmap[j])


def test_pattern_node_cap(monkeypatch):
    g = BipartiteGraph(8, 8, [(i, j) for i in range(8) for j in range(8) if (i + j) % 2])
    pat = Pattern(["11111111"] * 8)
    monkeypatch.setattr(bigraph, "PROBE_CAP", 2)
    with pytest.raises(ResourceLimitError):
        find_induced_pattern(g, pat)


def test_prefix_tree_pattern_counts():
    h = prefix_tree_pattern(2, 1)  # k = 3
    assert (h.a, h.b) == (9, 5)
    assert all(row.count("1") == 3 for row in h.labels)
    h3 = prefix_tree_pattern(3, 1)
    assert (h3.a, h3.b) == (36, 14)
    # left-class degree never exceeds d + 1
    assert max(row.count("1") for row in h3.labels) <= 4


def test_prefix_tree_pattern_prefix_rule():
    # beyond the two roots, right vertices share a neighbor iff one index
    # sequence prefixes the other; exhaustive for d <= 3 at delta = 1
    for d in (2, 3):
        h = prefix_tree_pattern(d, 1)
        k = 2 ** (1**d) + 1
        seqs = [("root",), ("root",)]
        names = [None, None]
        idx = 2
        layers = []
        for layer in range(3, d + 2):
            from itertools import product

            for seq in product(range(1, k + 1), repeat=layer - 2):
                layers.append((idx, seq))
                idx += 1
        cols = {j: {i for i in range(h.a) if h.labels[i][j] == "1"} for j in range(h.b)}
        for j1, s1 in layers:
            for j2, s2 in layers:
                if j1 >= j2:
                    continue
                share = bool(cols[j1] & cols[j2])
                is_prefix = s1 == s2[: len(s1)] or s2 == s1[: len(s2)]
                assert share == is_prefix, (s1, s2)
        # the distinct leaves example: no common neighbor
        first_leaf = next(j for j, s in layers if len(s) == 1 and s == (1,))
        second_leaf = next(j for j, s in layers if len(s) == 1 and s == (2,))
        assert not (cols[first_leaf] & cols[second_leaf])


def test_prefix_tree_pattern_rejects_low_dim():
    with pytest.raises(DomainError):
        prefix_tree_pattern(1, 1)
    with pytest.raises(ResourceLimitError):
        prefix_tree_pattern(3, 2)  # k = 2^8 + 1 blows the size cap


@pytest.mark.parametrize("d, labels", [(3, "17040642x66308"), (4, "18448151491543367683x")])
def test_prefix_tree_pattern_checks_its_size_before_any_row(d, labels):
    # k = 2^(2^d) + 1: the label count is known from k and d, so the cap
    # is checked before one row of the pattern is built
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=labels):
            prefix_tree_pattern(d, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_staircase_pattern_counts():
    p5 = staircase_pattern(5)
    assert (count(p5, "1"), count(p5, "0")) == (19, 3)
    p2 = staircase_pattern(2)
    # rule evaluation: every pair has i >= j - 1, no zero diagonal fits
    assert (count(p2, "1"), count(p2, "0"), count(p2, "*")) == (4, 0, 0)
    assert sum(min(i + 1, 5) for i in range(1, 6)) == 19
    for d in (3, 4, 6):
        assert staircase_pattern(d).labels[0][2] == "0"  # (1,3) zero for d >= 3
        assert count(staircase_pattern(d), "0") == d - 2
    with pytest.raises(DomainError):
        staircase_pattern(1)


def test_smallest_free_s():
    c4 = BipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert smallest_free_s(c4, 5) == 3  # contains K_{2,2} but is only 2x2
    empty = BipartiteGraph(3, 3, [])
    assert smallest_free_s(empty, 3) == 1


@pytest.mark.parametrize("m, n", [(0, 0), (0, 5), (5, 0)])
def test_kss_on_an_empty_class(m, n):
    # no K_{s,s} fits, and the search spends no probe finding that out
    g = BipartiteGraph.from_bool_matrix(np.zeros((m, n), dtype=bool))
    counters = {}
    assert contains_kss(g, 1, counters=counters) is None
    assert counters == {"kss_probes": 0}
    assert smallest_free_s(g, 3) == 1


@pytest.mark.parametrize("rooted", [False, True], ids=["plain", "rooted"])
def test_kss_above_a_class_size_builds_nothing(rooted):
    # s past both class sizes is answered before any list of s entries
    g = BipartiteGraph(3, 3, [(i, j) for i in range(3) for j in range(3)])
    counters = {}
    tracemalloc.start()
    try:
        assert contains_kss(g, 10**9, counters=counters, rooted=rooted) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counters == {"kss_probes": 0}
    assert peak < 1 << 20


def test_hypergraph_validation():
    with pytest.raises(DomainError):
        Hypergraph(4, 2, [(0, 0)])
    with pytest.raises(DomainError):
        Hypergraph(4, 2, [(0, 9)])


def test_independent_set_examples():
    rng = Rng(3)
    empty = Hypergraph(4, 2, [])
    assert independent_set_bound(4, 0, 2) == 1
    out = hypergraph_independent_set(empty, rng)
    assert len(out) >= 1
    k4 = Hypergraph(4, 2, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert independent_set_bound(4, 6, 2) == 1
    out = hypergraph_independent_set(k4, rng)
    assert len(out) == 1  # any singleton; larger sets span an edge
    assert independent_set_bound(30, 40, 3) == 5


def test_independent_set_retry_cap(monkeypatch):
    h = Hypergraph(4, 2, [(0, 1)])
    monkeypatch.setattr(bigraph, "RETRY_INDEPENDENT", 0)
    with pytest.raises(ConstructionFailure):
        hypergraph_independent_set(h, Rng(3))


def test_from_bool_matrix_matches_edge_list():
    # widths around the packbits byte boundary, and past one 64-bit word
    rng = Rng(102)
    cases = []
    for width in (1, 7, 8, 9, 65):
        r = rng.derive(width)
        m = 1 + r.randbelow(6)
        cases.append([[int(r.bernoulli(0.5)) for _ in range(width)] for _ in range(m)])
    cases += [[], [[], [], []]]
    for rows in cases:
        m = len(rows)
        n = len(rows[0]) if m else 0
        want = BipartiteGraph(
            m, n, [(i, j) for i in range(m) for j in range(n) if rows[i][j]]
        )
        for mat in (rows, np.array(rows, dtype=bool).reshape(m, n)):
            g = BipartiteGraph.from_bool_matrix(mat)
            assert same_graph(g, want)


def test_independent_set_random_instances():
    rng = Rng(44)
    for trial in range(30):
        r = rng.derive(trial)
        n = 10 + r.randbelow(50)
        k = 2 + r.randbelow(2)
        edges = set()
        m_target = r.randbelow(3 * n)
        guard = 0
        while len(edges) < m_target and guard < 10 * m_target + 10:
            edges.add(frozenset(r.sample_indices(n, k)))
            guard += 1
        h = Hypergraph(n, k, sorted(edges, key=sorted))
        out = hypergraph_independent_set(h, r)
        picked = set(out)
        assert not any(e <= picked for e in h.edges)
        assert len(out) >= independent_set_bound(h.n, h.m, h.k)


def test_fixture_round_trips():
    # header 'm n', then one neighbor line per A-vertex; missing lines are empty
    g = BipartiteGraph(3, 4, [(0, 1), (0, 3), (2, 0)])
    for text in ("3 4\n1 3\n\n0\n", "3 4\n1 3\n\n0"):
        g2 = parse_graph(text)
        assert same_graph(g2, g)
    g3 = parse_graph("2 2\n1\n")
    assert g3.rows.tolist() == [[0b10], [0]]


def test_induced_subgraph():
    g = BipartiteGraph(4, 4, [(i, j) for i in range(4) for j in range(4) if i <= j])
    sub = g.induced([1, 3], [0, 2])
    assert sub.m == 2 and sub.n == 2
    assert sub.has_edge(0, 1) == g.has_edge(1, 2)
    assert sub.has_edge(1, 0) == g.has_edge(3, 0)
    # seeded random index lists, in any order, empty ones included
    rng = Rng(268)
    for trial in range(50):
        r = rng.derive(trial)
        g = random_host(r, max_side=70)
        a_idx = r.sample_indices(g.m, r.randbelow(g.m + 1))
        b_idx = r.sample_indices(g.n, r.randbelow(g.n + 1))
        if trial % 2:
            a_idx, b_idx = a_idx[::-1], b_idx[::-1]
        sub = g.induced(a_idx, b_idx)
        assert (sub.m, sub.n) == (len(a_idx), len(b_idx))
        for row, i in enumerate(a_idx):
            for col, j in enumerate(b_idx):
                assert sub.has_edge(row, col) == g.has_edge(i, j)
                assert int(sub.cols[col, row // 64]) >> row % 64 & 1 == g.has_edge(i, j)


@pytest.mark.parametrize("m, n", [(63, 64), (64, 65), (65, 129), (129, 63), (1, 130)])
def test_packed_rows_at_word_boundaries(m, n):
    # rows and cols hold exactly the matrix bits, with zero padding bits, on
    # the graph and on an induced subgraph in a shuffled order
    mat = np.random.default_rng(m * n).random((m, n)) < 0.5
    g = BipartiteGraph.from_bool_matrix(mat)
    a_idx, b_idx = Rng(m).sample_indices(m, m // 2 + 1), list(range(n - 1, -1, -3))
    for h, want in ((g, mat), (g.induced(a_idx, b_idx), mat[np.ix_(a_idx, b_idx)])):
        hm, hn = want.shape
        assert (h.m, h.n) == (hm, hn)
        assert h.rows.shape == (hm, -(-hn // 64)) and h.cols.shape == (hn, -(-hm // 64))
        assert int_masks(h.rows) == [sum(1 << int(j) for j in np.flatnonzero(r)) for r in want]
        assert int_masks(h.cols) == [sum(1 << int(i) for i in np.flatnonzero(c)) for c in want.T]
        assert h.edge_count() == int(want.sum())
        assert [[h.has_edge(i, j) for j in range(hn)] for i in range(hm)] == want.tolist()


@pytest.mark.parametrize("size", [1, 8, 63, 64, 65, 343])
def test_packed_codes_are_the_packed_row_of_their_mask(size):
    # the sparse writer of one packed row (the sphere flats' membership
    # table) lays out the bits as _pack does; repeated codes set one bit
    r = np.random.default_rng(size)
    mask = r.random(size) < 0.4
    codes = np.concatenate([np.flatnonzero(mask)] * 2)
    row = bigraph._pack_codes(codes, size)
    assert row.nbytes == -(-size // 8)
    assert row.tobytes() == bigraph._pack(mask[None])[0].tobytes()[: row.nbytes]
    assert np.array_equal(bigraph._unpack(row, size), mask)
    assert np.array_equal(bigraph._unpack(row, np.arange(size)), mask)


def test_searches_on_a_tall_host_stay_within_packed_memory(monkeypatch):
    # the shape of a full-grid unit-distance block: 32,768 x 512 cells, 4 MB
    # packed both ways, 16 MB as one byte per cell. Each search may allocate
    # the packed size once more plus a few of its own blocks, never a dense
    # copy of the host.
    mat = np.random.default_rng(0).integers(0, 64, size=(1 << 15, 512), dtype=np.uint8) == 0
    g = BipartiteGraph.from_bool_matrix(mat)
    del mat
    packed = g.rows.nbytes + g.cols.nbytes
    searches = [
        (bigraph.PROBE_CAP, lambda: contains_kss(g, 3)),
        (10**6, lambda: contains_kss(g, 4)),
        (bigraph.PROBE_CAP, lambda: find_induced_pattern(g, Pattern(["10", "01"]))),
        (10**5, lambda: find_induced_pattern(g, staircase_pattern(4))),
    ]
    for cap, search in searches:
        monkeypatch.setattr(bigraph, "PROBE_CAP", cap)
        tracemalloc.start()
        try:
            search()
        except ResourceLimitError:
            pass
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < packed + 16 * bigraph._BLOCK_CELLS
