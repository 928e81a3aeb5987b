import pytest

from ffil import (
    DomainError,
    FieldCtx,
    MultiPoly,
    ResourceLimitError,
    SetSystem,
    containment_patterns,
    family_report,
    sample_uniform,
    shatter_function,
    witness_rank_check,
    zero_patterns,
)
from ffil import mpoly
from ffil.patterns import bound_tight_form, bound_with_ambient
from ffil.rng import Rng


def line_pair_f3():
    ctx = FieldCtx.prime(3)
    x = MultiPoly.variable(ctx, 1, 0)
    return ctx, x, x + MultiPoly.constant(ctx, 1, -1)


def test_zero_patterns_fixture():
    _, f, g = line_pair_f3()
    fam = zero_patterns([f, g])
    assert fam.count == 3
    assert set(fam.witnesses) == {frozenset(), frozenset({0}), frozenset({1})}
    # witnesses are the first points realizing each pattern, lex order
    assert fam.witnesses[frozenset({0})] == (0,)
    assert fam.witnesses[frozenset({1})] == (1,)
    assert fam.witnesses[frozenset()] == (2,)
    # the two bound conventions at k=2, delta=1, D=1
    assert bound_with_ambient(2, 1, 1) == 3
    assert bound_tight_form(2, 1, 1) == 2  # refuted by the 3 realized patterns


def test_zero_patterns_single_poly():
    ctx = FieldCtx.prime(5)
    f = MultiPoly.variable(ctx, 2, 0)
    assert zero_patterns([f]).count == 2


def test_zero_patterns_generic_lines():
    # four affine lines in general position in F_7^2
    ctx = FieldCtx.prime(7)

    def line(a, b, c):  # a*x + b*y + c
        return MultiPoly(ctx, 2, {(1, 0): a, (0, 1): b, (0, 0): c})

    fs = [line(1, 1, 1), line(1, 2, 3), line(1, 3, 5), line(2, 1, 0)]
    fam = zero_patterns(fs)
    assert fam.count <= 1 + 4 + 6  # empty + singletons + pairwise meets
    assert fam.count <= bound_with_ambient(4, 1, 2)


def test_zero_patterns_witness_replayable():
    ctx = FieldCtx.prime(7)
    rng = Rng(40)
    fs = [sample_uniform(ctx, 2, 2, rng.derive(i)) for i in range(3)]
    fam = zero_patterns(fs)
    for subset, pt in fam.witnesses.items():
        assert frozenset(i for i, f in enumerate(fs) if f.evaluate(pt) == 0) == subset


def test_containment_lines_through_origin():
    # k distinct lines through the origin: empty pattern, k singletons, all-k at 0
    ctx = FieldCtx.prime(7)
    dirs = [(1, 0), (0, 1), (1, 1), (1, 2)]

    def line(a, b):
        return [MultiPoly(ctx, 2, {(1, 0): b, (0, 1): -a if a else 0})]

    systems = [line(*d) for d in dirs]
    fam = containment_patterns(systems)
    assert fam.count == len(dirs) + 2
    assert frozenset(range(len(dirs))) in fam
    assert fam.witnesses[frozenset(range(len(dirs)))] == (0, 0)


def test_containment_parallel_hyperplanes():
    ctx = FieldCtx.prime(5)
    x = MultiPoly.variable(ctx, 2, 0)
    fam = containment_patterns([[x], [x + MultiPoly.constant(ctx, 2, -1)]])
    assert fam.count == 3


def test_containment_dominated_by_zero_patterns():
    ctx = FieldCtx.prime(7)
    rng = Rng(41)
    for trial in range(10):
        r = rng.derive(trial)
        k = 2 + r.randbelow(4)
        systems = [[sample_uniform(ctx, 2, 2, r) for _ in range(2)] for _ in range(k)]
        flat = [f for sy in systems for f in sy]
        assert containment_patterns(systems).count <= zero_patterns(flat).count


def test_containment_empty_system_is_whole_space():
    ctx = FieldCtx.prime(3)
    x = MultiPoly.variable(ctx, 1, 0)
    fam = containment_patterns([[], [x]])
    assert set(fam.witnesses) == {frozenset({0}), frozenset({0, 1})}


def test_pattern_enumeration_cap_is_the_grid_size(monkeypatch):
    ctx = FieldCtx.prime(5)
    polys = [sample_uniform(ctx, 3, 2, Rng(30 + i)) for i in range(3)]
    systems = [polys[:2], polys[2:]]
    for build, arg in ((zero_patterns, polys), (containment_patterns, systems)):
        want = build(arg)
        monkeypatch.setattr(mpoly, "ENUM_CAP", 5**3 - 1)
        with pytest.raises(ResourceLimitError):
            build(arg)
        monkeypatch.setattr(mpoly, "ENUM_CAP", 5**3)
        assert build(arg) == want
        monkeypatch.undo()


def test_shatter_examples():
    assert shatter_function(SetSystem(3, [{0}, {1}, {2}]), 2) == 3
    assert shatter_function(SetSystem(4, [{0, 1, 2, 3}]), 2) == 1
    # trace dichotomy at k = 1
    covered_and_missed = SetSystem(2, [{0}, {1}])
    assert shatter_function(covered_and_missed, 1) == 2
    uniform = SetSystem(2, [{0, 1}])
    assert shatter_function(uniform, 1) == 1


def test_shatter_validation():
    with pytest.raises(DomainError):
        shatter_function(SetSystem(3, [{0}]), 5)


def test_neighborhood_system_shatter_dominated():
    # point neighborhoods trace no more sets than the full containment family
    ctx = FieldCtx.prime(5)
    rng = Rng(42)
    systems = [[sample_uniform(ctx, 2, 2, rng.derive(i))] for i in range(4)]
    fam = containment_patterns(systems)
    full = SetSystem(4, [frozenset(s) for s in fam.witnesses])
    # neighborhoods of a small point sample are patterns of those points
    pts = [(0, 0), (1, 2), (3, 3), (4, 1), (2, 0)]
    members = [
        frozenset(
            i for i, sy in enumerate(systems) if all(f.evaluate(x) == 0 for f in sy)
        )
        for x in pts
    ]
    sub = SetSystem(4, members)
    for k in (1, 2, 3):
        assert shatter_function(sub, k) <= shatter_function(full, k)


def test_witness_rank_trivial_and_fixture():
    ctx, f, g = line_pair_f3()
    assert witness_rank_check([f], [(2,)]) is True  # N = 1, g_1(x_1) != 0
    assert witness_rank_check([f, g], [(0,), (1,), (2,)]) is True


def test_witness_rank_explicit_matrix():
    # frozen 3x3 matrix over F_3 for witnesses (0, 1, 2) of (x, x-1)
    import math

    from ffil import linalg

    ctx, f, g = line_pair_f3()
    pts = [(0,), (1,), (2,)]
    vals = [[f.evaluate(x), g.evaluate(x)] for x in pts]
    supports = [frozenset(i for i, v in enumerate(row) if v) for row in vals]
    mat = [
        [math.prod(vals[l][i] for i in supports[j]) % 3 for l in range(3)]
        for j in range(3)
    ]
    assert mat == [[2, 0, 1], [0, 1, 2], [0, 0, 2]]
    assert linalg.rank(mat, 3) == 3


def test_witness_rank_randomized():
    ctx = FieldCtx.prime(7)
    rng = Rng(50)
    for trial in range(50):
        r = rng.derive(trial)
        k = 2 + r.randbelow(3)
        fs = [sample_uniform(ctx, 2, 1 + r.randbelow(2), r) for _ in range(k)]
        fam = zero_patterns(fs)
        pts = [fam.witnesses[s] for s in fam.subsets()]
        assert witness_rank_check(fs, pts) is True


def test_witness_rank_duplicate_patterns_rejected():
    ctx, f, g = line_pair_f3()
    with pytest.raises(DomainError):
        witness_rank_check([f, g], [(2,), (2,)])


def test_family_report_schema():
    ctx, f, g = line_pair_f3()
    fam = zero_patterns([f, g])
    rep = family_report(fam, [f, g])
    assert rep["pattern_count"] == 3
    assert rep["bound_rbg"] == 3
    assert rep["bound_paper"] == 2
    assert {"k", "D", "p", "delta", "pattern_count", "patterns"} <= set(rep)
    assert rep["patterns"][0] == {"subset": [], "witness": [2]}
