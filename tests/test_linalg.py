import pytest

from ffil.linalg import nullspace, rank, solve_affine
from ffil.rng import Rng


def _apply(mat, x, p):
    return [sum(a * b for a, b in zip(row, x)) % p for row in mat]


@pytest.mark.parametrize("p", (3, 13, 101))
def test_solve_affine_nullspace_is_the_nullspace_of_the_system(p):
    # consistent systems (rhs = mat @ x), inconsistent ones (a row repeated
    # with its rhs moved by one) and the empty system
    rng = Rng(p)
    for trial in range(200):
        nrows, ncols = rng.randbelow(5), 1 + rng.randbelow(5)
        mat = [[rng.randbelow(p) for _ in range(ncols)] for _ in range(nrows)]
        x = [rng.randbelow(p) for _ in range(ncols)]
        rhs = _apply(mat, x, p)
        if trial % 3 == 1 and mat:
            mat.append(list(mat[0]))
            rhs.append((rhs[0] + 1) % p)
        sol = solve_affine(mat, rhs, ncols, p)
        consistent = rank(mat, p) == rank([r + [b] for r, b in zip(mat, rhs)], p)
        assert (sol is not None) == consistent
        if sol is not None:
            x0, basis = sol
            assert _apply(mat, x0, p) == rhs
            assert basis == nullspace(mat, ncols, p)
            assert len(basis) == ncols - rank(mat, p)
    assert solve_affine([], [], 3, p) == ([0, 0, 0], nullspace([], 3, p))
