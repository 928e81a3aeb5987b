"""Dense linear algebra over F_p: row reduction, rank, affine solves, nullspaces.

Matrices are lists of row lists with int entries; everything is reduced mod p.
"""

from .gf import _inverse_mod


def row_reduce(mat, p):
    """Reduced row echelon form. Returns (rows, pivot_columns)."""
    rows = [[v % p for v in row] for row in mat]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = _inverse_mod(rows[r][c], p)
        rows[r] = [v * inv % p for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(mat, p):
    return len(row_reduce(mat, p)[1])


def nullspace(mat, ncols, p):
    """Basis of the right nullspace of `mat` (ncols columns), possibly empty."""
    return _free_basis(*row_reduce(mat, p), ncols, p)


def _free_basis(rows, pivots, ncols, p):
    """Nullspace basis of rows whose first ncols columns are in RREF."""
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[f] = 1
        for r, c in enumerate(pivots):
            vec[c] = (-rows[r][f]) % p
        basis.append(vec)
    return basis


def solve_affine(mat, rhs, ncols, p):
    """Solve mat @ x = rhs over F_p.

    Returns (particular_solution, nullspace_basis), or None when inconsistent.
    An empty system yields the whole space. The augmented matrix is reduced
    once: when no pivot lies in its last column, its first ncols columns are
    the RREF of mat, which gives the nullspace.
    """
    rows, pivots = row_reduce([list(row) + [b] for row, b in zip(mat, rhs)], p)
    if ncols in pivots:
        return None
    x0 = [0] * ncols
    for r, c in enumerate(pivots):
        x0[c] = rows[r][ncols]
    return x0, _free_basis(rows, pivots, ncols, p)
