"""Exact integer linear algebra on tuples.

Vectors are tuples of ints; matrices are tuples of row tuples.  Everything
here is integer and arbitrary precision: there is no floating point and no
Fraction anywhere in the package (`exactgeom.sample_points` scales its
rational combinations to integer points).  Each matrix is put in Smith form
once: the factorisation is kept by `smith_factors`, which `solve_integer`,
`lattice_coords`, `projection_to_lattice`, `invert_unimodular`,
`kernel_basis` and the lattice index of a cone share.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from operator import mul

Vec = tuple  # tuple of ints (covectors and lattice points alike)
Mat = tuple  # tuple of row tuples


def primitive(v) -> Vec:
    """Divide an integer vector by the gcd of its entries (zero stays zero)."""
    g = gcd(*v)
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


def dot(u, v):
    if len(u) != len(v):
        # a ragged pair raises the ValueError zip(strict=True) raises
        side = "shorter" if len(v) < len(u) else "longer"
        raise ValueError(f"zip() argument 2 is {side} than argument 1")
    return sum(map(mul, u, v))


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vscale(c, v):
    return tuple(c * a for a in v)


def mat_vec(m: Mat, v) -> Vec:
    """Apply a matrix (rows index target coordinates) to a column vector."""
    return tuple(dot(row, v) for row in m)


def mat_mul(a: Mat, b: Mat) -> Mat:
    """Matrix product a*b, both given as row tuples."""
    bt = transpose(b)
    return tuple(tuple(dot(ra, cb) for cb in bt) for ra in a)


def transpose(m: Mat) -> Mat:
    if not m:
        return ()
    return tuple(zip(*m))


@lru_cache(maxsize=None)
def identity_matrix(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def zero_vec(n: int) -> Vec:
    return (0,) * n


def rank(rows) -> int:
    """Rank over Q, by fraction-free (Bareiss) elimination.

    After each pivot every remaining entry is a minor of the input, so the
    division by the previous pivot is exact.
    """
    a = [list(row) for row in rows]
    if not a:
        return 0
    r = 0
    prev = 1
    for c in range(len(a[0])):
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        top = a[r]
        piv = top[c]
        for i in range(r + 1, len(a)):
            f = a[i][c]
            a[i] = [(piv * x - f * y) // prev for x, y in zip(a[i], top)]
        prev = piv
        r += 1
        if r == len(a):
            break
    return r


def smith_normal_form(mat: Mat, ncols: int | None = None):
    """Smith normal form with transforms.

    Returns (diag, u, v, vinv) where u*mat*v = d, d diagonal with
    d[i] | d[i+1], and u, v unimodular.  diag is the list of diagonal
    entries (nonnegative).  ncols is only needed when mat has no rows.
    """
    nrows = len(mat)
    if ncols is None:
        ncols = len(mat[0]) if mat else 0
    a = [list(row) for row in mat]
    u = [list(row) for row in identity_matrix(nrows)]
    v = [list(row) for row in identity_matrix(ncols)]
    vinv = [list(row) for row in identity_matrix(ncols)]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def row_add(i, j, c):
        # row i += c * row j
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def row_neg(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def col_add(i, j, c):
        # col i += c * col j
        for r in a:
            r[i] += c * r[j]
        for r in v:
            r[i] += c * r[j]
        vinv[j] = [x - c * y for x, y in zip(vinv[j], vinv[i])]

    t = 0
    while t < min(nrows, ncols):
        # find smallest nonzero entry in the remaining block as pivot
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best[0]):
                    best = (abs(a[i][j]), i, j)
        if best is None:
            break
        _, bi, bj = best
        row_swap(t, bi)
        col_swap(t, bj)
        dirty = False
        for i in range(t + 1, nrows):
            if a[i][t] != 0:
                q = a[i][t] // a[t][t]
                row_add(i, t, -q)
                if a[i][t] != 0:
                    dirty = True
        for j in range(t + 1, ncols):
            if a[t][j] != 0:
                q = a[t][j] // a[t][t]
                col_add(j, t, -q)
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        if a[t][t] < 0:
            row_neg(t)
        # enforce divisibility d[t] | everything below
        bad = next(
            (
                (i, j)
                for i in range(t + 1, nrows)
                for j in range(t + 1, ncols)
                if a[i][j] % a[t][t] != 0
            ),
            None,
        )
        if bad is not None:
            row_add(t, bad[0], 1)
            continue
        t += 1
    diag = [a[i][i] for i in range(min(nrows, ncols))]
    to_t = lambda m: tuple(tuple(r) for r in m)
    return diag, to_t(u), to_t(v), to_t(vinv)


@lru_cache(maxsize=4096)
def smith_factors(mat: Mat, ncols: int):
    """The Smith form of a matrix, computed once per matrix.

    Returns (diag, u, v) with u*mat*v diagonal, as `smith_normal_form`
    gives them; mat must be a tuple of row tuples.
    """
    diag, u, v, _ = smith_normal_form(mat, ncols)
    return tuple(diag), u, v


def kernel_basis(mat: Mat, ncols: int):
    """Basis of the saturated lattice {x in Z^ncols : mat * x = 0}."""
    if not mat:
        return [tuple(identity_matrix(ncols)[i]) for i in range(ncols)]
    diag, _, v = smith_factors(mat, len(mat[0]))
    r = sum(1 for d in diag if d != 0)
    cols = transpose(v)
    return [tuple(cols[j]) for j in range(r, ncols)]


def row_saturation_basis(rows, ncols: int):
    """Basis of (Q-span of rows) intersected with Z^ncols."""
    if not rows:
        return []
    diag, _, _, vinv = smith_normal_form(tuple(rows))
    r = sum(1 for d in diag if d != 0)
    return [tuple(vinv[i]) for i in range(r)]


def solve_integer(mat: Mat, target):
    """One integer solution x of mat * x = target, or None."""
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    if nrows == 0:
        return (0,) * ncols
    diag, u, v = smith_factors(mat, ncols)
    c = mat_vec(u, target)
    y = [0] * ncols
    for i in range(nrows):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d != 0:
                return None
            y[i] = c[i] // d
    return mat_vec(v, tuple(y))


def hnf_rows(rows):
    """Row-style Hermite normal form (pivots positive, entries above reduced).

    Returns (hnf rows, pivot columns); zero rows are dropped.
    """
    work = [list(r) for r in rows if any(r)]
    ncols = len(rows[0]) if rows else 0
    h = []
    pivots = []
    for col in range(ncols):
        if not work:
            break
        nz = [r for r in work if r[col] != 0]
        if not nz:
            continue
        while len(nz) > 1:
            nz.sort(key=lambda r: abs(r[col]))
            p = nz[0]
            for r in nz[1:]:
                q = r[col] // p[col]
                for j in range(ncols):
                    r[j] -= q * p[j]
            nz = [r for r in nz if r[col] != 0]
        p = nz[0]
        if p[col] < 0:
            p[:] = [-x for x in p]
        h.append(p)
        pivots.append(col)
        work = [r for r in work if r is not p and any(r)]
    for i in reversed(range(len(h))):
        pc = pivots[i]
        for k in range(i):
            q = h[k][pc] // h[i][pc]
            if q:
                h[k] = [a - q * b for a, b in zip(h[k], h[i])]
    return [tuple(r) for r in h], pivots


def reduce_mod_lattice(x, hnf, pivots):
    """Canonical representative of x modulo the row lattice given in HNF."""
    y = list(x)
    for row, pc in zip(hnf, pivots):
        q = y[pc] // row[pc]
        if q:
            y = [a - q * b for a, b in zip(y, row)]
    return tuple(y)


def lattice_coords(basis_rows, x):
    """Coordinates of x in the given lattice basis (integer), or None."""
    if not basis_rows:
        return () if all(a == 0 for a in x) else None
    mt = transpose(tuple(basis_rows))
    return solve_integer(mt, tuple(x))


def projection_to_lattice(basis_rows) -> Mat:
    """Integer matrix p with p * x = coords of x in the basis, for x in the lattice.

    basis_rows must be a basis of a saturated sublattice (ValueError
    otherwise); p is the transposed right inverse of the basis (one
    deterministic choice among many).
    """
    return transpose(invert_unimodular(tuple(basis_rows)))


def invert_unimodular(m: Mat) -> Mat:
    """Inverse of a unimodular integer matrix (integer entries).

    From the Smith form u*m*v = 1 the inverse is v*u.  (For a wide matrix
    whose diagonal is all ones this is the right inverse v[:, :n]*u.)
    """
    n = len(m)
    if n == 0:
        return ()
    diag, u, v = smith_factors(m, len(m[0]))
    if len(diag) != n or any(d != 1 for d in diag):
        raise ValueError("matrix is not unimodular")
    return mat_mul(tuple(row[:n] for row in v), u)
