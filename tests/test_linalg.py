import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from oracles import (
    dot_zip,
    invert_unimodular_by_columns,
    mat_mul_by_rows,
    mat_vec_by_rows,
    rank_rational,
    saturated_row_basis,
    solve_integer_fresh,
)
from tropgeom import exactgeom as eg
from tropgeom import linalg as la


def test_primitive():
    assert la.primitive((2, 4, -6)) == (1, 2, -3)
    assert la.primitive((0, 0)) == (0, 0)
    assert la.primitive((-3,)) == (-1,)


def test_hnf_reduction():
    h, p = la.hnf_rows([(2, 1, 0), (0, 3, 1), (4, 5, 1)])
    assert h == [(2, 1, 0), (0, 3, 1)]
    assert p == [0, 1]
    assert la.reduce_mod_lattice((5, 3), *la.hnf_rows([(2, -1)])) == (1, 5)


def test_hnf_keeps_earlier_reductions():
    # reducing row 0 by the pivot 2 before the pivot 1 would leave -1 above 2
    assert la.hnf_rows([(0, 1, 1), (0, 0, 2), (1, 1, 0)]) == (
        [(1, 0, 1), (0, 1, 1), (0, 0, 2)],
        [0, 1, 2],
    )


def test_snf_matches_sympy():
    rng = random.Random(5)
    for _ in range(200):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        mat = tuple(tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(m))
        d, u, v = la.smith_normal_form(mat, n)
        want = tuple(
            tuple(d[i] if i == j and i < len(d) else 0 for j in range(n))
            for i in range(m)
        )
        assert la.mat_mul(la.mat_mul(u, mat), v) == want
        assert la.mat_mul(u, la.invert_unimodular(u)) == la.identity_matrix(m)
        sm = sympy_snf(sympy.Matrix([list(r) for r in mat]))
        assert [abs(sm[i, i]) for i in range(min(m, n))] == d


def test_kernel_and_saturation():
    assert la.kernel_basis(((1, 1, 1),), 3) == [(-1, 1, 0), (-1, 0, 1)]
    assert eg.cone_from_generators([(2, 0), (0, 2)], 2).span_basis == ((1, 0), (0, 1))
    # a primitive vector spans a saturated lattice
    assert eg.cone_from_generators([(2, 1)], 2).span_basis in (((2, 1),), ((-2, -1),))


def test_solve_integer():
    rng = random.Random(6)
    for _ in range(200):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        mat = tuple(tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(m))
        x0 = tuple(rng.randint(-4, 4) for _ in range(n))
        b = la.mat_vec(mat, x0)
        xi = la.solve_integer(mat, b)
        assert xi is not None and la.mat_vec(mat, xi) == b
    assert la.solve_integer(((2,),), (3,)) is None


def test_projection_to_lattice_left_inverse():
    basis = ((2, 1, 0), (0, 0, 1))
    p = la.projection_to_lattice(basis)
    for i, b in enumerate(basis):
        coords = la.mat_vec(p, b)
        assert coords == tuple(1 if k == i else 0 for k in range(len(basis)))


def test_projection_to_lattice_refuses_an_unsaturated_basis():
    with pytest.raises(ValueError):
        la.projection_to_lattice(((2, 0, 0), (0, 1, 0)))
    with pytest.raises(ValueError):
        la.projection_to_lattice(((1, 0), (0, 1), (1, 1)))


def test_invert_unimodular():
    m = ((1, 1), (0, 1))
    inv = la.invert_unimodular(m)
    assert la.mat_mul(m, inv) == la.identity_matrix(2)
    with pytest.raises(ValueError):
        la.invert_unimodular(((2, 0), (0, 1)))


def test_linalg_builds_no_fraction():
    assert "fractions" not in vars(la)
    assert "Fraction" not in vars(la)


# differential tests: each fast path against the path it replaced


def _matrices(max_rows=4, max_cols=4, entries=6):
    return st.integers(1, max_rows).flatmap(
        lambda m: st.integers(1, max_cols).flatmap(
            lambda n: st.lists(
                st.tuples(*[st.integers(-entries, entries)] * n),
                min_size=m,
                max_size=m,
            ).map(tuple)
        )
    )


@st.composite
def _systems(draw):
    """A matrix with a target that is solvable over Z, over Q only, or not
    at all."""
    mat = draw(_matrices())
    n = len(mat[0])
    if draw(st.booleans()):
        x0 = draw(st.tuples(*[st.integers(-4, 4)] * n))
        target = la.mat_vec(mat, x0)
    else:
        target = draw(st.tuples(*[st.integers(-6, 6)] * len(mat)))
    return mat, target


@settings(max_examples=300, deadline=None)
@given(_systems())
def test_solve_integer_matches_a_fresh_smith_form(system):
    mat, target = system
    assert la.solve_integer(mat, target) == solve_integer_fresh(mat, target)
    # ... also when the factorisation is already cached
    assert la.solve_integer(mat, target) == solve_integer_fresh(mat, target)


@settings(max_examples=200, deadline=None)
@given(_matrices(), st.lists(st.integers(-4, 4), min_size=5, max_size=5), st.booleans())
def test_lattice_coords_and_projection_match_fresh_solves(mat, coeffs, shift):
    basis = saturated_row_basis(mat)
    if not basis:
        return
    x = la.mat_vec(la.transpose(basis), tuple(coeffs[: len(basis)]))
    if shift:  # possibly off the lattice
        x = (x[0] + 1,) + x[1:]
    assert la.lattice_coords(basis, x) == solve_integer_fresh(la.transpose(basis), x)
    r = len(basis)
    want = tuple(
        solve_integer_fresh(basis, tuple(int(k == i) for k in range(r)))
        for i in range(r)
    )
    assert la.projection_to_lattice(basis) == want


@settings(max_examples=300, deadline=None)
@given(_matrices(max_rows=5, max_cols=5))
def test_rank_matches_rational_elimination(mat):
    assert la.rank(mat) == rank_rational(mat)
    assert la.rank(mat) == sympy.Matrix([list(r) for r in mat]).rank()


@st.composite
def _unimodular(draw, sizes=st.integers(1, 5)):
    """A product of random elementary integer row operations."""
    n = draw(sizes)
    m = [list(r) for r in la.identity_matrix(n)]
    for _ in range(draw(st.integers(0, 12))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        if i == j:
            m[i] = [-x for x in m[i]]
        else:
            c = draw(st.integers(-3, 3))
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    return tuple(tuple(r) for r in m)


@settings(max_examples=300, deadline=None)
@given(_unimodular())
def test_invert_unimodular_matches_column_solves(m):
    inv = la.invert_unimodular(m)
    assert inv == invert_unimodular_by_columns(m)
    assert la.mat_mul(m, inv) == la.identity_matrix(len(m))


@settings(max_examples=300, deadline=None)
@given(_matrices(max_rows=4, max_cols=5, entries=3))
def test_invert_unimodular_agrees_on_any_matrix(m):
    """The same inverse, or the same ValueError, on arbitrary matrices
    (wide ones with a unit Smith form have a right inverse)."""
    try:
        want = invert_unimodular_by_columns(m)
    except ValueError as e:
        with pytest.raises(ValueError, match=str(e)):
            la.invert_unimodular(m)
    else:
        assert la.invert_unimodular(m) == want


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-9, 9), max_size=5),
    st.lists(st.integers(-9, 9), max_size=5),
)
def test_dot_matches_zip(u, v):
    u, v = tuple(u), tuple(v)
    try:
        want = dot_zip(u, v)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            la.dot(u, v)
        assert str(got.value) == str(e)
    else:
        assert la.dot(u, v) == want


def _rows(n):
    """Lists of up to four rows of length n, now and then a ragged one."""
    row = st.lists(st.integers(-9, 9), min_size=n, max_size=n).map(tuple)
    ragged = st.lists(st.integers(-9, 9), max_size=5).map(tuple)
    return st.lists(st.one_of(row, row, row, ragged), max_size=4).map(tuple)


def _same_outcome(fast, slow):
    """fast() returns what slow() returns, or raises its ValueError message."""
    try:
        want = slow()
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            fast()
        assert str(got.value) == str(e)
    else:
        assert fast() == want


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: st.tuples(_rows(n), _rows(n))))
def test_mat_vec_matches_one_dot_per_row(case):
    m, vs = case
    for v in vs:
        _same_outcome(lambda: la.mat_vec(m, v), lambda: mat_vec_by_rows(m, v))


@settings(max_examples=300, deadline=None)
@given(
    st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(
        lambda nk: st.tuples(_rows(nk[0]), st.lists(_rows(nk[1]), max_size=3))
    )
)
def test_mat_mul_matches_one_dot_per_pair(case):
    """Including a row of a whose length is not the number of rows of b."""
    a, bs = case
    for b in bs:
        _same_outcome(lambda: la.mat_mul(a, b), lambda: mat_mul_by_rows(a, b))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(st.tuples(*[st.integers(-6, 6)] * n), min_size=1, max_size=4),
            st.data(),
        )
    )
)
def test_hnf_is_one_form_per_lattice(case):
    """A change of basis of the row lattice keeps the Hermite form, and every
    entry above a pivot p lies in [0, p)."""
    rows, data = case
    h, pivots = la.hnf_rows(rows)
    if not h:
        return
    g = data.draw(_unimodular(st.just(len(h))))
    assert la.hnf_rows(la.mat_mul(g, tuple(h))) == (h, pivots)
    assert la.hnf_rows(rows[::-1]) == (h, pivots)
    for i, pc in enumerate(pivots):
        assert h[i][pc] > 0
        assert all(0 <= h[k][pc] < h[i][pc] for k in range(i))
