from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equilib.linalg import (
    Chart,
    determinant,
    frac_mat,
    linprog,
    matrix_rank,
    nullspace,
    solve_linear,
    solve_unique,
    vertex_enumeration,
)

F = Fraction

fracs = st.fractions(
    min_value=-5, max_value=5, max_denominator=7
)


def square_matrices(n):
    return st.lists(
        st.lists(fracs, min_size=n, max_size=n), min_size=n, max_size=n
    )


def test_determinant_known():
    assert determinant(frac_mat([[1, 2], [3, 4]])) == -2
    assert determinant(frac_mat([[2, 0, 0], [0, 3, 0], [0, 0, 4]])) == 24


@given(square_matrices(3))
@settings(max_examples=50)
def test_determinant_row_swap_flips_sign(rows):
    A = frac_mat(rows)
    swapped = [A[1], A[0], A[2]]
    assert determinant(swapped) == -determinant(A)


@given(square_matrices(3), square_matrices(3))
@settings(max_examples=30)
def test_determinant_multiplicative(a_rows, b_rows):
    A, B = frac_mat(a_rows), frac_mat(b_rows)
    AB = [
        [sum(A[i][k] * B[k][j] for k in range(3)) for j in range(3)]
        for i in range(3)
    ]
    assert determinant(AB) == determinant(A) * determinant(B)


def test_solve_unique():
    A = frac_mat([[2, 1], [1, 3]])
    x = solve_unique(A, [F(5), F(10)])
    assert [2 * x[0] + x[1], x[0] + 3 * x[1]] == [5, 10]


small = st.fractions(min_value=-2, max_value=2, max_denominator=2)


@st.composite
def linear_systems(draw):
    """Square, singular, inconsistent and overdetermined systems (A, b)."""
    cols = draw(st.integers(1, 3))
    rows = draw(st.integers(cols, cols + 1))
    A = draw(st.lists(st.lists(small, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    b = draw(st.lists(small, min_size=rows, max_size=rows))
    if draw(st.booleans()):  # repeat a row, with the same or another right-hand side
        A.append(list(A[0]))
        b.append(draw(st.sampled_from([b[0], b[0] + 1])))
    return A, b


@given(linear_systems())
@settings(max_examples=100)
def test_solve_unique_matches_rank_then_solve(system):
    A, b = system
    expected = solve_linear(A, b) if matrix_rank(A) == len(A[0]) else None
    assert solve_unique(A, b) == expected


def test_solve_linear_inconsistent():
    A = frac_mat([[1, 1], [1, 1]])
    assert solve_linear(A, [F(1), F(2)]) is None


def test_nullspace_and_rank():
    A = frac_mat([[1, 2, 3], [2, 4, 6]])
    assert matrix_rank(A) == 1
    basis = nullspace(A)
    assert len(basis) == 2
    for v in basis:
        assert all(sum(row[i] * v[i] for i in range(3)) == 0 for row in A)


def test_linprog_simple():
    # minimize x + y subject to x >= 1, y >= 2 (as -x <= -1, -y <= -2)
    res = linprog(
        [F(1), F(1)],
        [[F(-1), F(0)], [F(0), F(-1)]],
        [F(-1), F(-2)],
        free=True,
    )
    assert res.status == "optimal"
    assert res.value == 3


def test_linprog_infeasible():
    res = linprog(
        [F(1)],
        [[F(1)], [F(-1)]],
        [F(-2), F(1)],
        free=True,
    )
    assert res.status == "infeasible"


def test_vertex_enumeration_square():
    # unit square: 0 <= x, y <= 1
    verts = vertex_enumeration(
        [[F(1), F(0)], [F(-1), F(0)], [F(0), F(1)], [F(0), F(-1)]],
        [F(1), F(0), F(1), F(0)],
    )
    assert sorted(tuple(v) for v, _ in verts) == [
        (0, 0),
        (0, 1),
        (1, 0),
        (1, 1),
    ]
    # the square is simple: each vertex has one basis, its two tight rows
    assert sorted(bases for _, bases in verts) == [[(0, 2)], [(0, 3)], [(1, 2)], [(1, 3)]]


def test_chart_round_trip():
    chart = Chart([[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]])
    p = [F(1, 2), F(1, 3), F(1, 6)]
    assert chart.to_ambient(chart.to_local(p)) == p


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_identity_determinant(n):
    I = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    assert determinant(I) == 1


def test_internal_checks_raise(monkeypatch):
    # correctness checks are real exceptions, so they still run under python -O
    import equilib.linalg as linalg

    monkeypatch.setattr(linalg, "_simplex_min", lambda *_: linalg.LPResult("optimal", None, F(0)))
    with pytest.raises(ValueError, match="without a point"):
        linprog([F(1)], A_ub=[[F(1)]], b_ub=[F(1)])
    monkeypatch.setattr(linalg, "solve_linear", lambda *_: None)
    with pytest.raises(ValueError, match="full row rank"):
        Chart([[F(0), F(0)], [F(1), F(0)]]).left_inverse()
