import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import equilib.linalg as linalg
from equilib.linalg import (
    Chart,
    _least_ratio,
    _lex_feasible,
    determinant,
    lex_walk,
    linprog,
    solve_unique,
    vertex_enumeration,
)
from oracles import frac_mat, reference_matrix_rank, reference_nullspace, reference_solve_linear

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
    expected = reference_solve_linear(A, b) if reference_matrix_rank(A) == len(A[0]) else None
    assert solve_unique(A, b) == expected


def test_solve_unique_inconsistent():
    A = frac_mat([[1, 1], [1, 1]])
    assert reference_solve_linear(A, [F(1), F(2)]) is None
    assert solve_unique(A, [F(1), F(2)]) is None


def test_reference_nullspace_and_rank():
    A = frac_mat([[1, 2, 3], [2, 4, 6]])
    assert reference_matrix_rank(A) == 1
    basis = reference_nullspace(A)
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
    chart = Chart([[F(0), F(0)], [F(1), F(0)]])
    # an elimination of [B | I] that finds no pivot in B
    monkeypatch.setattr(linalg, "_eliminate", lambda rows: ([[0, 0, 1]], [2], 1, 1))
    with pytest.raises(ValueError, match="full row rank"):
        chart.left_inverse()


# -- the lexicographic rule ------------------------------------------------


def test_least_ratio_breaks_an_exact_tie_by_the_lowest_eps_term():
    # slacks 2 and 4 falling at rates 1 and 2 both reach 0 at 2
    slack, rates = [2, 4], [-1, -2]
    # slack_j + ε^(j+1): 2 + ε against 2 + ε²/2, so row 1 is first
    assert _least_ratio(slack, rates, lambda j: [(j, 1)]) == 1
    # slack_j + ε^(2-j): 2 + ε² against 2 + ε/2, so row 0 is
    assert _least_ratio(slack, rates, lambda j: [(1 - j, 1)]) == 0
    # without a tie the constants decide, against the ε terms
    assert _least_ratio([2, 3], rates, lambda j: [(1 - j, 1)]) == 1
    assert _least_ratio([1, 4], rates, lambda j: [(j, 1)]) == 0


def test_least_ratio_reads_only_falling_rates():
    assert _least_ratio([1, 0, 5], [0, 3, 1], lambda j: [(j, 1)]) == -1
    assert _least_ratio([], [], lambda j: []) == -1
    assert _least_ratio([0, 7, 5], [0, -1, 2], lambda j: [(j, 1)]) == 1


def test_lex_feasible_rejects_dependent_basis_rows():
    # y >= 0, x >= 0 and 2x >= 0 are all tight at the origin; cols[k] holds
    # coordinate k of each row
    cols = [[0, -1, -2], [-1, 0, 0]]
    # rows 1 and 2 are parallel, so (1, 2) is no basis, although row 0's
    # lowest ε term alone would read as a positive slack
    assert not _lex_feasible(cols, (1, 2), [0])
    # over (0, 2) row 1 is row 2 / 2, with slack ε² − ε³/2 > 0; over (0, 1)
    # row 2 is 2 row 1, with slack ε³ − 2ε² < 0
    assert _lex_feasible(cols, (0, 2), [1])
    assert not _lex_feasible(cols, (0, 1), [2])
    # the enumeration finds the origin by (0, 1) and reads (1, 2) without a solve
    assert vertex_enumeration([[0, -1], [-1, 0], [-2, 0]], [0, 0, 0]) == [([0, 0], [(0, 2)])]


# The points 0..3 of a line lifted to the parabola, as the rows (p, 1 | p²):
# the lower cells are (0, 1), (1, 2) and (2, 3).
PARABOLA = ([[0, 1], [1, 1], [2, 1], [3, 1]], [0, 1, 4, 9])


def test_lex_walk_visits_the_lower_cells_and_the_unbounded_edges():
    bases, unbounded = lex_walk(*PARABOLA, (1, 0))
    assert bases == [((0, 1), 1, [0, 1]), ((1, 2), 1, [1, 2]), ((2, 3), 1, [2, 3])]
    # leaving row 1 of (0, 1) or row 2 of (2, 3) meets no row: the facets x >= 0
    # and x <= 3, as forms of the barycentric coordinate over the leaving row
    assert unbounded == [((0, 1), 1, [1, 0]), ((2, 3), 2, [-1, 3])]


def test_lex_walk_breaks_a_tie_of_the_heights_by_the_eps_terms():
    # three collinear lifted points at height 0: the middle one, at ε², lies
    # below the segment of the other two, at (ε + ε³)/2
    rows, heights = [[0, 1], [1, 1], [2, 1]], [0, 0, 0]
    bases, _ = lex_walk(rows, heights, (0, 1))
    assert [b for b, _, _ in bases] == [(0, 1), (1, 2)]
    assert [tight for _, _, tight in bases] == [[0, 1, 2], [0, 1, 2]]
    with pytest.raises(ValueError, match=r"basis \(0, 2\) is not .*: row 1 lies below its vertex"):
        lex_walk(rows, heights, (0, 2))


@pytest.mark.parametrize("start,row", [((0, 2), 1), ((0, 3), 1), ((1, 3), 2)])
def test_lex_walk_rejects_a_start_that_is_not_lexicographically_feasible(start, row):
    with pytest.raises(
        ValueError,
        match=rf"basis \({start[0]}, {start[1]}\) is not lexicographically feasible: "
        rf"row {row} lies below its vertex",
    ):
        lex_walk(*PARABOLA, start)
    with pytest.raises(ValueError, match=r"start basis \(0, 0\) is singular"):
        lex_walk(*PARABOLA, (0, 0))


def test_lex_walk_certifies_its_start_under_python_O():
    """The certificate is an exception, not an assert, so -O keeps it."""
    import equilib

    probe = (
        "from equilib.linalg import lex_walk\n"
        "try:\n"
        "    lex_walk([[0, 1], [1, 1], [2, 1], [3, 1]], [0, 1, 4, 9], (0, 2))\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    src = os.path.dirname(os.path.dirname(equilib.__file__))
    out = subprocess.run(
        [sys.executable, "-O", "-c", probe],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout == (
        "basis (0, 2) is not lexicographically feasible: row 1 lies below its vertex\n"
    )


def test_lex_walk_rejects_a_pivot_that_leaves_the_polyhedron(monkeypatch):
    """A ratio test that takes the last falling row instead of the least ratio
    steps from the lower cell (0, 1) to (1, 3), whose line passes above the
    lifted point 2; the walk certifies every basis it reaches."""
    monkeypatch.setattr(
        linalg,
        "_least_ratio",
        lambda slack, rates, eps: max((j for j, m in enumerate(rates) if m < 0), default=-1),
    )
    with pytest.raises(
        ValueError, match=r"basis \(1, 3\) is not lexicographically feasible: row 2 lies below"
    ):
        lex_walk(*PARABOLA, (0, 1))
