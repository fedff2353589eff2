"""The integer-tableau simplex and determinant against the Fraction versions.

``reference_simplex_min`` is the two-phase simplex that ran on ``Fraction``
rows before the tableau became integer (Bareiss) pivoting; it is kept here
verbatim as the oracle.  Both follow the same pivot rules, so every LP must
come out with the same status, point and value.
"""

import random
from fractions import Fraction
from typing import Optional

import pytest

import equilib.linalg as linalg
from equilib.linalg import ONE, ZERO, LPResult, Matrix, Vector, determinant, dot, linprog


def reference_simplex_min(c: Vector, A: Matrix, b: Vector) -> LPResult:
    """Minimize c.x subject to A x = b, x >= 0 (two-phase, Bland's rule)."""
    m = len(A)
    n = len(c)
    A = [row[:] for row in A]
    b = b[:]
    for i in range(m):
        if b[i] < 0:
            A[i] = [-a for a in A[i]]
            b[i] = -b[i]

    # Tableau with artificial variables n..n+m-1.
    T = [A[i] + [ONE if j == i else ZERO for j in range(m)] + [b[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    total = n + m

    def pivot(row: int, col: int) -> None:
        inv = ONE / T[row][col]
        T[row] = [x * inv for x in T[row]]
        for r in range(m):
            if r != row and T[r][col] != 0:
                f = T[r][col]
                T[r] = [x - f * y for x, y in zip(T[r], T[row])]
        basis[row] = col

    def run(obj: Vector, limit: int) -> Optional[str]:
        # obj has length `total`; reduced costs computed from the basis.
        # Columns >= `limit` (the artificials, in phase 2) may not enter.
        while True:
            y = [obj[basis[r]] for r in range(m)]
            entering = None
            for j in range(limit):
                if j in basis:
                    continue
                red = obj[j] - sum((y[r] * T[r][j] for r in range(m)), ZERO)
                if red < 0:
                    entering = j  # Bland: first improving index
                    break
            if entering is None:
                return None
            leaving = None
            best = None
            for r in range(m):
                if T[r][entering] > 0:
                    ratio = T[r][total] / T[r][entering]
                    if (
                        best is None
                        or ratio < best
                        or (ratio == best and basis[r] < basis[leaving])
                    ):
                        best = ratio
                        leaving = r
            if leaving is None:
                return "unbounded"
            pivot(leaving, entering)

    phase1 = [ZERO] * n + [ONE] * m
    status = run(phase1, total)
    if status is not None:
        raise ValueError("simplex phase 1 reported an unbounded problem")
    val1 = sum((T[r][total] for r in range(m) if basis[r] >= n), ZERO)
    if val1 != 0:
        return LPResult("infeasible", None, None)
    # Drive remaining artificial variables out of the basis where possible.
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if T[r][j] != 0), None)
            if col is not None:
                pivot(r, col)
    obj2 = c + [ZERO] * m
    status = run(obj2, n)
    if status == "unbounded":
        return LPResult("unbounded", None, None)
    x = [ZERO] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = T[r][total]
    return LPResult("optimal", x, dot(c, x))


def reference_determinant(A: Matrix) -> Fraction:
    """Plain Gaussian elimination over Fractions."""
    m = [list(row) for row in A]
    n = len(m)
    det = ONE
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return ZERO
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            m[r] = [a - f * p for a, p in zip(m[r], m[col])]
    return det


def rational(rng: random.Random, lo: int = -3, hi: int = 3) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice([1, 1, 1, 2, 3, 4, 6]))


def random_lp(rng: random.Random, kind: str) -> tuple[Vector, Matrix, Vector]:
    """A seeded equality-form LP (c, A, b) of the given kind."""
    m = rng.randint(1, 5)
    n = rng.randint(1, 6)
    c = [rational(rng) for _ in range(n)]
    if kind == "feasibility":  # zero costs: the answer is the vertex the pivots end on
        m = rng.randint(2, 4)
        n = rng.randint(m + 2, 9)
        c = [Fraction(0)] * n
        A = [[rational(rng, -2, 3) for _ in range(n)] for _ in range(m)]
        b = [rational(rng, 0, 3) for _ in range(m)]
    elif kind == "general":  # mixed signs of b: optimal, infeasible and unbounded
        A = [[rational(rng) for _ in range(n)] for _ in range(m)]
        b = [rational(rng) for _ in range(m)]
    elif kind == "degenerate":  # small integers, many zero right-hand sides, ratio ties
        A = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(m)]
        b = [Fraction(rng.choice([0, 0, 1, 2, -1])) for _ in range(m)]
        if m > 1 and rng.random() < 0.5:
            A[1] = list(A[0])
            b[1] = b[0]
    else:  # "redundant": feasible equalities plus linear combinations of them
        x0 = [Fraction(rng.choice([0, 0, 1, 2])) for _ in range(n)]
        base = [[rational(rng) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        A = [list(row) for row in base]
        while len(A) < len(base) + rng.randint(1, 3):
            u, v = rng.choice(base), rng.choice(base)
            s, t = rational(rng), rational(rng)
            A.append([s * p + t * q for p, q in zip(u, v)])
        rng.shuffle(A)
        b = [dot(row, x0) for row in A]
    return c, A, b


def test_simplex_matches_fraction_reference(monkeypatch):
    negative_pivots = 0
    pivot = linalg._pivot

    def counting_pivot(T, row, col, det):
        nonlocal negative_pivots
        negative_pivots += T[row][col] < 0  # only the drive-out step pivots on < 0
        return pivot(T, row, col, det)

    monkeypatch.setattr(linalg, "_pivot", counting_pivot)
    rng = random.Random(20231)
    statuses = {}
    for kind in ("general", "degenerate", "redundant", "feasibility"):
        for _ in range(500):
            c, A, b = random_lp(rng, kind)
            want = reference_simplex_min(c, A, b)
            got = linalg._simplex_min(c, A, b)
            assert (got.status, got.x, got.value) == (want.status, want.x, want.value), (c, A, b)
            statuses[kind, got.status] = statuses.get((kind, got.status), 0) + 1
    for status in ("optimal", "infeasible", "unbounded"):
        assert statuses.get(("general", status), 0) > 20, statuses
        assert statuses.get(("degenerate", status), 0) > 20, statuses
    assert statuses.get(("redundant", "optimal"), 0) > 100, statuses
    assert statuses.get(("feasibility", "optimal"), 0) > 100, statuses
    assert negative_pivots > 20


@pytest.mark.parametrize("free", [False, True])
@pytest.mark.parametrize("maximize", [False, True])
def test_linprog_matches_fraction_reference(monkeypatch, free, maximize):
    rng = random.Random(7 + 2 * free + maximize)
    for _ in range(150):
        n = rng.randint(1, 4)
        c = [rational(rng) for _ in range(n)]
        A_ub = [[rational(rng) for _ in range(n)] for _ in range(rng.randint(0, 4))]
        b_ub = [rational(rng, -1, 4) for _ in A_ub]
        A_eq = [[rational(rng) for _ in range(n)] for _ in range(rng.randint(0, 2))]
        b_eq = [rational(rng) for _ in A_eq]
        args = (c, A_ub, b_ub, A_eq, b_eq)
        got = linprog(*args, maximize=maximize, free=free)
        with monkeypatch.context() as mp:
            mp.setattr(linalg, "_simplex_min", reference_simplex_min)
            want = linprog(*args, maximize=maximize, free=free)
        assert (got.status, got.x, got.value) == (want.status, want.x, want.value), args


def test_determinant_matches_fraction_elimination():
    rng = random.Random(5)
    for _ in range(400):
        n = rng.randint(0, 5)
        A = [[rational(rng) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.3:  # singular: a row repeated or a column zeroed
            if rng.random() < 0.5:
                A[-1] = [2 * a for a in A[0]]
            else:
                for row in A:
                    row[0] = Fraction(0)
        assert determinant(A) == reference_determinant(A), A
