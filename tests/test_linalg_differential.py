"""The integer-tableau simplex and elimination against the Fraction versions.

``reference_simplex_min`` is the two-phase simplex that ran on ``Fraction``
rows before the tableau became integer (Bareiss) pivoting; it is kept here
verbatim as the oracle.  Both follow the same pivot rules, so every LP must
come out with the same status, point and value.

``reference_rref`` (in ``oracles``) is the Gauss–Jordan elimination over
``Fraction`` rows that the solves ran on before they shared the integer
elimination; it, the solves and the rank built on it are the oracle.  The
reduced row echelon form is unique, so the integer elimination must give
the same pivots and the same reduced rows, and ``solve_unique`` the same
solutions.
"""

import math
import random
from fractions import Fraction
from typing import Optional, Sequence

import pytest

import equilib.linalg as linalg
from equilib.linalg import (
    ONE,
    ZERO,
    Chart,
    LPResult,
    Matrix,
    Vector,
    determinant,
    dot,
    frac_vec,
    linprog,
    solve_unique,
    vec_sub,
)
from oracles import reference_matrix_rank, reference_rref, reference_solve_linear


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


@pytest.mark.parametrize("free", [False, True])
@pytest.mark.parametrize("maximize", [False, True])
def test_linprog_reads_ints_as_their_fractions(free, maximize):
    # one LP, given as ints and as Fractions: same status, point and value,
    # and the point and value are Fractions either way
    rng = random.Random(11 + 2 * free + maximize)
    statuses = {}
    for _ in range(150):
        n = rng.randint(1, 4)
        c = [rng.randint(-3, 3) for _ in range(n)]
        A_ub = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, 4))]
        b_ub = [rng.choice([0, 0, 1, 2, 4, -1]) for _ in A_ub]
        A_eq = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, 2))]
        b_eq = [rng.randint(-2, 2) for _ in A_eq]
        ints = (c, A_ub, b_ub, A_eq, b_eq)
        fracs = tuple(
            [list(map(Fraction, row)) for row in part] if part and isinstance(part[0], list)
            else list(map(Fraction, part))
            for part in ints
        )
        got = linprog(*ints, maximize=maximize, free=free)
        want = linprog(*fracs, maximize=maximize, free=free)
        assert (got.status, got.x, got.value) == (want.status, want.x, want.value), ints
        if got.status == "optimal":
            assert all(type(a) is Fraction for a in (*got.x, got.value)), ints
        statuses[got.status] = statuses.get(got.status, 0) + 1
    assert statuses.get("optimal", 0) > 30 and statuses.get("infeasible", 0) > 5, statuses
    assert statuses.get("unbounded", 0) > 5, statuses


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


# -- elimination: reduced rows, solves and charts --------------------------


def reference_solve_unique(
    A: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> Optional[Vector]:
    """Solve A x = b; returns the solution only if it is unique.

    One elimination of [A | b]: the solution exists and is unique exactly
    when the pivots are all the columns of A.
    """
    if not A:
        return []
    cols = len(A[0])
    M = [list(map(Fraction, row)) + [Fraction(beta)] for row, beta in zip(A, b, strict=True)]
    if reference_rref(M) != list(range(cols)):
        return None
    x = [M[r][cols] for r in range(cols)]
    # Verify (cheap, and guards against pivot bookkeeping bugs).
    return x if all(dot(row, x) == beta for row, beta in zip(A, b)) else None


def reference_chart_basis(points: list[Vector]) -> list[Vector]:
    """The chart basis as one growing rank test per point picked it."""
    origin = frac_vec(points[0])
    basis: list[Vector] = []
    for p in points[1:]:
        d = vec_sub(frac_vec(p), origin)
        if reference_matrix_rank(basis + [d]) > len(basis):
            basis.append(d)
    return basis


def random_matrix(rng: random.Random) -> Matrix:
    """A seeded matrix: square, wide or tall, often rank-deficient."""
    rows, cols = rng.randint(1, 6), rng.randint(0, 6)
    A = [[rational(rng) if rng.random() < 0.7 else ZERO for _ in range(cols)] for _ in range(rows)]
    kind = rng.choice(["plain", "combination", "zero_row", "zero_col", "duplicate"])
    if kind == "combination" and rows > 2:  # a row in the span of two others
        s, t = rational(rng), rational(rng)
        A[-1] = [s * a + t * b for a, b in zip(A[0], A[1])]
    elif kind == "zero_row":
        A[rng.randrange(rows)] = [ZERO] * cols
    elif kind == "zero_col" and cols:
        j = rng.randrange(cols)
        for row in A:
            row[j] = ZERO
    elif kind == "duplicate" and rows > 1:
        A[rng.randrange(1, rows)] = list(A[0])
    return A


def test_elimination_matches_fraction_rref():
    """The integer elimination's rows over its last pivot are the reduced row
    echelon form, with the same pivots: the rank, and the nullspace read
    off the non-pivot columns, are the Fraction ones."""
    rng = random.Random(11)
    deficient = 0
    for _ in range(1500):
        A = random_matrix(rng)
        T, pivots, det, _ = linalg._eliminate(A)
        M = [list(row) for row in A]
        assert pivots == reference_rref(M), A
        assert [[Fraction(x, det) for x in row] for row in T] == M, A
        deficient += len(pivots) < min(len(A), len(A[0]))
    assert deficient > 300


def test_solves_match_fraction_rref():
    rng = random.Random(12)
    outcomes = {"inconsistent": 0, "underdetermined": 0, "unique": 0}
    for _ in range(1500):
        A = random_matrix(rng)
        cols = len(A[0])
        if rng.random() < 0.5:  # consistent by construction
            x0 = [rational(rng) for _ in range(cols)]
            b = [dot(row, x0) for row in A]
        else:
            b = [rational(rng) for _ in A]
        x = reference_solve_linear(A, b)
        assert solve_unique(A, b) == reference_solve_unique(A, b), (A, b)
        if x is None:
            outcomes["inconsistent"] += 1
        elif solve_unique(A, b) is None:
            outcomes["underdetermined"] += 1
        else:
            outcomes["unique"] += 1
    assert min(outcomes.values()) > 200, outcomes


def test_chart_matches_incremental_rank_basis():
    rng = random.Random(13)
    for _ in range(300):
        ambient = rng.randint(1, 5)
        # points on a random flat: origin plus combinations of a few directions
        origin = [rational(rng) for _ in range(ambient)]
        dirs = [[rational(rng) for _ in range(ambient)] for _ in range(rng.randint(0, 4))]
        points = [origin]
        for _ in range(rng.randint(0, 6)):
            coefs = [Fraction(rng.randint(-2, 2)) for _ in dirs]
            points.append([o + sum((c * d[i] for c, d in zip(coefs, dirs)), ZERO)
                           for i, o in enumerate(origin)])
        chart = Chart(points)
        basis = reference_chart_basis(points)
        assert chart.basis == basis and chart.dim == len(basis), points
        columns = [[v[i] for v in basis] for i in range(ambient)]
        for p in points:
            d = vec_sub(frac_vec(p), frac_vec(origin))
            want = reference_solve_linear(columns, d) if basis else []
            assert chart.to_local(p) == want, points
        k = len(basis)
        identity = [[ONE if j == i else ZERO for j in range(k)] for i in range(k)]
        assert chart.left_inverse() == [reference_solve_linear(basis, e) for e in identity]


def reference_to_local(chart: Chart, point: Sequence[Fraction]) -> Vector:
    """`Chart.to_local` as it was: one Fraction solve against the basis per point."""
    d = vec_sub(frac_vec(point), chart.origin)
    if chart.dim == 0:
        if any(x != 0 for x in d):
            raise ValueError("point not in affine hull")
        return []
    A = [[chart.basis[j][i] for j in range(chart.dim)] for i in range(chart.ambient_dim)]
    x = reference_solve_linear(A, d)
    if x is None:
        raise ValueError("point not in affine hull")
    return x


def test_to_local_matches_one_solve_per_point():
    rng = random.Random(29)
    counts = {"on": 0, "off": 0, "flat in R^3": 0}
    for _ in range(300):
        ambient = rng.choice([1, 2, 3, 3, 3, 4])
        origin = [rational(rng) for _ in range(ambient)]
        dirs = [[rational(rng) for _ in range(ambient)] for _ in range(rng.randint(0, ambient))]

        def on_flat():
            coefs = [rational(rng) for _ in dirs]
            return [o + sum((c * v[i] for c, v in zip(coefs, dirs)), ZERO)
                    for i, o in enumerate(origin)]

        points = [origin] + [on_flat() for _ in range(rng.randint(0, 4))]
        chart = Chart(points)
        counts["flat in R^3"] += ambient == 3 and chart.dim < 3
        queries = points + [on_flat() for _ in range(3)]
        queries += [[rational(rng) for _ in range(ambient)] for _ in range(3)]
        for q in queries:
            try:
                want = reference_to_local(chart, q)
            except ValueError:
                with pytest.raises(ValueError, match="not in affine hull"):
                    chart.to_local(q)
                counts["off"] += 1
                continue
            assert chart.to_local(q) == want, (points, q)
            counts["on"] += 1
    assert min(counts.values()) > 100, counts


def test_grid_reads_every_point_as_to_local():
    """`Chart.grid` of a point list: the least common scale of the coordinates
    from one solve per point, and None for the points off the flat."""
    rng = random.Random(31)
    counts = {"on": 0, "off": 0, "scale above 1": 0}
    for _ in range(200):
        ambient = rng.choice([1, 2, 3, 3, 4])
        origin = [rational(rng) for _ in range(ambient)]
        dirs = [[rational(rng) for _ in range(ambient)] for _ in range(rng.randint(0, ambient))]

        def on_flat():
            coefs = [rational(rng) for _ in dirs]
            return [o + sum((c * v[i] for c, v in zip(coefs, dirs)), ZERO)
                    for i, o in enumerate(origin)]

        chart = Chart([origin] + [on_flat() for _ in range(rng.randint(0, 4))])
        queries = [on_flat() for _ in range(rng.randint(0, 4))]
        queries += [[rational(rng) for _ in range(ambient)] for _ in range(rng.randint(0, 2))]
        rng.shuffle(queries)
        local = []
        for q in queries:
            try:
                local.append(reference_to_local(chart, q))
            except ValueError:
                local.append(None)
        scale = math.lcm(*[x.denominator for row in local if row is not None for x in row])
        rows, got = chart.grid(queries)
        assert got == scale, (queries, local)
        assert rows == [None if x is None else [y * scale for y in x] for x in local]
        counts["on"] += sum(x is not None for x in local)
        counts["off"] += local.count(None)
        counts["scale above 1"] += scale > 1
    assert min(counts.values()) > 50, counts
