"""Exact rational linear algebra: elimination, determinants, LP, vertex enumeration.

Everything operates on lists of :class:`fractions.Fraction`; nothing here ever
touches floating point.  The LP solver is a small two-phase simplex with
Bland's rule, which is all the package needs (feasibility tests, dominance
witnesses, polytope distances) at desk scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

Vector = list[Fraction]
Matrix = list[list[Fraction]]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac_vec(xs: Iterable) -> Vector:
    return [Fraction(x) for x in xs]


def frac_mat(rows: Iterable[Iterable]) -> Matrix:
    return [frac_vec(r) for r in rows]


def vec_add(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    return [a + b for a, b in zip(u, v, strict=True)]


def vec_sub(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    return [a - b for a, b in zip(u, v, strict=True)]


def vec_scale(c: Fraction, v: Sequence[Fraction]) -> Vector:
    return [c * a for a in v]


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True)), ZERO)


def linf_norm(v: Sequence[Fraction]) -> Fraction:
    return max((abs(a) for a in v), default=ZERO)


def linf_dist(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return linf_norm(vec_sub(u, v))


def determinant(A: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant by fraction-free-ish Gaussian elimination (exact)."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("determinant requires a square matrix")
    m = [list(map(Fraction, row)) for row in A]
    det = ONE
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return ZERO
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = ONE / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f == 0:
                continue
            for c in range(col, n):
                m[r][c] -= f * m[col][c]
    return det


def rref(M: Matrix) -> list[int]:
    """In-place reduced row echelon form; returns the pivot column indices."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if M[i][c] != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = ONE / M[r][c]
        M[r] = [x * inv for x in M[r]]
        for i in range(rows):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def matrix_rank(A: Sequence[Sequence[Fraction]]) -> int:
    if not A:
        return 0
    M = [list(map(Fraction, row)) for row in A]
    return len(rref(M))


def solve_linear(
    A: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> Optional[Vector]:
    """Solve A x = b exactly.

    Returns one solution (the one with free variables set to 0), or None if
    the system is inconsistent.
    """
    rows = len(A)
    if rows == 0:
        return []
    cols = len(A[0])
    M = [list(map(Fraction, A[i])) + [Fraction(b[i])] for i in range(rows)]
    pivots = rref(M)
    for i in range(rows):
        if all(M[i][c] == 0 for c in range(cols)) and M[i][cols] != 0:
            return None
    x = [ZERO] * cols
    for r, c in enumerate(pivots):
        if c == cols:  # pivot in the RHS column: inconsistent (caught above)
            return None
        x[c] = M[r][cols] - sum(
            (M[r][j] * x[j] for j in range(c + 1, cols) if j not in pivots), ZERO
        )
    # Verify (cheap, and guards against pivot bookkeeping bugs).
    for i in range(rows):
        if dot(A[i], x) != b[i]:
            return None
    return x


def solve_unique(
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
    if rref(M) != list(range(cols)):
        return None
    x = [M[r][cols] for r in range(cols)]
    # Verify (cheap, and guards against pivot bookkeeping bugs).
    return x if all(dot(row, x) == beta for row, beta in zip(A, b)) else None


def nullspace(A: Sequence[Sequence[Fraction]]) -> list[Vector]:
    """Basis of the kernel of A (columns without pivots parametrize it)."""
    rows = len(A)
    if rows == 0:
        return []
    cols = len(A[0])
    M = [list(map(Fraction, row)) for row in A]
    pivots = rref(M)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ZERO] * cols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -M[r][fc]
        basis.append(v)
    return basis


# --------------------------------------------------------------------------
# Linear programming (two-phase simplex, Bland's rule, exact rationals)
# --------------------------------------------------------------------------


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Optional[Vector]
    value: Optional[Fraction]


def _simplex_min(c: Vector, A: Matrix, b: Vector) -> LPResult:
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


def linprog(
    c: Sequence,
    A_ub: Optional[Sequence[Sequence]] = None,
    b_ub: Optional[Sequence] = None,
    A_eq: Optional[Sequence[Sequence]] = None,
    b_eq: Optional[Sequence] = None,
    *,
    maximize: bool = False,
    free: bool = False,
) -> LPResult:
    """Exact LP over x (x >= 0 by default; ``free=True`` for unrestricted x).

    Minimizes (or maximizes) ``c.x`` subject to ``A_ub x <= b_ub`` and
    ``A_eq x = b_eq``.
    """
    c = frac_vec(c)
    n = len(c)
    A_ub = frac_mat(A_ub or [])
    b_ub = frac_vec(b_ub or [])
    A_eq = frac_mat(A_eq or [])
    b_eq = frac_vec(b_eq or [])
    if maximize:
        c = [-a for a in c]

    def expand(row: Vector) -> Vector:
        return row + [-a for a in row] if free else row

    nvars = 2 * n if free else n
    rows: Matrix = []
    rhs: Vector = []
    for row, beta in zip(A_eq, b_eq, strict=True):
        rows.append(expand(row))
        rhs.append(beta)
    nslack = len(A_ub)
    for k, (row, beta) in enumerate(zip(A_ub, b_ub, strict=True)):
        slack = [ONE if j == k else ZERO for j in range(nslack)]
        rows.append(expand(row) + slack)
        rhs.append(beta)
    # pad equality rows with zero slack coefficients
    for i in range(len(A_eq)):
        rows[i] = rows[i] + [ZERO] * nslack
    cost = expand(c) + [ZERO] * nslack
    res = _simplex_min(cost, rows, rhs)
    if res.status != "optimal":
        return res
    if res.x is None:
        raise ValueError("simplex reported an optimum without a point")
    if free:
        x = [res.x[i] - res.x[n + i] for i in range(n)]
    else:
        x = res.x[:n]
    value = dot(frac_vec(c), x)
    if maximize:
        value = -value
    return LPResult("optimal", x, value)


# --------------------------------------------------------------------------
# Polyhedra: vertex enumeration and affine charts
# --------------------------------------------------------------------------


def vertex_enumeration(
    A_ub: Sequence[Sequence],
    b_ub: Sequence,
    A_eq: Optional[Sequence[Sequence]] = None,
    b_eq: Optional[Sequence] = None,
) -> list[Vector]:
    """All vertices of {x : A_ub x <= b_ub, A_eq x = b_eq}, exact and deduplicated.

    Brute force over active-constraint subsets; intended for the small
    systems this package works with (dimension <= ~6, few dozen rows).
    """
    A_ub = frac_mat(A_ub)
    b_ub = frac_vec(b_ub)
    A_eq = frac_mat(A_eq or [])
    b_eq = frac_vec(b_eq or [])
    if not A_ub and not A_eq:
        return []
    dim = len(A_ub[0]) if A_ub else len(A_eq[0])
    base_rank = matrix_rank(A_eq) if A_eq else 0
    need = dim - base_rank
    if need < 0:
        return []
    vertices: list[Vector] = []
    seen: set[tuple] = set()
    for combo in itertools.combinations(range(len(A_ub)), need):
        A = A_eq + [A_ub[i] for i in combo]
        b = b_eq + [b_ub[i] for i in combo]
        x = solve_unique(A, b)
        if x is None:
            continue
        if all(dot(row, x) <= beta for row, beta in zip(A_ub, b_ub)):
            key = tuple(x)
            if key not in seen:
                seen.add(key)
                vertices.append(x)
    return vertices


class Chart:
    """Exact affine coordinates on the affine hull of a point set.

    Maps ambient rational points lying in the hull to coordinates in
    R^dim and back; used so that geometry on simplices embedded in a
    higher-dimensional ambient space (e.g. probability simplices) can run
    in a full-dimensional chart.
    """

    def __init__(self, points: Sequence[Sequence[Fraction]]):
        if not points:
            raise ValueError("chart needs at least one point")
        pts = [frac_vec(p) for p in points]
        self.origin = pts[0]
        self.basis: list[Vector] = []
        rows: Matrix = []
        for p in pts[1:]:
            d = vec_sub(p, self.origin)
            if matrix_rank(rows + [d]) > len(self.basis):
                self.basis.append(d)
                rows.append(d)
        self.dim = len(self.basis)
        self.ambient_dim = len(self.origin)

    def to_local(self, point: Sequence[Fraction]) -> Vector:
        """Coordinates of `point` (must lie in the affine hull)."""
        d = vec_sub(frac_vec(point), self.origin)
        if self.dim == 0:
            if any(x != 0 for x in d):
                raise ValueError("point not in affine hull")
            return []
        A = [[self.basis[j][i] for j in range(self.dim)] for i in range(self.ambient_dim)]
        x = solve_linear(A, d)
        if x is None:
            raise ValueError("point not in affine hull")
        return x

    def left_inverse(self) -> list[Vector]:
        """Rows l_1..l_dim with l_i · basis_j = δ_ij.

        Gives an affine form of `to_local` valid on the hull:
        to_local(x)_i = l_i · (x − origin).
        """
        if not hasattr(self, "_left_inv"):
            B = [list(v) for v in self.basis]
            rows = []
            for i in range(self.dim):
                e = [ONE if j == i else ZERO for j in range(self.dim)]
                sol = solve_linear(B, e)
                if sol is None:
                    raise ValueError("chart basis does not have full row rank")
                rows.append(sol)
            self._left_inv = rows
        return self._left_inv

    def lift_functional(self, a_local: Sequence[Fraction], b_local: Fraction):
        """Ambient (a, b) with a·x − b = a_local·to_local(x) − b_local on the hull."""
        L = self.left_inverse()
        a_amb = [ZERO] * self.ambient_dim
        for coef, row in zip(a_local, L, strict=True):
            for j in range(self.ambient_dim):
                a_amb[j] += Fraction(coef) * row[j]
        b_amb = Fraction(b_local) + dot(a_amb, self.origin)
        return a_amb, b_amb

    def to_ambient(self, local: Sequence[Fraction]) -> Vector:
        p = self.origin[:]
        for coef, vec in zip(local, self.basis, strict=True):
            p = vec_add(p, vec_scale(Fraction(coef), vec))
        return p
