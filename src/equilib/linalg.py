"""Exact rational linear algebra: elimination, determinants, LP, vertex enumeration.

Entries at the API are ints or :class:`fractions.Fraction` s, and results
are ``Fraction`` s; nothing here ever touches floating point.  Rows are
scaled to integers and pivoted fraction-free (:func:`_pivot`, Bareiss
division by the previous pivot), converting back to ``Fraction`` only for
the result: one Gauss–Jordan elimination (:func:`_reduce`, on rational rows
:func:`_eliminate`) serves the determinant, the unique solve, the chart's
basis and left inverse and every barycentric table (:func:`_basis_table`),
and the LP solver pivots its own tableau with the same step.  There is no
general rational solve, rank or nullspace: geometry reads weights, ranks
and normals from those integer tables.  The LP solver is a small two-phase
simplex with Bland's rule, which is all the package needs (feasibility
tests, dominance witnesses, polytope distances) at desk scale.

One lexicographic rule, right-hand sides beta_j + ε^(j+1) read by the
constant and then the lowest ε power (:func:`_sign`), picks the bases
`vertex_enumeration` keeps and drives :func:`lex_walk`, the pivoting walk
over the bases of such a system, one elimination per basis, that gives
geometry its lower hulls.  `vertex_enumeration` solves a degenerate vertex
once: a later subset inside its tight rows gets only the lexicographic test.
One ratio test, :func:`_least_ratio`, reads that rule for the walk,
geometry's first lower cell and the simplex, whose Bland tie-break is the
ε-term of each row's basic variable.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

Vector = list[Fraction]
Matrix = list[list[Fraction]]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac_vec(xs: Iterable) -> Vector:
    return [Fraction(x) for x in xs]


def vec_add(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    return [a + b for a, b in zip(u, v, strict=True)]


def vec_sub(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    return [a - b for a, b in zip(u, v, strict=True)]


def vec_scale(c: Fraction, v: Sequence[Fraction]) -> Vector:
    return [c * a for a in v]


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True)), ZERO)


def _integer_row(row: Sequence[Fraction]) -> tuple[list[int], int]:
    """``row`` scaled to integers by the lcm of its denominators, and that lcm."""
    # a list, not a generator: star-unpacking a generator resizes the argument
    # tuple, which leaves it in another size's free list and grows those lists
    scale = math.lcm(*[f.denominator for f in row])
    return [f.numerator * (scale // f.denominator) for f in row], scale


def _integer_matrix(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """``rows`` scaled to integers by the lcm of all their denominators, and that lcm."""
    scale = math.lcm(*[f.denominator for row in rows for f in row])
    return [[f.numerator * (scale // f.denominator) for f in row] for row in rows], scale


def _pivot(T: list[list[int]], row: int, col: int, det: int) -> int:
    """One fraction-free (Bareiss) pivot on ``T[row][col]``; returns the new det.

    Every other row becomes ``(r * p - r[col] * T[row]) / det`` with p the
    pivot and ``det`` the previous pivot.  The division is exact: each entry
    is a minor of the starting integer matrix (Bareiss, Math. Comp. 22, 1968).
    """
    prow = T[row]
    p = prow[col]
    for i, r in enumerate(T):
        if i == row:
            continue
        f = r[col]
        if f:
            T[i] = [(a * p - f * b) // det for a, b in zip(r, prow)]
        elif p != det:
            T[i] = [a * p // det for a in r]
    return p


def _eliminate(A: Iterable[Sequence[Fraction]]) -> tuple[list[list[int]], list[int], int, int]:
    """Fraction-free Gauss–Jordan elimination of A's rows scaled to integers.

    Returns ``(T, pivots, det, scale)``, T and the rest as :func:`_reduce`
    leaves them.  ``scale`` is the product of the row scales, negated once
    per row swap, so a square A has determinant ``det / scale`` when every
    column is a pivot column.
    """
    T = []
    scale = 1
    for row in A:
        ints, s = _integer_row([Fraction(a) for a in row])
        T.append(ints)
        scale *= s
    pivots, det, sign = _reduce(T)
    return T, pivots, det, scale * sign


def _reduce(T: list[list[int]]) -> tuple[list[int], int, int]:
    """Fraction-free Gauss–Jordan elimination of the integer rows T, in place.

    Returns ``(pivots, det, sign)``.  Row r < len(pivots) of T then holds
    the pivot ``det`` (the last pivot taken, 1 if none) in column
    ``pivots[r]``, every other row holds 0 there, and row r divided by
    ``det`` is row r of the reduced row echelon form.  Pivot columns are
    taken left to right, each from the first row at or below the next pivot
    position whose entry is nonzero; ``sign`` is -1 after an odd number of
    row swaps, so a square T has determinant ``sign * det`` when every
    column is a pivot column.
    """
    rows = len(T)
    pivots: list[int] = []
    det = sign = 1
    for c in range(len(T[0]) if T else 0):
        r = len(pivots)
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if T[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            T[r], T[piv] = T[piv], T[r]
            sign = -sign
        det = _pivot(T, r, c, det)
        pivots.append(c)
    return pivots, det, sign


def determinant(A: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant by Bareiss elimination on integer-scaled rows."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("determinant requires a square matrix")
    _, pivots, det, scale = _eliminate(A)
    return Fraction(det, scale) if len(pivots) == n else ZERO


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
    T, pivots, det, _ = _eliminate([list(row) + [beta] for row, beta in zip(A, b, strict=True)])
    if pivots != list(range(cols)):
        return None
    x = [Fraction(T[r][cols], det) for r in range(cols)]
    # Verify (cheap, and guards against pivot bookkeeping bugs).
    return x if all(dot(row, x) == beta for row, beta in zip(A, b)) else None


# --------------------------------------------------------------------------
# Linear programming (two-phase simplex, Bland's rule, exact rationals)
# --------------------------------------------------------------------------


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Optional[Vector]
    value: Optional[Fraction]


def _simplex_min(c: Vector, A: Matrix, b: Vector) -> LPResult:
    """Minimize c.x subject to A x = b, x >= 0 (two-phase, Bland's rule).

    Runs on an integer tableau: each row of [A | b] is scaled to integers
    and pivoted fraction-free by :func:`_pivot`, so every basic column is
    ``det`` times a unit vector and the rational tableau is the integer one
    divided by ``det`` (kept positive).  The phase-1 and phase-2 reduced
    costs ride along as the last two rows, each a positive multiple of the
    rational reduced costs.  Artificial ``n + i`` has coefficient 1 in the
    scaled row i, so it stands for s_i times the unscaled artificial; its
    phase-1 cost is lcm(s)/s_i, which keeps the phase-1 objective, and with
    it every pivot, the same as on the unscaled rows.  The leaving row is
    :func:`_least_ratio`'s with the ε-term -ε^(v+1) on the row of basic
    variable v: of the least ratios, the least basic variable's (Bland,
    Math. Oper. Res. 2, 1977).  Entries of c, A and b are ints or Fractions.
    """
    m = len(A)
    n = len(c)
    total = n + m
    T: list[list[int]] = []
    scales = []
    for i in range(m):
        row = A[i] + [b[i]]
        if b[i] < 0:
            row = [-a for a in row]
        ints, s = _integer_row(row)
        T.append(ints[:n] + [int(j == i) for j in range(m)] + ints[n:])
        scales.append(s)
    lcm = math.lcm(*scales)
    weights = [lcm // s for s in scales]
    # phase-1 costs `weights` on the artificials, reduced against their rows
    cost1 = [-sum(w * r[j] for w, r in zip(weights, T)) for j in range(total + 1)]
    cost1[n:total] = [0] * m
    cost2, _ = _integer_row(c)
    T += [cost2 + [0] * (m + 1), cost1]
    basis = [n + i for i in range(m)]
    det = 1

    def run(limit: int) -> Optional[str]:
        # The last row of T holds the reduced costs of the current phase.
        # Columns >= `limit` (the artificials, in phase 2) may not enter.
        nonlocal det
        while True:
            cost = T[-1]
            # Bland: the first improving column enters
            entering = next((j for j in range(limit) if cost[j] < 0), None)
            if entering is None:
                return None
            # Bland: of the least ratios, the row of the least basic variable
            leaving = _least_ratio(
                [row[total] for row in T[:m]],
                [-row[entering] for row in T[:m]],
                lambda r: [(basis[r], -1)],
            )
            if leaving < 0:
                return "unbounded"
            det = _pivot(T, leaving, entering, det)
            basis[leaving] = entering

    if run(total) is not None:
        raise ValueError("simplex phase 1 reported an unbounded problem")
    if any(T[r][total] != 0 for r in range(m) if basis[r] >= n):
        return LPResult("infeasible", None, None)
    T.pop()  # phase-1 costs
    # Drive remaining artificial variables out of the basis where possible.
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if T[r][j] != 0), None)
            if col is not None:
                det = _pivot(T, r, col, det)
                basis[r] = col
                if det < 0:
                    T[:] = [[-a for a in row] for row in T]
                    det = -det
    if run(n) == "unbounded":
        return LPResult("unbounded", None, None)
    x = [ZERO] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = Fraction(T[r][total], det)
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
    ``A_eq x = b_eq``.  Entries are ints or Fractions, used as given: the
    rows [A_eq | 0] and [A_ub | I] go to :func:`_simplex_min`, which scales
    each to integers.
    """
    n = len(c)
    if maximize:
        c = [-a for a in c]

    def expand(row: Sequence) -> list:
        return list(row) + [-a for a in row] if free else list(row)

    A_eq, b_eq, A_ub, b_ub = A_eq or [], b_eq or [], A_ub or [], b_ub or []
    if len(A_eq) != len(b_eq) or len(A_ub) != len(b_ub):
        raise ValueError("linprog needs one right-hand side per row")
    k = len(A_ub)
    rows = [expand(row) + [0] * k for row in A_eq]
    rows += [expand(row) + [int(i == j) for j in range(k)] for i, row in enumerate(A_ub)]
    res = _simplex_min(expand(c) + [0] * k, rows, [*b_eq, *b_ub])
    if res.status != "optimal":
        return res
    if res.x is None:
        raise ValueError("simplex reported an optimum without a point")
    if free:
        x = [res.x[i] - res.x[n + i] for i in range(n)]
    else:
        x = res.x[:n]
    value = dot(c, x)
    if maximize:
        value = -value
    return LPResult("optimal", x, value)


def linf_distance(point: Sequence[Fraction], vertices: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact ell-infinity distance from ``point`` to the convex hull of ``vertices``.

    One LP over the convex weights λ and the distance t: minimize t subject
    to |Σ λ_i v_i − x| <= t coordinatewise and Σ λ_i = 1.  A single vertex
    needs no LP.
    """
    if len(vertices) == 1:
        return max((abs(a - b) for a, b in zip(point, vertices[0], strict=True)), default=ZERO)
    m = len(vertices)
    A_ub, b_ub = [], []
    for r, x in enumerate(point):
        row = [v[r] for v in vertices]
        A_ub += [row + [-ONE], [-a for a in row] + [-ONE]]
        b_ub += [x, -x]
    res = linprog([ZERO] * m + [ONE], A_ub, b_ub, [[ONE] * m + [ZERO]], [ONE])
    if res.status != "optimal":
        raise ValueError("linf_distance needs at least one vertex")
    return res.value


# --------------------------------------------------------------------------
# Polyhedra: vertex enumeration and affine charts
# --------------------------------------------------------------------------


def vertex_enumeration(
    A_ub: Sequence[Sequence], b_ub: Sequence
) -> list[tuple[Vector, list[tuple[int, ...]]]]:
    """All vertices of {x : A_ub x <= b_ub}, exact, each with its lexicographic bases.

    Brute force over the d-subsets of the rows, d the dimension; intended
    for the small systems this package works with (dimension <= ~6, few
    dozen rows).  The rows are ints or Fractions, taken as given: each
    subset's unique solution x is tested against them scaled to integers
    once per polytope, row by row, in integer arithmetic: with
    ``x = num / den`` on its least common denominator, a row (a, beta)
    holds when ``a·num <= beta * den``.  Vertices, as Fractions, come in the
    order of the first subset that finds them.

    A vertex's bases are its subsets S (sorted row tuples, in subset order)
    that stay feasible when row k's right-hand side becomes beta_k + ε^(k+1)
    for every small ε > 0 (Charnes, Econometrica 20, 1952): the vertices of
    that simple perturbed polyhedron.  A row k outside S tight at x has
    slack ε^(k+1) − Σ_{r∈S} λ_r ε^(r+1) there, a_k being Σ_{r∈S} λ_r a_r,
    whose sign :func:`_lex_feasible` reads.

    A vertex with more than d tight rows keeps their bitmask; a later
    subset inside a known mask is that vertex's basis or singular, so it
    gets only the lexicographic test (no solve, feasibility test or scan),
    which rejects dependent rows.  The output is that of solving every subset.
    """
    if not A_ub:
        return []
    # each row [a | beta] scaled to integers by the lcm of its own denominators
    rows = [_integer_row([*a, beta])[0] for a, beta in zip(A_ub, b_ub, strict=True)]
    d = len(A_ub[0])
    cols = [list(c) for c in zip(*rows)][:d]
    found: dict[tuple[int, ...], tuple[Vector, list[tuple[int, ...]]]] = {}
    # (tight-row bitmask, tight rows, bases) of each vertex with more than d tight rows
    degenerate: list[tuple[int, list[int], list[tuple[int, ...]]]] = []
    masks = map(sum, itertools.combinations([1 << k for k in range(len(A_ub))], d))
    for combo, mask in zip(itertools.combinations(range(len(A_ub)), d), masks):
        for held, tight, bases in degenerate:
            if mask & held == mask:  # that vertex's basis, or singular
                if _lex_feasible(cols, combo, [k for k in tight if k not in combo]):
                    bases.append(combo)
                break
        else:
            x = solve_unique([A_ub[i] for i in combo], [b_ub[i] for i in combo])
            if x is None:
                continue
            num, den = _integer_row(x)
            point = [*num, -den]  # [a | beta]·point = a·num − beta·den
            if all(sum(map(operator.mul, row, point)) <= 0 for row in rows):
                bases = found.setdefault((den, *num), (x, []))[1]
                tight = [
                    k
                    for k, row in enumerate(rows)
                    if k not in combo and sum(map(operator.mul, row, point)) == 0
                ]
                if not tight or _lex_feasible(cols, combo, tight):
                    bases.append(combo)
                if tight:
                    held = mask | sum(1 << k for k in tight)
                    degenerate.append((held, sorted((*combo, *tight)), bases))
    return list(found.values())


# --------------------------------------------------------------------------
# The lexicographic rule: right-hand sides beta_j + ε^(j+1)
# --------------------------------------------------------------------------

Basis = tuple[int, ...]  # sorted row indices


def _sign(const: int, terms: Iterable[tuple[int, int]] = ()) -> int:
    """The sign of const + Σ c·ε^(i+1) over the (i, c) in `terms`, for every small ε > 0.

    A nonzero constant decides.  Otherwise the lowest index whose
    coefficients have a nonzero sum does (Charnes, Econometrica 20, 1952;
    Edelsbrunner & Mücke, *Simulation of Simplicity*, ACM TOG 9, 1990); 0
    when every sum vanishes.
    """
    total = {-1: const}  # ε^0, below every ε^(i+1)
    for i, c in terms:
        total[i] = total.get(i, 0) + c
    for i in sorted(total):
        if c := total[i]:
            return (c > 0) - (c < 0)
    return 0


def _least_ratio(
    slack: Sequence[int], rates: Sequence[int], eps: Callable[[int], list[tuple[int, int]]]
) -> int:
    """The j with rates[j] < 0 whose slack_j / -rates[j] is least; -1 when there is none.

    slack_j stands for slack[j] plus the ε terms eps(j) (see :func:`_sign`),
    and two ratios are compared cross-multiplied for every small ε > 0:
    only an exact tie of their constant parts reads the ε terms.
    """
    best = -1
    for k, m in enumerate(rates):
        if m >= 0:
            continue
        # v < 0 when k's ratio is less than best's
        v = slack[best] * m - slack[k] * rates[best] if best >= 0 else -1
        if not v:
            b = rates[best]
            v = _sign(0, [(i, m * c) for i, c in eps(best)] + [(i, -b * c) for i, c in eps(k)])
        if v < 0:
            best = k
    return best


def _basis_table(
    cols: Sequence[list[int]], basis: Sequence[int]
) -> tuple[int, list[list[int]], list[list[int]]]:
    """|det| of the basis rows, their coordinate forms, and every row's coordinates over them.

    ``cols[k]`` holds coordinate k of every integer row a_j.  One elimination
    of [A_Bᵀ | I | Aᵀ] leaves det·λ_r in row r, λ_r(a) being a's coordinate
    over row basis[r]: as a linear form over I, and at every a_j over the
    rest.  Returns (|det|, forms, lam) scaled by |det|: forms[r] holds λ_r's
    coefficients and lam[r][j] is λ_r(a_j); |det| is 0, with no tables,
    when the basis rows are dependent.
    """
    n = len(basis)
    T = [
        [col[i] for i in basis] + [int(r == k) for r in range(n)] + col
        for k, col in enumerate(cols)
    ]
    pivots, det, _ = _reduce(T)
    if pivots != list(range(n)):
        return 0, [], []
    if det < 0:
        det, T = -det, [[-x for x in row] for row in T]
    return det, [row[n : 2 * n] for row in T], [row[2 * n :] for row in T]


def _lex_feasible(cols: Sequence[list[int]], basis: Sequence[int], tight: list[int]) -> bool:
    """Whether ``basis`` stays feasible under the perturbation beta_k + ε^(k+1).

    ``cols[j]`` holds coordinate j of every row, and ``tight`` lists the
    rows outside the basis that are tight at its vertex.  One elimination
    of [A_Sᵀ | a_kᵀ for k in tight] leaves det·λ for each tight row k in its
    column, row i of λ belonging to basis row basis[i], so det times k's
    slack is det·ε^(k+1) − Σ_i det·λ_i·ε^(basis[i]+1).  False when the
    basis rows are dependent: they have no vertex.
    """
    T = [[col[r] for r in (*basis, *tight)] for col in cols]
    pivots, det, _ = _reduce(T)
    return pivots[: len(basis)] == list(range(len(basis))) and all(
        _sign(0, [(k, det), *((r, -T[i][c]) for i, r in enumerate(basis))]) * det > 0
        for c, k in enumerate(tight, len(basis))
    )


def lex_walk(
    A: Sequence[Sequence[int]], beta: Sequence[int], start: Sequence[int]
) -> tuple[list[tuple[Basis, int, list[int]]], list[tuple[Basis, int, list[int]]]]:
    """Every basis of {y : a_j·y <= beta_j + ε^(j+1)} that pivots reach from ``start``.

    A basis is a sorted tuple of n integer rows, n the length of a_j, and
    is kept only when lexicographically feasible, as in
    :func:`vertex_enumeration`: the vertices of that simple perturbed
    polyhedron.  Each costs one :func:`_basis_table`: row j's slack is
    beta_j·|det| − Σ_r lam[r][j]·beta_(basis[r]) plus the ε part
    |det|·ε^(j+1) − Σ_r lam[r][j]·ε^(basis[r]+1), which only ties read; it
    changes at the rate lam[r][j] as basis row r leaves, and
    :func:`_least_ratio` picks the row that enters.  Bases are taken depth
    first from a stack, leaving rows in basis order.

    Returns (bases, unbounded): each basis with its |det| and its rows of
    constant slack 0, in walk order, and each (basis, leaving row, its
    form) whose ratio test finds no entering row.  Raises ValueError on a
    singular start and on a row below a basis's vertex, the start's too.
    """
    cols = [list(c) for c in zip(*A)]
    todo = [tuple(sorted(start))]
    seen = set(todo)
    bases, unbounded = [], []
    while todo:
        basis = todo.pop()
        det, forms, lam = _basis_table(cols, basis)
        if not det:
            raise ValueError(f"start basis {basis} is singular")

        def eps(j: int) -> list[tuple[int, int]]:
            return [(j, det), *((i, -row[j]) for i, row in zip(basis, lam))]

        slack = [
            b * det - sum(beta[i] * lam[r][j] for r, i in enumerate(basis))
            for j, b in enumerate(beta)
        ]
        below = [
            j
            for j, s in enumerate(slack)
            if s < 0 or not s and j not in basis and _sign(0, eps(j)) < 0
        ]
        if below:
            raise ValueError(
                f"basis {basis} is not lexicographically feasible: "
                f"row {below[0]} lies below its vertex"
            )
        bases.append((basis, det, [j for j, s in enumerate(slack) if not s]))
        for r, i in enumerate(basis):
            j = _least_ratio(slack, lam[r], eps)
            if j < 0:
                unbounded.append((basis, i, forms[r]))
                continue
            nxt = tuple(sorted(basis[:r] + basis[r + 1 :] + (j,)))
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return bases, unbounded


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
        diffs = [vec_sub(p, self.origin) for p in pts[1:]]
        # the pivot columns of [d_1 ... d_k] are the d_i outside the span of
        # the earlier ones: the greedy basis
        self.basis: list[Vector] = [diffs[j] for j in _eliminate(zip(*diffs))[1]]
        self.dim = len(self.basis)
        self.ambient_dim = len(self.origin)

    def to_local(self, point: Sequence[Fraction]) -> Vector:
        """Coordinates of `point`, which must lie in the affine hull (ValueError if not)."""
        (row,), scale = self.grid([frac_vec(point)])
        if row is None:
            raise ValueError("point not in affine hull")
        return [Fraction(x, scale) for x in row]

    def grid(
        self, points: Sequence[Sequence[Fraction]]
    ) -> tuple[list[Optional[list[int]]], int]:
        """Chart coordinates of all `points` on one integer grid: (rows, scale).

        Row k is scale times the coordinates of points[k], scale being the
        least positive integer that makes every row integral, and None when
        points[k] is off the hull.  The points (int or Fraction entries)
        are scaled to integers by one common denominator and mapped by the
        cached :meth:`left_inverse` scaled to integers; when the hull is a
        proper flat, each row is checked to map back to its point exactly.
        """
        if not hasattr(self, "_int_forms"):
            L, s_l = _integer_matrix(self.left_inverse())
            B, s_b = _integer_matrix(self.basis)
            columns = [[b[j] for b in B] for j in range(self.ambient_dim)]
            self._int_forms = L, s_l, columns, s_l * s_b
        L, s_l, columns, s_lb = self._int_forms
        check = self.dim < self.ambient_dim
        den = math.lcm(*[x.denominator for p in (self.origin, *points) for x in p])
        origin = [x.numerator * (den // x.denominator) for x in self.origin]
        rows: list[Optional[list[int]]] = []
        for p in points:
            v = [x.numerator * (den // x.denominator) - o for x, o in zip(p, origin, strict=True)]
            y = [sum(map(operator.mul, row, v)) for row in L]
            if check and any(
                sum(map(operator.mul, col, y)) != s_lb * x for col, x in zip(columns, v)
            ):
                y = None
            rows.append(y)
        g = math.gcd(s_l * den, *[x for y in rows if y is not None for x in y])
        return [None if y is None else [x // g for x in y] for y in rows], s_l * den // g

    def left_inverse(self) -> list[Vector]:
        """Rows l_1..l_dim with l_i · basis_j = δ_ij.

        Gives an affine form of `to_local` valid on the hull:
        to_local(x)_i = l_i · (x − origin).  Row l_i solves B·l_i = e_i
        (B with the basis as rows) with every non-pivot entry 0, so one
        elimination of [B | I] gives them all: row r of the right block,
        over the last pivot, is entry ``pivots[r]`` of every l_i.
        """
        if not hasattr(self, "_left_inv"):
            d, n = self.dim, self.ambient_dim
            T, pivots, det, _ = _eliminate(
                list(b) + [ONE if j == i else ZERO for j in range(d)]
                for i, b in enumerate(self.basis)
            )
            if any(c >= n for c in pivots):  # a pivot in I: B has a dependent row
                raise ValueError("chart basis does not have full row rank")
            rows = [[ZERO] * n for _ in range(d)]
            for r, c in enumerate(pivots):
                for i in range(d):
                    rows[i][c] = Fraction(T[r][n + i], det)
            self._left_inv = rows
        return self._left_inv

    def to_ambient(self, local: Sequence[Fraction]) -> Vector:
        p = self.origin[:]
        for coef, vec in zip(local, self.basis, strict=True):
            p = vec_add(p, vec_scale(Fraction(coef), vec))
        return p
