"""Test oracles: reference computations that the program itself never runs.

Several test files cross-check the program against these: the rank, solve
and nullspace by Gauss–Jordan elimination in ``Fraction`` s, the payoff
summed over pure profiles in ``Fraction`` s, the grid brute force for
completeness, the H-representation of a Nash subset's factors
for membership, the regularity test, the indifference Jacobian and the
regular index in ``Fraction`` s, the reader of the mapping files
that ``duplicate`` and ``perturb`` write, the facet hyperplanes of a
simplex from one nullspace per facet, a polyhedral cell's facets by a
subset loop, hull membership by one LP, the vertex subset loop with
equality rows, the lexicographic bases by a subset loop that solves every
subset in ``Fraction`` s, the component index by concrete payoff perturbations,
the dominating mixture by the LP alone, iterated strict dominance on
``Fraction`` payoffs with the game restricted after each removal, the
index report and the realization check by enumerating
the whole game, the three-player enumerator that
solves every indifference system in ``Fraction`` s, the equilibrium
certificate that compares label sets of best replies, the hat game by its
own builder, and a bonused tilde game's best replies and improvement
margin summed factor by factor.  ``cell_points``
reads a subdivision's cells as point tuples, the form the geometry
oracles take; ``frac_mat`` and ``_integer_rows`` build the ``Fraction``
rows, and scale each to integers by its own lcm, as the enumerator and the
LP did before they took their callers' integer rows as given.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from equilib.equivalence import (
    AffineSurjection,
    TildeGame,
    _pair_label,
    _simplex_vertex_mixture,
)
from equilib.games import (
    Elimination,
    FiniteGame,
    GameError,
    Label,
    MixedStrategy,
    Profile,
    format_profile,
    is_equilibrium,
    payoff_all,
    payoff_vector,
)
from equilib.geometry import GeometryError, Triangulation
from equilib.indices import (
    IndexError_,
    IndexReport,
    game_index_report,
    index_regular,
)
from equilib.linalg import (
    ONE,
    ZERO,
    Chart,
    Matrix,
    Vector,
    _integer_row,
    determinant,
    dot,
    frac_vec,
    linf_distance,
    linprog,
    solve_unique,
    vec_sub,
)
from equilib.rational import parse_rational
from equilib.perturb import BonusVector, TildeProfile
from equilib.solver import EquilibriumSet, NashSubset, support_enumeration


def frac_mat(rows: Iterable[Iterable]) -> Matrix:
    """``rows`` as lists of ``Fraction`` s."""
    return [frac_vec(r) for r in rows]


def _integer_rows(
    A: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> list[tuple[list[int], int]]:
    """Each row (a, beta) of the system a·x <= beta (or =) scaled to integers.

    Row k is scaled by the lcm of its own denominators.  For a point
    ``x = num / den`` (``_integer_row(x)``), ``a·x - beta`` then has the
    sign of ``a·num - beta * den``, so x is tested against the rows in
    integers.
    """
    rows = [_integer_row([*row, beta])[0] for row, beta in zip(A, b, strict=True)]
    return [(row[:-1], row[-1]) for row in rows]


# -- Fraction Gauss–Jordan elimination --------------------------------------
#
# The rank, solve and nullspace the program ran on Fraction rows before it
# read them from integer tables.  The reduced row echelon form is unique, so
# each answer (free variables 0, nullspace vectors by free column) is a
# fixed reference.


def reference_rref(M: Matrix) -> list[int]:
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


def reference_matrix_rank(A: Sequence[Sequence[Fraction]]) -> int:
    if not A:
        return 0
    M = [list(map(Fraction, row)) for row in A]
    return len(reference_rref(M))


def reference_solve_linear(
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
    pivots = reference_rref(M)
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


def reference_nullspace(A: Sequence[Sequence[Fraction]]) -> list[Vector]:
    """Basis of the kernel of A (columns without pivots parametrize it)."""
    rows = len(A)
    if rows == 0:
        return []
    cols = len(A[0])
    M = [list(map(Fraction, row)) for row in A]
    pivots = reference_rref(M)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ZERO] * cols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -M[r][fc]
        basis.append(v)
    return basis


def pure_profile_payoff(game: FiniteGame, profile: Profile, player: int) -> Fraction:
    """Multilinear expected payoff of ``player``, one ``Fraction`` term per pure profile.

    Reference for the integer kernel behind ``games.payoff_vector``: it
    walks the whole support product of ``profile``, own player included.
    """
    game.check_profile(profile)
    total = ZERO
    for pure in itertools.product(*(sigma.support() for sigma in profile)):
        prob = ONE
        for sigma, s in zip(profile, pure):
            prob *= sigma.weight(s)
        total += prob * game.payoffs[pure][player]
    return total


def compositions(total: int, parts: int):
    """Every tuple of ``parts`` nonnegative integers summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def brute_force_equilibria(game: FiniteGame, grid_denominator: int) -> list[Profile]:
    """All equilibria on the grid of weights with the given denominator.

    Completeness oracle for cross-validation; small games only.
    """
    if game.num_players > 3 or any(len(s) > 5 for s in game.strategies):
        raise GameError("brute_force_equilibria is limited to <=3 players, <=5 strategies")
    q = int(grid_denominator)
    if q < 1:
        raise GameError("grid denominator must be >= 1")

    def grids(labels: Sequence[Label]):
        for comp in compositions(q, len(labels)):
            yield MixedStrategy.of({s: Fraction(c, q) for s, c in zip(labels, comp) if c})

    return [
        profile
        for profile in itertools.product(*(list(grids(s)) for s in game.strategies))
        if is_equilibrium(game, profile)
    ]


def factor_constraints(
    game: FiniteGame, player: int, own_support: Sequence[Label], opp_support: Sequence[Label]
):
    """H-rep over the weights of `player`'s strategies in own_support.

    Encodes: weights form a distribution, and every strategy in
    `opp_support` is a best reply of the opponent against them.
    """
    opp = 1 - player

    def u_opp(own_s: Label, opp_s: Label) -> Fraction:
        key = (own_s, opp_s) if player == 0 else (opp_s, own_s)
        return game.payoffs[key][opp]

    n = len(own_support)
    A_ub = [[-ONE if j == i else ZERO for j in range(n)] for i in range(n)]
    b_ub = [ZERO] * n
    A_eq = [[ONE] * n]
    b_eq = [ONE]
    ref = opp_support[0]
    for j in game.strategies[opp]:
        row = [u_opp(s, j) - u_opp(s, ref) for s in own_support]
        if j in opp_support and j != ref:
            A_eq.append(row)
            b_eq.append(ZERO)
        elif j not in opp_support:
            A_ub.append(row)
            b_ub.append(ZERO)
    return A_ub, b_ub, A_eq, b_eq


def satisfies_factor(
    game: FiniteGame,
    player: int,
    strategy: MixedStrategy,
    own_support: Sequence[Label],
    opp_support: Sequence[Label],
) -> bool:
    """Whether ``strategy`` lies in the factor polytope ``factor_constraints`` describes."""
    if not set(strategy.support()) <= set(own_support):
        return False
    A_ub, b_ub, A_eq, b_eq = factor_constraints(game, player, own_support, opp_support)
    x = strategy.as_vector(list(own_support))
    return all(dot(r, x) <= b for r, b in zip(A_ub, b_ub)) and all(
        dot(r, x) == b for r, b in zip(A_eq, b_eq)
    )


def subset_contains(game: FiniteGame, subset: NashSubset, profile: Profile) -> bool:
    """Whether the 2-player ``profile`` lies in the Nash subset ``subset``."""
    return all(
        satisfies_factor(game, n, profile[n], subset.supports[n], subset.supports[1 - n])
        for n in range(2)
    )


def reference_indifference_jacobian(game: FiniteGame, supports: Sequence[Sequence[Label]]):
    """The indifference Jacobian on the supports (I, J), in ``Fraction`` s.

    Variables: weights of player 1 on I, weights of player 2 on J, and the
    two equilibrium payoffs v1, v2.  Equations: each supported strategy
    earns the owner's payoff, and each weight vector sums to one.  Its
    determinant's sign is the index that ``index_regular`` and
    ``component_index`` read from the integer payoff tables.
    """
    I, J = supports
    k1, k2 = len(I), len(J)
    size = k1 + k2 + 2
    M: Matrix = [[ZERO] * size for _ in range(size)]
    for a, i in enumerate(I):  # player 1 indifference over i in I
        for b, j in enumerate(J):
            M[a][k1 + b] = game.payoffs[(i, j)][0]
        M[a][k1 + k2] = -ONE
    for b, j in enumerate(J):  # player 2 indifference over j in J
        for a, i in enumerate(I):
            M[k1 + b][a] = game.payoffs[(i, j)][1]
        M[k1 + b][k1 + k2 + 1] = -ONE
    for a in range(k1):
        M[k1 + k2][a] = ONE
    for b in range(k2):
        M[k1 + k2 + 1][k1 + b] = ONE
    return M


def reference_index_regular(game: FiniteGame, eq: Profile) -> int:
    """``index_regular`` as it was: ``Fraction`` payoffs and the Jacobian's determinant.

    Raises ``IndexError_`` with the program's texts unless ``eq`` is a
    regular equilibrium of the 2-player ``game``.
    """
    if game.num_players != 2:
        raise IndexError_("index_regular handles exactly 2 players")
    I, J = eq[0].support(), eq[1].support()
    if len(I) != len(J):
        raise IndexError_(
            "unequal support sizes: equilibrium is not regular; use component_index"
        )
    for n, sup in ((0, I), (1, J)):
        values = dict(zip(game.strategies[n], payoff_vector(game, eq, n)))
        v = sum((w * values[s] for s, w in eq[n].weights), ZERO)
        for s, dev in values.items():
            if s in sup:
                if dev != v:
                    raise IndexError_(f"profile is not an equilibrium at {s}")
            elif dev >= v:
                raise IndexError_(
                    f"off-support strategy {s} is not strictly inferior; use component_index"
                )
    d = determinant(reference_indifference_jacobian(game, (I, J)))
    if d == 0:
        raise IndexError_("singular indifference Jacobian; use component_index")
    return 1 if d > 0 else -1


def is_regular(game: FiniteGame, eq: Profile) -> bool:
    """Whether ``eq`` is a regular equilibrium, so ``index_regular`` applies."""
    try:
        index_regular(game, eq)
        return True
    except IndexError_:
        return False


def mapping_from_json(data: dict) -> list[AffineSurjection]:
    """The per-player maps of a mapping file's JSON, as ``mapping_to_json`` writes it."""
    try:
        return [
            AffineSurjection(
                tuple(entry["source"]),
                tuple(entry["target"]),
                {
                    s: MixedStrategy.of({t: parse_rational(w) for t, w in cols.items()})
                    for s, cols in entry["columns"].items()
                },
                {
                    t: MixedStrategy.of({s: parse_rational(w) for s, w in pres.items()})
                    for t, pres in entry["preimages"].items()
                },
            )
            for entry in data["players"]
        ]
    except (KeyError, TypeError) as exc:
        raise GameError(f"malformed mapping file: {exc}") from exc


def load_mapping(path) -> list[AffineSurjection]:
    with open(path, encoding="utf-8") as fh:
        return mapping_from_json(json.load(fh))


def cell_points(pc) -> list[tuple[tuple[Fraction, ...], ...]]:
    """Each maximal cell of a triangulation or complex as the tuple of its vertex points."""
    return [tuple(pc.vertices[i] for i in c) for c in pc.maximal]


def barycenter(points: Sequence[Sequence[Fraction]]) -> tuple[Fraction, ...]:
    """The average of ``points``."""
    return tuple(sum(coords, ZERO) / len(points) for coords in zip(*points))


def _primitive(a: Sequence[Fraction], b: Fraction) -> tuple[tuple[Fraction, ...], Fraction]:
    """Canonical integer-primitive form of the hyperplane a·x = b (sign-fixed)."""
    coefs = [Fraction(x) for x in a] + [Fraction(b)]
    denom = 1
    for c in coefs:
        denom = denom * c.denominator // math.gcd(denom, c.denominator)
    ints = [int(c * denom) for c in coefs]
    g = 0
    for v in ints:
        g = math.gcd(g, abs(v))
    if g:
        ints = [v // g for v in ints]
    lead = next((v for v in ints[:-1] if v != 0), 0)
    if lead < 0:
        ints = [-v for v in ints]
    return tuple(Fraction(v) for v in ints[:-1]), Fraction(ints[-1])


def hyperplane_through(chart_points: Sequence[Sequence[Fraction]], dim: int):
    """Hyperplane (a, b) in chart coordinates through the given local points.

    The points must affinely span a (dim-1)-flat.
    """
    p0 = frac_vec(chart_points[0])
    diffs = [vec_sub(frac_vec(p), p0) for p in chart_points[1:]]
    normals = reference_nullspace(diffs) if diffs else [
        [ONE if j == i else ZERO for j in range(dim)] for i in range(dim)
    ]
    # rank = width - nullity; the kernel is then a line within the chart
    if len(p0) - len(normals) != dim - 1:
        raise GeometryError("points do not span a hyperplane")
    a = normals[0]
    return _primitive(a, dot(a, p0))


def simplex_facet_halfspaces(
    chart_verts: Sequence[Sequence[Fraction]], dim: int
) -> list[tuple[tuple[Fraction, ...], Fraction]]:
    """H-representation (chart coordinates) of a full-dimensional simplex."""
    out = []
    for i in range(len(chart_verts)):
        rest = [v for j, v in enumerate(chart_verts) if j != i]
        a, b = hyperplane_through(rest, dim)
        if dot(a, frac_vec(chart_verts[i])) > b:
            a, b = tuple(-x for x in a), -b
        out.append((a, b))
    return out


def cell_halfspaces(
    vertices: Sequence[Sequence[Fraction]], chart: Chart
) -> list[tuple[tuple[Fraction, ...], Fraction]]:
    """The facets of conv(vertices) as halfspaces a·x <= b in ``chart`` coordinates.

    Brute force over the d-subsets of the vertices' chart coordinates: a
    subset that spans a hyperplane (:func:`hyperplane_through`) with every
    vertex on one closed side gives a facet, kept once.  Raises ValueError
    for a vertex off the chart's affine hull.
    """
    local = [chart.to_local(v) for v in vertices]
    out = []
    for subset in itertools.combinations(local, chart.dim):
        try:
            a, b = hyperplane_through(subset, chart.dim)
        except GeometryError:
            continue
        values = [dot(a, x) - b for x in local]
        if all(v >= 0 for v in values):
            a, b = tuple(-x for x in a), -b
        elif any(v > 0 for v in values):
            continue
        if (a, b) not in out:
            out.append((a, b))
    return out


def lift_functional(chart: Chart, a_local: Sequence[Fraction], b_local: Fraction):
    """Ambient (a, b) with a·x − b = a_local·to_local(x) − b_local on the chart's hull."""
    L = chart.left_inverse()
    a_amb = [ZERO] * chart.ambient_dim
    for coef, row in zip(a_local, L, strict=True):
        for j in range(chart.ambient_dim):
            a_amb[j] += Fraction(coef) * row[j]
    b_amb = Fraction(b_local) + dot(a_amb, chart.origin)
    return a_amb, b_amb


def in_convex_hull(points: Sequence[Sequence[Fraction]], x: Sequence) -> bool:
    """Exact LP membership test: x in conv(points)."""
    if not points:
        return False
    A_eq = [[p[i] for p in points] for i in range(len(x))]
    A_eq.append([ONE] * len(points))
    res = linprog([ZERO] * len(points), A_eq=A_eq, b_eq=list(x) + [ONE])
    return res.status == "optimal"


def subset_vertex_enumeration(
    A_ub: Sequence[Sequence],
    b_ub: Sequence,
    A_eq: Optional[Sequence[Sequence]] = None,
    b_eq: Optional[Sequence] = None,
) -> list[Vector]:
    """All vertices of {x : A_ub x <= b_ub, A_eq x = b_eq}, exact and deduplicated.

    Brute force over active-constraint subsets; intended for the small
    systems this package works with (dimension <= ~6, few dozen rows).
    Each subset's unique solution x is tested against the inequality rows,
    scaled to integers once per polytope, in integer arithmetic: with
    ``x = num / den`` on its least common denominator, a row (a, beta)
    holds when ``a·num <= beta * den``.
    """
    A_ub = frac_mat(A_ub)
    b_ub = frac_vec(b_ub)
    A_eq = frac_mat(A_eq or [])
    b_eq = frac_vec(b_eq or [])
    if not A_ub and not A_eq:
        return []
    dim = len(A_ub[0]) if A_ub else len(A_eq[0])
    base_rank = reference_matrix_rank(A_eq) if A_eq else 0
    need = dim - base_rank
    if need < 0:
        return []
    rows = _integer_rows(A_ub, b_ub)
    vertices: list[Vector] = []
    seen: set[tuple[int, ...]] = set()
    for combo in itertools.combinations(range(len(A_ub)), need):
        A = A_eq + [A_ub[i] for i in combo]
        b = b_eq + [b_ub[i] for i in combo]
        x = solve_unique(A, b)
        if x is None:
            continue
        num, den = _integer_row(x)
        if all(sum(map(operator.mul, a, num)) <= beta * den for a, beta in rows):
            key = (den, *num)
            if key not in seen:
                seen.add(key)
                vertices.append(x)
    return vertices


def _lex_positive(A_S: Matrix, basis: Sequence[int], k: int, a_k: Vector) -> bool:
    """Whether row k, outside the nonsingular ``basis`` with rows ``A_S``, keeps a
    positive slack under the right-hand sides beta_j + ε^(j+1) at the basis's
    vertex, where it is tight: with a_k = Σ_r λ_r a_r that slack is
    ε^(k+1) − Σ_r λ_r ε^(r+1), and its lowest nonzero power decides."""
    lam = reference_solve_linear([list(col) for col in zip(*A_S)], a_k)
    return min([(k, ONE), *((r, -c) for r, c in zip(basis, lam) if c)])[1] > 0


def subset_lex_bases(
    A_ub: Sequence[Sequence], b_ub: Sequence
) -> tuple[list[tuple[Vector, list[tuple[int, ...]]]], int]:
    """Every vertex of {x : A_ub x <= b_ub} with its lexicographic bases, and a count.

    The subset loop that solves every d-subset S of the rows, d the
    dimension, in ``Fraction`` s: a nonsingular S whose solution x meets
    every row is a basis of x when every row outside S that is tight at x
    passes :func:`_lex_positive`.  Vertices come in the order of the first
    subset that finds them, bases in subset order.  The count is of the
    subsets that lie inside no earlier vertex's tight rows: those a loop
    that skips the subsets of known vertices' tight rows has to solve.
    """
    A_ub = frac_mat(A_ub)
    b_ub = frac_vec(b_ub)
    dim = len(A_ub[0])
    found: dict[tuple[Fraction, ...], tuple[Vector, list[tuple[int, ...]]]] = {}
    known: list[set[int]] = []
    fresh = 0
    for combo in itertools.combinations(range(len(A_ub)), dim):
        fresh += not any(set(combo) <= tight for tight in known)
        A_S = [A_ub[k] for k in combo]
        if reference_matrix_rank(A_S) < dim:
            continue
        x = reference_solve_linear(A_S, [b_ub[k] for k in combo])
        if any(dot(a, x) > beta for a, beta in zip(A_ub, b_ub)):
            continue
        tight = [k for k, (a, beta) in enumerate(zip(A_ub, b_ub)) if dot(a, x) == beta]
        if tuple(x) not in found:
            found[tuple(x)] = (x, [])
            known.append(set(tight))
        if all(_lex_positive(A_S, combo, k, A_ub[k]) for k in tight if k not in combo):
            found[tuple(x)][1].append(combo)
    return list(found.values()), fresh


def component_distance(
    game: FiniteGame, profile: Profile, component: Sequence[NashSubset]
) -> Fraction:
    """Least ell-infinity distance from ``profile`` to a Nash subset of ``component``.

    A Nash subset is the product of its factors' convex hulls, so its
    distance is the largest over the players of the distance to a factor.
    """
    return min(
        max(
            linf_distance(
                profile[n].as_vector(labels), [v.as_vector(labels) for v in s.factors[n]]
            )
            for n, labels in enumerate(game.strategies)
        )
        for s in component
    )


def _perturbation_bonuses(game: FiniteGame, trial: int, magnitude: Fraction):
    """Deterministic per-own-strategy rational bonuses for one trial."""
    bonuses = {}
    state = 2 * trial + 1
    for n in range(game.num_players):
        for s in game.strategies[n]:
            state = (state * 1103515245 + 12345) % 2147483648
            bonuses[(n, s)] = magnitude * Fraction((state % 97) + 1, 97)
    return bonuses


def perturb_payoffs(game: FiniteGame, trial: int, magnitude: Fraction) -> FiniteGame:
    bonuses = _perturbation_bonuses(game, trial, magnitude)
    pay = {
        prof: tuple(
            game.payoffs[prof][n] + bonuses[(n, prof[n])]
            for n in range(game.num_players)
        )
        for prof in game.pure_profiles()
    }
    return FiniteGame.of(game.players, game.strategies, pay)


_PERTURBATION_TRIALS = 3
_PERTURBATION_MAGNITUDE = Fraction(1, 1000)


def trial_component_index(es: EquilibriumSet, component: Sequence[NashSubset]) -> int:
    """Sum of perturbed-equilibrium indices near a component of ``es.game``.

    ``es`` is the game's full equilibrium set, as ``support_enumeration``
    returns it; the component is isolated from the rest of it.  Runs
    ``_PERTURBATION_TRIALS`` deterministic payoff perturbations of magnitude
    ``_PERTURBATION_MAGNITUDE``; each must yield only regular equilibria
    near the component, none in the boundary shell, and all trials must
    agree.
    """
    game = es.game
    if game.num_players != 2:
        raise IndexError_("component_index handles exactly 2 players")
    # isolating radius: half the distance to the rest of the equilibrium set
    others = [s for s in es.all_subsets() if s not in component]
    delta = Fraction(1, 8)
    for s in others:
        for p in s.vertex_profiles():
            delta = min(delta, component_distance(game, p, component) / 4)
    if delta <= 0:
        raise IndexError_("component is not isolated from the rest of the equilibria")
    results = []
    for trial in range(_PERTURBATION_TRIALS):
        perturbed = perturb_payoffs(game, trial, _PERTURBATION_MAGNITUDE)
        pes = support_enumeration(perturbed)
        if pes.subsets:
            raise IndexError_(
                f"perturbation trial {trial} (magnitude {_PERTURBATION_MAGNITUDE}) "
                "left a degenerate equilibrium set"
            )
        total = 0
        for eq in pes.isolated:
            dist = component_distance(game, eq, component)
            if dist <= delta:
                total += index_regular(perturbed, eq)
            elif dist <= 2 * delta:
                raise IndexError_(
                    f"perturbation trial {trial} (magnitude {_PERTURBATION_MAGNITUDE}): "
                    f"equilibrium {' ; '.join(map(str, eq))} lies at distance {dist} "
                    f"from the component, beyond the isolating radius {delta} but within twice it"
                )
        results.append(total)
    if len(set(results)) != 1:
        raise IndexError_(f"perturbation trials disagree: {results}")
    return results[0]


def reference_dominating_mixture(
    game: FiniteGame, player: int, strategy: Label
) -> Optional[MixedStrategy]:
    """``games._dominating_mixture`` as it was: the LP alone, no pure dominator tried first.

    Mixture over the player's other strategies strictly dominating
    `strategy`.  Exact LP: maximize the worst-case margin; a strictly
    positive optimum yields a witness mixture.
    """
    others = [s for s in game.strategies[player] if s != strategy]
    if not others:
        return None
    opp_profiles = list(
        itertools.product(*(self_s for n, self_s in enumerate(game.strategies) if n != player))
    )

    def u(own: Label, opp: tuple[Label, ...]) -> Fraction:
        pure = list(opp)
        pure.insert(player, own)
        return game.payoffs[tuple(pure)][player]

    # Variables: y_r (r in others), delta.  Maximize delta subject to
    # sum_r y_r u(r, p) - delta >= u(strategy, p) for all opponent profiles p.
    c = [ZERO] * len(others) + [ONE]
    A_ub = [[-u(r, p) for r in others] + [ONE] for p in opp_profiles]
    b_ub = [-u(strategy, p) for p in opp_profiles]
    A_eq = [[ONE] * len(others) + [ZERO]]
    b_eq = [ONE]
    # Bound delta so the LP stays bounded.
    spread = max(abs(v) for vs in game.payoffs.values() for v in vs) * 2 + 1
    A_ub.append([ZERO] * len(others) + [ONE])
    b_ub.append(spread)
    res = linprog(c, A_ub, b_ub, A_eq, b_eq, maximize=True)
    if res.status != "optimal" or res.value is None or res.value <= 0:
        return None
    y = res.x[: len(others)]
    return MixedStrategy.of({r: w for r, w in zip(others, y) if w > 0})


def _reference_pure_dominator(game: FiniteGame, player: int, strategy: Label) -> Optional[MixedStrategy]:
    """The first other pure strategy that beats `strategy` against every pure profile of the others."""
    def u(own: Label, opp: tuple[Label, ...]) -> Fraction:
        pure = list(opp)
        pure.insert(player, own)
        return game.payoffs[tuple(pure)][player]

    opp_profiles = list(
        itertools.product(*(s for n, s in enumerate(game.strategies) if n != player))
    )
    for r in game.strategies[player]:
        if r != strategy and all(u(r, p) > u(strategy, p) for p in opp_profiles):
            return MixedStrategy.pure(r)
    return None


def reference_eliminate_strictly_dominated(game: FiniteGame):
    """Iterated strict dominance on ``Fraction`` payoffs, the game restricted after each removal.

    Each round scans the players in order and their strategies in game
    order, asks about every strategy of a player with two or more (no
    best-reply screen): the first other pure strategy that beats it
    against every pure profile of the others (compared in ``Fraction`` s)
    is its witness, and only when there is none
    :func:`reference_dominating_mixture`'s LP on the ``Fraction`` payoffs
    of the restricted game.  The first strategy with a witness is removed
    and the game restricted.  Returns the reduced game and the trace.
    """
    current = game
    trace: list[Elimination] = []
    changed = True
    while changed:
        changed = False
        for player in range(current.num_players):
            if len(current.strategies[player]) <= 1:
                continue
            for s in current.strategies[player]:
                witness = _reference_pure_dominator(current, player, s)
                if witness is None:
                    witness = reference_dominating_mixture(current, player, s)
                if witness is not None:
                    trace.append(Elimination(player, s, witness))
                    keep = [list(strats) for strats in current.strategies]
                    keep[player] = [t for t in keep[player] if t != s]
                    current = current.restrict(keep)
                    changed = True
                    break
            if changed:
                break
    return current, trace


def reference_index_report(game: FiniteGame) -> IndexReport:
    """The index report as ``index`` made it: on the whole game's enumeration."""
    return game_index_report(support_enumeration(game))


def reference_verify_realization(game: FiniteGame, phis, want):
    """``indices.verify_realization`` as it was: enumerate the whole game."""
    es = support_enumeration(game)
    failures = []
    if es.subsets:
        failures.append("perturbed game has a degenerate equilibrium set")
    found = []
    for eq in es.isolated:
        try:
            idx = index_regular(game, eq)
        except IndexError_ as exc:
            failures.append(f"index computation failed at {format_profile(eq)}: {exc}")
            continue
        found.append((eq, tuple(phi.apply(s) for phi, s in zip(phis, eq, strict=True)), idx))
    got, targets = (
        sorted((tuple(s.weights for s in proj), idx, format_profile(proj)) for proj, idx in pairs)
        for pairs in (((proj, idx) for _, proj, idx in found), want)
    )
    if got != targets:
        got_text, target_text = (
            "[" + ", ".join(f"{text} ({idx:+d})" for _, idx, text in signed) + "]"
            for signed in (got, targets)
        )
        failures.append(f"equilibria {got_text} do not match targets {target_text}")
    return found, failures


def _reference_indifference(game: FiniteGame, player: int, supports) -> tuple[int, ...]:
    """Integers (a, b, c, d) with s (U(first) - U(second)) = a + b p_u + c p_v + d p_u p_v.

    U is `player`'s payoff from its two supported strategies, u < v are the
    other players, p_u the weight of u's first supported strategy and s > 0
    the scale of `player`'s integer payoff table, which moves no root.  By
    inclusion-exclusion from the payoff differences at the 0/1 corners.
    """
    u, v = (m for m in range(3) if m != player)
    table = game.integer_payoffs[player][0]
    first, second = (game.offsets[player][s] for s in supports[player])

    def diff(wu: int, wv: int) -> int:
        o = game.offsets[u][supports[u][wu - 1]] + game.offsets[v][supports[v][wv - 1]]
        return table[o + first] - table[o + second]

    f00, f10, f01, f11 = (diff(*w) for w in ((0, 0), (1, 0), (0, 1), (1, 1)))
    return f00, f10 - f00, f01 - f00, f11 - f10 - f01 + f00


def _reference_lin(p, q) -> list:
    """Solutions of p t + q = 0: [root], [None] when every t solves it, or [].

    p and q are integers or Fractions; the root is always a Fraction.
    """
    return [Fraction(-q) / p] if p else [] if q else [None]


def _reference_fibre(ly, lz, e) -> list:
    """Solutions (y, z) of ly[0] y + ly[1] = 0, lz[0] z + lz[1] = 0 and e(y, z) = 0.

    e = (a, b, c, d) stands for a + b y + c z + d y z; None marks a free coordinate.
    """
    a, b, c, d = e
    out = []
    for y, z in itertools.product(_reference_lin(*ly), _reference_lin(*lz)):
        if y is not None and z is not None:
            out += [(y, z)] if a + b * y + c * z + d * y * z == 0 else []
        elif y is not None:
            out += [(y, t) for t in _reference_lin(c + d * y, a + b * y)]
        elif z is not None:
            out += [(t, z) for t in _reference_lin(b + d * z, a + c * z)]
        elif b or c or d or not a:
            out.append((None, None))
    return out


def _reference_bilinear_system(e0, e1, e2) -> tuple[list, int]:
    """Complex solutions (x, y, z) of e0(y, z) = e1(x, z) = e2(x, y) = 0.

    e = (a, b, c, d) stands for a + b u + c v + d u v over its two variables.
    For fixed x, e1 is P1 z + Q1 = 0 and e2 is P2 y + Q2 = 0 with P, Q linear
    in x; where P1 P2 != 0, solutions lie over the roots of the quadratic
    R = P1 P2 e0(-Q2/P2, -Q1/P1).  All fibres over x off the roots of R and
    of the linear polynomials below look alike, so one such sample tells a
    curve (returned with x free, None) from finitely many solutions.  Returns
    the rational solutions and the number of irrational or complex ones.
    """
    a0, b0, c0, d0 = e0
    a1, b1, c1, d1 = e1
    a2, b2, c2, d2 = e2
    P1, Q1, P2, Q2 = (c1, d1), (a1, b1), (c2, d2), (a2, b2)  # (constant, slope)
    A = (a0 * c2 - b0 * a2, a0 * d2 - b0 * b2)  # P2 (a0 + b0 y)
    C = (c0 * c2 - d0 * a2, c0 * d2 - d0 * b2)  # P2 (c0 + d0 y)
    A1 = (a0 * c1 - c0 * a1, a0 * d1 - c0 * b1)  # P1 (a0 + c0 z)
    B1 = (b0 * c1 - d0 * a1, b0 * d1 - d0 * b1)  # P1 (b0 + d0 z)
    r0 = c1 * A[0] - a1 * C[0]  # R = P1 A - Q1 C
    r1 = c1 * A[1] + d1 * A[0] - a1 * C[1] - b1 * C[0]
    r2 = d1 * A[1] - b1 * C[1]
    xs = {t for q, s in (P1, Q1, P2, Q2, A, C, A1, B1) for t in _reference_lin(s, q)}
    disc = r1 * r1 - 4 * r0 * r2
    root = Fraction(math.isqrt(abs(disc.numerator)), math.isqrt(disc.denominator))
    irrational = 0
    if not r2:
        xs.update(_reference_lin(r1, r0))
    elif disc >= 0 and root * root == disc:  # exact: disc is in lowest terms
        xs |= {(s * root - r1) / (2 * r2) for s in (1, -1)}
    else:
        irrational = 2
    xs.discard(None)

    def fibre(x: Fraction) -> list:
        return _reference_fibre((c2 + d2 * x, a2 + b2 * x), (c1 + d1 * x, a1 + b1 * x), e0)

    if fibre(max(xs, default=ZERO) + 1):
        return [(None, y, z) for y, z in fibre(Fraction(1, 2))] or [(None, None, None)], 0
    return [(x, y, z) for x in sorted(xs) for y, z in fibre(x)], irrational


def _reference_integer_weights(sigma: MixedStrategy) -> tuple[list[tuple[Label, int]], int]:
    """The nonzero weights as integer numerators over the lcm of their denominators."""
    den = math.lcm(*[w.denominator for _, w in sigma.weights])
    return [(s, w.numerator * (den // w.denominator)) for s, w in sigma.weights if w], den


def reference_is_equilibrium(game: FiniteGame, profile: Profile) -> bool:
    """``games.is_equilibrium`` as it was: each support a subset of the best-reply set.

    Per player, every pure strategy's payoff is summed on the integer payoff
    tables over the others' support product, the maximal ones form a label
    set, and the support must lie in it.  The integer weights are recomputed
    from the ``Fraction`` s, not read from :attr:`MixedStrategy.integer_weights`.
    """
    game.check_profile(profile)
    for n, sigma in enumerate(profile):
        table, _ = game.integer_payoffs[n]
        terms = [(0, 1)]
        for m, other in enumerate(profile):
            if m != n:
                pos = game.offsets[m]
                nums, _ = _reference_integer_weights(other)
                terms = [(o + pos[s], w * k) for o, w in terms for s, k in nums]
        sums = [sum(w * table[o + i] for o, w in terms) for i in game.offsets[n].values()]
        replies = {s for s, v in zip(game.strategies[n], sums) if v == max(sums)}
        if not set(sigma.support()) <= replies:
            return False
    return True


def reference_three_player_enumeration(game: FiniteGame) -> EquilibriumSet:
    """``solver.three_player_support_enumeration`` as it was: every root a ``Fraction``.

    Partial enumeration for 3-player games: supports of size <= 2.

    Solves each indifference system exactly (a constant, two decoupled linear
    equations, or `_bilinear_system`), keeping rational roots in (0, 1).
    The systems' coefficients are read from the game's integer payoff
    tables (:attr:`FiniteGame.integer_payoffs`), whose positive per-player
    scales leave every root unchanged; weights are always ``Fraction`` s.
    Each candidate is certified by :func:`reference_is_equilibrium`, which
    reads the same tables.
    Continua, discarded roots and supports of size >= 3 are reported in
    ``notes`` and flagged via ``exhaustive=False``.
    """
    if game.num_players != 3:
        raise GameError("three_player_support_enumeration handles exactly 3 players")
    notes: list[str] = []
    if not all(len(s) <= 2 for s in game.strategies):
        notes.append("supports of size >= 3 were not searched")
    found: list[Profile] = []

    def emit(weights: dict[int, Fraction], supports) -> None:
        profile = tuple(
            MixedStrategy.of({sup[0]: weights[n], sup[1]: 1 - weights[n]})
            if len(sup) == 2 else MixedStrategy.pure(sup[0])
            for n, sup in enumerate(supports)
        )
        if reference_is_equilibrium(game, profile) and profile not in found:
            found.append(profile)

    supports_per_player = [
        [c for k in (1, 2) for c in itertools.combinations(s, k) if k <= len(s)]
        for s in game.strategies
    ]
    for supports in itertools.product(*supports_per_player):
        var_players = [n for n in range(3) if len(supports[n]) == 2]
        polys = [_reference_indifference(game, n, supports) for n in var_players]
        if not any(c for e in polys for c in e):
            if var_players:
                notes.append(f"degenerate continuum at supports {supports}")
            emit(dict.fromkeys(var_players, Fraction(1, 2)), supports)
            continue
        sols, irrational = [], 0
        if len(polys) == 2:  # e_n is linear in p_m alone and e_m in p_n alone
            lm, ln = ((e[1] + e[2], e[0]) for e in polys)
            sols = _reference_fibre(ln, lm, (ZERO,) * 4)
        elif len(polys) == 3:
            sols, irrational = _reference_bilinear_system(*polys)
        discarded = f"irrational solutions at supports {supports} were discarded"
        notes += [discarded] * irrational
        for sol in sols:
            values, free = {}, False
            for n, w in zip(var_players, sol):  # stops at the first weight outside (0, 1)
                free |= w is None
                values[n] = Fraction(1, 2) if w is None else w
                if not 0 < values[n] < 1:
                    break
            else:
                emit(values, supports)
            if free:
                notes.append(f"positive-dimensional solutions at supports {supports}")
            elif not 0 < values[n] < 1:
                notes.append(discarded)
    return EquilibriumSet(game, found, [], exhaustive=not notes, notes=notes)


# -- Hat games and bonused games by their own rules -------------------------

# The hat game had its own builder, a copy of the tilde game's one level up,
# and a bonused game's best replies and margin were summed factor by factor
# on the base payoffs; the program now builds the hat game as the tilde game
# of the vertex game and judges a bonused game by ``oplus`` and the games
# kernel.  Hat labels here read H<n>v<i> where the program's read T<n>v<i>.


@dataclass(frozen=True)
class ReferenceHatGame:
    """Finite game over pairs of refinement vertices, equivalent to a tilde game."""

    tilde: TildeGame
    refinements: tuple[Triangulation, ...]
    first_labels: tuple[tuple[Label, ...], ...]
    # each first-coordinate strategy projects to a mixture over tilde S0 labels
    hat_mixtures: tuple[Mapping[Label, MixedStrategy], ...]
    finite_game: FiniteGame

    def second_labels(self, player: int) -> tuple[Label, ...]:
        return self.first_labels[(player + 1) % len(self.first_labels)]


def reference_build_hat_game(
    tg: TildeGame, refinements: Sequence[Triangulation]
) -> ReferenceHatGame:
    """``equivalence.build_hat_game`` as it was: its own builder one level above the tilde game.

    Finite game whose pure strategies are refinement-vertex pairs.

    Each player's refinement triangulates Delta(S0) for that player; payoffs
    are the tilde payoffs of the projected first coordinates (second
    coordinates stay payoff-irrelevant).
    """
    N = len(tg.first_labels)
    if len(refinements) != N:
        raise GameError("one refinement per player required")
    first_labels: list[tuple[Label, ...]] = []
    hat_mixtures: list[dict[Label, MixedStrategy]] = []
    for n, tri in enumerate(refinements):
        m = len(tg.first_labels[n])
        corners = sorted(
            tuple(ONE if i == j else ZERO for i in range(m)) for j in range(m)
        )
        if sorted(tuple(Fraction(c) for c in p) for p in tri.polytope) != corners:
            raise GameError(
                f"refinement for player {n} does not cover Delta(S0)"
            )
        labels = tuple(f"H{n}v{i}" for i in range(len(tri.vertices)))
        mixtures = {
            lab: _simplex_vertex_mixture(v, tg.first_labels[n])
            for lab, v in zip(labels, tri.vertices)
        }
        first_labels.append(labels)
        hat_mixtures.append(mixtures)
    strategies = []
    for n in range(N):
        seconds = first_labels[(n + 1) % N]
        strategies.append(
            [_pair_label(a, b) for a in first_labels[n] for b in seconds]
        )
    payoffs = {}
    for prof in itertools.product(*strategies):
        base_profile = []
        for n, lab in enumerate(prof):
            a = lab.split("&")[0]
            base_profile.append(tg.phi0[n].apply(hat_mixtures[n][a]))
        payoffs[prof] = payoff_all(tg.base, tuple(base_profile))
    fg = FiniteGame.of(tg.base.players, strategies, payoffs)
    return ReferenceHatGame(
        tg, tuple(refinements), tuple(first_labels), tuple(hat_mixtures), fg
    )


def reference_oplus_best_replies(
    tg: TildeGame,
    g0: BonusVector,
    g1: BonusVector,
    profile: TildeProfile,
    player: int,
) -> tuple[set[Label], set[Label], Fraction]:
    """``perturb.oplus_best_replies`` as it was: the bonused game judged factor by factor.

    Per-factor best replies of the bonused game, and the improvement margin.

    Payoffs separate across factors: the base payoff depends only on first
    coordinates, so the second factor is judged on its bonus alone.  Returns
    (first-factor argmax, second-factor argmax, improvement available to the
    player over the current pair).
    """
    base = tg.base
    sigma = [tg.phi0[n].apply(profile[n][0]) for n in range(base.num_players)]
    pays = dict(zip(base.strategies[player], payoff_vector(base, tuple(sigma), player)))
    first_vals = {
        lab: sum((w * pays[s] for s, w in tg.vertex_mixtures[player][lab].weights), ZERO)
        + g0.values[player].get(lab, ZERO)
        for lab in tg.first_labels[player]
    }
    second_vals = {
        lab: g1.values[player].get(lab, ZERO)
        for lab in tg.second_labels(player)
    }
    best_first = max(first_vals.values())
    best_second = max(second_vals.values())
    cur = sum(
        w * first_vals[lab] for lab, w in profile[player][0].weights
    ) + sum(w * second_vals[lab] for lab, w in profile[player][1].weights)
    margin = (best_first + best_second) - cur
    return (
        {lab for lab, v in first_vals.items() if v == best_first},
        {lab for lab, v in second_vals.items() if v == best_second},
        margin,
    )


def reference_oplus_equilibrium_margin(
    tg: TildeGame, g0: BonusVector, g1: BonusVector, profile: TildeProfile
) -> Fraction:
    """``perturb.oplus_equilibrium_margin`` as it was: the largest improvement of any player."""
    return max(
        reference_oplus_best_replies(tg, g0, g1, profile, n)[2]
        for n in range(len(tg.first_labels))
    )
