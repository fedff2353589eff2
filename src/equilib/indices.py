"""Fixed-point index computations.

``index_regular`` evaluates the sign of the determinant of the
support-restricted indifference Jacobian; in its variable order that sign
is the index itself (+1 at strict pure equilibria).  It reads the game's
integer payoff tables: payoff sums for the equilibrium and regularity
tests, and the Jacobian's blocks for fraction-free eliminations.
``degree_oracle`` independently computes the topological degree of
a displacement map over a box by exact sign counting on a simplicial
decomposition of the boundary grid.  ``component_index`` sums, over the
equilibria of the lexicographically perturbed game that
``support_enumeration`` records, the Jacobian signs of those whose limit
lies in the component: no second enumeration, no LP and no ε to choose.

``component_entry`` is the one component rule: a regular isolated
equilibrium gets ``index_regular``, any other component
``component_index``; ``game_index_report`` applies it to every
component, on the equilibrium set ``reduced_equilibria`` enumerates on the
dominance-reduced game and ``solver.certify`` checks on the whole game.
``index``, ``run_pipeline``'s first stage and ``verify_realization`` (a
game's equilibria, projected through per-player maps, carry prescribed
indices) all read that one set.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from .games import (
    FiniteGame,
    GameError,
    Label,
    MixedStrategy,
    Profile,
    _payoff_sums,
    _weights,
    eliminate_strictly_dominated,
    format_profile,
    payoff_vector,
    strictly_dominates,
)
from .linalg import (
    ONE,
    ZERO,
    Chart,
    Matrix,
    Vector,
    _eliminate,
    _reduce,
    _sign,
    determinant,
    frac_vec,
    linprog,
    vec_sub,
)
from .solver import (
    EquilibriumSet,
    NashSubset,
    certify,
    components,
    support_enumeration,
)

if TYPE_CHECKING:
    from .equivalence import AffineSurjection
    from .geometry import Simplex


class IndexError_(GameError):
    """Raised when an index computation cannot be carried out."""


# --------------------------------------------------------------------------
# Regular-equilibrium index via the indifference Jacobian
# --------------------------------------------------------------------------


def _jacobian_sign(game: FiniteGame, supports: Sequence[Sequence[Label]]) -> int:
    """Sign of the determinant of the indifference Jacobian on the supports (I, J); 0 if singular.

    Variables: the weights on I and on J, and the payoffs v1, v2; equations:
    each supported strategy earns its owner's payoff, each weight vector sums
    to one.  A permutation of sign (-1)^(k+1), k = |I| = |J|, makes it block
    diagonal, one block [U | -1; 1ᵀ | 0] per player with U its payoffs on its
    support against the other's (a block has more rows than columns when
    |I| ≠ |J|).  Read off the integer tables, a block is scaled by the
    player's positive scale, which keeps the sign :func:`linalg._reduce` reads.
    """
    sign = 1 if len(supports[0]) % 2 else -1
    for (table, scale), own, other, pos, opp in zip(
        game.integer_payoffs, supports, supports[::-1], game.offsets, game.offsets[::-1]
    ):
        rows = [[table[pos[s] + opp[t]] for t in other] + [-scale] for s in own]
        pivots, det, swaps = _reduce(rows + [[1] * len(other) + [0]])
        if len(pivots) <= len(own):
            return 0
        sign *= swaps if det > 0 else -swaps
    return sign


def index_regular(game: FiniteGame, eq: Profile) -> int:
    """Index of a regular equilibrium of a 2-player game: its Jacobian sign, +1 or -1.

    Raises IndexError_ unless eq is a regular equilibrium of a 2-player
    game.  Each player's payoffs are compared as integers, from one pass
    of :func:`games._payoff_sums` over the profile's integer weights.
    """
    if game.num_players != 2:
        raise IndexError_("index_regular handles exactly 2 players")
    I, J = eq[0].support(), eq[1].support()
    if len(I) != len(J):
        raise IndexError_(
            "unequal support sizes: equilibrium is not regular; use component_index"
        )
    game.check_profile(eq)
    weights = _weights(game, eq)
    for n, (sup, pos) in enumerate(zip((I, J), game.offsets)):
        sums, _ = _payoff_sums(game, weights, n, pos.values())
        nums, d = weights[n]  # on one positive scale, s earns d * sums[o] and eq[n] earns v
        v = sum(k * sums[o] for o, k in nums)
        for s, o in pos.items():
            dev = d * sums[o]
            if s in sup:
                if dev != v:
                    raise IndexError_(f"profile is not an equilibrium at {s}")
            elif dev >= v:
                raise IndexError_(
                    f"off-support strategy {s} is not strictly inferior; "
                    "use component_index"
                )
    sign = _jacobian_sign(game, (I, J))
    if not sign:
        raise IndexError_("singular indifference Jacobian; use component_index")
    return sign


# --------------------------------------------------------------------------
# Degree oracle
# --------------------------------------------------------------------------

Box = Sequence[tuple[Fraction, Fraction]]


def _kuhn_simplices(dim: int):
    """Kuhn triangulation of the unit cube: vertex chains with permutation sign."""
    for perm in itertools.permutations(range(dim)):
        sign = _perm_sign(perm)
        chain = [tuple(0 for _ in range(dim))]
        for axis in perm:
            last = list(chain[-1])
            last[axis] += 1
            chain.append(tuple(last))
        yield chain, sign


def _perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _boundary_simplices(box: Box, grid: int):
    """Oriented (d-1)-simplices of the triangulated boundary grid.

    Yields (vertices, orientation) with orientation +1/-1 relative to the
    outward normal of the facet the simplex lies on.
    """
    d = len(box)
    steps = [Fraction(hi - lo, grid) for lo, hi in box]
    for axis in range(d):
        for side in (0, 1):
            fixed = box[axis][side]
            free = [a for a in range(d) if a != axis]
            # orientation of (e_free..., outward normal ±e_axis) as a frame of
            # R^d: moving the normal from last to place `axis` takes d−1−axis swaps
            facet_or = (1 if side == 1 else -1) * (-1) ** (d - 1 - axis)
            for corner in itertools.product(range(grid), repeat=d - 1):
                base = [ZERO] * d
                base[axis] = fixed
                for a, c in zip(free, corner):
                    base[a] = box[a][0] + steps[a] * c
                for chain, sign in _kuhn_simplices(d - 1):
                    verts = []
                    for offs in chain:
                        v = list(base)
                        for a, o in zip(free, offs):
                            v[a] = v[a] + steps[a] * o
                        verts.append(tuple(v))
                    yield verts, sign * facet_or


def _raw_degree(values: Iterable[tuple[Sequence[Sequence[Fraction]], int]]) -> int:
    """Signed crossings of the ray t·(1, ε, …, ε^(d-1)), for every small ε > 0.

    ``values`` holds each boundary simplex's d displacement values with its
    orientation.  With W the matrix whose columns are the values, the ray
    meets the simplex's image exactly when μ = W⁻¹·ray(ε) > 0, and μ_i is
    Σ_k ε^k (W⁻¹)_ik, so it has the sign of the first nonzero entry of row
    i of W⁻¹, which the lexicographic rule :func:`linalg._sign` reads.  One
    fraction-free elimination of [W | I] leaves det·W⁻¹ in the right
    block.  A crossing counts orient·sign(det W), which is (-1)^(d-1)
    times the orientation of the crossing; ``degree_oracle`` applies that
    sign.

    No such ray meets the image of a singular W, which spans a proper
    subspace; there one LP tests whether the values surround the origin.
    """
    total = 0
    for w, orient in values:
        d = len(w)
        W = [list(row) for row in zip(*w)]
        T, pivots, det, scale = _eliminate(
            row + [ONE if k == r else ZERO for k in range(d)] for r, row in enumerate(W)
        )
        if pivots[-1] != d - 1:  # W is singular
            surround = linprog([ZERO] * d, A_eq=W + [[ONE] * d], b_eq=[ZERO] * d + [ONE])
            if surround.status == "optimal":
                raise IndexError_(
                    "displacement values surround the origin on a boundary simplex; "
                    "refine the grid"
                )
            continue
        if all(_sign(0, enumerate(row[d:])) * det > 0 for row in T):
            total += orient if det * scale > 0 else -orient
    return total


def degree_oracle(
    fmap: Callable[[Vector], Vector], region: Box, grid: int
) -> int:
    """Topological degree of (Id - fmap) over the box `region`.

    The displacement is evaluated exactly at the boundary grid vertices and
    interpolated simplex-wise; crossings of a symbolically perturbed ray
    are counted with signs.  Boundary simplices whose displacement values
    surround the origin trigger an error asking for a finer grid.
    """
    d = len(region)
    if d == 0:
        return 1
    if grid < 1:
        raise IndexError_("grid must be >= 1")
    for lo, hi in region:
        if not lo < hi:
            raise IndexError_("region must have positive side lengths")

    cache: dict[tuple, Vector] = {}

    def disp_cached(v: tuple) -> Vector:
        if v not in cache:
            w = vec_sub(v, fmap(list(v)))
            if all(c == 0 for c in w):
                raise IndexError_("fixed point on the boundary grid; refine the grid")
            cache[v] = w
        return cache[v]

    raw = _raw_degree(
        ([disp_cached(v) for v in verts], orient)
        for verts, orient in _boundary_simplices(region, grid)
    )
    # a crossing's orientation is (-1)^(d-1) times the sign _raw_degree counts
    return raw if d % 2 else -raw


# --------------------------------------------------------------------------
# Nash-map degree for cross-validation
# --------------------------------------------------------------------------


def _nash_map(game: FiniteGame):
    """Gain-adjustment self-map of the product of simplices (2 players).

    Works in local coordinates that drop each player's last weight.
    """
    labels = [list(s) for s in game.strategies]
    k1, k2 = len(labels[0]), len(labels[1])

    def to_profile(x: Vector) -> Profile:
        w1 = list(x[: k1 - 1]) + [ONE - sum(x[: k1 - 1], ZERO)]
        w2 = list(x[k1 - 1 :]) + [ONE - sum(x[k1 - 1 :], ZERO)]
        return (
            MixedStrategy.of({s: w for s, w in zip(labels[0], w1)}),
            MixedStrategy.of({s: w for s, w in zip(labels[1], w2)}),
        )

    def fmap(x: Vector) -> Vector:
        prof = to_profile(x)
        out: list[Fraction] = []
        for n in range(2):
            values = payoff_vector(game, prof, n)
            w = prof[n].as_vector(labels[n])
            base = sum(map(operator.mul, w, values), ZERO)
            gains = [max(ZERO, v - base) for v in values]
            denom = ONE + sum(gains, ZERO)
            new = [(w[i] + gains[i]) / denom for i in range(len(labels[n]))]
            out.extend(new[:-1])
        return out

    return fmap, (k1 - 1) + (k2 - 1), to_profile


def _local_coords(eq: Profile, game: FiniteGame) -> Vector:
    out: list[Fraction] = []
    for n in range(2):
        v = eq[n].as_vector(list(game.strategies[n]))
        out.extend(v[:-1])
    return out


# boundary grid divisions per box edge for the degree oracle in index_via_degree
_DEGREE_GRID = 2


def index_via_degree(game: FiniteGame, eq: Profile) -> int:
    """Index of a regular equilibrium via the degree oracle on the Nash map.

    The game is restricted to the equilibrium's supports (valid for regular
    equilibria: off-support strategies are strictly inferior nearby) and the
    degree of the displacement is computed once, over the box around the
    equilibrium in local coordinates whose half-width is half its distance
    to the simplex boundary and to every other equilibrium.  A fixed point
    on the oracle's boundary grid raises the oracle's ``IndexError_``.
    """
    index_regular(game, eq)
    restricted = game.restrict([list(eq[n].support()) for n in range(2)])
    fmap, dim, _ = _nash_map(restricted)
    if dim == 0:
        return 1
    x0 = _local_coords(eq, restricted)
    # stay inside the simplex product and away from other equilibria
    limit = min(
        min((c for c in x0), default=ONE),
        min(
            (ONE - sum(x0[a:b], ZERO))
            for a, b in ((0, len(eq[0].support()) - 1), (len(eq[0].support()) - 1, dim))
            if b > a
        ),
    )
    for p in certify(restricted, support_enumeration(restricted)).all_vertex_profiles():
        o = _local_coords(p, restricted)
        gap = max(abs(a - b) for a, b in zip(x0, o))
        if gap > 0:
            limit = min(limit, gap)
    radius = limit / 2
    return degree_oracle(fmap, [(c - radius, c + radius) for c in x0], _DEGREE_GRID)


# --------------------------------------------------------------------------
# Affine fixers
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineFixer:
    """Affine bijection X -> Y fixing sigma, with recorded index sign."""

    linear: tuple[tuple[Fraction, ...], ...]
    sigma: tuple[Fraction, ...]
    domain: Simplex
    codomain: Simplex
    index: int
    chart: Chart

    def apply(self, point: Sequence) -> Vector:
        u = self.chart.to_local([Fraction(c) for c in point])
        v = [sum(self.linear[r][c] * u[c] for c in range(len(u))) for r in range(len(u))]
        return self.chart.to_ambient(v)


def _linear_part_for_matching(
    chart: Chart, xs: list[Vector], ys: list[Vector]
) -> Optional[Matrix]:
    """A with A(local(x_i)) = local(y_i) for all i, or None.

    The rows (local(x_i) | local(y_i)) reduce to (I | Aᵀ) over zero rows
    exactly when such an A exists and is unique.
    """
    d = chart.dim
    T, pivots, det, _ = _eliminate(chart.to_local(x) + chart.to_local(y) for x, y in zip(xs, ys))
    if pivots != list(range(d)):
        return None
    return [[Fraction(T[c][d + r], det) for c in range(d)] for r in range(d)]


def make_affine_fixer(X: Simplex, Y: Simplex, sigma: Sequence, r: int) -> AffineFixer:
    """Affine bijection of X onto Y whose unique fixed point sigma has index r.

    X must lie in the interior of Y and sigma must be the common barycenter.
    The vertex matching is searched over permutations until the recorded
    sign det(I - A) equals r.
    """
    if r not in (1, -1):
        raise IndexError_("r must be +1 or -1")
    sig = frac_vec(sigma)
    if frac_vec(X.barycenter()) != sig or frac_vec(Y.barycenter()) != sig:
        raise IndexError_("sigma must be the barycenter of both simplices")
    if X.dim != Y.dim:
        raise IndexError_("simplices must have equal dimension")
    if X.dim == 0:
        if r == 1:
            return AffineFixer((), tuple(sig), X, Y, 1, Chart([sig]))
        raise IndexError_("a point admits only index +1")
    for v in X.vertices:
        if not Y.strictly_contains(v):
            raise IndexError_("X must lie in the interior of Y")
    d = X.dim
    chart = Chart([sig] + [list(v) for v in X.vertices])
    xs = [list(v) for v in X.vertices]
    for perm in itertools.permutations(range(d + 1)):
        ys = [list(Y.vertices[perm[i]]) for i in range(d + 1)]
        A = _linear_part_for_matching(chart, xs, ys)
        if A is None:
            continue
        IA = [
            [(ONE if i == j else ZERO) - A[i][j] for j in range(d)] for i in range(d)
        ]
        det = determinant(IA)
        if det == 0:
            continue
        sign = 1 if det > 0 else -1
        if sign == r:
            return AffineFixer(
                tuple(tuple(row) for row in A), tuple(sig), X, Y, sign, chart
            )
    raise IndexError_(f"no vertex matching achieves index {r:+d}")


# --------------------------------------------------------------------------
# Component index by the lexicographic perturbation
# --------------------------------------------------------------------------


def component_index(es: EquilibriumSet, component: Sequence[NashSubset]) -> int:
    """Sum of the perturbed equilibria's indices near a component of ``es.game``.

    ``es`` is the game's full equilibrium set, as ``support_enumeration``
    returns it.  Its ``perturbed`` equilibria, those of the
    lexicographically perturbed game, are regular for every small ε > 0;
    the ones whose limit is a vertex profile of the component are the ones
    near it.  Each counts the sign of the indifference Jacobian of
    ``es.game`` on its supports (I, J) (:func:`_jacobian_sign`): that
    determinant is ±det Ã_IJ·(1ᵀÃ_IJ⁻¹1)·det B̃_IJ·(1ᵀB̃_IJ⁻ᵀ1) for the
    shifted payoffs Ã, B̃, nonzero because the bases are, so it has the
    perturbed Jacobian's sign.
    """
    game = es.game
    if game.num_players != 2:
        raise IndexError_("component_index handles exactly 2 players")
    profiles = {p for s in component for p in s.vertex_profiles()}
    return sum(
        _jacobian_sign(game, supports) for supports, limit in es.perturbed if limit in profiles
    )


# --------------------------------------------------------------------------
# Reports
# --------------------------------------------------------------------------


@dataclass
class IndexEntry:
    target: str
    index: int
    method: str
    witness: dict = field(default_factory=dict)


@dataclass
class IndexReport:
    entries: list[IndexEntry] = field(default_factory=list)

    def total(self) -> int:
        return sum(e.index for e in self.entries)

    def to_json(self) -> dict:
        return {"entries": [dict(vars(e)) for e in self.entries], "total": self.total()}


def component_entry(es: EquilibriumSet, component: Sequence[NashSubset]) -> IndexEntry:
    """The index entry of one component of ``components(es)``.

    ``es`` is a 2-player game's full equilibrium set.  A regular isolated
    equilibrium gets its determinant index; any other component gets
    ``component_index``.
    """
    if len(component) == 1 and component[0].is_singleton():
        eq = component[0].sample()
        try:
            idx = index_regular(es.game, eq)
        except IndexError_:
            pass
        else:
            return IndexEntry(
                format_profile(eq),
                idx,
                "determinant",
                {"supports": [list(s.support()) for s in eq]},
            )
    idx = component_index(es, component)
    desc = " | ".join(
        " x ".join(",".join(str(v) for v in f) for f in s.factors) for s in component
    )
    return IndexEntry(desc, idx, "perturbation-sum", {"subsets": len(component)})


def game_index_report(es: EquilibriumSet) -> IndexReport:
    """One ``component_entry`` per component of ``components(es)``, in order."""
    cg = components(es)
    return IndexReport(
        [component_entry(es, [cg.subsets[i] for i in comp]) for comp in cg.components]
    )


def reduced_equilibria(game: FiniteGame, failures: Optional[list[str]] = None) -> EquilibriumSet:
    """``game``'s equilibrium set, enumerated once on its dominance-reduced game.

    Replays the trace of ``eliminate_strictly_dominated(game)`` on
    ``game``'s tables, checking exactly that each witness strictly beats its
    strategy against every pure profile of the others still in play.
    Iterated strict dominance keeps the Nash set in any order (Gilboa, Kalai
    & Zemel, Oper. Res. Lett. 9, 1990), and deleting never-best replies keeps
    every component's index (Demichelis & Ritzberger, J. Econ. Theory 113,
    2003): so the set is built as ``game``'s, certified on ``game`` and its
    indices read there.  A failing witness raises ``IndexError_``; given a
    ``failures`` list, its text goes there instead, and the set is that of
    the game reduced that far.
    """
    reduced, trace = eliminate_strictly_dominated(game)
    live = [dict(pos) for pos in game.offsets]
    for e in trace:
        if not strictly_dominates(game, e.player, e.witness, e.strategy, live):
            failure = (
                f"elimination of {e.strategy!r} (player {e.player}) is not certified: "
                f"{e.witness} does not strictly dominate it"
            )
            if failures is None:
                raise IndexError_(failure)
            failures.append(failure)
            reduced = game.restrict(live)
            break
        del live[e.player][e.strategy]
    return certify(game, replace(support_enumeration(reduced), game=game))


def verify_realization(
    game: FiniteGame,
    phis: Sequence[AffineSurjection],
    want: Iterable[tuple[Profile, int]],
) -> tuple[list[tuple[Profile, Profile, int]], list[str]]:
    """Whether ``game``'s equilibria realize the signed profiles ``want``.

    Certifies on the dominance-reduced game (``reduced_equilibria``; a
    witness that fails is reported and the replay stops there).  It
    requires every equilibrium to be isolated and regular (``index_regular``
    on ``game``, which checks it is an equilibrium there too), projects
    each through the per-player maps ``phis``, and compares the multiset
    of (projection, index) pairs with ``want``.  Returns (equilibrium,
    projection, index) for each equilibrium whose index was computed, and
    the failure texts; none means verified.
    """
    failures: list[str] = []
    es = reduced_equilibria(game, failures)
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
