"""Exact Nash equilibrium enumeration for small games.

Two-player games get complete enumeration with exact handling of
degeneracy: the extreme equilibria are the pairs of vertices of the
best-response polytopes whose labels cover every pure strategy, and the
maximal Nash subsets are the maximal bicliques of the graph of such pairs
(Avis, Rosenberg, Savani & von Stengel, Econ. Theory 42, 2010).  Maximal
subsets are products of faces of the polytopes, so two of them meet
exactly when they share a vertex profile; that relation gives components.

Three-player games get an honest partial treatment (supports of size <= 2
per player via exact linear/quadratic solving, everything else via the grid
oracle) and are flagged non-exhaustive where appropriate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import sympy

from .games import (
    FiniteGame,
    GameError,
    Label,
    MixedStrategy,
    Profile,
    is_equilibrium,
)
from .linalg import ONE, ZERO, dot, vertex_enumeration


def _factor_constraints(
    game: FiniteGame, player: int, own_support: Sequence[Label], opp_support: Sequence[Label]
):
    """H-rep over the weights of `player`'s strategies in own_support.

    Encodes: weights form a distribution, and every strategy in
    `opp_support` is a best reply of the opponent against them.
    """
    opp = 1 - player
    own_all = game.strategies[player]
    opp_all = game.strategies[opp]

    def u_opp(own_s: Label, opp_s: Label) -> Fraction:
        key = (own_s, opp_s) if player == 0 else (opp_s, own_s)
        return game.payoffs[key][opp]

    n = len(own_support)
    A_ub = [[-ONE if j == i else ZERO for j in range(n)] for i in range(n)]
    b_ub = [ZERO] * n
    A_eq = [[ONE] * n]
    b_eq = [ONE]
    ref = opp_support[0]
    for j in opp_all:
        row = [u_opp(s, j) - u_opp(s, ref) for s in own_support]
        if j in opp_support and j != ref:
            A_eq.append(row)
            b_eq.append(ZERO)
        elif j not in opp_support:
            A_ub.append(row)
            b_ub.append(ZERO)
    return A_ub, b_ub, A_eq, b_eq


def _satisfies_factor(
    game: FiniteGame,
    player: int,
    strategy: MixedStrategy,
    own_support: Sequence[Label],
    opp_support: Sequence[Label],
) -> bool:
    if not set(strategy.support()) <= set(own_support):
        return False
    A_ub, b_ub, A_eq, b_eq = _factor_constraints(game, player, own_support, opp_support)
    x = strategy.as_vector(list(own_support))
    return all(dot(r, x) <= b for r, b in zip(A_ub, b_ub)) and all(
        dot(r, x) == b for r, b in zip(A_eq, b_eq)
    )


@dataclass(frozen=True)
class NashSubset:
    """A product of two equilibrium polytopes (a Nash subset), by vertex lists."""

    supports: tuple[tuple[Label, ...], ...]
    factors: tuple[tuple[MixedStrategy, ...], ...]

    def is_singleton(self) -> bool:
        return all(len(f) == 1 for f in self.factors)

    def sample(self) -> Profile:
        return tuple(f[0] for f in self.factors)

    def vertex_profiles(self) -> list[Profile]:
        return [tuple(p) for p in itertools.product(*self.factors)]

    def contains(self, game: FiniteGame, profile: Profile) -> bool:
        return all(
            _satisfies_factor(game, n, profile[n], self.supports[n], self.supports[1 - n])
            for n in range(2)
        )


@dataclass
class EquilibriumSet:
    game: FiniteGame
    isolated: list[Profile]
    subsets: list[NashSubset]
    exhaustive: bool = True
    notes: list[str] = field(default_factory=list)

    def all_subsets(self) -> list[NashSubset]:
        """Isolated equilibria as singleton subsets plus the listed subsets."""
        singles = [
            NashSubset(
                tuple(tuple(s.support()) for s in p),
                tuple((s,) for s in p),
            )
            for p in self.isolated
        ]
        return singles + self.subsets

    def all_vertex_profiles(self) -> list[Profile]:
        out: list[Profile] = list(self.isolated)
        for ns in self.subsets:
            for p in ns.vertex_profiles():
                if p not in out:
                    out.append(p)
        return out


def _labelled_vertices(game: FiniteGame, player: int) -> list[tuple[MixedStrategy, int]]:
    """Nonzero vertices of `player`'s best-response polytope, with label bitmasks.

    For player 0 this is P = {x >= 0 : B^T x <= 1}, for player 1 it is
    Q = {y >= 0 : A y <= 1}, where A and B are the payoffs shifted to be
    positive.  Bit i < m stands for row i, bit m + j for column j; a vertex
    has a pure strategy's label when its own strategy is unplayed or the
    opponent's strategy is a best reply.  Vertices come back normalised to
    mixed strategies.
    """
    opp = 1 - player
    own, other = game.strategies[player], game.strategies[opp]

    def u_opp(s: Label, t: Label) -> Fraction:
        return game.payoffs[(s, t) if player == 0 else (t, s)][opp]

    low = min(u_opp(s, t) for s in own for t in other)
    A_ub = [[-ONE if k == i else ZERO for k in range(len(own))] for i in range(len(own))]
    A_ub += [[u_opp(s, t) - low + 1 for s in own] for t in other]
    b_ub = [ZERO] * len(own) + [ONE] * len(other)
    # Constraint k is label k for player 0 and label (k + m) mod (m + n) for player 1.
    shift, size = player * len(game.strategies[0]), len(A_ub)
    out = []
    for v in vertex_enumeration(A_ub, b_ub):
        total = sum(v)
        if total == 0:
            continue
        tight = [dot(row, v) == beta for row, beta in zip(A_ub, b_ub)]
        labels = sum(1 << (k + shift) % size for k, t in enumerate(tight) if t)
        out.append((MixedStrategy.of({s: w / total for s, w in zip(own, v) if w}), labels))
    return out


def support_enumeration(game: FiniteGame) -> EquilibriumSet:
    """Complete equilibrium enumeration for a 2-player game.

    Extreme equilibria are the pairs of labelled vertices of the two
    best-response polytopes whose labels together cover every pure
    strategy.  The maximal Nash subsets (products of polytopes of
    equilibria, by vertex list) are the maximal bicliques of the graph of
    such pairs; a singleton biclique is an isolated equilibrium.  Subsets
    come in order of their supports (size, then strategy order, row player
    first).  Every vertex profile is checked to be an equilibrium.
    """
    if game.num_players != 2:
        raise GameError("support_enumeration handles exactly 2 players")
    full = (1 << sum(len(s) for s in game.strategies)) - 1
    xs = _labelled_vertices(game, 0)
    ys = _labelled_vertices(game, 1)
    # neighbourhoods[i]: bitmask of the y-vertices complementary to x-vertex i
    neighbourhoods = [
        sum(1 << k for k, (_, ly) in enumerate(ys) if lx | ly == full) for _, lx in xs
    ]
    # Maximal bicliques are the nonempty intersections of neighbourhoods.
    closed: set[int] = set()
    for nb in neighbourhoods:
        if nb:
            closed |= {nb & c for c in closed if nb & c} | {nb}
    maximal = []
    for c in closed:
        X = [x for (x, _), nb in zip(xs, neighbourhoods) if nb & c == c]
        Y = [y for k, (y, _) in enumerate(ys) if c >> k & 1]
        maximal.append(
            NashSubset(
                tuple(
                    tuple(s for s in labels if any(s in v.support() for v in f))
                    for labels, f in zip(game.strategies, (X, Y))
                ),
                tuple(tuple(sorted(f, key=lambda m: m.weights)) for f in (X, Y)),
            )
        )
    maximal.sort(
        key=lambda ns: [
            (len(sup), [labels.index(s) for s in sup])
            for labels, sup in zip(game.strategies, ns.supports)
        ]
    )
    isolated = [ns.sample() for ns in maximal if ns.is_singleton()]
    subsets = [ns for ns in maximal if not ns.is_singleton()]
    es = EquilibriumSet(game, isolated, subsets)
    for p in es.all_vertex_profiles():
        if not is_equilibrium(game, p):
            raise GameError(f"solver produced a non-equilibrium {p}")
    return es


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
        for comp in _compositions(q, len(labels)):
            yield MixedStrategy.of(
                {s: Fraction(c, q) for s, c in zip(labels, comp) if c}
            )

    out = []
    for profile in itertools.product(*(list(grids(s)) for s in game.strategies)):
        if is_equilibrium(game, profile):
            out.append(profile)
    return out


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


# --------------------------------------------------------------------------
# Three players (partial)
# --------------------------------------------------------------------------


def _diff_coeffs(game: FiniteGame, player: int, pair, others):
    """Multilinear coefficients of U(pair[0]) - U(pair[1]) for `player`.

    `others` maps each other player to either a fixed label or a
    (label_a, label_b) pair with weight variable on label_a.  Returns the
    coefficients of 1, p_m, p_k, p_m*p_k where m < k are the variable players.
    """
    var_players = sorted(n for n, v in others.items() if isinstance(v, tuple))
    coeffs = {frozenset(sub): ZERO for r in range(len(var_players) + 1)
              for sub in itertools.combinations(var_players, r)}
    other_ids = sorted(others)
    choices = []
    for n in other_ids:
        v = others[n]
        choices.append([(v, None)] if not isinstance(v, tuple) else [(v[0], n), (v[1], None)])
    for combo in itertools.product(*choices):
        # weight monomial: p_n for each variable player picking its first label,
        # (1 - p_n) for the second; expand (1 - p_n) into two monomial terms.
        pure = {n: lab for (lab, _), n in zip(combo, other_ids)}

        def add(term_players: frozenset, sign: int, base: Fraction):
            coeffs[term_players] += sign * base

        # expand the product of p / (1-p) factors
        terms = [(frozenset(), 1)]
        for (lab, tag), n in zip(combo, other_ids):
            v = others[n]
            if not isinstance(v, tuple):
                continue
            if tag is not None:  # picked first label: factor p_n
                terms = [(s | {n}, sg) for s, sg in terms]
            else:  # second label: factor (1 - p_n)
                terms = [(s, sg) for s, sg in terms] + [(s | {n}, -sg) for s, sg in terms]
        profile_a = [None] * game.num_players
        profile_b = [None] * game.num_players
        profile_a[player] = pair[0]
        profile_b[player] = pair[1]
        for n in other_ids:
            profile_a[n] = pure[n]
            profile_b[n] = pure[n]
        base = game.payoffs[tuple(profile_a)][player] - game.payoffs[tuple(profile_b)][player]
        for s, sg in terms:
            add(frozenset(s), sg, base)
    return coeffs, var_players


def three_player_support_enumeration(game: FiniteGame) -> EquilibriumSet:
    """Partial enumeration for 3-player games: supports of size <= 2.

    Solves the indifference systems exactly (linear, or a quadratic after
    elimination, keeping rational roots only).  Degenerate continua,
    irrational roots, and supports of size >= 3 are reported in ``notes``
    and flagged via ``exhaustive=False``.
    """
    if game.num_players != 3:
        raise GameError("three_player_support_enumeration handles exactly 3 players")
    notes: list[str] = []
    exhaustive = all(len(s) <= 2 for s in game.strategies)
    if not exhaustive:
        notes.append("supports of size >= 3 were not searched")
    found: list[Profile] = []

    def emit(weights: dict[int, Fraction], supports) -> None:
        profile = []
        for n in range(3):
            sup = supports[n]
            if len(sup) == 1:
                profile.append(MixedStrategy.pure(sup[0]))
            else:
                p = weights[n]
                profile.append(MixedStrategy.of({sup[0]: p, sup[1]: 1 - p}))
        profile = tuple(profile)
        if is_equilibrium(game, profile) and profile not in found:
            found.append(profile)

    syms = sympy.symbols("p0 p1 p2")
    supports_per_player = [
        [c for k in (1, 2) for c in itertools.combinations(s, k) if k <= len(s)]
        for s in game.strategies
    ]
    for supports in itertools.product(*supports_per_player):
        var_players = [n for n in range(3) if len(supports[n]) == 2]
        if not var_players:
            emit({}, supports)
            continue
        eqs = []
        for n in var_players:
            others = {
                m: (supports[m] if len(supports[m]) == 2 else supports[m][0])
                for m in range(3) if m != n
            }
            coeffs, _ = _diff_coeffs(game, n, supports[n], others)
            expr = sympy.Integer(0)
            for term, c in coeffs.items():
                mono = sympy.Rational(c.numerator, c.denominator)
                for m in term:
                    mono *= syms[m]
                expr += mono
            eqs.append(sympy.expand(expr))
        if all(e == 0 for e in eqs):
            notes.append(f"degenerate continuum at supports {supports}")
            exhaustive = False
            emit({n: Fraction(1, 2) for n in var_players}, supports)
            continue
        try:
            sols = sympy.solve(eqs, [syms[n] for n in var_players], dict=True)
        except NotImplementedError:
            notes.append(f"unsolved system at supports {supports}")
            exhaustive = False
            continue
        for sol in sols:
            values: dict[int, Fraction] = {}
            free = False
            ok = True
            for n in var_players:
                v = sol.get(syms[n], syms[n])
                if v.free_symbols:
                    free = True
                    v = v.subs({s: sympy.Rational(1, 2) for s in v.free_symbols})
                v = sympy.simplify(v)
                if not v.is_rational:
                    ok = False
                    break
                r = sympy.Rational(v)
                q = Fraction(int(r.p), int(r.q))
                if not 0 < q < 1:
                    ok = False
                    break
                values[n] = q
            if free:
                notes.append(f"positive-dimensional solutions at supports {supports}")
                exhaustive = False
            if not ok:
                if not free:
                    notes.append(
                        f"irrational solutions at supports {supports} were discarded"
                    )
                    exhaustive = False
                continue
            emit(values, supports)
    return EquilibriumSet(game, found, [], exhaustive=exhaustive, notes=notes)


# --------------------------------------------------------------------------
# Components
# --------------------------------------------------------------------------


@dataclass
class ComponentGraph:
    """Maximal Nash subsets as nodes, joined when they share an equilibrium."""

    subsets: list[NashSubset]
    edges: set[tuple[int, int]]
    components: list[list[int]]

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {i: set() for i in range(len(self.subsets))}
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj


def components(es: EquilibriumSet) -> ComponentGraph:
    """Connectivity of the equilibrium set via shared points of maximal subsets.

    Maximal subsets are products of faces of the best-response polytopes,
    so two of them meet exactly when they share a vertex profile.
    """
    subs = es.all_subsets()
    owners: dict[Profile, list[int]] = {}
    for i, ns in enumerate(subs):
        for p in ns.vertex_profiles():
            owners.setdefault(p, []).append(i)
    edges = {e for idx in owners.values() for e in itertools.combinations(idx, 2)}
    parent = list(range(len(subs)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in edges:
        parent[find(i)] = find(j)
    comp: dict[int, list[int]] = {}
    for i in range(len(subs)):
        comp.setdefault(find(i), []).append(i)
    return ComponentGraph(subs, edges, sorted(comp.values()))
