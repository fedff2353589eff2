"""Exact Nash equilibrium enumeration for small games.

Two-player games get complete enumeration with exact handling of
degeneracy: the extreme equilibria are the pairs of vertices of the
best-response polytopes whose labels cover every pure strategy, and the
maximal Nash subsets are the maximal bicliques of the graph of such pairs
(Avis, Rosenberg, Savani & von Stengel, Econ. Theory 42, 2010).  Maximal
subsets are products of faces of the polytopes, so two of them meet
exactly when they share a vertex profile; that relation gives components.

Three-player games get a partial treatment: supports of size <= 2 per
player are solved exactly (linear or quadratic equations), larger supports
are noted as not searched, and such results are flagged non-exhaustive.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .games import (
    FiniteGame,
    GameError,
    Label,
    MixedStrategy,
    Profile,
    _opponent_offsets,
    format_profile,
    is_equilibrium,
)
from .linalg import ONE, ZERO, _integer_row, _integer_rows, vertex_enumeration


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


@dataclass
class EquilibriumSet:
    game: FiniteGame
    isolated: list[Profile]
    subsets: list[NashSubset]
    exhaustive: bool = True
    notes: list[str] = field(default_factory=list)
    # 2 players: each equilibrium of the lexicographically perturbed game
    # (support_enumeration), as its supports and its limit vertex profile
    perturbed: list[tuple[tuple[tuple[Label, ...], ...], Profile]] = field(default_factory=list)

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


def _labelled_vertices(
    game: FiniteGame, player: int
) -> list[tuple[MixedStrategy, int, list[int]]]:
    """Nonzero vertices of `player`'s best-response polytope, with label bitmasks.

    For player 0 this is P = {x >= 0 : B^T x <= 1}, for player 1 it is
    Q = {y >= 0 : A y <= 1}, where A and B are the payoffs shifted to be
    positive.  Bit i < m stands for row i, bit m + j for column j; a vertex
    has a pure strategy's label when its own strategy is unplayed or the
    opponent's strategy is a best reply.  Vertices come back normalised to
    mixed strategies, each with its labels and the label bitmask of each of
    its lexicographic bases (:func:`vertex_enumeration`).
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
    rows = _integer_rows(A_ub, b_ub)
    out = []
    for v, bases in vertex_enumeration(A_ub, b_ub):
        num, den = _integer_row(v)
        total = sum(num)
        if total == 0:
            continue
        # the tight rows, on integers: a·v = beta exactly when a·num = beta·den
        labels = sum(
            1 << (k + shift) % size
            for k, (a, beta) in enumerate(rows)
            if sum(map(operator.mul, a, num)) == beta * den
        )
        weights = {s: Fraction(w, total) for s, w in zip(own, num) if w}
        bases = [sum(1 << (k + shift) % size for k in basis) for basis in bases]
        out.append((MixedStrategy.of(weights), labels, bases))
    return out


def support_enumeration(game: FiniteGame) -> EquilibriumSet:
    """Complete equilibrium enumeration for a 2-player game.

    Extreme equilibria are the pairs of labelled vertices of the two
    best-response polytopes whose labels together cover every pure
    strategy.  The maximal Nash subsets (products of polytopes of
    equilibria, by vertex list) are the maximal bicliques of the graph of
    such pairs; a singleton biclique is an isolated equilibrium.  Subsets
    come in order of their supports (size, then strategy order, row player
    first).  Its readers pass it to :func:`certify`; nothing is checked here.

    The pairs of lexicographic bases whose labels cover every strategy go
    to ``perturbed``.  They are the regular equilibria of a game whose
    payoffs tend to the game's: shifting x by (ε^(i+1))_i turns the
    perturbed P into the best-response polytope of B with each column t
    divided by 1 + c_t(ε), c_t(ε) → 0, and likewise for Q and A.
    """
    if game.num_players != 2:
        raise GameError("support_enumeration handles exactly 2 players")
    rows, cols = game.strategies
    full = (1 << (len(rows) + len(cols))) - 1
    xs = _labelled_vertices(game, 0)
    ys = _labelled_vertices(game, 1)
    # neighbourhoods[i]: bitmask of the y-vertices complementary to x-vertex i
    neighbourhoods = [
        sum(1 << k for k, (_, ly, _) in enumerate(ys) if lx | ly == full) for _, lx, _ in xs
    ]
    # Maximal bicliques are the nonempty intersections of neighbourhoods.
    closed: set[int] = set()
    for nb in neighbourhoods:
        if nb:
            closed |= {nb & c for c in closed if nb & c} | {nb}
    maximal = []
    for c in closed:
        X = [x for (x, _, _), nb in zip(xs, neighbourhoods) if nb & c == c]
        Y = [y for k, (y, _, _) in enumerate(ys) if c >> k & 1]
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
    # a basis has one label per row of its polytope, so its partner is unique
    partner = {b: y for y, _, bases in ys for b in bases}
    perturbed = [
        ((tuple(s for i, s in enumerate(rows) if not b >> i & 1),
          tuple(t for j, t in enumerate(cols, len(rows)) if b >> j & 1)), (x, partner[full ^ b]))
        for x, _, bases in xs for b in bases if full ^ b in partner
    ]
    return EquilibriumSet(game, isolated, subsets, perturbed=perturbed)


def certify(game: FiniteGame, es: EquilibriumSet) -> EquilibriumSet:
    """``es``, once :func:`is_equilibrium` on ``game`` has passed each of its vertex profiles.

    ``game`` is the game the answer is about, which may have strategies the
    enumerated game lacks.  Raises ``GameError``, so it also runs under ``python -O``.
    """
    for p in es.all_vertex_profiles():
        if not is_equilibrium(game, p):
            raise GameError(f"solver produced a non-equilibrium {format_profile(p)}")
    return es


# --------------------------------------------------------------------------
# Three players (partial)
# --------------------------------------------------------------------------


def _pure_equilibria(game: FiniteGame) -> set[int]:
    """Offsets of the pure profiles where no player has a strictly better pure strategy."""
    passing = set(range(len(game.integer_payoffs[0][0])))
    for n, (table, _) in enumerate(game.integer_payoffs):
        bases = _opponent_offsets(game.offsets, n)
        for o, p in itertools.combinations(game.offsets[n].values(), 2):
            # of two strategies that earn differently against the others at b, the worse fails
            passing.difference_update(
                [b + o if table[b + o] < table[b + p] else b + p
                 for b in bases if table[b + o] != table[b + p]]
            )
    return passing


def _indifference(diff: list[int], player: int, offs) -> tuple[int, ...]:
    """Integers (a, b, c, d) with s (U(first) - U(second)) = a + b p_u + c p_v + d p_u p_v.

    U is `player`'s payoff from its two supported strategies, u < v are the
    other players, p_u the weight of u's first supported strategy and s > 0
    the scale of `player`'s integer payoff table, which moves no root.  By
    inclusion-exclusion from the corner payoff differences ``diff[base]``,
    base the others' offset; ``offs`` holds each player's supported offsets.
    """
    ou, ov = (offs[m] for m in range(3) if m != player)
    f00, f10, f01, f11 = (diff[ou[i] + ov[j]] for i, j in ((-1, -1), (0, -1), (-1, 0), (0, 0)))
    return f00, f10 - f00, f01 - f00, f11 - f10 - f01 + f00


def _lin(p: int, q: int) -> list:
    """Solutions of p t + q = 0: [root], [None] when every t solves it, or [].

    p and q are integers; the root is the pair (num, den) in lowest terms
    with den > 0, so equal roots are equal pairs.
    """
    g = math.gcd(p, q) if p > 0 else -math.gcd(p, q)
    return [(-q // g, p // g)] if p else [] if q else [None]


def _fibre(ly, lz, e) -> list:
    """Solutions (y, z) of ly[0] y + ly[1] = 0, lz[0] z + lz[1] = 0 and e(y, z) = 0.

    e = (a, b, c, d) stands for a + b y + c z + d y z; all are integers, roots
    are :func:`_lin` pairs and None marks a free coordinate.
    """
    a, b, c, d = e
    out = []
    for y, z in itertools.product(_lin(*ly), _lin(*lz)):
        if y and z:
            out += [(y, z)] if (a * y[1] + b * y[0]) * z[1] + (c * y[1] + d * y[0]) * z[0] == 0 else []
        elif y:
            out += [(y, t) for t in _lin(c * y[1] + d * y[0], a * y[1] + b * y[0])]
        elif z:
            out += [(t, z) for t in _lin(b * z[1] + d * z[0], a * z[1] + c * z[0])]
        elif b or c or d or not a:
            out.append((None, None))
    return out


def _bilinear_system(e0, e1, e2) -> tuple[list, int]:
    """Complex solutions (x, y, z) of e0(y, z) = e1(x, z) = e2(x, y) = 0.

    e = (a, b, c, d) stands for a + b u + c v + d u v over its two variables.
    For fixed x, e1 is P1 z + Q1 = 0 and e2 is P2 y + Q2 = 0 with P, Q linear
    in x; where P1 P2 != 0, solutions lie over the roots of the quadratic
    R = P1 P2 e0(-Q2/P2, -Q1/P1).  All fibres over x off the roots of R and
    of the linear polynomials below look alike, so one such sample tells a
    curve (returned with x free, None) from finitely many solutions.  Returns
    the rational solutions, in increasing x, and the number of irrational or
    complex ones.  All is on integers, roots being :func:`_lin` pairs.
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
    xs = {t for q, s in (P1, Q1, P2, Q2, A, C, A1, B1) for t in _lin(s, q)}
    disc = r1 * r1 - 4 * r0 * r2
    root = math.isqrt(abs(disc))
    irrational = 0
    if not r2:
        xs.update(_lin(r1, r0))
    elif disc >= 0 and root * root == disc:
        xs.update(t for s in (1, -1) for t in _lin(2 * r2, r1 - s * root))
    else:
        irrational = 2
    xs.discard(None)

    def fibre(n: int, d: int) -> list:  # over x = n / d
        return _fibre((c2 * d + d2 * n, a2 * d + b2 * n), (c1 * d + d1 * n, a1 * d + b1 * n), e0)

    if fibre(max((n // d for n, d in xs), default=0) + 1, 1):  # an integer above every root
        return [(None, y, z) for y, z in fibre(1, 2)] or [(None, None, None)], 0
    # only a root of R has a solution over it: where P1 P2 != 0, y and z are unique and
    # e0(y, z) = R / (P1 P2); where P1 = 0 (P2 = 0) a solution needs Q1 = 0 (Q2 = 0),
    # and then R = P1 A - Q1 C vanishes, A and C being combinations of P2 and Q2
    xs = [(n, d) for n, d in xs if not (r0 * d + r1 * n) * d + r2 * n * n]
    by_value = functools.cmp_to_key(lambda s, t: s[0] * t[1] - t[0] * s[1])
    return [(x, y, z) for x in sorted(xs, key=by_value) for y, z in fibre(*x)], irrational


def _mixture(support: tuple[Label, Label], num: int, den: int) -> MixedStrategy:
    """``MixedStrategy.of({support[0]: num/den, support[1]: 1 - num/den})``.

    For coprime 0 < num < den, so (num, den - num) over den is the integer form.
    """
    return MixedStrategy._from_integers(((support[0], num), (support[1], den - num)), den)


_DISCARDED = "irrational solutions at supports {} were discarded"


def three_player_support_enumeration(game: FiniteGame) -> EquilibriumSet:
    """Partial enumeration for 3-player games: supports of size <= 2.

    All exact work is on the integer payoff tables (:attr:`FiniteGame.integer_payoffs`),
    by how many players mix.  Pure profiles are screened once per game
    (:func:`_pure_equilibria`).  Where one player mixes, one entry of its table of
    corner payoff differences decides; where two or three do, their system is read
    from those tables and solved on integers (two decoupled linear equations, or
    `_bilinear_system`).  Only a root in (0, 1) becomes a candidate, built with its
    integer weights (:func:`_mixture`).  :func:`is_equilibrium` certifies every
    profile returned.  Continua, discarded roots and supports of size >= 3 are
    reported in ``notes`` and flagged via ``exhaustive=False``.
    """
    if game.num_players != 3:
        raise GameError("three_player_support_enumeration handles exactly 3 players")
    notes: list[str] = []
    if not all(len(s) <= 2 for s in game.strategies):
        notes.append("supports of size >= 3 were not searched")
    found: list[Profile] = []

    def emit(weights: dict[int, tuple[int, int]], supports) -> None:
        profile = tuple([
            _mixture(sup, *weights[n]) if len(sup) == 2 else MixedStrategy.pure(sup[0])
            for n, sup in enumerate(supports)
        ])
        if is_equilibrium(game, profile) and profile not in found:
            found.append(profile)

    pure = _pure_equilibria(game)
    # corners[n][(o, p)][base]: n's payoff from offset o minus from p, others at base
    corners = [
        {(o, p): [x - y for x, y in zip(table[o:], table[p:])]
         for o, p in itertools.combinations(pos.values(), 2)}
        for (table, _), pos in zip(game.integer_payoffs, game.offsets)
    ]
    supports_per_player = [  # (labels, their offsets, the player if it mixes)
        [(c, o, (n,) * (k - 1)) for k in (1, 2)
         for c, o in zip(itertools.combinations(s, k), itertools.combinations(pos.values(), k))]
        for n, (s, pos) in enumerate(zip(game.strategies, game.offsets))
    ]
    for (s0, o0, m0), (s1, o1, m1), (s2, o2, m2) in itertools.product(*supports_per_player):
        supports, offs, var_players = (s0, s1, s2), (o0, o1, o2), m0 + m1 + m2
        base = o0[0] + o1[0] + o2[0]  # the pure profile at every player's first strategy
        if not var_players:
            if base in pure:
                emit({}, supports)
            continue
        if len(var_players) == 1:  # its corner difference: zero is a continuum, else no root
            (n,) = var_players
            if not corners[n][offs[n]][base - offs[n][0]]:
                notes.append(f"degenerate continuum at supports {supports}")
                emit({n: (1, 2)}, supports)
            continue
        if len(var_players) == 2:  # (slope, constant) of e_m in p_n, then of e_n in p_m
            n, m = var_players
            (a, b), (c, d) = offs[n], offs[m]
            rest, dn, dm = base - a - c, corners[n][a, b], corners[m][c, d]
            polys = [(dm[rest + a] - dm[rest + b], dm[rest + b]),
                     (dn[rest + c] - dn[rest + d], dn[rest + d])]
        else:
            polys = [_indifference(corners[n][offs[n]], n, offs) for n in var_players]
        if not any(map(any, polys)):
            notes.append(f"degenerate continuum at supports {supports}")
            emit(dict.fromkeys(var_players, (1, 2)), supports)
            continue
        if len(polys) == 2:  # two decoupled lines: _fibre with e = 0
            sols, irrational = itertools.product(_lin(*polys[0]), _lin(*polys[1])), 0
        else:
            sols, irrational = _bilinear_system(*polys)
        if irrational:
            notes += [_DISCARDED.format(supports)] * irrational
        for sol in sols:
            values, free = {}, False
            for n, w in zip(var_players, sol):  # stops at the first weight outside (0, 1)
                free |= w is None
                if w and not 0 < w[0] < w[1]:
                    break
                values[n] = w or (1, 2)
            else:
                emit(values, supports)
            if free:
                notes.append(f"positive-dimensional solutions at supports {supports}")
            elif len(values) < len(sol):
                notes.append(_DISCARDED.format(supports))
    return EquilibriumSet(game, found, [], exhaustive=not notes, notes=notes)


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
