"""Duplicate strategies, projections, and derived-game builders.

Games are *equivalent* when affine surjections onto a common base game
preserve payoffs exactly.  Adding a duplicate of a (possibly mixed)
strategy is the canonical construction; the tilde-game builder stacks the
same idea over triangulations of the strategy simplices, with
payoff-irrelevant second coordinates, and the hat game is the tilde game
of a tilde game's vertex game over refinements of its vertex simplices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from .games import (
    FiniteGame,
    GameError,
    Label,
    MixedStrategy,
    Profile,
    payoff_all,
    write_json,
)
from .linalg import ONE, ZERO
from .rational import format_rational

if TYPE_CHECKING:
    from .geometry import Triangulation


@dataclass(frozen=True)
class AffineSurjection:
    """Affine map between strategy simplices given by vertex images.

    ``columns[s]`` is the image (a mixture over target labels) of the source
    pure strategy ``s``; ``preimages[t]`` witnesses surjectivity: a source
    mixture mapping exactly onto the pure target ``t``.
    """

    source_labels: tuple[Label, ...]
    target_labels: tuple[Label, ...]
    columns: Mapping[Label, MixedStrategy]
    preimages: Mapping[Label, MixedStrategy]

    def __post_init__(self):
        for s in self.source_labels:
            if s not in self.columns:
                raise GameError(f"no image given for source strategy {s!r}")
            if not set(self.columns[s].support()) <= set(self.target_labels):
                raise GameError(f"image of {s!r} uses unknown target labels")
        for t in self.target_labels:
            if t not in self.preimages:
                raise GameError(f"no surjectivity witness for target {t!r}")
            if self.apply(self.preimages[t]) != MixedStrategy.pure(t):
                raise GameError(f"witness for {t!r} does not map onto it")

    def apply(self, strategy: MixedStrategy) -> MixedStrategy:
        weights: dict[Label, Fraction] = {}
        for s, w in strategy.weights:
            if s not in self.columns:
                raise GameError(f"strategy {s!r} outside the source simplex")
            for t, wt in self.columns[s].weights:
                weights[t] = weights.get(t, ZERO) + w * wt
        return MixedStrategy.of({t: w for t, w in weights.items() if w != 0})


def identity_surjection(labels: Sequence[Label]) -> AffineSurjection:
    labels = tuple(labels)
    pure = {s: MixedStrategy.pure(s) for s in labels}
    return AffineSurjection(labels, labels, pure, dict(pure))


def duplicate_strategy(
    game: FiniteGame,
    player: int,
    mixture: MixedStrategy,
    new_label: Optional[Label] = None,
) -> tuple[FiniteGame, AffineSurjection]:
    """Add a pure strategy duplicating `mixture` for `player`.

    The new strategy's payoffs (for every player) equal the multilinear
    payoffs of the mixture; the returned surjection projects the enlarged
    simplex back onto the original one.
    """
    labels = list(game.strategies[player])
    if not set(mixture.support()) <= set(labels):
        raise GameError("mixture uses unknown strategies")
    if new_label is None:
        desc = "+".join(f"{format_rational(w)}*{s}" for s, w in mixture.weights)
        new_label = f"{desc}#dup"
    if new_label in labels:
        raise GameError(f"label {new_label!r} already in use")
    new_strategies = [list(s) for s in game.strategies]
    new_strategies[player] = labels + [new_label]
    pay = {}
    for prof in itertools.product(*new_strategies):
        if prof[player] != new_label:
            pay[prof] = game.payoffs[prof]
        else:
            others = (MixedStrategy.pure(s) for s in prof)
            pay[prof] = payoff_all(
                game, tuple(mixture if k == player else t for k, t in enumerate(others))
            )
    new_game = FiniteGame.of(game.players, new_strategies, pay)
    columns = {s: MixedStrategy.pure(s) for s in labels}
    columns[new_label] = mixture
    preimages = {s: MixedStrategy.pure(s) for s in labels}
    phi = AffineSurjection(tuple(labels + [new_label]), tuple(labels), columns, preimages)
    return new_game, phi


def project_profile(
    phis: Sequence[AffineSurjection], profile: Profile
) -> Profile:
    if len(phis) != len(profile):
        raise GameError("one surjection per player required")
    return tuple(phi.apply(s) for phi, s in zip(phis, profile))


def check_equivalence(
    g1: FiniteGame,
    g2: FiniteGame,
    phi1: Sequence[AffineSurjection],
    phi2: Sequence[AffineSurjection],
    base: FiniteGame,
) -> bool:
    """Do both games project payoff-preservingly onto the base game?"""
    for g, phis in ((g1, phi1), (g2, phi2)):
        if len(phis) != g.num_players or g.num_players != base.num_players:
            raise GameError("player count mismatch")
        for n in range(g.num_players):
            if tuple(phis[n].source_labels) != tuple(g.strategies[n]):
                raise GameError(f"surjection {n} does not match the source game")
            if tuple(phis[n].target_labels) != tuple(base.strategies[n]):
                raise GameError(f"surjection {n} does not target the base game")
        for prof in g.pure_profiles():
            image = project_profile(phis, tuple(MixedStrategy.pure(s) for s in prof))
            if payoff_all(base, image) != g.payoffs[prof]:
                return False
    return True


# --------------------------------------------------------------------------
# Tilde games (triangulated first coordinates, payoff-irrelevant seconds)
# --------------------------------------------------------------------------


def _pair_label(a: Label, b: Label) -> Label:
    return f"{a}&{b}"


def _simplex_vertex_mixture(point: Sequence[Fraction], labels: Sequence[Label]) -> MixedStrategy:
    """Interpret a point of the standard simplex as a mixture over labels."""
    pt = [Fraction(c) for c in point]
    if len(pt) != len(labels) or any(c < 0 for c in pt) or sum(pt) != 1:
        raise GameError("point is not in the strategy simplex")
    return MixedStrategy.of({s: c for s, c in zip(labels, pt) if c > 0})


@dataclass(frozen=True)
class TildeGame:
    """Derived game on Delta(S0) x Delta(S1) per player, S1 shared cyclically.

    ``first_labels[n]`` lists player n's first-coordinate strategies (the
    vertices of that player's triangulation); the second coordinate reuses
    the next player's first-coordinate labels and never affects payoffs.
    ``vertex_game`` is the finite game on the vertices alone: a vertex
    profile pays what the base game pays at its mixtures, and every pair
    profile pays what its first coordinates pay there.  A hat game is the
    tilde game of a vertex game over refinements of the vertex simplices,
    ``build_tilde_game(tg.vertex_game, refinements)``.
    """

    base: FiniteGame
    triangulations: tuple[Triangulation, ...]
    first_labels: tuple[tuple[Label, ...], ...]
    vertex_mixtures: tuple[Mapping[Label, MixedStrategy], ...]
    vertex_game: FiniteGame
    finite_game: FiniteGame
    phi0: tuple[AffineSurjection, ...]

    def second_labels(self, player: int) -> tuple[Label, ...]:
        return self.first_labels[(player + 1) % len(self.first_labels)]


def build_tilde_game(
    game: FiniteGame, triangulations: Sequence[Triangulation]
) -> TildeGame:
    """Lift `game` onto triangulated strategy simplices.

    Player n's pure strategies become pairs (vertex of own triangulation,
    vertex of the next player's triangulation); payoffs evaluate the base
    game at the projected first coordinates only, once per vertex profile.
    """
    N = game.num_players
    if len(triangulations) != N:
        raise GameError(
            f"one triangulation per player required: {N} players, {len(triangulations)} given"
        )
    first_labels: list[tuple[Label, ...]] = []
    vertex_mixtures: list[dict[Label, MixedStrategy]] = []
    for n, tri in enumerate(triangulations):
        k = len(game.strategies[n])
        corners = [
            tuple(ONE if i == j else ZERO for i in range(k)) for j in range(k)
        ]
        tri_vertices = [tuple(Fraction(c) for c in v) for v in tri.vertices]
        if sorted(tuple(Fraction(c) for c in p) for p in tri.polytope) != sorted(corners):
            raise GameError(
                f"triangulation for player {n} does not cover the simplex of its {k} strategies"
            )
        labels = tuple(f"T{n}v{i}" for i in range(len(tri_vertices)))
        mixtures = {
            lab: _simplex_vertex_mixture(v, game.strategies[n])
            for lab, v in zip(labels, tri_vertices)
        }
        first_labels.append(labels)
        vertex_mixtures.append(mixtures)
    phi0 = []
    for n in range(N):
        # surjectivity: the simplex corners are triangulation vertices
        preimages = {}
        for s in game.strategies[n]:
            hit = [
                lab
                for lab in first_labels[n]
                if vertex_mixtures[n][lab] == MixedStrategy.pure(s)
            ]
            if not hit:
                raise GameError(
                    f"triangulation for player {n} lacks the corner for {s!r}"
                )
            preimages[s] = MixedStrategy.pure(hit[0])
        phi0.append(
            AffineSurjection(
                first_labels[n],
                tuple(game.strategies[n]),
                {lab: vertex_mixtures[n][lab] for lab in first_labels[n]},
                preimages,
            )
        )
    vertex_game = FiniteGame(
        tuple(game.players),
        tuple(first_labels),
        {
            prof: payoff_all(game, tuple(vertex_mixtures[n][a] for n, a in enumerate(prof)))
            for prof in itertools.product(*first_labels)
        },
    )
    # the finite game over the pair strategies
    pair_labels = tuple(
        tuple(_pair_label(a, b) for a in first_labels[n] for b in first_labels[(n + 1) % N])
        for n in range(N)
    )
    payoffs = {
        prof: vertex_game.payoffs[tuple(lab.split("&", 1)[0] for lab in prof)]
        for prof in itertools.product(*pair_labels)
    }
    return TildeGame(
        game,
        tuple(triangulations),
        tuple(first_labels),
        tuple(vertex_mixtures),
        vertex_game,
        FiniteGame(tuple(game.players), pair_labels, payoffs),
        tuple(phi0),
    )


def hat_marginal(
    tg: TildeGame, player: int, strategy: MixedStrategy, coordinate: int
) -> MixedStrategy:
    """Marginal of a mixture over one player's pair strategies onto one coordinate."""
    pairs = set(tg.finite_game.strategies[player])
    weights: dict[Label, Fraction] = {}
    for lab, w in strategy.weights:
        if lab not in pairs:
            raise GameError(f"unknown pair label {lab!r}")
        key = lab.split("&")[coordinate]
        weights[key] = weights.get(key, ZERO) + w
    return MixedStrategy.of(weights)


# --------------------------------------------------------------------------
# Sidecar mapping files
# --------------------------------------------------------------------------


def mapping_to_json(phis: Sequence[AffineSurjection]) -> dict:
    return {
        "players": [
            {
                "source": list(phi.source_labels),
                "target": list(phi.target_labels),
                "columns": {
                    s: {t: format_rational(w) for t, w in phi.columns[s].weights}
                    for s in phi.source_labels
                },
                "preimages": {
                    t: {s: format_rational(w) for s, w in phi.preimages[t].weights}
                    for t in phi.target_labels
                },
            }
            for phi in phis
        ]
    }


def save_mapping(path, phis: Sequence[AffineSurjection]) -> None:
    write_json(path, mapping_to_json(phis))
