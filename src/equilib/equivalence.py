"""Duplicate strategies, projections, and derived-game builders.

Games are *equivalent* when affine surjections onto a common base game
preserve payoffs exactly.  Adding a duplicate of a (possibly mixed)
strategy is the canonical construction; the tilde- and hat-game builders
stack the same idea over triangulations of the strategy simplices, with
payoff-irrelevant second coordinates.
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
    PolytopeGame,
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
    """

    base: FiniteGame
    triangulations: tuple[Triangulation, ...]
    first_labels: tuple[tuple[Label, ...], ...]
    vertex_mixtures: tuple[Mapping[Label, MixedStrategy], ...]
    polytope_game: PolytopeGame
    phi0: tuple[AffineSurjection, ...]

    def second_labels(self, player: int) -> tuple[Label, ...]:
        return self.first_labels[(player + 1) % len(self.first_labels)]


def build_tilde_game(
    game: FiniteGame, triangulations: Sequence[Triangulation]
) -> TildeGame:
    """Lift `game` onto triangulated strategy simplices.

    Player n's pure strategies become pairs (vertex of own triangulation,
    vertex of the next player's triangulation); payoffs evaluate the base
    game at the projected first coordinates only.
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
    # polytope game over the product of simplices
    pair_labels = []
    pair_points = []
    for n in range(N):
        seconds = first_labels[(n + 1) % N]
        labels_n = []
        points_n = []
        for i, a in enumerate(first_labels[n]):
            for j, b in enumerate(seconds):
                labels_n.append(_pair_label(a, b))
                e0 = [ONE if t == i else ZERO for t in range(len(first_labels[n]))]
                e1 = [ONE if t == j else ZERO for t in range(len(seconds))]
                points_n.append(tuple(e0 + e1))
        pair_labels.append(tuple(labels_n))
        pair_points.append(tuple(points_n))
    payoffs = {}
    for prof in itertools.product(*pair_labels):
        firsts = []
        for n, lab in enumerate(prof):
            a = lab.split("&")[0]
            firsts.append(vertex_mixtures[n][a])
        payoffs[prof] = payoff_all(game, tuple(firsts))
    pg = PolytopeGame(
        tuple(game.players),
        tuple(pair_labels),
        tuple(pair_points),
        payoffs,
    )
    return TildeGame(
        game,
        tuple(triangulations),
        tuple(first_labels),
        tuple(vertex_mixtures),
        pg,
        tuple(phi0),
    )


# --------------------------------------------------------------------------
# Hat games (refined first coordinates, finite pure-strategy form)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class HatGame:
    """Finite game over pairs of refinement vertices, equivalent to a tilde game."""

    tilde: TildeGame
    refinements: tuple[Triangulation, ...]
    first_labels: tuple[tuple[Label, ...], ...]
    # each first-coordinate strategy projects to a mixture over tilde S0 labels
    hat_mixtures: tuple[Mapping[Label, MixedStrategy], ...]
    finite_game: FiniteGame

    def second_labels(self, player: int) -> tuple[Label, ...]:
        return self.first_labels[(player + 1) % len(self.first_labels)]


def build_hat_game(
    tg: TildeGame, refinements: Sequence[Triangulation]
) -> HatGame:
    """Finite game whose pure strategies are refinement-vertex pairs.

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
    return HatGame(
        tg, tuple(refinements), tuple(first_labels), tuple(hat_mixtures), fg
    )


def hat_marginal(
    hg: HatGame, player: int, strategy: MixedStrategy, coordinate: int
) -> MixedStrategy:
    """Marginal of a mixture over pair strategies onto one coordinate."""
    weights: dict[Label, Fraction] = {}
    firsts = hg.first_labels[player]
    seconds = hg.second_labels(player)
    for lab, w in strategy.weights:
        found = None
        for a in firsts:
            for b in seconds:
                if _pair_label(a, b) == lab:
                    found = (a, b)
                    break
            if found:
                break
        if found is None:
            raise GameError(f"unknown pair label {lab!r}")
        key = found[coordinate]
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
