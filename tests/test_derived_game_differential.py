"""One derived-game model against the builders and rules it replaced.

The hat game is the tilde game of a tilde game's vertex game over
refinements of the vertex simplices; :func:`oracles.reference_build_hat_game`
is the separate hat builder it replaced, whose labels read H<n>v<i> where
the tilde game's read T<n>v<i>.  A bonused tilde game is ``oplus`` of the
pair game and two bonus vectors, judged by ``games.best_replies`` and
``games.payoff_vector``; :func:`oracles.reference_oplus_best_replies` is the
factor-by-factor rule it replaced.  The decks: matching pennies and km with
one-cell triangulations, matching pennies and seeded 2x2 and 2x3 games with
midpoint splits, each refined by one cell per player and by one edge split.
"""

import random
from fractions import Fraction

import pytest

from equilib.equivalence import build_tilde_game
from equilib.examples import km_game
from equilib.games import FiniteGame, MixedStrategy, best_replies, payoff, payoff_vector
from equilib.geometry import Triangulation
from equilib.perturb import BonusVector, oplus
from oracles import (
    reference_build_hat_game,
    reference_oplus_best_replies,
    reference_oplus_equilibrium_margin,
)

F = Fraction


def one_cell(k: int) -> Triangulation:
    """The simplex of k strategies as a single cell."""
    corners = [[F(int(i == j)) for j in range(k)] for i in range(k)]
    return Triangulation(corners, [tuple(range(k))], corners)


def midpoint_split(k: int, rng: random.Random) -> Triangulation:
    """The simplex of k >= 2 strategies with one seeded edge bisected."""
    return one_cell(k).split_edge(tuple(sorted(rng.sample(range(k), 2))))


def seeded_game(rng: random.Random, rows: int, cols: int) -> FiniteGame:
    strategies = [[f"r{i}" for i in range(rows)], [f"c{j}" for j in range(cols)]]
    return FiniteGame.of(
        ["p1", "p2"],
        strategies,
        {(r, c): (rng.randint(0, 4), rng.randint(0, 4)) for r in strategies[0] for c in strategies[1]},
    )


def matching_pennies() -> FiniteGame:
    return FiniteGame.of(
        ["p1", "p2"],
        [["A", "B"], ["C", "D"]],
        {("A", "C"): (1, -1), ("A", "D"): (-1, 1), ("B", "C"): (-1, 1), ("B", "D"): (1, -1)},
    )


def tilde_deck():
    """(label, tilde game): the one-cell and midpoint-split decks of the module docstring."""
    rng = random.Random(35)
    out = [
        ("pennies-one-cell", build_tilde_game(matching_pennies(), [one_cell(2), one_cell(2)])),
        ("km-one-cell", build_tilde_game(km_game(), [one_cell(3), one_cell(3)])),
        ("pennies-midpoint", build_tilde_game(matching_pennies(), [midpoint_split(2, rng)] * 2)),
    ]
    for k in range(48):
        shape = (2, 2) if k % 2 == 0 else (2, 3)
        game = seeded_game(rng, *shape)
        tris = [midpoint_split(len(s), rng) for s in game.strategies]
        out.append((f"seeded-{shape[0]}x{shape[1]}-{k}", build_tilde_game(game, tris)))
    return out


TILDE_DECK = tilde_deck()


def refinements(tg, kind: str, rng: random.Random) -> list[Triangulation]:
    """Per player, its vertex simplex as one cell, or with one seeded edge bisected."""
    sizes = [len(labels) for labels in tg.first_labels]
    if kind == "one-cell":
        return [one_cell(m) for m in sizes]
    return [midpoint_split(m, rng) for m in sizes]


HAT_CASES = [(label, kind) for label, _ in TILDE_DECK for kind in ("one-cell", "edge-split")]


def test_decks_cover_the_cases():
    shapes = {tuple(len(s) for s in tg.base.strategies) for _, tg in TILDE_DECK}
    assert len(TILDE_DECK) >= 50 and len(HAT_CASES) >= 100
    assert {(2, 2), (2, 3), (3, 3)} <= shapes


def renamed(label: str) -> str:
    return label.replace("H", "T")


@pytest.mark.parametrize("label,kind", HAT_CASES, ids=[f"{a}-{b}" for a, b in HAT_CASES])
def test_hat_game_is_the_tilde_game_of_the_vertex_game(label, kind):
    tg = dict(TILDE_DECK)[label]
    refs = refinements(tg, kind, random.Random(label))
    hg = build_tilde_game(tg.vertex_game, refs)
    want = reference_build_hat_game(tg, refs)
    assert hg.base is tg.vertex_game
    assert hg.first_labels == tuple(tuple(map(renamed, labels)) for labels in want.first_labels)
    assert hg.vertex_mixtures == tuple(
        {renamed(lab): mix for lab, mix in mixtures.items()} for mixtures in want.hat_mixtures
    )
    assert hg.finite_game.strategies == tuple(
        tuple(map(renamed, labels)) for labels in want.finite_game.strategies
    )
    assert hg.finite_game.payoffs == {
        tuple(map(renamed, prof)): entry for prof, entry in want.finite_game.payoffs.items()
    }


def random_mixture(rng: random.Random, labels) -> MixedStrategy:
    """A seeded mixture over `labels`, pure about a third of the time."""
    if rng.random() < 1 / 3:
        return MixedStrategy.pure(rng.choice(labels))
    ws = [rng.randint(0, 3) for _ in labels]
    ws[rng.randrange(len(ws))] += 1
    return MixedStrategy.of({lab: F(w, sum(ws)) for lab, w in zip(labels, ws) if w})


def random_bonus(rng: random.Random, factor: int, labels_per_player) -> BonusVector:
    """Bonuses in {0, 1/8, ..., 3/8} on a seeded subset of each player's labels."""
    return BonusVector(
        factor,
        tuple(
            {lab: F(rng.randint(0, 3), 8) for lab in labels if rng.random() < 0.6}
            for labels in labels_per_player
        ),
    )


def pair_profile(prof) -> tuple[MixedStrategy, ...]:
    """Each player's (first, second) as the product mixture over its pair strategies."""
    return tuple(
        MixedStrategy.of({f"{a}&{b}": wa * wb for a, wa in first.weights for b, wb in second.weights})
        for first, second in prof
    )


def test_bonused_game_is_judged_by_the_games_kernel():
    rng = random.Random(3535)
    ties = 0
    for trial in range(320):
        _, tg = TILDE_DECK[trial % len(TILDE_DECK)]
        N = len(tg.first_labels)
        prof = tuple(
            (random_mixture(rng, tg.first_labels[n]), random_mixture(rng, tg.second_labels(n)))
            for n in range(N)
        )
        g0 = random_bonus(rng, 0, tg.first_labels)
        g1 = random_bonus(rng, 1, [tg.second_labels(n) for n in range(N)])
        bonused, pairs = oplus(tg.finite_game, g0, g1), pair_profile(prof)
        for n in range(N):
            bf, bs, margin = reference_oplus_best_replies(tg, g0, g1, prof, n)
            replies = best_replies(bonused, pairs, n)
            assert {lab.split("&")[0] for lab in replies} == bf
            assert {lab.split("&")[1] for lab in replies} == bs
            assert max(payoff_vector(bonused, pairs, n)) - payoff(bonused, pairs, n) == margin
            ties += len(bf) > 1 or len(bs) > 1
        assert max(
            max(payoff_vector(bonused, pairs, n)) - payoff(bonused, pairs, n) for n in range(N)
        ) == reference_oplus_equilibrium_margin(tg, g0, g1, prof)
    # argmax sets of several labels, where a rule that picks one label would differ
    assert ties >= 100, ties
