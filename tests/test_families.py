"""Closed-form game families (``families.py``) as oracles for enumeration and indices."""

import random
from fractions import Fraction

import pytest

from equilib.equivalence import identity_surjection, project_profile
from equilib.games import FiniteGame, MixedStrategy, format_profile
from equilib.indices import game_index_report
from equilib.solver import components, support_enumeration, three_player_support_enumeration
from families import duplicated_identity_game, identity_equilibria, identity_game, jordan_game


@pytest.mark.parametrize("n", range(2, 7))
def test_identity_game_has_every_common_support_equilibrium(n):
    es = support_enumeration(identity_game(n))
    want = identity_equilibria(n)
    assert len(want) == 2**n - 1
    assert es.subsets == []
    assert sorted(map(format_profile, es.isolated)) == sorted(map(format_profile, want))
    report = game_index_report(es)
    assert {e.target: e.index for e in report.entries} == {
        format_profile(p): index for p, index in want.items()
    }
    assert {e.method for e in report.entries} == {"determinant"}
    signs = [e.index for e in report.entries]
    assert (signs.count(1), signs.count(-1)) == (2 ** (n - 1), 2 ** (n - 1) - 1)
    assert report.total() == 1


def test_duplicated_identity_game_keeps_components_and_indices():
    """Adding the mixture of r0 and r1 as a row makes the game degenerate: each
    equilibrium that plays both becomes a segment.  Components still map one to
    one onto the equilibria of the identity game, with the same indices."""
    n = 5
    game, phi = duplicated_identity_game(n)
    es = support_enumeration(game)
    assert es.subsets  # degenerate: some maximal Nash subsets are not points
    graph = components(es)
    report = game_index_report(es)
    phis = (phi, identity_surjection(game.strategies[1]))
    images = {}
    for component, entry in zip(graph.components, report.entries):
        (image,) = {
            project_profile(phis, p) for i in component for p in graph.subsets[i].vertex_profiles()
        }
        images[image] = entry.index
    assert len(images) == len(graph.components)
    assert images == identity_equilibria(n)


LABELS = ["H", "T", "a", "b", "heads", "tails", "0", "1", "Z", "x9"]


def variant(game: FiniteGame, rng: random.Random) -> FiniteGame:
    """`game` with each player's payoffs under a positive affine map (denominators
    up to 6) and its strategies relabelled and listed in a seeded order."""
    maps = [
        (Fraction(rng.randint(1, 30), rng.randint(1, 6)), Fraction(rng.randint(-30, 30), rng.randint(1, 6)))
        for _ in game.players
    ]
    names = [dict(zip(labels, rng.sample(LABELS, len(labels)))) for labels in game.strategies]
    strategies = [rng.sample(list(name.values()), len(name)) for name in names]
    payoffs = {
        tuple(name[s] for name, s in zip(names, pure)): tuple(
            a * v + b for (a, b), v in zip(maps, game.payoffs[pure])
        )
        for pure in game.pure_profiles()
    }
    return FiniteGame.of(game.players, strategies, payoffs)


def test_jordan_matching_pennies_has_one_equilibrium_at_one_half():
    """Positive affine payoff maps, relabelling and reordering keep the answer:
    one isolated equilibrium, every player at 1/2, exhaustive and without notes."""
    games = [jordan_game()] + [variant(jordan_game(), random.Random(seed)) for seed in range(300)]
    assert any(x.denominator == 6 for g in games for entry in g.payoffs.values() for x in entry)
    for k, game in enumerate(games):
        es = three_player_support_enumeration(game)
        half = tuple(MixedStrategy.of(dict.fromkeys(labels, Fraction(1, 2))) for labels in game.strategies)
        assert es.isolated == [half], k
        assert es.exhaustive and es.notes == [], k
