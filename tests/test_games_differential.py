"""Differential test: the integer payoff kernel against the pure-profile sum.

``payoff``, ``payoff_against``, ``best_replies``, ``is_equilibrium`` and
``payoff_vector`` all read one integer kernel (``games._payoff_sums``).
Here each is compared with ``oracles.pure_profile_payoff``, which sums one
``Fraction`` term per pure profile, on seeded 2-, 3- and 4-player games
with negative and non-integer payoffs, on profiles whose mixtures hold
explicit zero weights, and for pure and mixed deviations.
"""

import itertools
import random
from fractions import Fraction

import pytest

from equilib.games import (
    FiniteGame,
    GameError,
    MixedStrategy,
    best_replies,
    is_equilibrium,
    payoff,
    payoff_against,
    payoff_vector,
)
from equilib.solver import three_player_support_enumeration
from oracles import pure_profile_payoff

F = Fraction

SHAPES = [(3, 2), (2, 3, 2), (2, 2, 2, 2)]


def seeded_game(seed: int, shape, values) -> FiniteGame:
    rng = random.Random(seed)
    players = [f"p{n}" for n in range(len(shape))]
    strategies = [[f"s{n}{i}" for i in range(k)] for n, k in enumerate(shape)]
    payoffs = {
        pure: tuple(rng.choice(values) for _ in shape)
        for pure in itertools.product(*strategies)
    }
    return FiniteGame.of(players, strategies, payoffs)


# wide payoffs rarely tie; narrow ones tie often, so best replies and
# equilibria with several strategies show up
WIDE = [F(p, q) for p in range(-7, 8) for q in (1, 2, 3, 5)]
NARROW = [F(-1), F(-1, 2), F(0), F(1, 3)]


def random_mixture(rng: random.Random, labels) -> MixedStrategy:
    """A mixture over ``labels`` that lists every label, zero weights included."""
    raw = [rng.choice((0, 0, 1, 2, 3)) for _ in labels]
    if not any(raw):
        raw[rng.randrange(len(raw))] = 1
    total = sum(raw)
    return MixedStrategy(tuple(sorted((s, F(w, total)) for s, w in zip(labels, raw))))


def deviate(profile, player, strategy):
    return tuple(strategy if n == player else sigma for n, sigma in enumerate(profile))


def oracle_vector(game, profile, player):
    return tuple(
        pure_profile_payoff(game, deviate(profile, player, MixedStrategy.pure(s)), player)
        for s in game.strategies[player]
    )


def oracle_is_equilibrium(game, profile):
    for n, sigma in enumerate(profile):
        values = oracle_vector(game, profile, n)
        best = max(values)
        if any(v != best for s, v in zip(game.strategies[n], values) if s in sigma.support()):
            return False
    return True


def profiles(game: FiniteGame, rng: random.Random):
    """Every pure profile, then seeded mixed profiles with explicit zero weights."""
    for pure in game.pure_profiles():
        yield tuple(MixedStrategy.pure(s) for s in pure)
    for _ in range(12):
        yield tuple(random_mixture(rng, labels) for labels in game.strategies)


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("values", [WIDE, NARROW], ids=["wide", "narrow"])
@pytest.mark.parametrize("seed", range(4))
def test_kernel_matches_pure_profile_sum(shape, values, seed):
    game = seeded_game(seed, shape, values)
    rng = random.Random(seed)
    zeros = equilibria = 0
    for profile in profiles(game, rng):
        zeros += any(w == 0 for sigma in profile for _, w in sigma.weights)
        for n in range(game.num_players):
            vector = payoff_vector(game, profile, n)
            assert vector == oracle_vector(game, profile, n)
            assert all(type(v) is Fraction for v in vector)
            assert payoff(game, profile, n) == pure_profile_payoff(game, profile, n)
            best = max(vector)
            assert best_replies(game, profile, n) == {
                s for s, v in zip(game.strategies[n], vector) if v == best
            }
            for s in game.strategies[n]:  # pure deviations
                assert payoff_against(game, profile, n, s) == pure_profile_payoff(
                    game, deviate(profile, n, MixedStrategy.pure(s)), n
                )
            mixed = random_mixture(rng, game.strategies[n])
            assert payoff_against(game, profile, n, mixed) == pure_profile_payoff(
                game, deviate(profile, n, mixed), n
            )
        expected = oracle_is_equilibrium(game, profile)
        assert is_equilibrium(game, profile) == expected
        equilibria += expected
    assert zeros > 0
    if values is NARROW:
        assert equilibria > 0


def test_check_profile_errors_reach_every_reader():
    game = seeded_game(0, (2, 3, 2), WIDE)
    good = tuple(MixedStrategy.pure(labels[0]) for labels in game.strategies)
    unknown = (MixedStrategy.of({"s00": F(1, 2), "nope": F(1, 2)}),) + good[1:]
    readers = [
        lambda p: payoff_vector(game, p, 0),
        lambda p: payoff(game, p, 0),
        lambda p: payoff_against(game, p, 1, "s11"),
        lambda p: best_replies(game, p, 2),
        lambda p: is_equilibrium(game, p),
    ]
    for read in readers:
        with pytest.raises(GameError, match="unknown strategies"):
            read(unknown)
        for wrong in (good[:2], good + good[:1]):
            with pytest.raises(GameError, match="3 players"):
                read(wrong)
    with pytest.raises(GameError, match="unknown strategies"):
        payoff_against(game, good, 1, "nope")


def test_three_player_weights_are_fractions_on_fractional_payoffs():
    """The indifference systems run on integer tables; roots stay exact."""
    found = 0
    for seed in range(12):
        game = seeded_game(seed, (2, 2, 2), WIDE)
        es = three_player_support_enumeration(game)
        for profile in es.isolated:
            found += any(not sigma.is_pure() for sigma in profile)
            for sigma in profile:
                assert all(type(w) is Fraction for _, w in sigma.weights)
            assert oracle_is_equilibrium(game, profile)
    assert found > 0
