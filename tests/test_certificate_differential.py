"""Differential test: the one-pass equilibrium certificate against the one it replaced.

``oracles.reference_is_equilibrium`` is ``games.is_equilibrium`` as it was:
per player a label set of best replies that must contain the support, with
the integer weights recomputed from the ``Fraction`` s.  On seeded
two-player, 3×2×2 and 2×2×2 games with payoffs in {0, 1/2, 1, 2} (many
ties) the two must give the same verdict on every pure profile, on random
mixed profiles (some listing zero weights), on the enumerators' equilibria
and on deviations from them, and raise the same ``GameError`` on a profile
they refuse.  On the 3200-game deck of ``test_solver_3p_integer_differential``,
every candidate the three-player enumerator certifies must carry, from its
construction, the integer form the lcm of its denominators gives.
"""

import itertools
import random
from fractions import Fraction

import pytest

import equilib.solver
from equilib.games import FiniteGame, GameError, MixedStrategy, best_replies, is_equilibrium
from equilib.solver import support_enumeration, three_player_support_enumeration
from oracles import _reference_integer_weights, reference_is_equilibrium
from test_solver_3p_integer_differential import GAMES

F = Fraction
SHAPES = [(3, 3), (2, 4), (3, 2, 2), (2, 2, 2)]
VALUES = [F(0), F(1, 2), F(1), F(2)]


def seeded_game(rng: random.Random, shape) -> FiniteGame:
    # labels listed against sort order, so a mixture's weights are sorted by label, not by position
    strategies = [[f"{'xyz'[n]}{k}" for k in reversed(range(size))] for n, size in enumerate(shape)]
    payoffs = {
        pure: tuple(rng.choice(VALUES) for _ in shape) for pure in itertools.product(*strategies)
    }
    return FiniteGame.of([f"p{n}" for n in range(len(shape))], strategies, payoffs)


def random_mixture(rng: random.Random, labels) -> MixedStrategy:
    """A mixture on a random support, denominators up to 6; some list zero weights."""
    support = rng.sample(labels, rng.randint(1, len(labels)))
    raw = [rng.randint(1, 6) for _ in support]
    weights = dict.fromkeys(labels, F(0)) | {s: F(w, sum(raw)) for s, w in zip(support, raw)}
    if rng.random() < 0.3:
        return MixedStrategy(tuple(sorted(weights.items())))
    return MixedStrategy.of(weights)


def equilibria(game: FiniteGame) -> list:
    if game.num_players == 2:
        return support_enumeration(game).all_vertex_profiles()
    return three_player_support_enumeration(game).isolated


def profiles(game: FiniteGame, rng: random.Random):
    """Pure profiles, random mixed ones, equilibria and one-player deviations from them."""
    yield from (tuple(map(MixedStrategy.pure, pure)) for pure in game.pure_profiles())
    for _ in range(10):
        yield tuple(random_mixture(rng, labels) for labels in game.strategies)
    for eq in equilibria(game):
        yield eq
        n = rng.randrange(game.num_players)
        yield eq[:n] + (random_mixture(rng, game.strategies[n]),) + eq[n + 1:]


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_same_verdicts_as_the_label_set_certificate(shape):
    rng = random.Random(f"certificate-{shape}")
    verdicts, ties = [], 0
    for _ in range(60):
        game = seeded_game(rng, shape)
        for profile in profiles(game, rng):
            verdict = is_equilibrium(game, profile)
            assert verdict == reference_is_equilibrium(game, profile), profile
            verdicts.append(verdict)
            # a tie: an equilibrium where some player has a best reply off its support
            ties += verdict and any(
                len(best_replies(game, profile, n)) > len(sigma.support())
                for n, sigma in enumerate(profile)
            )
    assert verdicts.count(True) >= 300 and verdicts.count(False) >= 900
    assert ties >= 250


def test_same_error_on_a_refused_profile():
    rng = random.Random("certificate-errors")
    for shape in SHAPES:
        game = seeded_game(rng, shape)
        good = tuple(MixedStrategy.pure(labels[0]) for labels in game.strategies)
        unknown = MixedStrategy.of({game.strategies[0][0]: F(1, 2), "nope": F(1, 2)})
        zero = MixedStrategy(((game.strategies[0][0], F(1)), ("nope", F(0))))
        for n in range(game.num_players):
            refused = [good[:n] + (unknown,) + good[n + 1:], good[:-1], good + good[:1]]
            for profile in refused:
                with pytest.raises(GameError) as new:
                    is_equilibrium(game, profile)
                with pytest.raises(GameError) as old:
                    reference_is_equilibrium(game, profile)
                assert str(new.value) == str(old.value)
        # an unknown label with zero weight is not played, so both accept it
        profile = (zero,) + good[1:]
        assert is_equilibrium(game, profile) == reference_is_equilibrium(game, profile)


def test_candidates_carry_their_integer_form(monkeypatch):
    verdicts = []

    def recording(game, profile):
        for sigma in profile:
            assert "integer_weights" in vars(sigma), sigma  # set when it was built
            nums, den = sigma.integer_weights
            assert (list(nums), den) == _reference_integer_weights(sigma), sigma
        verdict = is_equilibrium(game, profile)
        assert verdict == reference_is_equilibrium(game, profile), profile
        verdicts.append(verdict)
        return verdict

    monkeypatch.setattr(equilib.solver, "is_equilibrium", recording)
    for games in GAMES.values():
        for game in games:
            three_player_support_enumeration(game)
    assert verdicts.count(True) >= 8000 and verdicts.count(False) >= 8000
