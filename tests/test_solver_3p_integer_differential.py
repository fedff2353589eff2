"""Differential test: the three-player enumerator on integers against the ``Fraction`` one.

``oracles.reference_three_player_enumeration`` is the enumerator as it was
before its exact work moved to integers: every root, every fibre and every
pure-profile check in ``Fraction`` s.  On 3200 seeded games (2×2×2 with
payoffs 0..3, which have ties and continua, 0..20 and sixths 0..2, plus
3×2×2 and 2×2×3) the two must give the same isolated equilibria in the same
order, the same notes in the same order and the same ``exhaustive`` flag.

The pure-profile screen must pass exactly the pure profiles that
``is_equilibrium`` accepts, ties included, and only those may reach it; and
an ``is_equilibrium`` that rejects everything must leave no equilibrium, so
the certificate is never skipped.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

import equilib.solver
from equilib.games import FiniteGame, MixedStrategy, is_equilibrium
from equilib.solver import _pure_equilibria, three_player_support_enumeration
from oracles import reference_three_player_enumeration

# (shape, largest payoff, payoff denominator, games)
DECKS = [
    ((2, 2, 2), 3, 1, 1000),
    ((2, 2, 2), 20, 1, 1000),
    ((2, 2, 2), 12, 6, 200),
    ((3, 2, 2), 3, 1, 250),
    ((3, 2, 2), 20, 1, 250),
    ((2, 2, 3), 3, 1, 250),
    ((2, 2, 3), 20, 1, 250),
]


def random_game(rng: random.Random, sizes, hi: int, den: int) -> FiniteGame:
    labels = [[f"{'abc'[n]}{k + 1}" for k in range(m)] for n, m in enumerate(sizes)]
    payoffs = {
        p: tuple(Fraction(rng.randint(0, hi), den) for _ in range(3))
        for p in itertools.product(*labels)
    }
    return FiniteGame.of(["p1", "p2", "p3"], labels, payoffs)


def deck(sizes, hi, den, count):
    rng = random.Random(f"{sizes}-{hi}-{den}")
    return [random_game(rng, sizes, hi, den) for _ in range(count)]


GAMES = {spec[:3]: deck(*spec) for spec in DECKS}
IDS = [f"{'x'.join(map(str, s))}-payoffs0..{hi}/{den}" for s, hi, den, _ in DECKS]


def answer(es):
    return es.isolated, es.notes, es.exhaustive


@pytest.mark.parametrize("spec", list(GAMES), ids=IDS)
def test_same_answer_as_the_fraction_enumerator(spec):
    for k, game in enumerate(GAMES[spec]):
        want = answer(reference_three_player_enumeration(game))
        assert answer(three_player_support_enumeration(game)) == want, (spec, k)


def test_decks_reach_every_kind_of_note():
    notes, multiple = Counter(), 0
    for games in GAMES.values():
        for game in games:
            es = three_player_support_enumeration(game)
            notes.update(note.split(" at ")[0] for note in es.notes)
            supports = Counter(tuple(s.support() for s in p) for p in es.isolated)
            multiple += any(n > 1 for n in supports.values())
    assert sum(len(games) for games in GAMES.values()) >= 3000
    assert notes["supports of size >= 3 were not searched"] == 1000
    assert notes["degenerate continuum"] >= 5000
    assert notes["positive-dimensional solutions"] >= 800
    assert notes["irrational solutions"] >= 20000
    # two equilibria on one support: their order is the order of the roots
    assert multiple >= 3


def pure_profiles(game):
    """Each pure profile with its offset (its position in ``pure_profiles()``)."""
    return enumerate(tuple(map(MixedStrategy.pure, p)) for p in game.pure_profiles())


@pytest.mark.parametrize("spec", list(GAMES), ids=IDS)
def test_screen_passes_exactly_the_pure_equilibria(spec, monkeypatch):
    reached = []

    def recording(game, profile):
        reached.append(profile)
        return is_equilibrium(game, profile)

    monkeypatch.setattr(equilib.solver, "is_equilibrium", recording)
    ties = 0
    for game in GAMES[spec]:
        passing = _pure_equilibria(game)
        want = [p for i, p in pure_profiles(game) if is_equilibrium(game, p)]
        assert [p for i, p in pure_profiles(game) if i in passing] == want
        reached.clear()
        three_player_support_enumeration(game)
        assert [p for p in reached if all(s.is_pure() for s in p)] == want
        # a tie: at a pure equilibrium some player has a second pure best reply
        labels = list(game.pure_profiles())
        ties += any(
            sum(table[i - game.offsets[n][labels[i][n]] + o] == table[i] for o in own.values()) > 1
            for i in passing
            for n, ((table, _), own) in enumerate(zip(game.integer_payoffs, game.offsets))
        )
    if spec[1] == 3:
        assert ties >= 100


def test_certificate_is_never_skipped(monkeypatch):
    monkeypatch.setattr(equilib.solver, "is_equilibrium", lambda game, profile: False)
    for games in GAMES.values():
        for game in games[:100]:
            es = three_player_support_enumeration(game)
            assert es.isolated == []
            assert es.notes == reference_three_player_enumeration(game).notes
