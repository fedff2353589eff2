"""Differential tests of the indifference Jacobian's sign on the integer payoff tables.

``index_regular`` and ``component_index`` read the sign of the indifference
Jacobian from one fraction-free elimination of rows taken off each
player's integer payoff table (``indices._jacobian_sign``); the oracle
(``oracles.reference_indifference_jacobian``) builds the Jacobian in
``Fraction`` s and takes its determinant.  The signs (0 for a singular
Jacobian) must agree on every perturbed pair (``EquilibriumSet.perturbed``)
and on the supports of every isolated equilibrium of 300 seeded games from 2x2 to 4x4 with payoffs
0..2, 100 with payoffs of several denominators (so the tables are
scaled), ``km`` and its perturbations, and the game families of
``tests/families.py``.  On the same games ``index_regular`` must return
the index or raise the error text of ``oracles.reference_index_regular``
(payoffs and determinant in ``Fraction`` s) at every vertex profile, every
pure profile and every profile that mixes two strategies per player half
and half.
"""

import itertools
import random
from fractions import Fraction

import pytest

from equilib.examples import KM_EPS, KM_EXPECTED, km_game
from equilib.games import FiniteGame, MixedStrategy
from equilib.indices import IndexError_, _jacobian_sign, index_regular
from equilib.linalg import determinant
from equilib.solver import support_enumeration
from families import duplicated_identity_game, identity_game
from oracles import reference_index_regular, reference_indifference_jacobian

SHAPES = [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)]


def seeded_game(seed: int, shape, denominators) -> FiniteGame:
    """Payoffs k/d with k in 0..2 and d drawn from ``denominators``."""
    rng = random.Random(f"jacobian:{seed}:{shape}:{denominators}")
    rows = [f"r{i}" for i in range(shape[0])]
    cols = [f"c{j}" for j in range(shape[1])]
    payoffs = {
        (r, c): tuple(Fraction(rng.randint(0, 2), rng.choice(denominators)) for _ in range(2))
        for r in rows
        for c in cols
    }
    return FiniteGame.of(["1", "2"], [rows, cols], payoffs)


DECKS = {
    "payoffs 0..2": [seeded_game(seed, shape, (1,)) for shape in SHAPES for seed in range(60)],
    "payoffs k/d": [
        seeded_game(seed, shape, (1, 2, 3, 5)) for shape in SHAPES for seed in range(20)
    ],
    "km": [km_game()] + [expect.game(eps) for expect in KM_EXPECTED for eps in KM_EPS],
    "families": [identity_game(n) for n in (2, 3, 4)]
    + [duplicated_identity_game(n)[0] for n in (2, 3, 4)],
}


def reference_sign(game, supports) -> int:
    d = determinant(reference_indifference_jacobian(game, supports))
    return (d > 0) - (d < 0)


def outcome(index, game, profile):
    try:
        return index(game, profile)
    except IndexError_ as exc:
        return str(exc)


@pytest.mark.parametrize("deck", DECKS)
def test_jacobian_sign_is_the_fraction_determinants_sign(deck):
    pairs = isolated = 0
    for game in DECKS[deck]:
        es = support_enumeration(game)
        for supports, _ in es.perturbed:
            sign = _jacobian_sign(game, supports)
            assert sign == reference_sign(game, supports) != 0, (deck, supports)
            pairs += 1
        for eq in es.isolated:
            supports = tuple(s.support() for s in eq)
            # unequal supports make the Jacobian singular: both read 0
            assert _jacobian_sign(game, supports) == reference_sign(game, supports), (deck, eq)
            isolated += 1
    assert pairs > 0 and isolated > 0


@pytest.mark.parametrize("deck", DECKS)
def test_index_regular_matches_the_fraction_reference(deck):
    outcomes = set()
    for game in DECKS[deck]:
        es = support_enumeration(game)
        halves = [
            [MixedStrategy.of(dict.fromkeys(p, "1/2")) for p in itertools.combinations(labels, 2)]
            for labels in game.strategies
        ]
        profiles = (
            es.all_vertex_profiles()
            + [tuple(MixedStrategy.pure(s) for s in pure) for pure in game.pure_profiles()]
            + list(itertools.product(*halves))
        )
        for profile in profiles:
            got = outcome(index_regular, game, profile)
            assert got == outcome(reference_index_regular, game, profile), (deck, profile)
            outcomes.add(got if isinstance(got, int) else got.split(" ")[0])
    # regular equilibria and rejections alike
    assert {1, "profile", "off-support"} <= outcomes


def test_decks_have_the_sizes_the_docstring_names():
    assert len(DECKS["payoffs 0..2"]) == 300 and len(DECKS["payoffs k/d"]) == 100
    # the scaled tables are really scaled
    assert any(scale > 1 for game in DECKS["payoffs k/d"] for _, scale in game.integer_payoffs)
    assert len({len(g.strategies[0]) for g in itertools.chain(*DECKS.values())}) >= 3
