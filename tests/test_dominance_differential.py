"""Differential tests of iterated strict dominance, the realization check and indices.

``eliminate_strictly_dominated`` works on the game's integer payoff
tables, over per-player lists of the strategies still in play, and runs
its LP only for a strategy that is a best reply to no pure profile of the
others and that no other pure strategy strictly dominates; the oracle
(``oracles.reference_eliminate_strictly_dominated``) restricts the game
after each removal and asks every strategy in ``Fraction`` s, a pure
dominator first and the LP on the ``Fraction`` payoffs.  Both must give
the same trace (players, strategies, order and witnesses, mixtures
included) and the same reduced game on 560 seeded 2- and 3-player games,
with payoffs 0..2 and 0..20 and planted strategies that a mixture of two
others strictly dominates (their payoffs have denominator 2, so the
integer tables are scaled); every witness must strictly dominate its
strategy where it is removed.  On the same games ``_dominating_mixture``
must find no witness exactly where the LP-only oracle
(``oracles.reference_dominating_mixture``) finds none.

``verify_realization`` certifies on the dominance-reduced game; the oracle
(``oracles.reference_verify_realization``) enumerates the whole game.  Both
must return the same (found, failures) on the perturbed km games, on the
games the km pipeline builds, and on seeded degenerate and nondegenerate
games with and without dominated strategies.

``index`` reads the equilibria of the certified dominance-reduced game
(``indices.reduced_equilibria``); the oracle
(``oracles.reference_index_report``) enumerates the whole game.  Both must
give the same entries, total, component order and per-component entries on
seeded two-player games from 2x2 to 4x4.
"""

import itertools
import json
import random
from fractions import Fraction

import pytest

from equilib.cli import _km_duplication_phi, main
from equilib.equivalence import identity_surjection
from equilib.examples import KM_EPS, KM_EXPECTED, km_game
from equilib.games import (
    FiniteGame,
    _dominating_mixture,
    eliminate_strictly_dominated,
    profile_of,
    save_game,
    strictly_dominates,
)
from equilib.indices import (
    component_entry,
    game_index_report,
    reduced_equilibria,
    verify_realization,
)
from equilib.perturb import PipelineParams, TargetPoint, TargetSpec, run_pipeline
from equilib.solver import components, support_enumeration
from oracles import (
    reference_dominating_mixture,
    reference_eliminate_strictly_dominated,
    reference_index_report,
    reference_verify_realization,
)

F = Fraction

SHAPES = [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (2, 2, 2), (3, 2, 2)]
SEEDS_PER_CASE = 40  # 7 shapes x 2 payoff ranges x 40 seeds = 560 games


def seeded_game(seed: int, shape, high: int, planted: int) -> FiniteGame:
    """Payoffs 0..high, plus `planted` strategies dominated by a 50/50 mixture.

    A planted strategy of player n is inserted at a random place in n's
    list; against every pure profile of the others it pays n half the
    payoffs of two existing strategies a, b (possibly equal) minus 1/2,
    and pays the others fresh random payoffs.
    """
    rng = random.Random(f"dominance:{seed}:{shape}:{high}")
    strategies = [[f"s{n}{i}" for i in range(k)] for n, k in enumerate(shape)]
    payoffs = {
        pure: [F(rng.randint(0, high)) for _ in shape] for pure in itertools.product(*strategies)
    }
    for k in range(planted):
        n = rng.randrange(len(shape))
        a, b = rng.choice(strategies[n]), rng.choice(strategies[n])
        new = f"d{n}{k}"
        strategies[n].insert(rng.randrange(len(strategies[n]) + 1), new)
        for pure in itertools.product(*strategies):
            if pure[n] == new:
                mixed = sum(payoffs[pure[:n] + (s,) + pure[n + 1 :]][n] for s in (a, b)) / 2
                payoffs[pure] = [F(rng.randint(0, high)) for _ in shape]
                payoffs[pure][n] = mixed - F(1, 2)
    players = [f"p{n}" for n in range(len(shape))]
    return FiniteGame.of(players, strategies, payoffs)


def trace_key(trace):
    return [(e.player, e.strategy) for e in trace]


def assert_witnesses_dominate(game, trace):
    """Each witness strictly dominates its strategy in the game reduced up to its removal."""
    for e in trace:
        assert strictly_dominates(game, e.player, e.witness, e.strategy), e
        keep = [list(s) for s in game.strategies]
        keep[e.player].remove(e.strategy)
        game = game.restrict(keep)


@pytest.mark.parametrize("high", [2, 20])
@pytest.mark.parametrize("shape", SHAPES)
def test_elimination_trace_matches_one_lp_per_strategy(shape, high):
    eliminated = pure = mixed = 0
    for seed in range(SEEDS_PER_CASE):
        game = seeded_game(seed, shape, high, planted=seed % 3)
        want_reduced, want_trace = reference_eliminate_strictly_dominated(game)
        reduced, trace = eliminate_strictly_dominated(game)
        # players, strategies, order and witnesses, mixtures included
        assert trace == want_trace, (shape, high, seed)
        assert reduced == want_reduced, (shape, high, seed)
        assert_witnesses_dominate(game, trace)
        eliminated += len(trace)
        pure += sum(e.witness.is_pure() for e in trace)
        mixed += sum(not e.witness.is_pure() for e in trace)
    # the planted strategies and the random ones give the loop work to do;
    # the pure screen finds some of it, the LP the rest
    assert eliminated >= SEEDS_PER_CASE // 2
    assert pure > 0 and mixed > 0


@pytest.mark.parametrize("high", [2, 20])
@pytest.mark.parametrize("shape", SHAPES)
def test_pure_screen_finds_a_witness_exactly_where_the_lp_does(shape, high):
    found = mixed = 0
    for seed in range(SEEDS_PER_CASE):
        game = seeded_game(seed, shape, high, planted=seed % 3)
        for player, labels in enumerate(game.strategies):
            for s in labels:
                witness = _dominating_mixture(game, [dict(pos) for pos in game.offsets], player, s)
                want = reference_dominating_mixture(game, player, s)
                assert (witness is None) == (want is None), (shape, high, seed, player, s)
                if witness is not None:
                    assert strictly_dominates(game, player, witness, s)
                    assert strictly_dominates(game, player, want, s)
                    found += 1
                    mixed += not witness.is_pure()
    assert found >= SEEDS_PER_CASE // 2
    # planted strategies are dominated by a 50/50 mixture, not always by a pure strategy
    assert mixed > 0


def assert_same_verification(game, phis, want):
    assert verify_realization(game, phis, want) == reference_verify_realization(game, phis, want)


@pytest.mark.parametrize("eps", KM_EPS)
@pytest.mark.parametrize("expect", KM_EXPECTED, ids=lambda e: e.name)
def test_verification_matches_full_enumeration_on_km_perturbations(expect, eps):
    phis = _km_duplication_phi()
    wrong = [(profile, -sign) for profile, sign in expect.equilibria]
    for want in (expect.equilibria, wrong, []):
        assert_same_verification(expect.game(eps), phis, want)
    found, failures = verify_realization(expect.game(eps), phis, expect.equilibria)
    assert failures == [] and len(found) == len(expect.equilibria)


HALF = F(1, 2)
KM_PIPELINE_CASES = {
    "three targets": (
        [
            TargetPoint(0, profile_of("t", "L"), 1),
            TargetPoint(0, profile_of("b", "L"), 1),
            TargetPoint(0, profile_of({"t": HALF, "b": HALF}, "L"), -1),
        ],
        F(1, 10),
    ),
    "single pure target": ([TargetPoint(0, profile_of("t", "L"), 1)], F(1, 10)),
    "single mixed target": (
        [TargetPoint(0, profile_of({"t": HALF, "b": HALF}, "L"), 1)],
        F(1, 100),
    ),
}


@pytest.mark.parametrize("case", KM_PIPELINE_CASES)
def test_verification_matches_full_enumeration_on_pipeline_outputs(case):
    points, eps = KM_PIPELINE_CASES[case]
    spec, params = TargetSpec(tuple(points)), PipelineParams(eps=eps)
    perturbed, projections, report = run_pipeline(km_game(), spec, params)
    assert report.verified, report.failures
    want = [(tp.profile, tp.sign) for tp in points]
    assert_same_verification(perturbed, projections, want)
    assert_same_verification(perturbed, projections, [])
    # the pipeline's own report came from the reduced game's certificate
    found, _ = reference_verify_realization(perturbed, projections, want)
    assert [eq for eq, _, _ in found] == report.equilibria
    assert [idx for _, _, idx in found] == report.indices


@pytest.mark.parametrize("high", [2, 20])
def test_verification_matches_full_enumeration_on_seeded_games(high):
    outcomes = set()
    for seed in range(60):
        game = seeded_game(seed, (3, 3), high, planted=seed % 3)
        phis = [identity_surjection(s) for s in game.strategies]
        found, failures = reference_verify_realization(game, phis, [])
        want = [(proj, idx) for _, proj, idx in found]
        for w in (want, []):
            assert_same_verification(game, phis, w)
        outcomes.add((bool(eliminate_strictly_dominated(game)[1]), len(failures) > 1))
    # games with and without eliminations, and with failures beyond the target mismatch
    assert {reduces for reduces, _ in outcomes} == {False, True}
    if high == 2:
        assert any(more for _, more in outcomes)


INDEX_SHAPES = [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)]
INDEX_SEEDS = 30  # 5 shapes x 2 payoff ranges x 30 seeds = 300 games


@pytest.mark.parametrize("high", [2, 20])
@pytest.mark.parametrize("shape", INDEX_SHAPES)
def test_index_on_the_reduced_game_matches_the_whole_game(shape, high, tmp_path, capsys):
    reduced_games = 0
    for seed in range(INDEX_SEEDS):
        game = seeded_game(seed, shape, high, planted=seed % 3)
        want = reference_index_report(game)
        es = reduced_equilibria(game)
        got = game_index_report(es)
        assert got.to_json() == want.to_json(), (shape, high, seed)
        whole = components(support_enumeration(game))
        cg = components(es)
        assert cg.components == whole.components, (shape, high, seed)
        assert cg.subsets == whole.subsets, (shape, high, seed)
        reduced_games += bool(eliminate_strictly_dominated(game)[1])
        path, out = tmp_path / "g.json", tmp_path / "r.json"
        save_game(game, str(path))
        for k, entry in enumerate(want.entries):
            assert main(["index", str(path), "--component", str(k), "--out", str(out)]) == 0
            results = json.loads(out.read_text())["results"]
            assert results == {"index": entry.index, "method": entry.method}, (shape, seed, k)
            entry_k = component_entry(es, [cg.subsets[i] for i in cg.components[k]])
            assert entry_k == entry
        capsys.readouterr()
    # dominance reduces some of the games (272 of the 300 in all, 84 to 1x1)
    assert reduced_games > 0
