"""Differential tests of the component index and the vertex-form distance.

``component_index`` sums the Jacobian signs of the lexicographically
perturbed game's equilibria near a component; the oracle
(``oracles.trial_component_index``) enumerates three concrete payoff
perturbations of size 1/1000 and places their equilibria by distance.
Wherever the oracle returns an index the two must agree, every game's
indices must sum to +1, and ``game_index_report``, which gives a regular
isolated equilibrium its determinant index, must agree too.  The distance
from a profile to a Nash subset is an LP over the convex hulls of the
subset's factor vertices; the oracle keeps the earlier LP over each
factor's H-representation (a distribution on the support against which the
opponent's support strategies are best replies).  The linear part of an
affine vertex matching is one elimination of the stacked local coordinates;
the oracle keeps the earlier loop over d-subsets of the vertices, one
``solve_unique`` per row of the matrix.
"""

import itertools
import random
from fractions import Fraction
from typing import Optional

import pytest

from equilib.examples import km_game
from equilib.games import FiniteGame, MixedStrategy, Profile
from equilib.indices import (
    IndexError_,
    _linear_part_for_matching,
    component_index,
    game_index_report,
    index_regular,
)
from equilib.linalg import ONE, ZERO, Chart, Matrix, Vector, linprog, solve_unique
from equilib.solver import NashSubset, components, support_enumeration
from oracles import (
    component_distance,
    factor_constraints,
    is_regular,
    perturb_payoffs,
    trial_component_index,
)

F = Fraction


def random_game(rng: random.Random, shape, high: int) -> FiniteGame:
    rows = [f"r{i}" for i in range(shape[0])]
    cols = [f"c{j}" for j in range(shape[1])]
    payoffs = {
        (r, c): (rng.randint(0, high), rng.randint(0, high)) for r in rows for c in cols
    }
    return FiniteGame.of(["1", "2"], [rows, cols], payoffs)


def reference_distance_to_subset(
    game: FiniteGame, profile: Profile, subset: NashSubset
) -> Optional[Fraction]:
    """Max over players of the ell-infinity distance to the H-represented factor.

    None when a factor polytope of the subset is empty.
    """
    dist = ZERO
    for n in range(2):
        labels = list(game.strategies[n])
        sup = list(subset.supports[n])
        A_ub, b_ub, A_eq, b_eq = factor_constraints(game, n, sup, subset.supports[1 - n])
        x = profile[n].as_vector(labels)
        # variables: z over sup, t; minimize t with |x_s - z_s| <= t
        m = len(sup)
        Aub = [row + [ZERO] for row in A_ub]
        bub = list(b_ub)
        Aeq = [row + [ZERO] for row in A_eq]
        beq = list(b_eq)
        for idx, s in enumerate(sup):
            row = [ZERO] * (m + 1)
            row[idx] = ONE
            row[m] = -ONE
            Aub.append(row)
            bub.append(x[labels.index(s)])
            row2 = [ZERO] * (m + 1)
            row2[idx] = -ONE
            row2[m] = -ONE
            Aub.append(row2)
            bub.append(-x[labels.index(s)])
        off = max((x[labels.index(s)] for s in labels if s not in sup), default=ZERO)
        res = linprog([ZERO] * m + [ONE], Aub, bub, Aeq, beq)
        if res.status != "optimal":
            return None
        dist = max(dist, max(res.value, off))
    return dist


SHAPES = [(2, 2), (2, 3), (3, 2), (3, 3)]


def compare_with_the_trials(game: FiniteGame) -> tuple[int, int]:
    """Check every component of ``game``; the counts compared with the oracle and regular."""
    es = support_enumeration(game)
    cg = components(es)
    entries = game_index_report(es).entries
    compared = regular = 0
    for entry, comp in zip(entries, cg.components, strict=True):
        subs = [cg.subsets[i] for i in comp]
        new = component_index(es, subs)
        assert entry.index == new
        if len(subs) == 1 and subs[0].is_singleton() and is_regular(game, subs[0].sample()):
            assert index_regular(game, subs[0].sample()) == new
            regular += 1
        try:
            old = trial_component_index(es, subs)
        except IndexError_:
            continue
        assert old == new, (game.payoffs, subs)
        compared += 1
    assert sum(e.index for e in entries) == 1, game.payoffs
    return compared, regular


@pytest.mark.parametrize("high,count", [(2, 60), (3, 60), (20, 40)])
def test_component_rule_matches_the_perturbation_sum(high, count):
    rng = random.Random(f"component rule {high}")
    compared = regular = 0
    for _ in range(count):
        c, r = compare_with_the_trials(random_game(rng, rng.choice(SHAPES), high))
        compared += c
        regular += r
    assert compared > count and 2 * regular > count


@pytest.mark.parametrize(
    "shape,count",
    [((3, 3), 400), ((3, 4), 100), ((4, 3), 100), ((4, 4), 100)],
    ids=["3x3-400", "3x4-100", "4x3-100", "4x4-100"],
)
def test_component_index_matches_the_trials_on_degenerate_games(shape, count):
    rng = random.Random(f"component index {shape}")
    compared = regular = 0
    for _ in range(count):
        c, r = compare_with_the_trials(random_game(rng, shape, 2))
        compared += c
        regular += r
    assert compared > count and 5 * regular > count, (compared, regular)


def test_component_index_matches_the_trials_on_km():
    assert compare_with_the_trials(km_game()) == (1, 0)


def random_profile(rng: random.Random, game: FiniteGame) -> Profile:
    out = []
    for labels in game.strategies:
        cuts = sorted(F(rng.randint(0, 12), 12) for _ in range(len(labels) - 1))
        weights = [b - a for a, b in zip([ZERO] + cuts, cuts + [ONE])]
        out.append(MixedStrategy.of(dict(zip(labels, weights))))
    return tuple(out)


@pytest.mark.parametrize("seed", range(3))
def test_vertex_distance_matches_the_h_representation(seed):
    rng = random.Random(f"subset distance {seed}")
    cases = 0
    for _ in range(12):
        game = random_game(rng, rng.choice(SHAPES), 2)
        es = support_enumeration(game)
        subsets = es.all_subsets()
        points = [p for s in subsets for p in s.vertex_profiles()]
        points += support_enumeration(perturb_payoffs(game, seed, F(1, 50))).isolated
        points += [random_profile(rng, game) for _ in range(4)]
        for s in subsets:
            for p in points:
                assert component_distance(game, p, [s]) == reference_distance_to_subset(game, p, s)
                cases += 1
    assert cases > 100


def reference_linear_part(chart: Chart, xs: list[Vector], ys: list[Vector]) -> Optional[Matrix]:
    """A with A(local(x_i)) = local(y_i) for all i, or None, by d-subsets."""
    d = chart.dim
    U = [chart.to_local(x) for x in xs]
    V = [chart.to_local(y) for y in ys]
    for pick in itertools.combinations(range(len(U)), d):
        A = [solve_unique([U[i] for i in pick], [V[i][r] for i in pick]) for r in range(d)]
        if None in A:  # these d local coordinates are dependent
            continue
        images = [[sum(A[r][c] * u[c] for c in range(d)) for r in range(d)] for u in U]
        return A if images == V else None
    return None


def embedded(point: list[Fraction]) -> list[Fraction]:
    """``point`` on the plane where the coordinates sum to one, one dimension up."""
    return point + [ONE - sum(point, ZERO)]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_matching_elimination_matches_the_subset_loop(dim):
    rng = random.Random(f"affine matching {dim}")
    outcomes = {True: 0, False: 0}
    for _ in range(6):
        xs = [[F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(dim)] for _ in range(dim + 1)]
        sigma = [sum(c, ZERO) / (dim + 1) for c in zip(*xs)]
        chart = Chart([embedded(sigma)] + [embedded(x) for x in xs])
        if chart.dim != dim:
            continue  # affinely dependent vertices
        # a linear image of X about sigma keeps sigma as barycenter; a shifted one does not
        M = [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(dim)] for _ in range(dim)]
        shift = [F(rng.randint(1, 4), 5) for _ in range(dim)]
        centred = [
            [s + sum(M[r][c] * (x[c] - sigma[c]) for c in range(dim)) for r, s in enumerate(sigma)]
            for x in xs
        ]
        for ys in (centred, [[a + b for a, b in zip(y, shift)] for y in centred]):
            for perm in itertools.permutations(ys):
                args = chart, [embedded(x) for x in xs], [embedded(y) for y in perm]
                got = _linear_part_for_matching(*args)
                assert got == reference_linear_part(*args)
                outcomes[got is not None] += 1
    assert outcomes[True] >= 4 * (dim + 1) and outcomes[False] >= 4 * (dim + 1), outcomes
