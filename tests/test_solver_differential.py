"""Differential test: labelled-vertex enumeration against the support-pair oracle.

The reference below is the earlier two-player enumerator, kept unchanged as
a test oracle: it loops over every support pair, enumerates the vertices of
each pair's factor polytopes, filters for maximality pairwise, and joins
maximal subsets whose factor polytopes intersect (one exact LP per pair).
The library's enumerator must reproduce its output exactly, order included.
"""

import itertools
import random
from fractions import Fraction
from typing import Sequence

import pytest

from equilib.examples import km_game, km_perturbation_1, km_perturbation_2
from equilib.games import (
    FiniteGame,
    GameError,
    Label,
    MixedStrategy,
    is_equilibrium,
)
from equilib.linalg import ONE, ZERO, linprog
from equilib.solver import (
    ComponentGraph,
    EquilibriumSet,
    NashSubset,
    components,
    support_enumeration,
)
from oracles import (
    brute_force_equilibria,
    factor_constraints,
    satisfies_factor,
    subset_contains,
    subset_vertex_enumeration,
)

F = Fraction


# --------------------------------------------------------------------------
# Reference: support-pair enumeration and LP-based components
# --------------------------------------------------------------------------


def _factor_vertices(
    game: FiniteGame, player: int, own_support: Sequence[Label], opp_support: Sequence[Label]
) -> list[MixedStrategy]:
    A_ub, b_ub, A_eq, b_eq = factor_constraints(game, player, own_support, opp_support)
    verts = subset_vertex_enumeration(A_ub, b_ub, A_eq, b_eq)
    out = []
    for v in verts:
        ms = MixedStrategy.of({s: w for s, w in zip(own_support, v) if w > 0})
        if ms not in out:
            out.append(ms)
    return sorted(out, key=lambda m: m.weights)


def reference_support_enumeration(game: FiniteGame) -> EquilibriumSet:
    """Complete equilibrium enumeration for a 2-player game.

    Emits isolated equilibria and the maximal Nash subsets (products of
    polytopes of equilibria, by vertex list) for degenerate games.
    """
    if game.num_players != 2:
        raise GameError("support_enumeration handles exactly 2 players")
    rows, cols = game.strategies
    candidates: list[NashSubset] = []
    for k1 in range(1, len(rows) + 1):
        for I in itertools.combinations(rows, k1):
            for k2 in range(1, len(cols) + 1):
                for J in itertools.combinations(cols, k2):
                    X = _factor_vertices(game, 0, I, J)
                    if not X:
                        continue
                    Y = _factor_vertices(game, 1, J, I)
                    if not Y:
                        continue
                    candidates.append(NashSubset((I, J), (tuple(X), tuple(Y))))

    # Keep only maximal candidates (vertex sets contained in another's polytope).
    def contained_in(a: NashSubset, b: NashSubset) -> bool:
        return all(
            satisfies_factor(game, n, v, b.supports[n], b.supports[1 - n])
            for n in range(2)
            for v in a.factors[n]
        )

    maximal: list[NashSubset] = []
    for a in candidates:
        if any(
            contained_in(a, b) and not contained_in(b, a)
            for b in candidates
            if b is not a
        ):
            continue
        if any(
            contained_in(a, b) and contained_in(b, a) for b in maximal
        ):
            continue  # duplicate description of the same subset
        maximal.append(a)

    isolated = [ns.sample() for ns in maximal if ns.is_singleton()]
    subsets = [ns for ns in maximal if not ns.is_singleton()]
    es = EquilibriumSet(game, isolated, subsets)
    for p in es.all_vertex_profiles():
        assert is_equilibrium(game, p), f"solver produced a non-equilibrium {p}"
    return es


def _factors_intersect(
    game: FiniteGame, player: int, a: NashSubset, b: NashSubset
) -> bool:
    """Nonempty intersection of the player's factor polytopes (exact LP)."""
    common = [s for s in a.supports[player] if s in b.supports[player]]
    if not common:
        return False
    # variables: weights over the union support, constrained to both H-reps.
    labels = list(game.strategies[player])
    Aub, bub, Aeq, beq = [], [], [], []
    for ns in (a, b):
        A_ub, b_ub, A_eq, b_eq = factor_constraints(
            game, player, ns.supports[player], ns.supports[1 - player]
        )
        sup = list(ns.supports[player])
        for s in labels:
            if s not in sup:
                Aeq.append([ONE if t == s else ZERO for t in labels])
                beq.append(ZERO)
        for row, beta in zip(A_ub, b_ub):
            Aub.append([row[sup.index(s)] if s in sup else ZERO for s in labels])
            bub.append(beta)
        for row, beta in zip(A_eq, b_eq):
            Aeq.append([row[sup.index(s)] if s in sup else ZERO for s in labels])
            beq.append(beta)
    res = linprog([ZERO] * len(labels), Aub, bub, Aeq, beq)
    return res.status == "optimal"


def reference_components(es: EquilibriumSet) -> ComponentGraph:
    """Connectivity of the equilibrium set via shared points of maximal subsets."""
    subs = es.all_subsets()
    game = es.game
    edges: set[tuple[int, int]] = set()
    for i, j in itertools.combinations(range(len(subs)), 2):
        if all(_factors_intersect(game, n, subs[i], subs[j]) for n in range(2)):
            edges.add((i, j))
    parent = list(range(len(subs)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in edges:
        parent[find(i)] = find(j)
    comp: dict[int, list[int]] = {}
    for i in range(len(subs)):
        comp.setdefault(find(i), []).append(i)
    return ComponentGraph(subs, edges, sorted(comp.values()))


# --------------------------------------------------------------------------
# Comparison
# --------------------------------------------------------------------------


def seeded_game(rows, cols, top, seed):
    """Payoffs drawn from 0..top; strategies listed in seeded order."""
    rng = random.Random(f"{rows}x{cols}/{top}/{seed}")
    labels = [[f"r{i}" for i in range(rows)], [f"c{j}" for j in range(cols)]]
    for side in labels:
        rng.shuffle(side)
    payoffs = {
        (a, b): (F(rng.randint(0, top)), F(rng.randint(0, top)))
        for a in labels[0]
        for b in labels[1]
    }
    return FiniteGame.of(["p1", "p2"], labels, payoffs)


SEEDED = [
    pytest.param(rows, cols, top, seed, id=f"{rows}x{cols}-0..{top}-s{seed}")
    for rows in range(1, 5)
    for cols in range(1, 5)
    for top in (2, 20)
    for seed in range(2 if rows * cols < 12 else 1)
]


def assert_same(game, grid=True):
    ref = reference_support_enumeration(game)
    es = support_enumeration(game)
    assert es.isolated == ref.isolated
    assert es.subsets == ref.subsets  # supports, factors and order
    assert es.exhaustive and not es.notes
    ref_cg, cg = reference_components(ref), components(es)
    assert cg.subsets == ref_cg.subsets
    assert cg.edges == ref_cg.edges
    assert cg.components == ref_cg.components
    if grid:
        subs = es.all_subsets()
        for prof in brute_force_equilibria(game, 4):
            assert any(subset_contains(game, ns, prof) for ns in subs), prof


@pytest.mark.parametrize("rows, cols, top, seed", SEEDED)
def test_matches_reference_on_seeded_games(rows, cols, top, seed):
    assert_same(seeded_game(rows, cols, top, seed))


@pytest.mark.parametrize(
    "make",
    [km_game, lambda: km_perturbation_1(F(1, 10)), lambda: km_perturbation_2(F(1, 10))],
    ids=["km", "km_perturbation_1", "km_perturbation_2"],
)
def test_matches_reference_on_km(make):
    assert_same(make())
