import random
from fractions import Fraction

import pytest

from equilib.equivalence import (
    AffineSurjection,
    build_hat_game,
    build_tilde_game,
    check_equivalence,
    duplicate_strategy,
    hat_marginal,
    identity_surjection,
    mapping_to_json,
    project_profile,
    save_mapping,
)
from equilib.examples import km_perturbation_1
from equilib.games import (
    FiniteGame,
    GameError,
    MixedStrategy,
    is_equilibrium,
    payoff,
    profile_of,
)
from equilib.geometry import Triangulation
from equilib.indices import game_index_report, index_regular
from equilib.solver import components, support_enumeration
from oracles import load_mapping, mapping_from_json, subset_contains

F = Fraction
HALF = F(1, 2)


# -- duplication -----------------------------------------------------------


def test_duplicate_pure_matches_perturbation_at_zero(km):
    dup, phi = duplicate_strategy(km, 1, MixedStrategy.pure("L"), new_label="L'")
    reference = km_perturbation_1(F(0))
    assert set(dup.strategies[1]) == set(reference.strategies[1])
    for a in dup.strategies[0]:
        for b in dup.strategies[1]:
            assert dup.payoffs[(a, b)] == reference.payoffs[(a, b)]


def test_duplicate_mixed_strategy_payoffs(km):
    mix = MixedStrategy.of({"L": HALF, "M": HALF})
    dup, phi = duplicate_strategy(km, 1, mix)
    new = phi.source_labels[-1]
    assert new.endswith("#dup")
    for a in km.strategies[0]:
        expected = payoff(km, (MixedStrategy.pure(a), mix), 0)
        assert dup.payoffs[(a, new)][0] == expected


def test_duplication_yields_equivalent_game(km):
    dup, phi = duplicate_strategy(km, 1, MixedStrategy.pure("L"), new_label="L'")
    phis = [identity_surjection(km.strategies[0]), phi]
    ident = [identity_surjection(km.strategies[n]) for n in range(2)]
    assert check_equivalence(dup, km, phis, ident, km)


def test_equilibria_transport_through_projection(km):
    dup, phi = duplicate_strategy(km, 1, MixedStrategy.pure("L"), new_label="L'")
    phis = [identity_surjection(km.strategies[0]), phi]
    eq = (
        MixedStrategy.pure("t"),
        MixedStrategy.of({"L": HALF, "L'": HALF}),
    )
    assert is_equilibrium(dup, eq)
    proj = project_profile(phis, eq)
    assert proj == profile_of("t", "L")
    assert is_equilibrium(km, proj)


def test_index_invariant_across_duplication():
    g1 = km_perturbation_1(F(1, 10))
    es = support_enumeration(g1)
    eq = es.isolated[0]
    assert index_regular(g1, eq) == 1  # matches the base-game count


def random_duplication(seed: int):
    """A seeded game (2×2 to 3×3, payoffs 0..2), the game with one random mixture of
    one player's strategies added as a pure strategy, and its projection."""
    rng = random.Random(f"invariance/{seed}")
    labels = [[f"{side}{i}" for i in range(rng.randint(2, 3))] for side in "rc"]
    payoffs = {(a, b): (rng.randint(0, 2), rng.randint(0, 2)) for a in labels[0] for b in labels[1]}
    game = FiniteGame.of(["1", "2"], labels, payoffs)
    player = rng.randrange(2)
    support = rng.sample(labels[player], rng.randint(1, len(labels[player])))
    weights = [rng.randint(1, 3) for _ in support]
    mixture = MixedStrategy.of({s: F(w, sum(weights)) for s, w in zip(support, weights)})
    bar, phi = duplicate_strategy(game, player, mixture, new_label="dup")
    phis = [identity_surjection(labels[n]) for n in range(2)]
    phis[player] = phi
    return game, bar, phis


def test_components_and_indices_are_invariant_under_duplication():
    """The components of a game with a duplicate strategy project one to one onto
    those of the game, with equal indices; each component's vertex profiles all
    project into one component."""
    irregular = 0
    for seed in range(200):
        game, bar, phis = random_duplication(seed)
        es, es_bar = support_enumeration(game), support_enumeration(bar)
        graph, graph_bar = components(es), components(es_bar)
        report, report_bar = game_index_report(es), game_index_report(es_bar)
        images = []
        for component in graph_bar.components:
            points = {
                project_profile(phis, p)
                for i in component
                for p in graph_bar.subsets[i].vertex_profiles()
            }
            # components are disjoint, so each point has at most one owner
            owners = [
                k
                for q in points
                for k, target in enumerate(graph.components)
                if any(subset_contains(game, graph.subsets[i], q) for i in target)
            ]
            assert len(owners) == len(points) and len(set(owners)) == 1, seed
            images.append(owners[0])
        assert sorted(images) == list(range(len(graph.components))), seed
        assert [e.index for e in report_bar.entries] == [report.entries[k].index for k in images]
        irregular += any(e.method != "determinant" for e in report_bar.entries)
    # most cases reach the perturbation path: a component that is no regular
    # isolated equilibrium
    assert irregular > 100, irregular


def test_surjection_validates_witnesses():
    # the witness claimed for "y" actually maps onto "x"
    with pytest.raises(GameError):
        AffineSurjection(
            ("a", "b"),
            ("x", "y"),
            {"a": MixedStrategy.pure("x"), "b": MixedStrategy.pure("x")},
            {"x": MixedStrategy.pure("a"), "y": MixedStrategy.pure("b")},
        )


# -- mapping serialization -------------------------------------------------


def test_mapping_round_trip(tmp_path, km):
    dup, phi = duplicate_strategy(km, 1, MixedStrategy.pure("L"), new_label="L'")
    phis = [identity_surjection(km.strategies[0]), phi]
    path = tmp_path / "mapping.json"
    save_mapping(path, phis)
    again = load_mapping(path)
    assert mapping_to_json(again) == mapping_to_json(phis)


def test_mapping_json_round_trip(km):
    phis = [identity_surjection(km.strategies[n]) for n in range(2)]
    data = mapping_to_json(phis)
    assert mapping_to_json(mapping_from_json(data)) == data


# -- tilde and hat games ---------------------------------------------------


def midpoint_triangulation():
    return Triangulation(
        [(F(1), F(0)), (HALF, HALF), (F(0), F(1))],
        [(0, 1), (1, 2)],
        [(F(1), F(0)), (F(0), F(1))],
    )


@pytest.fixture
def tilde(matching_pennies):
    tris = [midpoint_triangulation(), midpoint_triangulation()]
    return build_tilde_game(matching_pennies, tris)


def test_tilde_vertex_mixtures(tilde):
    mix = tilde.vertex_mixtures[0]["T0v1"]
    assert sorted(mix.weights) == [("A", HALF), ("B", HALF)]
    assert tilde.vertex_mixtures[0]["T0v0"] == MixedStrategy.pure("A")


def test_tilde_second_coordinate_is_payoff_irrelevant(tilde, matching_pennies):
    pg = tilde.polytope_game
    for a in tilde.first_labels[0]:
        rows = {
            pg.payoffs[(f"{a}&{b}", "T1v0&T0v0")][0]
            for b in tilde.second_labels(0)
        }
        assert len(rows) == 1


def test_tilde_projection_preserves_payoffs(tilde, matching_pennies):
    for a in tilde.first_labels[0]:
        for c in tilde.first_labels[1]:
            prof = (
                tilde.vertex_mixtures[0][a],
                tilde.vertex_mixtures[1][c],
            )
            expected = payoff(matching_pennies, prof, 0)
            got = tilde.polytope_game.payoffs[(f"{a}&{c}", f"{c}&{a}")][0]
            assert got == expected


def test_tilde_requires_simplex_cover(matching_pennies):
    bad = Triangulation(
        [(F(1), F(0)), (HALF, HALF)],
        [(0, 1)],
        [(F(1), F(0)), (HALF, HALF)],
    )
    with pytest.raises(GameError):
        build_tilde_game(matching_pennies, [bad, midpoint_triangulation()])


def trivial_refinement():
    e = [
        [F(1), F(0), F(0)],
        [F(0), F(1), F(0)],
        [F(0), F(0), F(1)],
    ]
    return Triangulation(e, [(0, 1, 2)], e)


def test_hat_game_reproduces_tilde_payoffs(tilde):
    hg = build_hat_game(tilde, [trivial_refinement(), trivial_refinement()])
    fg = hg.finite_game
    assert [len(s) for s in fg.strategies] == [9, 9]
    # hat vertices are the tilde vertices themselves here
    assert fg.payoffs[("H0v0&H1v0", "H1v0&H0v0")] == tilde.polytope_game.payoffs[
        ("T0v0&T1v0", "T1v0&T0v0")
    ]


def test_hat_marginal(tilde):
    hg = build_hat_game(tilde, [trivial_refinement(), trivial_refinement()])
    mix = MixedStrategy.of({"H0v0&H1v0": HALF, "H0v1&H1v2": HALF})
    first = hat_marginal(hg, 0, mix, 0)
    assert sorted(first.weights) == [("H0v0", HALF), ("H0v1", HALF)]
