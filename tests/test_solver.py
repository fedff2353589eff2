import itertools
import random
from fractions import Fraction

import pytest

from equilib.cli import main
from equilib.games import (
    FiniteGame,
    GameError,
    MixedStrategy,
    is_equilibrium,
    profile_of,
    save_game,
)
from equilib.solver import (
    components,
    support_enumeration,
    three_player_support_enumeration,
)
from oracles import brute_force_equilibria, subset_contains

F = Fraction


def random_bimatrix(seed, rows=3, cols=3):
    rng = random.Random(seed)
    labels = [[f"r{i}" for i in range(rows)], [f"c{j}" for j in range(cols)]]
    payoffs = {
        (a, b): (F(rng.randint(0, 20)), F(rng.randint(0, 20)))
        for a in labels[0]
        for b in labels[1]
    }
    return FiniteGame.of(["p1", "p2"], labels, payoffs)


def test_pure_coordination(coordination):
    es = support_enumeration(coordination)
    assert es.exhaustive
    profiles = {
        tuple(tuple(sorted(s.weights)) for s in p) for p in es.isolated
    }
    assert (((("A", F(1)),), (("C", F(1)),))) in profiles
    assert (((("B", F(1)),), (("D", F(1)),))) in profiles
    assert len(es.isolated) == 3  # two pure plus the mixed
    assert not es.subsets


def test_matching_pennies_unique_mixed(matching_pennies):
    es = support_enumeration(matching_pennies)
    assert len(es.isolated) == 1 and not es.subsets
    eq = es.isolated[0]
    assert all(set(s.weights) == {(l, F(1, 2)) for l in s.support()} for s in eq)


def test_km_maximal_subsets(km):
    es = support_enumeration(km)
    assert es.exhaustive
    assert not es.isolated  # the entire equilibrium set is one continuum
    supports = {ns.supports for ns in es.subsets}
    assert supports == {
        (("t",), ("L", "R")),
        (("m",), ("M", "R")),
        (("b",), ("L", "M")),
        (("t", "m"), ("R",)),
        (("t", "b"), ("L",)),
        (("m", "b"), ("M",)),
    }


def test_km_component_cycle(km):
    es = support_enumeration(km)
    cg = components(es)
    assert len(cg.components) == 1
    adj = cg.adjacency()
    assert all(len(neighbors) == 2 for neighbors in adj.values())


def test_all_enumerated_profiles_are_equilibria(km_p2):
    es = support_enumeration(km_p2)
    for p in es.isolated:
        assert is_equilibrium(km_p2, p)
    for ns in es.subsets:
        for p in ns.vertex_profiles():
            assert is_equilibrium(km_p2, p)


def test_self_check_raises_without_asserts(km, tmp_path, monkeypatch, capsys):
    """The final equilibrium check is an exception, so it also runs under -O."""
    path = tmp_path / "km.json"
    save_game(km, str(path))
    monkeypatch.setattr("equilib.solver.is_equilibrium", lambda game, profile: False)
    with pytest.raises(GameError, match="non-equilibrium"):
        support_enumeration(km)
    assert main(["solve", str(path)]) == 1
    assert "non-equilibrium" in capsys.readouterr().err


@pytest.mark.parametrize("seed", range(8))
def test_agrees_with_grid_oracle(seed):
    """Every grid profile the brute-force oracle flags lies in some subset."""
    game = random_bimatrix(seed, rows=2, cols=2)
    es = support_enumeration(game)
    subs = es.all_subsets()
    for prof in brute_force_equilibria(game, 4):
        assert any(subset_contains(game, ns, prof) for ns in subs)


def test_degenerate_duplicate_column():
    # two payoff-identical columns create a continuum, not isolated points
    game = FiniteGame.of(
        ["p1", "p2"],
        [["a", "b"], ["x", "y"]],
        {
            ("a", "x"): (1, 1),
            ("a", "y"): (1, 1),
            ("b", "x"): (0, 0),
            ("b", "y"): (0, 0),
        },
    )
    es = support_enumeration(game)
    assert not es.isolated
    assert len(es.subsets) == 1
    ns = es.subsets[0]
    mid = (
        MixedStrategy.pure("a"),
        MixedStrategy.of({"x": F(1, 2), "y": F(1, 2)}),
    )
    assert subset_contains(game, ns, mid)


# -- three players ---------------------------------------------------------


def three_player_pennies():
    labels = [["H0", "T0"], ["H1", "T1"], ["H2", "T2"]]

    def pay(a, b, c):
        # each player wants to match the next one around the cycle
        return (
            F(1 if a[0] == b[0] else -1),
            F(1 if b[0] == c[0] else -1),
            F(1 if c[0] == a[0] else -1),
        )

    payoffs = {
        (a, b, c): pay(a, b, c)
        for a in labels[0]
        for b in labels[1]
        for c in labels[2]
    }
    return FiniteGame.of(["p1", "p2", "p3"], labels, payoffs)


def test_three_player_cyclic_matching():
    game = three_player_pennies()
    es = three_player_support_enumeration(game)
    found = [
        p
        for p in es.isolated
        if all(set(w for _, w in s.weights) == {F(1, 2)} for s in p)
    ]
    assert found, "uniform mixed equilibrium not found"
    for p in es.isolated:
        assert is_equilibrium(game, p)


def test_three_player_pure_coordination():
    labels = [["a", "b"], ["a", "b"], ["a", "b"]]
    payoffs = {}
    for p in [(x, y, z) for x in "ab" for y in "ab" for z in "ab"]:
        v = F(1) if len(set(p)) == 1 else F(0)
        payoffs[p] = (v, v, v)
    game = FiniteGame.of(["p1", "p2", "p3"], labels, payoffs)
    es = three_player_support_enumeration(game)
    pure = {
        tuple(s.support()[0] for s in p)
        for p in es.isolated
        if all(s.is_pure() for s in p)
    }
    assert {("a", "a", "a"), ("b", "b", "b")} <= pure
    for p in es.isolated:
        assert is_equilibrium(game, p)


def test_three_player_flags_degenerate_continuum():
    # one player's payoffs constant: expect a flagged, non-exhaustive answer
    labels = [["a", "b"], ["x", "y"], ["u", "v"]]
    payoffs = {}
    for p in [(a, b, c) for a in "ab" for b in "xy" for c in "uv"]:
        payoffs[p] = (F(0), F(0), F(0))
    game = FiniteGame.of(["p1", "p2", "p3"], labels, payoffs)
    es = three_player_support_enumeration(game)
    assert not es.exhaustive
    assert es.notes


@pytest.mark.parametrize("seed", range(4))
def test_three_player_profiles_are_in_normal_form(seed):
    """The enumerator builds its mixtures directly; each must be the very value
    ``MixedStrategy.of`` gives, equal and hash-equal, with Fraction weights.
    Labels run against sort order for some players, and payoffs 0..2 give
    ties, so continua (midpoint candidates) are among the profiles."""
    rng = random.Random(seed)
    labels = [["r2", "r1"], ["x", "y"], ["w", "v"]]
    profiles = []
    for _ in range(50):
        payoffs = {
            p: tuple(F(rng.randint(0, 2)) for _ in range(3))
            for p in itertools.product(*labels)
        }
        es = three_player_support_enumeration(FiniteGame.of(["p1", "p2", "p3"], labels, payoffs))
        profiles += es.isolated
    assert any(not s.is_pure() for p in profiles for s in p)
    for profile in profiles:
        for s in profile:
            normal = MixedStrategy.of(s.as_dict())
            assert s == normal and hash(s) == hash(normal)
            assert all(type(w) is Fraction for _, w in s.weights)


@pytest.mark.parametrize("seed", range(4))
def test_two_player_vertex_profiles_are_in_normal_form(seed):
    """Every vertex profile ``support_enumeration`` returns, in isolated
    equilibria, Nash subsets and perturbed limits, equals and hash-equals its
    ``MixedStrategy.of`` form.  Payoffs 0..2 give ties, hence subsets."""
    rng = random.Random(seed)
    labels = [["r2", "r1", "r0"], ["c1", "c0", "c2"]]
    profiles = []
    for _ in range(20):
        payoffs = {
            p: (F(rng.randint(0, 2)), F(rng.randint(0, 2))) for p in itertools.product(*labels)
        }
        es = support_enumeration(FiniteGame.of(["p1", "p2"], labels, payoffs))
        profiles += es.all_vertex_profiles() + [p for _, p in es.perturbed]
    assert any(not s.is_pure() for p in profiles for s in p)
    for profile in profiles:
        for s in profile:
            normal = MixedStrategy.of(s.as_dict())
            assert s == normal and hash(s) == hash(normal)
            assert all(type(w) is Fraction for _, w in s.weights)


@pytest.mark.xfail(
    strict=True,
    reason="a rational root outside (0, 1) is reported as a discarded irrational "
    "solution and clears exhaustive, although nothing was lost",
)
def test_three_player_rational_root_out_of_range_keeps_exhaustive():
    # c1 strictly dominates c2, then a1 dominates a2, then b1 is the best reply.
    # At supports ({a1, a2}, {b1, b2}, {c1}) the indifference equations are
    # 2 - q = 0 and 2 p - 1 = 0 (p, q the weights of a1, b1): the only root
    # has q = 2, a rational weight outside (0, 1).  Every other system is a
    # nonzero constant, so the unique equilibrium (a1, b1, c1) is all there is.
    labels = [["a1", "a2"], ["b1", "b2"], ["c1", "c2"]]
    d1 = {("b1", "c1"): 1, ("b2", "c1"): 2, ("b1", "c2"): 1, ("b2", "c2"): 1}
    d2 = {("a1", "c1"): 1, ("a2", "c1"): -1, ("a1", "c2"): 1, ("a2", "c2"): 1}
    payoffs = {
        (a, b, c): (
            F(d1[b, c] if a == "a1" else 0),
            F(d2[a, c] if b == "b1" else 0),
            F(5 if c == "c1" else 0),
        )
        for a in labels[0]
        for b in labels[1]
        for c in labels[2]
    }
    es = three_player_support_enumeration(FiniteGame.of(["p1", "p2", "p3"], labels, payoffs))
    assert es.isolated == [profile_of("a1", "b1", "c1")]
    assert es.exhaustive, es.notes
