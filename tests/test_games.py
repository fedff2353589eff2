import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equilib.games import (
    FiniteGame,
    GameError,
    MixedStrategy,
    best_replies,
    eliminate_strictly_dominated,
    game_from_json,
    game_to_json,
    is_equilibrium,
    payoff,
    payoff_against,
    profile_of,
)
from equilib.rational import RationalParseError

F = Fraction


# -- mixed strategies ------------------------------------------------------


def test_mixture_normalization_required():
    with pytest.raises(GameError):
        MixedStrategy.of({"a": F(1, 2), "b": F(1, 4)})


def test_negative_weight_rejected():
    with pytest.raises(GameError):
        MixedStrategy.of({"a": F(3, 2), "b": F(-1, 2)})


@pytest.mark.parametrize("weight", [1.0, True, "1e0", "1.0"])
def test_mixture_refuses_inexact_weights(weight):
    with pytest.raises(RationalParseError):
        MixedStrategy.of({"a": weight})


def test_pure_and_support():
    s = MixedStrategy.pure("x")
    assert s.is_pure()
    assert s.support() == ("x",)
    assert s.weight("x") == 1
    assert s.weight("y") == 0


@pytest.mark.parametrize(
    "nums, den",
    [([("a", 1)], 1), ([("b", 2), ("a", 3)], 5), ([("y", 1), ("x", 4), ("w", 1)], 6)],
)
def test_constructors_give_one_normal_form(nums, den):
    """``of`` and ``_from_integers`` build the same value, labels sorted and no
    zero weights, so it is equal and hash-equal; ``_from_integers`` keeps the
    integer form that the lcm of the denominators gives."""
    built = MixedStrategy._from_integers(nums, den)
    listed = {s: F(k, den) for s, k in nums}
    for other in (MixedStrategy.of(listed), MixedStrategy.of({**listed, "zz": 0, "0": F(0)})):
        assert built == other and hash(built) == hash(other)
        assert built.weights == other.weights == tuple(sorted(listed.items()))
        assert built.integer_weights == other.integer_weights  # the latter by lcm
    if len(nums) == 1:
        assert built == MixedStrategy.pure(nums[0][0])


def test_raw_constructor_compares_its_weights_as_given():
    """The value is the weight tuple: a listed zero weight makes another value."""
    listed = MixedStrategy((("a", F(1)), ("b", F(0))))
    assert listed != MixedStrategy.of({"a": 1, "b": 0}) == MixedStrategy.pure("a")
    assert listed.support() == ("a",) and listed.integer_weights == ((("a", 1),), 1)


# -- payoffs ---------------------------------------------------------------


def random_bimatrix(seed, rows=3, cols=3, lo=-5, hi=5):
    rng = random.Random(seed)
    labels = [[f"r{i}" for i in range(rows)], [f"c{j}" for j in range(cols)]]
    payoffs = {
        (a, b): (F(rng.randint(lo, hi)), F(rng.randint(lo, hi)))
        for a in labels[0]
        for b in labels[1]
    }
    return FiniteGame.of(["p1", "p2"], labels, payoffs)


weight_lists = st.lists(
    st.integers(min_value=0, max_value=5), min_size=3, max_size=3
).filter(lambda ws: sum(ws) > 0)


@given(st.integers(0, 10**6), weight_lists, weight_lists, st.fractions(min_value=0, max_value=1, max_denominator=8))
@settings(max_examples=60)
def test_payoff_multilinear_in_own_strategy(seed, ws1, ws2, t):
    """Payoff is affine in each player's mixture coordinate."""
    game = random_bimatrix(seed)
    tot1, tot2 = sum(ws1), sum(ws2)
    s1 = MixedStrategy.of(
        {l: F(w, tot1) for l, w in zip(game.strategies[0], ws1) if w}
    )
    s1_alt = MixedStrategy.pure(game.strategies[0][0])
    s2 = MixedStrategy.of(
        {l: F(w, tot2) for l, w in zip(game.strategies[1], ws2) if w}
    )
    blend_weights = {}
    for l in game.strategies[0]:
        w = (1 - t) * s1.weight(l) + t * s1_alt.weight(l)
        if w:
            blend_weights[l] = w
    blend = MixedStrategy.of(blend_weights)
    lhs = payoff(game, (blend, s2), 0)
    rhs = (1 - t) * payoff(game, (s1, s2), 0) + t * payoff(game, (s1_alt, s2), 0)
    assert lhs == rhs


# The eps-best replies and the eps-best-reply graph are test oracles: the
# program itself only needs exact best replies.


def eps_best_replies(game, profile, player, eps):
    """Pure strategies within (strictly less than) eps of the best payoff."""
    values = {s: payoff_against(game, profile, player, s) for s in game.strategies[player]}
    best = max(values.values())
    return {s for s, v in values.items() if v > best - eps}


def in_graph_br_eps(game, sigma, tau, eps):
    """True iff each tau_n is an eps-best reply (strict shortfall) against sigma."""
    return all(
        payoff_against(game, sigma, n, tau[n])
        > max(payoff_against(game, sigma, n, s) for s in game.strategies[n]) - eps
        for n in range(game.num_players)
    )


@given(st.integers(0, 10**6), weight_lists)
@settings(max_examples=40)
def test_best_replies_subset_of_eps_best_replies(seed, ws):
    game = random_bimatrix(seed)
    tot = sum(ws)
    opp = MixedStrategy.of(
        {l: F(w, tot) for l, w in zip(game.strategies[1], ws) if w}
    )
    prof = (MixedStrategy.pure(game.strategies[0][0]), opp)
    br = best_replies(game, prof, 0)
    for eps in (F(1, 100), F(1, 2), F(3)):
        assert br <= eps_best_replies(game, prof, 0, eps)


@given(st.integers(0, 10**6), weight_lists, weight_lists)
@settings(max_examples=40)
def test_equilibrium_iff_in_best_reply_graph(seed, ws1, ws2):
    game = random_bimatrix(seed)
    t1, t2 = sum(ws1), sum(ws2)
    prof = (
        MixedStrategy.of({l: F(w, t1) for l, w in zip(game.strategies[0], ws1) if w}),
        MixedStrategy.of({l: F(w, t2) for l, w in zip(game.strategies[1], ws2) if w}),
    )
    if is_equilibrium(game, prof):
        # equilibria sit in the graph for every positive eps
        for eps in (F(1, 1000), F(1), F(10)):
            assert in_graph_br_eps(game, prof, prof, eps)
    else:
        # a non-equilibrium leaves the graph once eps undercuts its shortfall
        shortfall = max(
            max(payoff_against(game, prof, n, s) for s in game.strategies[n])
            - payoff(game, prof, n)
            for n in range(2)
        )
        assert shortfall > 0
        assert not in_graph_br_eps(game, prof, prof, shortfall)


def test_strict_dominance_simple():
    game = FiniteGame.of(
        ["p1", "p2"],
        [["a", "b"], ["x"]],
        {("a", "x"): (3, 0), ("b", "x"): (1, 0)},
    )
    reduced, trace = eliminate_strictly_dominated(game)
    assert [e.strategy for e in trace] == ["b"]
    assert reduced.strategies[0] == ("a",)


def test_elimination_preserves_equilibria(km_p1):
    reduced, trace = eliminate_strictly_dominated(km_p1)
    # every equilibrium of the reduced game extends to one of the full game
    from equilib.solver import support_enumeration

    for eq in support_enumeration(reduced).isolated:
        assert is_equilibrium(km_p1, eq)
    # witnesses really dominate at the point of removal
    for e in trace:
        assert e.witness.support()


def test_elimination_runs_one_lp_per_eliminated_strategy(monkeypatch):
    import equilib.games as games
    from equilib.examples import km_perturbation_1

    calls = []
    linprog = games.linprog
    monkeypatch.setattr(games, "linprog", lambda *a, **k: calls.append(1) or linprog(*a, **k))
    game = km_perturbation_1(F(1, 10))
    # t, b, L and L' each answer some pure profile best, so only m, M, R could need
    # an LP, and a pure strategy strictly dominates each of them: none is solved
    reduced, trace = eliminate_strictly_dominated(game)
    assert [(e.player, e.strategy) for e in trace] == [(0, "m"), (1, "M"), (1, "R")]
    assert all(e.witness.is_pure() for e in trace)
    assert calls == []
    # the reduction is computed once per game object
    again, trace_again = eliminate_strictly_dominated(game)
    assert again is reduced and trace_again == trace and calls == []


def test_elimination_runs_one_lp_where_only_a_mixture_dominates(monkeypatch):
    import equilib.games as games

    calls = []
    linprog = games.linprog
    monkeypatch.setattr(games, "linprog", lambda *a, **k: calls.append(1) or linprog(*a, **k))
    # 1/2 t + 1/2 b earns 3/2 > 1 against L and R, but neither t nor b beats m against both
    game = FiniteGame.of(
        ["1", "2"],
        [["t", "m", "b"], ["L", "R"]],
        {("t", "L"): (3, 1), ("t", "R"): (0, 0), ("m", "L"): (1, 0), ("m", "R"): (1, 1),
         ("b", "L"): (0, 0), ("b", "R"): (3, 1)},
    )
    reduced, trace = eliminate_strictly_dominated(game)
    assert [(e.player, e.strategy) for e in trace] == [(0, "m")]
    assert trace[0].witness == MixedStrategy.of({"t": F(1, 2), "b": F(1, 2)})
    assert reduced.strategies == (("t", "b"), ("L", "R"))
    assert len(calls) == 1


def test_payoff_against_matches_pure_insertion(km):
    prof = profile_of({"t": F(1, 2), "b": F(1, 2)}, "L")
    direct = payoff_against(km, prof, 1, "M")
    swapped = payoff(km, (prof[0], MixedStrategy.pure("M")), 1)
    assert direct == swapped


def test_restrict_keeps_order(km):
    sub = km.restrict([["b", "t"], ["L", "R"]])
    assert sub.strategies == (("t", "b"), ("L", "R"))
    assert sub.payoffs[("t", "L")] == km.payoffs[("t", "L")]


# -- serialization ---------------------------------------------------------


@pytest.mark.parametrize("seed", range(20))
def test_json_round_trip(seed):
    game = random_bimatrix(seed, rows=2 + seed % 3, cols=2 + (seed // 3) % 3)
    assert game_from_json(game_to_json(game)) == game


def test_bad_rational_entry_reported_with_location():
    data = {
        "players": ["p1", "p2"],
        "strategies": [["a"], ["x", "y"]],
        "payoffs": [[["1", "0"], ["1/0", "2"]]],
    }
    with pytest.raises(GameError, match=r"payoffs\[a\]\[y\]"):
        game_from_json(data)


def test_missing_entry_rejected():
    with pytest.raises(GameError):
        FiniteGame.of(["p1", "p2"], [["a", "b"], ["x"]], {("a", "x"): (0, 0)})


# -- validation ------------------------------------------------------------


def test_player_without_strategies_rejected():
    with pytest.raises(GameError, match="player 'p1' has no strategies"):
        FiniteGame.of(["p1", "p2"], [[], ["x"]], {})


def test_repeated_strategy_label_rejected():
    payoffs = {(a, b): (0, 0) for a in "ab" for b in "xy"}
    with pytest.raises(GameError, match="player 'p2' repeats a strategy label"):
        FiniteGame.of(["p1", "p2"], [["a", "b"], ["x", "x"]], payoffs)


@pytest.mark.parametrize("value", [0.1, 1.0, True, "0.1", "1e3"])
def test_game_refuses_inexact_payoffs(value):
    with pytest.raises(RationalParseError):
        FiniteGame.of(["p1", "p2"], [["a"], ["x"]], {("a", "x"): (value, 0)})


def test_game_reads_exact_payoffs():
    q = F(2, 3)
    game = FiniteGame.of(["p1", "p2"], [["a"], ["x"]], {("a", "x"): (q, "-1/2")})
    assert game.payoffs[("a", "x")] == (q, F(-1, 2))
    assert game.payoffs[("a", "x")][0] is q
