"""Differential test: exact three-player solver against the sympy oracle.

The reference below is the earlier three-player enumerator, kept unchanged
as a test oracle: it builds each support's indifference equations as sympy
expressions and hands them to ``sympy.solve``.  The library's stdlib solver
must find the same isolated equilibria, the same ``exhaustive`` flag and the
same notes, except on a support where all three players mix and the
solution set is a curve or surface: sympy's choice of parameter there is
arbitrary, so both only have to flag it.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from equilib.games import (  # noqa: E402
    FiniteGame,
    GameError,
    MixedStrategy,
    Profile,
    is_equilibrium,
)
from equilib.linalg import ZERO  # noqa: E402
from equilib.solver import (  # noqa: E402
    EquilibriumSet,
    three_player_support_enumeration,
)
from oracles import brute_force_equilibria  # noqa: E402

F = Fraction


# --------------------------------------------------------------------------
# Reference implementation (sympy)
# --------------------------------------------------------------------------


def _diff_coeffs(game: FiniteGame, player: int, pair, others):
    """Multilinear coefficients of U(pair[0]) - U(pair[1]) for `player`.

    `others` maps each other player to either a fixed label or a
    (label_a, label_b) pair with weight variable on label_a.  Returns the
    coefficients of 1, p_m, p_k, p_m*p_k where m < k are the variable players.
    """
    var_players = sorted(n for n, v in others.items() if isinstance(v, tuple))
    coeffs = {frozenset(sub): ZERO for r in range(len(var_players) + 1)
              for sub in itertools.combinations(var_players, r)}
    other_ids = sorted(others)
    choices = []
    for n in other_ids:
        v = others[n]
        choices.append([(v, None)] if not isinstance(v, tuple) else [(v[0], n), (v[1], None)])
    for combo in itertools.product(*choices):
        # weight monomial: p_n for each variable player picking its first label,
        # (1 - p_n) for the second; expand (1 - p_n) into two monomial terms.
        pure = {n: lab for (lab, _), n in zip(combo, other_ids)}

        def add(term_players: frozenset, sign: int, base: Fraction):
            coeffs[term_players] += sign * base

        # expand the product of p / (1-p) factors
        terms = [(frozenset(), 1)]
        for (lab, tag), n in zip(combo, other_ids):
            v = others[n]
            if not isinstance(v, tuple):
                continue
            if tag is not None:  # picked first label: factor p_n
                terms = [(s | {n}, sg) for s, sg in terms]
            else:  # second label: factor (1 - p_n)
                terms = [(s, sg) for s, sg in terms] + [(s | {n}, -sg) for s, sg in terms]
        profile_a = [None] * game.num_players
        profile_b = [None] * game.num_players
        profile_a[player] = pair[0]
        profile_b[player] = pair[1]
        for n in other_ids:
            profile_a[n] = pure[n]
            profile_b[n] = pure[n]
        base = game.payoffs[tuple(profile_a)][player] - game.payoffs[tuple(profile_b)][player]
        for s, sg in terms:
            add(frozenset(s), sg, base)
    return coeffs, var_players


def reference_three_player_support_enumeration(game: FiniteGame) -> EquilibriumSet:
    """Partial enumeration for 3-player games: supports of size <= 2.

    Solves the indifference systems exactly (linear, or a quadratic after
    elimination, keeping rational roots only).  Degenerate continua,
    irrational roots, and supports of size >= 3 are reported in ``notes``
    and flagged via ``exhaustive=False``.
    """
    if game.num_players != 3:
        raise GameError("three_player_support_enumeration handles exactly 3 players")
    notes: list[str] = []
    exhaustive = all(len(s) <= 2 for s in game.strategies)
    if not exhaustive:
        notes.append("supports of size >= 3 were not searched")
    found: list[Profile] = []

    def emit(weights: dict[int, Fraction], supports) -> None:
        profile = []
        for n in range(3):
            sup = supports[n]
            if len(sup) == 1:
                profile.append(MixedStrategy.pure(sup[0]))
            else:
                p = weights[n]
                profile.append(MixedStrategy.of({sup[0]: p, sup[1]: 1 - p}))
        profile = tuple(profile)
        if is_equilibrium(game, profile) and profile not in found:
            found.append(profile)

    syms = sympy.symbols("p0 p1 p2")
    supports_per_player = [
        [c for k in (1, 2) for c in itertools.combinations(s, k) if k <= len(s)]
        for s in game.strategies
    ]
    for supports in itertools.product(*supports_per_player):
        var_players = [n for n in range(3) if len(supports[n]) == 2]
        if not var_players:
            emit({}, supports)
            continue
        eqs = []
        for n in var_players:
            others = {
                m: (supports[m] if len(supports[m]) == 2 else supports[m][0])
                for m in range(3) if m != n
            }
            coeffs, _ = _diff_coeffs(game, n, supports[n], others)
            expr = sympy.Integer(0)
            for term, c in coeffs.items():
                mono = sympy.Rational(c.numerator, c.denominator)
                for m in term:
                    mono *= syms[m]
                expr += mono
            eqs.append(sympy.expand(expr))
        if all(e == 0 for e in eqs):
            notes.append(f"degenerate continuum at supports {supports}")
            exhaustive = False
            emit({n: Fraction(1, 2) for n in var_players}, supports)
            continue
        try:
            sols = sympy.solve(eqs, [syms[n] for n in var_players], dict=True)
        except NotImplementedError:
            notes.append(f"unsolved system at supports {supports}")
            exhaustive = False
            continue
        for sol in sols:
            values: dict[int, Fraction] = {}
            free = False
            ok = True
            for n in var_players:
                v = sol.get(syms[n], syms[n])
                if v.free_symbols:
                    free = True
                    v = v.subs({s: sympy.Rational(1, 2) for s in v.free_symbols})
                v = sympy.simplify(v)
                if not v.is_rational:
                    ok = False
                    break
                r = sympy.Rational(v)
                q = Fraction(int(r.p), int(r.q))
                if not 0 < q < 1:
                    ok = False
                    break
                values[n] = q
            if free:
                notes.append(f"positive-dimensional solutions at supports {supports}")
                exhaustive = False
            if not ok:
                if not free:
                    notes.append(
                        f"irrational solutions at supports {supports} were discarded"
                    )
                    exhaustive = False
                continue
            emit(values, supports)
    return EquilibriumSet(game, found, [], exhaustive=exhaustive, notes=notes)


# --------------------------------------------------------------------------
# Comparison
# --------------------------------------------------------------------------


def random_game(rng: random.Random, hi: int, sizes=(2, 2, 2)) -> FiniteGame:
    labels = [[f"{'abc'[n]}{k + 1}" for k in range(m)] for n, m in enumerate(sizes)]
    payoffs = {
        p: tuple(F(rng.randint(0, hi)) for _ in range(3)) for p in itertools.product(*labels)
    }
    return FiniteGame.of(["p1", "p2", "p3"], labels, payoffs)


def positive_dimensional(game: FiniteGame, supports) -> bool:
    """Whether the support's indifference system has infinitely many complex solutions.

    Decided from a Groebner basis, independently of both solvers.
    """
    var_players = [n for n in range(3) if len(supports[n]) == 2]
    if not var_players:
        return False
    syms = sympy.symbols("p0 p1 p2")
    eqs = []
    for n in var_players:
        others = {
            m: (supports[m] if len(supports[m]) == 2 else supports[m][0])
            for m in range(3) if m != n
        }
        coeffs, _ = _diff_coeffs(game, n, supports[n], others)
        eqs.append(
            sum(
                sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(syms[m] for m in t))
                for t, c in coeffs.items()
            )
        )
    if all(sympy.expand(e) == 0 for e in eqs):
        return True
    basis = sympy.groebner(eqs, *(syms[n] for n in var_players), order="grevlex")
    return basis.exprs != [1] and not basis.is_zero_dimensional


def supports_of(profile: Profile) -> tuple:
    return tuple(tuple(s.support()) for s in profile)


def assert_agrees(game: FiniteGame) -> None:
    want = reference_three_player_support_enumeration(game)
    got = three_player_support_enumeration(game)
    all_mixing = itertools.product(*(itertools.combinations(s, 2) for s in game.strategies))
    families = {sup for sup in all_mixing if positive_dimensional(game, sup)}
    for es in (want, got):
        for sup in families:
            assert any(str(sup) in note for note in es.notes), (sup, es.notes)

    def outside(es: EquilibriumSet):
        isolated = {p for p in es.isolated if supports_of(p) not in families}
        notes = Counter(n for n in es.notes if not any(str(s) in n for s in families))
        return isolated, notes

    assert outside(got) == outside(want)
    assert got.exhaustive == want.exhaustive
    assert got.exhaustive == (not got.notes)


def assert_finds_grid_equilibria(game: FiniteGame) -> None:
    """Every grid equilibrium on a support with finitely many solutions is found."""
    got = set(three_player_support_enumeration(game).isolated)
    for p in brute_force_equilibria(game, 2):
        sup = supports_of(p)
        if all(len(s) <= 2 for s in sup) and not positive_dimensional(game, sup):
            assert p in got, p


@pytest.mark.parametrize("hi", [20, 2, 1])
def test_matches_reference_on_seeded_games(hi):
    rng = random.Random(hi)
    for _ in range(100):
        game = random_game(rng, hi)
        assert_agrees(game)
        assert_finds_grid_equilibria(game)


def test_matches_reference_with_three_strategies():
    rng = random.Random(3)
    for _ in range(10):
        assert_agrees(random_game(rng, 2, sizes=(2, 3, 2)))


def test_matches_reference_on_named_games():
    from test_solver import three_player_pennies

    labels = [["a", "b"], ["a", "b"], ["a", "b"]]
    profiles = list(itertools.product(*labels))
    coordination = {p: (F(len(set(p)) == 1),) * 3 for p in profiles}
    zero = {p: (ZERO,) * 3 for p in profiles}
    for game in (
        three_player_pennies(),
        FiniteGame.of(["p1", "p2", "p3"], labels, coordination),
        FiniteGame.of(["p1", "p2", "p3"], labels, zero),
    ):
        assert_agrees(game)
        assert_finds_grid_equilibria(game)
