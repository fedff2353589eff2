"""Differential test: the integer candidate test against the `Fraction` loop.

`linalg.vertex_enumeration` tests each subset's solution against the
inequality rows scaled to integers once per polytope, and
`solver._labelled_vertices` reads each vertex's tight rows the same way.
The references below are the earlier code, kept unchanged as test oracles:
one `Fraction` dot product per row per candidate, and per label.  The
library must return the same vertices in the same order, and the same
label bitmasks, on seeded generic and degenerate games and on games with
fractional payoffs; `oracles.subset_vertex_enumeration`, the subset loop
with equality rows, must do the same on systems with equality rows.

The lexicographic bases that `vertex_enumeration` returns with each vertex
are checked against one concrete perturbation: on the right-hand sides
beta_k + δ^(k+1), δ = 1/2^20, the subset loop must find exactly one vertex
per basis, and each basis must solve to one of them.  On a degenerate deck
they must equal, in order, those of `oracles.subset_lex_bases`, which
solves every subset, although `vertex_enumeration` solves only the subsets
that lie inside no earlier vertex's tight rows.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

import equilib.linalg as linalg
from equilib.equivalence import duplicate_strategy
from equilib.examples import km_game, km_perturbation_1, km_perturbation_2
from equilib.games import FiniteGame, Label, MixedStrategy
from equilib.linalg import (
    ONE,
    ZERO,
    Vector,
    dot,
    frac_vec,
    solve_unique,
    vertex_enumeration,
)
from equilib.solver import _labelled_vertices
from families import duplicated_identity_game, identity_game
from oracles import (
    factor_constraints,
    frac_mat,
    perturb_payoffs,
    reference_matrix_rank,
    subset_lex_bases,
    subset_vertex_enumeration,
)

F = Fraction


# --------------------------------------------------------------------------
# Reference: the Fraction loop
# --------------------------------------------------------------------------


def reference_vertex_enumeration(A_ub, b_ub, A_eq=None, b_eq=None) -> list[Vector]:
    """Every active-constraint subset, each candidate tested in `Fraction`s."""
    A_ub = frac_mat(A_ub)
    b_ub = frac_vec(b_ub)
    A_eq = frac_mat(A_eq or [])
    b_eq = frac_vec(b_eq or [])
    if not A_ub and not A_eq:
        return []
    dim = len(A_ub[0]) if A_ub else len(A_eq[0])
    need = dim - (reference_matrix_rank(A_eq) if A_eq else 0)
    if need < 0:
        return []
    vertices: list[Vector] = []
    seen: set[tuple] = set()
    for combo in itertools.combinations(range(len(A_ub)), need):
        A = A_eq + [A_ub[i] for i in combo]
        b = b_eq + [b_ub[i] for i in combo]
        x = solve_unique(A, b)
        if x is None:
            continue
        if all(dot(row, x) <= beta for row, beta in zip(A_ub, b_ub)):
            key = tuple(x)
            if key not in seen:
                seen.add(key)
                vertices.append(x)
    return vertices


def best_response_system(game: FiniteGame, player: int) -> tuple[list[Vector], Vector]:
    """The rows (A_ub, b_ub) of `player`'s best-response polytope."""
    opp = 1 - player
    own, other = game.strategies[player], game.strategies[opp]

    def u_opp(s: Label, t: Label) -> Fraction:
        return game.payoffs[(s, t) if player == 0 else (t, s)][opp]

    low = min(u_opp(s, t) for s in own for t in other)
    A_ub = [[-ONE if k == i else ZERO for k in range(len(own))] for i in range(len(own))]
    A_ub += [[u_opp(s, t) - low + 1 for s in own] for t in other]
    return A_ub, [ZERO] * len(own) + [ONE] * len(other)


def reference_labelled_vertices(game: FiniteGame, player: int) -> list[tuple[MixedStrategy, int]]:
    """The best-response polytope's labelled vertices, labels by `Fraction` dots."""
    own = game.strategies[player]
    A_ub, b_ub = best_response_system(game, player)
    shift, size = player * len(game.strategies[0]), len(A_ub)
    out = []
    for v in reference_vertex_enumeration(A_ub, b_ub):
        total = sum(v)
        if total == 0:
            continue
        tight = [dot(row, v) == beta for row, beta in zip(A_ub, b_ub)]
        labels = sum(1 << (k + shift) % size for k, t in enumerate(tight) if t)
        out.append((MixedStrategy.of({s: w / total for s, w in zip(own, v) if w}), labels))
    return out


# --------------------------------------------------------------------------
# Seeded inputs
# --------------------------------------------------------------------------


def random_game(rows: int, cols: int, top: int, seed: int) -> FiniteGame:
    rng = random.Random(f"enumerator/{rows}x{cols}/{top}/{seed}")
    R = [f"r{i}" for i in range(rows)]
    C = [f"c{j}" for j in range(cols)]
    pay = {(a, b): (rng.randint(0, top), rng.randint(0, top)) for a in R for b in C}
    return FiniteGame.of(["1", "2"], [R, C], pay)


GAMES = {
    **{f"4x4-0..20-{s}": (lambda s=s: random_game(4, 4, 20, s)) for s in range(10)},
    **{f"5x5-0..20-{s}": (lambda s=s: random_game(5, 5, 20, s)) for s in range(3)},
    **{f"3x3-0..2-{s}": (lambda s=s: random_game(3, 3, 2, s)) for s in range(25)},
    **{f"4x4-0..2-{s}": (lambda s=s: random_game(4, 4, 2, s)) for s in range(6)},
    **{f"3x4-0..1-{s}": (lambda s=s: random_game(3, 4, 1, s)) for s in range(6)},
    "km": km_game,
    "km-perturbation-1": lambda: km_perturbation_1(F(1, 10)),
    "km-perturbation-2": lambda: km_perturbation_2(F(1, 10)),
    # fractional payoffs: the index path's perturbed games
    **{
        f"km-perturbed-{t}": (lambda t=t: perturb_payoffs(km_game(), t, F(1, 1000)))
        for t in range(3)
    },
    **{
        f"3x3-0..2-{s}-perturbed-{t}": (
            lambda s=s, t=t: perturb_payoffs(random_game(3, 3, 2, s), t, F(1, 1000))
        )
        for s in range(4)
        for t in range(2)
    },
}


def factor_systems(game: FiniteGame):
    """`oracles.factor_constraints` of every support pair: inequality and equality rows."""
    rows, cols = game.strategies
    for player, (own, opp) in enumerate(((rows, cols), (cols, rows))):
        for k1 in range(1, len(own) + 1):
            for I in itertools.combinations(own, k1):
                for k2 in range(1, len(opp) + 1):
                    for J in itertools.combinations(opp, k2):
                        yield factor_constraints(game, player, I, J)


def random_system(seed: int):
    """Seeded rational system in 2..4 variables with 0..2 equality rows."""
    rng = random.Random(f"enumerator/system/{seed}")
    dim = rng.randint(2, 4)

    def entry() -> Fraction:
        return F(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 5)))

    # a box keeps most systems bounded; random rows cut it, ties included
    A_ub = [[ONE if k == i else ZERO for k in range(dim)] for i in range(dim)]
    A_ub += [[-ONE if k == i else ZERO for k in range(dim)] for i in range(dim)]
    b_ub = [F(rng.randint(1, 3))] * dim + [ZERO] * dim
    for _ in range(rng.randint(0, 3)):
        A_ub.append([entry() for _ in range(dim)])
        b_ub.append(entry() + 1)
    A_eq = [[entry() for _ in range(dim)] for _ in range(rng.randint(0, 2))]
    b_eq = [entry() for _ in A_eq]
    return A_ub, b_ub, A_eq or None, b_eq or None


# --------------------------------------------------------------------------
# Tests
# --------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(GAMES))
def test_labelled_vertices_match_the_fraction_loop(name):
    game = GAMES[name]()
    for player in range(2):
        got = [(v, labels) for v, labels, _ in _labelled_vertices(game, player)]
        assert got == reference_labelled_vertices(game, player), (name, player)


@pytest.mark.parametrize("name", ["km", "3x3-0..2-0", "3x3-0..2-1", "3x3-0..2-2", "km-perturbed-0"])
def test_vertex_enumeration_matches_on_factor_systems(name):
    game = GAMES[name]()
    systems = 0
    for A_ub, b_ub, A_eq, b_eq in factor_systems(game):
        assert subset_vertex_enumeration(A_ub, b_ub, A_eq, b_eq) == reference_vertex_enumeration(
            A_ub, b_ub, A_eq, b_eq
        ), (name, A_ub, b_ub, A_eq, b_eq)
        systems += 1
    assert systems == 2 * 7 * 7


def test_vertex_enumeration_matches_on_random_systems():
    nonempty = with_equalities = 0
    for seed in range(150):
        A_ub, b_ub, A_eq, b_eq = random_system(seed)
        got = subset_vertex_enumeration(A_ub, b_ub, A_eq, b_eq)
        assert got == reference_vertex_enumeration(A_ub, b_ub, A_eq, b_eq), seed
        if A_eq is None:
            assert [v for v, _ in vertex_enumeration(A_ub, b_ub)] == got, seed
        assert all(type(a) is Fraction for v in got for a in v)
        nonempty += bool(got)
        with_equalities += bool(got) and A_eq is not None
    # the sample exercises both outcomes, and equality rows with vertices
    assert 0 < nonempty < 150 and with_equalities > 10


DELTA = F(1, 2**20)


def lex_systems():
    """Best-response polytopes of the degenerate games, and seeded boxes cut by ties."""
    for name in sorted(GAMES):
        if "0..20" not in name:
            for player in range(2):
                yield f"{name}-player{player}", *best_response_system(GAMES[name](), player)
    for seed in range(40):
        rng = random.Random(f"enumerator/lex/{seed}")
        dim = rng.randint(2, 3)
        # cuts through box corners and each other's vertices make ties
        A_ub = [[ONE if k == i else ZERO for k in range(dim)] for i in range(dim)]
        A_ub += [[-ONE if k == i else ZERO for k in range(dim)] for i in range(dim)]
        b_ub = [F(2)] * dim + [ZERO] * dim
        for _ in range(rng.randint(1, 4)):
            A_ub.append([F(rng.randint(-1, 2)) for _ in range(dim)])
            b_ub.append(F(rng.randint(0, 4)))
        order = list(range(len(A_ub)))
        rng.shuffle(order)
        yield f"box-{seed}", [A_ub[k] for k in order], [b_ub[k] for k in order]


@pytest.mark.parametrize(
    "name, A_ub, b_ub", [pytest.param(*system, id=system[0]) for system in lex_systems()]
)
def test_lex_bases_match_a_concrete_perturbation(name, A_ub, b_ub):
    perturbed = [beta + DELTA ** (k + 1) for k, beta in enumerate(b_ub)]
    vertices = set(map(tuple, subset_vertex_enumeration(A_ub, perturbed)))
    bases = [basis for _, found in vertex_enumeration(A_ub, b_ub) for basis in found]
    assert len(bases) == len(vertices), name
    solved = {
        tuple(solve_unique([A_ub[k] for k in basis], [perturbed[k] for k in basis]))
        for basis in bases
    }
    assert solved == vertices, name


def test_lex_systems_are_degenerate():
    # the systems above have vertices with several bases, and ones where a
    # subset at a feasible vertex is not a lexicographic basis
    several = rejected = 0
    for _, A_ub, b_ub in lex_systems():
        dim = len(A_ub[0])
        for v, bases in vertex_enumeration(A_ub, b_ub):
            several += len(bases) > 1
            tight = [k for k, (a, beta) in enumerate(zip(A_ub, b_ub)) if dot(a, v) == beta]
            subsets = [
                S for S in itertools.combinations(tight, dim)
                if solve_unique([A_ub[k] for k in S], [b_ub[k] for k in S]) is not None
            ]
            rejected += len(subsets) - len(bases)
    assert several > 50 and rejected > 50, (several, rejected)


def km_duplicated() -> FiniteGame:
    """km with one mixed strategy per player added."""
    game = km_game()
    for player in range(2):
        first, second = game.strategies[player][:2]
        mixture = MixedStrategy.of({first: F(1, 3), second: F(2, 3)})
        game, _ = duplicate_strategy(game, player, mixture)
    return game


DEGENERATE_GAMES = {
    "km": km_game,
    "km-duplicated": km_duplicated,
    **{f"identity-{n}-duplicated": (lambda n=n: duplicated_identity_game(n)[0]) for n in (2, 3, 4)},
    **{f"3x3-0..2-{s}": (lambda s=s: random_game(3, 3, 2, s)) for s in range(60)},
    **{f"4x4-0..2-{s}": (lambda s=s: random_game(4, 4, 2, s)) for s in range(50)},
}


def test_degenerate_deck_matches_the_subset_loop_that_solves_every_subset():
    # same vertices, and the same bases in the same order, although the
    # library skips each subset inside a known vertex's tight rows
    subsets = solved = 0
    for name, build in DEGENERATE_GAMES.items():
        game = build()
        for player in range(2):
            A_ub, b_ub = best_response_system(game, player)
            want, fresh = subset_lex_bases(A_ub, b_ub)
            assert vertex_enumeration(A_ub, b_ub) == want, (name, player)
            subsets += math.comb(len(A_ub), len(A_ub[0]))
            solved += fresh
    # the deck is degenerate: many subsets lie inside a known vertex's tight rows
    assert solved < 0.75 * subsets, (solved, subsets)


def test_km_solves_only_subsets_outside_every_known_vertex(monkeypatch):
    calls = []

    def counting(A, b):
        calls.append(1)
        return solve_unique(A, b)

    monkeypatch.setattr(linalg, "solve_unique", counting)
    for player in range(2):
        A_ub, b_ub = best_response_system(km_game(), player)
        calls.clear()
        vertex_enumeration(A_ub, b_ub)
        _, fresh = subset_lex_bases(A_ub, b_ub)
        assert len(calls) == fresh < math.comb(len(A_ub), len(A_ub[0])), player


# --------------------------------------------------------------------------
# The integer rows of `_labelled_vertices`
# --------------------------------------------------------------------------


def fractional_game(rows: int, cols: int, seed: int) -> FiniteGame:
    """Seeded payoffs k/q, k in 0..6 and q in 1..3, so rows have different denominators."""
    rng = random.Random(f"enumerator/fractional/{rows}x{cols}/{seed}")
    R = [f"r{i}" for i in range(rows)]
    C = [f"c{j}" for j in range(cols)]

    def entry() -> Fraction:
        return F(rng.randint(0, 6), rng.randint(1, 3))

    return FiniteGame.of(["1", "2"], [R, C], {(a, b): (entry(), entry()) for a in R for b in C})


INTEGER_ROW_GAMES = {
    "km": km_game,
    "km-perturbation-1": lambda: km_perturbation_1(F(1, 10)),
    "km-perturbed-0": lambda: perturb_payoffs(km_game(), 0, F(1, 1000)),
    **{f"identity-{n}": (lambda n=n: identity_game(n)) for n in (2, 3)},
    **{f"identity-{n}-duplicated": (lambda n=n: duplicated_identity_game(n)[0]) for n in (2, 3, 4)},
    **{f"3x3-0..2-{s}": (lambda s=s: random_game(3, 3, 2, s)) for s in range(20)},
    **{f"4x4-0..2-{s}": (lambda s=s: random_game(4, 4, 2, s)) for s in range(8)},
    **{f"3x3-fractional-{s}": (lambda s=s: fractional_game(3, 3, s)) for s in range(15)},
    **{f"4x4-fractional-{s}": (lambda s=s: fractional_game(4, 4, s)) for s in range(6)},
    **{
        f"3x3-0..2-{s}-perturbed": (
            lambda s=s: perturb_payoffs(random_game(3, 3, 2, s), 1, F(1, 1000))
        )
        for s in range(4)
    },
}


def fraction_row_vertices(
    game: FiniteGame, player: int
) -> list[tuple[MixedStrategy, int, list[int]]]:
    """The labelled vertices and basis label masks on the `Fraction` rows, by the subset loop.

    The rows are the shifted payoffs themselves, each row's scale its own,
    and `oracles.subset_lex_bases` solves every subset in `Fraction` s.
    """
    own = game.strategies[player]
    A_ub, b_ub = best_response_system(game, player)
    shift, size = player * len(game.strategies[0]), len(A_ub)
    out = []
    for v, bases in subset_lex_bases(A_ub, b_ub)[0]:
        total = sum(v)
        if total == 0:
            continue
        tight = [k for k, (a, beta) in enumerate(zip(A_ub, b_ub)) if dot(a, v) == beta]
        out.append((
            MixedStrategy.of({s: w / total for s, w in zip(own, v) if w}),
            sum(1 << (k + shift) % size for k in tight),
            [sum(1 << (k + shift) % size for k in basis) for basis in bases],
        ))
    return out


def test_integer_rows_give_the_fraction_rows_vertices_labels_and_bases():
    # the library scales every row by the opponent table's scale, not each
    # row by its own lcm; a positive row scale keeps the lexicographic bases
    rescaled = 0
    for name, build in INTEGER_ROW_GAMES.items():
        game = build()
        for player in range(2):
            assert _labelled_vertices(game, player) == fraction_row_vertices(game, player), (
                name, player
            )
            A_ub, b_ub = best_response_system(game, player)
            scale = game.integer_payoffs[1 - player][1]
            rescaled += any(
                math.lcm(*[x.denominator for x in (*a, beta)]) != scale
                for a, beta in zip(A_ub, b_ub)
            )
    # the deck has many polytopes whose rows' own scales are not the table's
    assert rescaled > 30, rescaled


def test_labelled_vertices_are_in_normal_form():
    # `MixedStrategy._from_integers` checks nothing: each vertex must equal,
    # and hash as, `MixedStrategy.of` of its weights, on lowest-terms integers
    vertices = 0
    for name, build in INTEGER_ROW_GAMES.items():
        game = build()
        for player in range(2):
            for sigma, _, _ in _labelled_vertices(game, player):
                normal = MixedStrategy.of(sigma.as_dict())
                assert sigma == normal and hash(sigma) == hash(normal), (name, sigma)
                assert all(type(w) is Fraction for _, w in sigma.weights), (name, sigma)
                nums, den = sigma.integer_weights
                assert all(k > 0 for _, k in nums) and sum(k for _, k in nums) == den
                assert math.gcd(den, *(k for _, k in nums)) == 1, (name, sigma)
                assert (nums, den) == normal.integer_weights, (name, sigma)
                vertices += 1
    assert vertices > 500, vertices
