"""Game families whose equilibria and indices are known in closed form.

They check the two-player enumerator, the component graph and the index
against answers that need no second enumerator (the duplicated identity
game through its projection onto the identity game), so they reach sizes
that the enumerator oracles cannot; Jordan's game does the same for the
three-player enumerator.
"""

import itertools
from fractions import Fraction

from equilib.equivalence import AffineSurjection, duplicate_strategy
from equilib.games import FiniteGame, MixedStrategy, Profile


def identity_game(n: int) -> FiniteGame:
    """The n×n coordination game: both players get 1 when row i meets column i, else 0."""
    rows, cols = [f"r{i}" for i in range(n)], [f"c{i}" for i in range(n)]
    payoffs = {
        (r, c): (int(i == j),) * 2 for i, r in enumerate(rows) for j, c in enumerate(cols)
    }
    return FiniteGame.of(["p1", "p2"], [rows, cols], payoffs)


def identity_equilibria(n: int) -> dict[Profile, int]:
    """Every equilibrium of :func:`identity_game` with its index.

    There is one per nonempty common support S, rows and columns i in S
    each played with weight 1/|S|: 2^n - 1 in all.  Each is regular, and
    the one on k strategies per player has index (-1)^(k+1).
    """
    out = {}
    for k in range(1, n + 1):
        for support in itertools.combinations(range(n), k):
            profile = tuple(
                MixedStrategy.of({f"{side}{i}": Fraction(1, k) for i in support})
                for side in "rc"
            )
            out[profile] = (-1) ** (k + 1)
    return out


def duplicated_identity_game(n: int) -> tuple[FiniteGame, AffineSurjection]:
    """:func:`identity_game` with the row r0/2 + r1/2 added, and the row projection.

    The new row ties r0 and r1 wherever both are played, so each equilibrium
    of the identity game that plays both becomes a segment: a degenerate
    game whose components still map one to one onto those equilibria, with
    the same indices.
    """
    mixture = MixedStrategy.of({"r0": "1/2", "r1": "1/2"})
    return duplicate_strategy(identity_game(n), 0, mixture)


def jordan_game() -> FiniteGame:
    """Jordan's three-player matching pennies (J. Econ. Theory 59, 1993).

    Each player shows H or T.  Players 1 and 2 each win by matching the next
    player, player 3 by mismatching player 1; a win pays 1, a loss 0.  Each
    payoff depends on the next player alone, so a player mixes only if the
    next one plays 1/2, and a pure player makes the one before it pure too.
    The pure profiles chase each other round the cycle, so the only
    equilibrium has every player at 1/2.
    """
    sides = ("H", "T")
    payoffs = {
        (a, b, c): (int(a == b), int(b == c), int(c != a))
        for a, b, c in itertools.product(sides, repeat=3)
    }
    return FiniteGame.of(["p1", "p2", "p3"], [sides] * 3, payoffs)
