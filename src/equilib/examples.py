"""Built-in example games.

``km_game`` is a 3x3 bimatrix game whose equilibria form a single connected
component: six pure equilibria joined by segments of mixed equilibria into a
closed cycle (the component is homeomorphic to a circle).  The two
perturbation tables add a duplicate of column L (labelled L') plus
epsilon-size bonuses; they are the canonical fixtures for the
``verify-example km`` subcommand and the test-suite.  ``KM_EXPECTED`` holds
what that subcommand checks on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .games import FiniteGame, MixedStrategy

T, M_, B = "t", "m", "b"
L, LP, M, R = "L", "L'", "M", "R"


def km_game() -> FiniteGame:
    """Rows t, m, b; columns L, M, R; entries (row payoff, column payoff)."""
    table = {
        ("t", "L"): (1, 1), ("t", "M"): (0, -1), ("t", "R"): (-1, 1),
        ("m", "L"): (-1, 0), ("m", "M"): (0, 0), ("m", "R"): (-1, 0),
        ("b", "L"): (1, -1), ("b", "M"): (0, -1), ("b", "R"): (-2, -2),
    }
    return FiniteGame.of(["row", "col"], [["t", "m", "b"], ["L", "M", "R"]], table)


def km_perturbation_1(eps: Fraction) -> FiniteGame:
    """Duplicate-L game perturbed so the unique equilibrium is mixed on {t,b}x{L,L'}.

    The epsilon bonuses make the restricted 2x2 block an anti-coordination
    game (unique completely mixed equilibrium, index +1) and render m, M, R
    strictly dominated.
    """
    e = Fraction(eps)
    table = {
        ("t", "L"): (1 + e, 1), ("t", "L'"): (1, 1 + e),
        ("t", "M"): (e, -1), ("t", "R"): (-1 + e, 1),
        ("m", "L"): (-1, 0), ("m", "L'"): (-1, e),
        ("m", "M"): (0, 0), ("m", "R"): (-1, 0),
        ("b", "L"): (1, -1 + e), ("b", "L'"): (1 + e, -1),
        ("b", "M"): (0, -1), ("b", "R"): (-2, -2),
    }
    return FiniteGame.of(
        ["row", "col"], [["t", "m", "b"], ["L", "L'", "M", "R"]], table
    )


def km_perturbation_2(eps: Fraction) -> FiniteGame:
    """Duplicate-L game perturbed so (t,L), (b,L') are strict and one mixed survives.

    The restricted 2x2 block is a coordination game: equilibria (t,L),
    (b,L') with index +1 each and the mixed (1/2,1/2;1/2,1/2) with index -1.
    """
    e = Fraction(eps)
    table = {
        ("t", "L"): (1 + e, 1 + e), ("t", "L'"): (1, 1),
        ("t", "M"): (e, -1), ("t", "R"): (-1 + e, 1),
        ("m", "L"): (-1, 0), ("m", "L'"): (-1, e),
        ("m", "M"): (0, 0), ("m", "R"): (-1, 0),
        ("b", "L"): (1, -1), ("b", "L'"): (1 + e, -1 + e),
        ("b", "M"): (0, -1), ("b", "R"): (-2, -2),
    }
    return FiniteGame.of(
        ["row", "col"], [["t", "m", "b"], ["L", "L'", "M", "R"]], table
    )


@dataclass(frozen=True)
class KmExpectation:
    """The known results on one perturbed km game, for every eps in ``KM_EPS``.

    ``eliminated`` is the sorted (player, strategy) list that iterated
    strict dominance removes (None: not checked).  ``equilibria`` pairs each
    isolated equilibrium's projection to ``km_game`` (L' mapped to L) with
    its index; there are no other equilibria and no Nash subsets.
    """

    name: str
    game: Callable[[Fraction], FiniteGame]
    eliminated: Optional[list[tuple[int, str]]]
    equilibria: list[tuple[tuple[MixedStrategy, MixedStrategy], int]]


KM_EPS = (Fraction(1, 10), Fraction(1, 100))
_TB = MixedStrategy.of({"t": Fraction(1, 2), "b": Fraction(1, 2)})
_T, _B, _L = MixedStrategy.pure("t"), MixedStrategy.pure("b"), MixedStrategy.pure("L")
KM_EXPECTED = (
    # dominance leaves {t,b}x{L,L'}; its unique equilibrium projects to (t/2 + b/2, L)
    KmExpectation(
        "perturbation 1",
        km_perturbation_1,
        eliminated=[(0, "m"), (1, "M"), (1, "R")],
        equilibria=[((_TB, _L), 1)],
    ),
    # (t,L) and (b,L') with index +1, the mixed one between them with index -1
    KmExpectation(
        "perturbation 2",
        km_perturbation_2,
        eliminated=None,
        equilibria=[((_T, _L), 1), ((_B, _L), 1), ((_TB, _L), -1)],
    ),
)
