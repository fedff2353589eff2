"""Closed-form game families (``families.py``) as oracles for enumeration and indices."""

import pytest

from equilib.equivalence import duplicate_strategy, identity_surjection, project_profile
from equilib.games import MixedStrategy, format_profile
from equilib.indices import game_index_report
from equilib.solver import components, support_enumeration
from families import identity_equilibria, identity_game


@pytest.mark.parametrize("n", range(2, 7))
def test_identity_game_has_every_common_support_equilibrium(n):
    es = support_enumeration(identity_game(n))
    want = identity_equilibria(n)
    assert len(want) == 2**n - 1
    assert es.subsets == []
    assert sorted(map(format_profile, es.isolated)) == sorted(map(format_profile, want))
    report = game_index_report(es)
    assert {e.target: e.index for e in report.entries} == {
        format_profile(p): index for p, index in want.items()
    }
    assert {e.method for e in report.entries} == {"determinant"}
    signs = [e.index for e in report.entries]
    assert (signs.count(1), signs.count(-1)) == (2 ** (n - 1), 2 ** (n - 1) - 1)
    assert report.total() == 1


def test_duplicated_identity_game_keeps_components_and_indices():
    """Adding the mixture of r0 and r1 as a row makes the game degenerate: each
    equilibrium that plays both becomes a segment.  Components still map one to
    one onto the equilibria of the identity game, with the same indices."""
    n = 5
    mixture = MixedStrategy.of({"r0": "1/2", "r1": "1/2"})
    game, phi = duplicate_strategy(identity_game(n), 0, mixture)
    es = support_enumeration(game)
    assert es.subsets  # degenerate: some maximal Nash subsets are not points
    graph = components(es)
    report = game_index_report(es)
    phis = (phi, identity_surjection(game.strategies[1]))
    images = {}
    for component, entry in zip(graph.components, report.entries):
        (image,) = {
            project_profile(phis, p) for i in component for p in graph.subsets[i].vertex_profiles()
        }
        images[image] = entry.index
    assert len(images) == len(graph.components)
    assert images == identity_equilibria(n)
