"""`linalg.lex_walk` on the lower hulls of lifted points against the subset loop.

A lower cell of points p_j lifted to heights h_j is a plane z = a·x + c
with a·p_j + c <= h_j on every point and equality on the cell: a vertex of
the polyhedron {(a, c) : a·p_j + c <= h_j}.  Under the perturbation
h_j + ε^(j+1) its vertices are the lexicographic bases that
`vertex_enumeration` keeps from its subset loop, so the walk from the
first lower cell must visit exactly those bases, each with its |det| and
the rows tight at its vertex.  A ridge with no point beyond it is an
unbounded edge of that polyhedron and spans a facet of conv(points): its
facet form must be the simplex's facet halfspace from
`simplex_facet_halfspaces`, and together those forms must give every facet
of conv(points) that the subset loop `cell_halfspaces` finds.

The point sets are seeded, in 1-3 D with coordinates 0..2, drawn with
replacement so that most repeat a point; half are lifted to the paraboloid
|p|² and half get heights 0..2, and the 3×3 lattice is among them.

The walk also runs on each best-response polytope {x >= 0 : B^T x <= 1}
of a two-player game, on the rows `solver._labelled_vertices` builds.  It
starts from the nonnegativity basis, the origin, which is lexicographically
feasible because every other row has slack 1 there.  It must visit exactly
the lexicographic bases of each vertex that `vertex_enumeration`'s subset
loop keeps, find no unbounded edge, and read at each basis the vertex's
tight rows.  The games are seeded 4×4 and 5×5 games with payoffs 0..20,
degenerate 3×3 games with payoffs 0..2, and km.
"""

import random
from fractions import Fraction

import pytest

from equilib.examples import km_game
from equilib.games import FiniteGame
from equilib.geometry import _facet_halfspace, _first_lower_cell
from equilib.linalg import (
    Chart,
    determinant,
    frac_vec,
    lex_walk,
    vertex_enumeration,
)
from oracles import (
    _integer_rows,
    cell_halfspaces,
    frac_mat,
    reference_matrix_rank,
    simplex_facet_halfspaces,
)
from test_enumerator_differential import random_game

F = Fraction


def point_sets():
    rng = random.Random(22)
    lattice = [(x, y) for x in range(3) for y in range(3)]
    out = [
        ("lattice3x3-paraboloid", lattice, [x * x + y * y for x, y in lattice]),
        ("lattice3x3-flat", lattice, [0] * len(lattice)),
    ]
    while len(out) < 400:
        d = 1 + len(out) % 3
        pts = [tuple(rng.randint(0, 2) for _ in range(d)) for _ in range(rng.randint(d + 1, d + 6))]
        if reference_matrix_rank([[x - y for x, y in zip(p, pts[0])] for p in pts[1:]]) < d:
            continue  # the cells of points that do not span R^d are not vertices
        if rng.random() < 0.5:
            kind, heights = "paraboloid", [sum(x * x for x in p) for p in pts]
        else:
            kind, heights = "heights", [rng.randint(0, 2) for _ in pts]
        out.append((f"{kind}-{d}d-{len(out)}", pts, heights))
    return out


POINT_SETS = point_sets()


def walk(pts, heights):
    return lex_walk([[*p, 1] for p in pts], heights, _first_lower_cell(pts, heights, len(pts[0])))


def test_point_sets_cover_the_cases():
    assert len(POINT_SETS) >= 388
    labels = [label for label, _, _ in POINT_SETS]
    assert sum(label.startswith("paraboloid") for label in labels) >= 150
    for d in (1, 2, 3):
        assert sum(f"-{d}d-" in label for label in labels) >= 120
    assert sum(len(set(pts)) < len(pts) for _, pts, _ in POINT_SETS) >= 250
    # more than d + 1 lifted points on one lower plane at ε = 0: the ε rule decides
    flat = [
        label
        for label, pts, heights in POINT_SETS
        if any(len(tight) > len(pts[0]) + 1 for _, _, tight in walk(pts, heights)[0])
    ]
    assert len(flat) >= 200
    assert sum(label.startswith("heights") for label in flat) >= 50
    assert "lattice3x3-flat" in flat and "lattice3x3-paraboloid" in flat


@pytest.mark.parametrize("label,pts,heights", POINT_SETS, ids=[c[0] for c in POINT_SETS])
def test_walk_bases_are_the_lexicographic_bases(label, pts, heights):
    rows = [[*p, 1] for p in pts]
    bases, _ = walk(pts, heights)
    vertices = vertex_enumeration(rows, heights)
    assert sorted(b for b, _, _ in bases) == sorted(b for _, bs in vertices for b in bs)
    at = {b: x for x, bs in vertices for b in bs}
    for b, det, tight in bases:
        assert det == abs(determinant(frac_mat([rows[i] for i in b])))
        x = at[b]
        assert tight == [j for j, r in enumerate(rows) if sum(map(F.__mul__, x, r)) == heights[j]]


@pytest.mark.parametrize("label,pts,heights", POINT_SETS, ids=[c[0] for c in POINT_SETS])
def test_unbounded_edges_are_the_hull_facets(label, pts, heights):
    d = len(pts[0])
    _, unbounded = walk(pts, heights)
    facets = set()
    for b, row, form in unbounded:
        facet = simplex_facet_halfspaces([pts[i] for i in b], d)[b.index(row)]
        assert _facet_halfspace(form) == (tuple(map(int, facet[0])), int(facet[1]))
        facets.add(facet)
    identity = Chart([[0] * d] + [[int(i == k) for k in range(d)] for i in range(d)])
    assert facets == set(cell_halfspaces(pts, identity))


def best_response_rows(game: FiniteGame, player: int):
    """`player`'s best-response polytope, as `solver._labelled_vertices` builds its rows."""
    opp = 1 - player
    own, other = game.strategies[player], game.strategies[opp]

    def u_opp(s, t):
        return game.payoffs[(s, t) if player == 0 else (t, s)][opp]

    low = min(u_opp(s, t) for s in own for t in other)
    A_ub = [[-F(k == i) for k in range(len(own))] for i in range(len(own))]
    A_ub += [[u_opp(s, t) - low + 1 for s in own] for t in other]
    return frac_mat(A_ub), frac_vec([0] * len(own) + [1] * len(other))


BR_GAMES = {
    "km": km_game(),
    **{f"4x4-0..20-{s}": random_game(4, 4, 20, s) for s in range(12)},
    **{f"5x5-0..20-{s}": random_game(5, 5, 20, s) for s in range(4)},
    **{f"3x3-0..2-{s}": random_game(3, 3, 2, s) for s in range(40)},
}
POLYTOPES = [(f"{label}-p{n}", game, n) for label, game in BR_GAMES.items() for n in (0, 1)]


@pytest.mark.parametrize("label,game,player", POLYTOPES, ids=[c[0] for c in POLYTOPES])
def test_walk_on_best_response_polytope_is_the_subset_loop(label, game, player):
    A_ub, b_ub = best_response_rows(game, player)
    rows = _integer_rows(A_ub, b_ub)
    bases, unbounded = lex_walk([a for a, _ in rows], [b for _, b in rows], range(len(A_ub[0])))
    assert unbounded == []
    vertices = vertex_enumeration(A_ub, b_ub)
    assert all(bs for _, bs in vertices)
    assert sorted(b for b, _, _ in bases) == sorted(b for _, bs in vertices for b in bs)
    at = {b: x for x, bs in vertices for b in bs}
    for b, _, tight in bases:
        x = at[b]
        assert tight == [j for j, r in enumerate(A_ub) if sum(map(F.__mul__, x, r)) == b_ub[j]]


def test_best_response_polytopes_are_degenerate():
    # a vertex with more tight rows than the dimension has several lexicographic bases
    degenerate = [
        label
        for label, game, player in POLYTOPES
        if any(len(bs) > 1 for _, bs in vertex_enumeration(*best_response_rows(game, player)))
    ]
    assert "km-p0" in degenerate and "km-p1" in degenerate
    assert sum(label.startswith("3x3") for label in degenerate) >= 60
