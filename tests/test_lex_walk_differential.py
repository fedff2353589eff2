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
"""

import random
from fractions import Fraction

import pytest

from equilib.geometry import _facet_halfspace, _first_lower_cell
from equilib.linalg import Chart, determinant, frac_mat, lex_walk, matrix_rank, vertex_enumeration
from oracles import cell_halfspaces, simplex_facet_halfspaces

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
        if matrix_rank([[x - y for x, y in zip(p, pts[0])] for p in pts[1:]]) < d:
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
