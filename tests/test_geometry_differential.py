"""The lower-hull walk, the arrangement splits and the facet-based hull
against the subset loops they replaced, the hull's symbolic tie-breaking
against the ε schedule it replaced, subdivision validation by facet
matching against the pairwise checks it replaced, and the readings of the
integer chart grid against the per-point `Fraction` code they replaced.

`reference_lower_hull_cells`, `reference_arrangement_cells` and
`reference_extreme_points` are the previous implementations, kept verbatim
as oracles: every (d+1)-subset of the lifted points tried as a lower cell;
the arrangement recursed one hyperplane at a time with a brute-force vertex
enumeration at every node; and one LP per point for the hull's vertices.
The pair checks keep `_Separation` (hyperplane certificates for cell
pairs), `_intersect_in_common_face` (one LP per pair of simplices) and
`_poly_intersection` with `affine_hull_equations` (vertex enumeration per
pair of polyhedral cells) as oracles; a polyhedral cell's facets come
from the subset loop `cell_halfspaces`, never from the program's walk.
The last section keeps
`Simplex`-based cell diameters, `PLFunction.value` at every complex
vertex, barycenter-signed gamma pieces and the `Chart`-plus-
`volume_in_chart` complex check as oracles.  Barycentric weights, the
queries built on them and interpolated heights, which read integer
tables on the chart grid, are checked against one `Fraction` solve per
cell in ambient or chart coordinates (`reference_solve_linear`).
"""

import collections
import functools
import itertools
import math
import operator
import random
import re
from fractions import Fraction
from typing import Optional, Sequence

import pytest

from equilib.geometry import (
    Face,
    GeometryError,
    Point,
    PolyhedralComplex,
    Simplex,
    Triangulation,
    _arrangement_cells,
    _barycentric_table,
    _bits,
    _cell_faces,
    _facet_rows,
    _hull_vertices,
    _lower_hull_cells,
    _non_generic,
    _sign_masks,
    _triangulated_hull,
    el_refinement,
    extreme_points,
    grid_triangulation,
    hyperplane_extension_subdivision,
    interpolate_heights,
    regular_triangulation,
)
from equilib.linalg import (
    ONE,
    ZERO,
    Chart,
    _integer_matrix,
    _integer_row,
    _reduce,
    determinant,
    dot,
    linprog,
    solve_unique,
    vec_sub,
)
from oracles import (
    barycenter,
    cell_halfspaces,
    cell_points,
    hyperplane_through,
    in_convex_hull,
    lift_functional,
    reference_matrix_rank,
    reference_nullspace,
    reference_solve_linear,
    simplex_facet_halfspaces,
    subset_vertex_enumeration,
)

F = Fraction


# -- the oracles, as they were ----------------------------------------------


def reference_extreme_points(points: Sequence[Point]) -> list[Point]:
    """The vertices of conv(points), in input order."""
    out = []
    for i, p in enumerate(points):
        others = [q for j, q in enumerate(points) if j != i and q != p]
        if not in_convex_hull(others, p):
            if p not in out:
                out.append(p)
    return out


def reference_lower_hull_cells(
    local_pts: Sequence[list[Fraction]], heights: Sequence[Fraction], d: int
) -> list[Face]:
    """Maximal cells (index tuples) of the lower envelope of lifted points.

    Raises GeometryError("non-generic ...") when some lifted point lies on
    the supporting hyperplane of a lower cell it does not belong to.
    """
    n = len(local_pts)
    cells: list[Face] = []
    for combo in itertools.combinations(range(n), d + 1):
        # Affine lift function l with l(p_i) = h_i on the combo; it is unique
        # exactly when the combo's points are affinely independent.
        A = [list(local_pts[i]) + [ONE] for i in combo]
        b = [heights[i] for i in combo]
        coeffs = solve_unique(A, b)
        if coeffs is None:
            continue
        grad, off = coeffs[:d], coeffs[d]
        flat = []
        ok = True
        for j in range(n):
            if j in combo:
                continue
            val = heights[j] - (dot(grad, local_pts[j]) + off)
            if val < 0:
                ok = False
                break
            if val == 0:
                flat.append(j)
        if not ok:
            continue
        if flat:
            raise GeometryError(
                "non-generic height: lifted points "
                f"{sorted(set(combo) | set(flat))} lie on a common lower hyperplane"
            )
        cells.append(tuple(combo))
    return cells


def reference_arrangement_cells(
    base_hrep: list[tuple[tuple[Fraction, ...], Fraction]],
    hyperplanes: list[tuple[tuple[Fraction, ...], Fraction]],
    dim: int,
) -> list[tuple[list[tuple[tuple[Fraction, ...], Fraction]], list[list[Fraction]]]]:
    """Full-dimensional cells of the arrangement inside the base polytope.

    Returns (H-rep rows, vertex list) pairs in chart coordinates.
    """
    cells = []
    seen: set[frozenset] = set()

    def feasible_full_dim(rows):
        A = [list(a) for a, _ in rows]
        b = [beta for _, beta in rows]
        verts = subset_vertex_enumeration(A, b)
        if not verts:
            return None
        if Chart(verts).dim != dim:
            return None
        return verts

    def recurse(rows, k):
        if k == len(hyperplanes):
            verts = feasible_full_dim(rows)
            if verts is not None:
                key = frozenset(tuple(v) for v in verts)
                if key not in seen:
                    seen.add(key)
                    cells.append((rows, verts))
            return
        a, b = hyperplanes[k]
        neg = tuple(-x for x in a)
        for extra in ((a, b), (neg, -b)):
            rows2 = rows + [extra]
            # prune infeasible/flat branches early
            if feasible_full_dim(rows2) is not None:
                recurse(rows2, k + 1)

    recurse(list(base_hrep), 0)
    return cells


def _simplex_volume(pts: Sequence[Sequence[Fraction]]) -> Fraction:
    """Volume of the full-dimensional simplex with the given chart coordinates."""
    if len(pts) == 1:
        return ONE
    mat = [vec_sub(p, pts[0]) for p in pts[1:]]
    return abs(determinant(mat)) / math.factorial(len(mat))


def reference_volume(points, chart) -> Fraction:
    """`volume_in_chart` over the subset-loop lower hull of the paraboloid lift."""
    local = [chart.to_local(p) for p in points]
    d = chart.dim
    if d == 0:
        return ONE
    if reference_matrix_rank([[x - y for x, y in zip(p, local[0])] for p in local[1:]]) < d:
        return ZERO
    for k in range(1, 9):
        heights = [dot(p, p) + F(1, 10**k) ** (i + 1) for i, p in enumerate(local)]
        try:
            cells = reference_lower_hull_cells(local, heights, d)
        except GeometryError:
            continue
        return sum((_simplex_volume([local[i] for i in c]) for c in cells), ZERO)
    raise GeometryError("could not find a generic height for the point set")


class _Separation:
    """Exact certificates that two cells of a subdivision meet in a face.

    `cells` are vertex-index tuples into `points`; `cell_rows[k]` lists the
    sign rows of halfspaces that hold on cell k, each a pair of bit masks
    over the points: (beyond, inside), bit j set when point j lies strictly
    beyond the halfspace's hyperplane, or strictly inside.  The rows are
    integer evaluations made by the caller: barycentric coordinates from one
    elimination per simplex (:class:`Triangulation`), or each polyhedral
    cell's facets from a subset loop on an integer grid
    (:func:`complex_sign_table`).
    """

    def __init__(self, points, cells, cell_rows):
        self.points = points
        self.masks = [sum(1 << v for v in set(c)) for c in cells]
        self.rows = cell_rows
        # every hyperplane of the complex once; a row and its flip are one
        self.hyperplanes = list(
            dict.fromkeys(min(row, row[::-1]) for rows in cell_rows for row in rows)
        )

    def meet(self, i: int, j: int) -> Optional[frozenset[int]]:
        """Vertices spanning conv(cell i) ∩ conv(cell j), or None if uncertified.

        A hyperplane H of the complex certifies the pair when the two
        cells' vertices lie on opposite closed sides of it and one cell's
        vertices on H are among the other's.  Each cell meets H in the hull
        of its own vertices on H (a face, as H supports it), so the cells
        meet in the hull of the smaller set: a face of one cell lying in a
        face of the other.  An empty set means the cells are disjoint.  The
        two cells' own halfspaces are tried first, then every hyperplane of
        the complex.
        """
        ci, cj = self.masks[i], self.masks[j]
        for beyond, inside in itertools.chain(self.rows[i], self.rows[j], self.hyperplanes):
            if (beyond & ci or inside & cj) and (inside & ci or beyond & cj):
                continue  # not on opposite sides
            on = ~(beyond | inside)
            if not cj & on & ~ci:
                return _bits(cj & on)
            if not ci & on & ~cj:
                return _bits(ci & on)
        return None


def _intersect_in_common_face(self, a: Face, b: Face) -> bool:
    """True iff conv(a) ∩ conv(b) = conv(shared vertices) (a face of each)."""
    shared = sorted(set(a) & set(b))
    va = [self.vertices[i] for i in a]
    vb = [self.vertices[i] for i in b]
    ambient = len(va[0])
    n, m = len(va), len(vb)
    # variables: lambda (n), mu (m); equalities: point match + two sums.
    A_eq = [
        [va[j][i] for j in range(n)] + [-vb[j][i] for j in range(m)]
        for i in range(ambient)
    ]
    A_eq.append([ONE] * n + [ZERO] * m)
    A_eq.append([ZERO] * n + [ONE] * m)
    b_eq = [ZERO] * ambient + [ONE, ONE]
    c = [
        ONE if a[j] not in shared else ZERO for j in range(n)
    ] + [ONE if b[j] not in shared else ZERO for j in range(m)]
    res = linprog(c, A_eq=A_eq, b_eq=b_eq, maximize=True)
    if res.status == "infeasible":
        return not shared  # disjoint cells sharing no vertex: fine
    return res.value == 0


def affine_hull_equations(points: Sequence[Point]) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Equality rows (N, c) with N x = c exactly on the affine hull of `points`."""
    chart = Chart(points)
    ambient = chart.ambient_dim
    if chart.dim == ambient:
        return [], []
    if chart.basis:
        normals = reference_nullspace([list(v) for v in chart.basis])
    else:
        normals = [[ONE if j == i else ZERO for j in range(ambient)] for i in range(ambient)]
    A_eq = [list(n) for n in normals]
    b_eq = [dot(n, chart.origin) for n in normals]
    return A_eq, b_eq


def ambient_halfspaces(cell: Sequence[Point], chart: Chart) -> list[tuple[tuple[Fraction, ...], Fraction]]:
    """The oracle's facets (:func:`cell_halfspaces`) of the cell with vertex
    points `cell`, as ambient a·x <= b."""
    out = []
    for row in cell_halfspaces(cell, chart):
        a, b = lift_functional(chart, *row)
        out.append((tuple(a), b))
    return out


def _poly_intersection(chart: Chart, a: Sequence[Point], b: Sequence[Point]):
    """Vertex set of a ∩ b (None, None when empty).

    Both cells are maximal cells of the same complex, so they share the
    complex's affine hull; the enumeration is constrained to it.
    """
    rows = ambient_halfspaces(a, chart) + ambient_halfspaces(b, chart)
    A_ub = [list(x) for x, _ in rows]
    b_ub = [y for _, y in rows]
    A_eq, b_eq = affine_hull_equations(a)
    verts = subset_vertex_enumeration(A_ub, b_ub, A_eq or None, b_eq or None)
    if not verts:
        return None, None
    return Chart(verts).dim, [tuple(v) for v in verts]


# -- lower hulls ------------------------------------------------------------


def lower_planes(local, heights, d):
    """Tight sets of every lower supporting plane through d+1 independent lifts."""
    planes = set()
    for combo in itertools.combinations(range(len(local)), d + 1):
        A = [list(local[i]) + [ONE] for i in combo]
        coeffs = solve_unique(A, [heights[i] for i in combo])
        if coeffs is None:
            continue
        slack = [h - dot(coeffs[:d], p) - coeffs[d] for p, h in zip(local, heights)]
        if min(slack) >= 0:
            planes.add(frozenset(j for j, s in enumerate(slack) if s == 0))
    return planes


def lattice(*sizes):
    return [[F(x) for x in p] for p in itertools.product(*(range(s) for s in sizes))]


def rational_points(rng, n, d, den=4):
    return [[F(rng.randint(-8, 8), rng.randint(1, den)) for _ in range(d)] for _ in range(n)]


def lifts():
    """Seeded (label, points, heights, d): generic and non-generic lifts in 1-3 D."""
    rng = random.Random(20)
    out = []
    for k in range(12):
        pts = rational_points(rng, rng.randint(2, 8), 1)
        out.append((f"line{k}", pts, [F(rng.randint(0, 60), 7) for _ in pts], 1))
    for k in range(6):
        pts = lattice(4, 4)
        out.append((f"lattice4-{k}", pts, [F(rng.randint(1, 1000), 997) for _ in pts], 2))
    for k in range(2):
        pts = lattice(5, 5)
        out.append((f"lattice5-{k}", pts, [F(rng.randint(1, 1000), 997) for _ in pts], 2))
    for k in range(12):
        pts = rational_points(rng, rng.randint(3, 10), 2)
        out.append((f"plane{k}", pts, [F(rng.randint(0, 300), 11) for _ in pts], 2))
    for k in range(8):
        pts = rational_points(rng, rng.randint(4, 9), 3, den=2)
        out.append((f"space{k}", pts, [F(rng.randint(0, 300), 13) for _ in pts], 3))
    for k in range(2):
        pts = lattice(3, 2, 2)
        out.append((f"lattice322-{k}", pts, [F(rng.randint(1, 1000), 997) for _ in pts], 3))
    # non-generic: few height values on lattices, cospherical lifts, one flat
    # lower facet planted in a generic lift, and the square's corners
    for k in range(10):
        pts = lattice(3, 3)
        out.append((f"ties{k}", pts, [F(rng.randint(0, 2)) for _ in pts], 2))
    for sizes in ((3, 3), (4, 4), (2, 3), (2, 2, 2)):
        pts = lattice(*sizes)
        out.append((f"paraboloid{sizes}", pts, [dot(p, p) for p in pts], len(sizes)))
    for k in range(8):
        pts = lattice(4, 4)
        heights = [F(rng.randint(100, 1000), 97) for _ in pts]
        for i in rng.sample(range(len(pts)), 4):  # four on one low plane
            heights[i] = pts[i][0] - 2 * pts[i][1]
        out.append((f"planted{k}", pts, heights, 2))
    out.append(("square", lattice(2, 2), [F(0), F(1), F(1), F(2)], 2))
    out.append(("repeated", [[F(0)], [F(1)], [F(1)], [F(2)]], [F(1), F(0), F(0), F(1)], 1))
    return out


LIFTS = {label: (local, heights, d) for label, local, heights, d in lifts()}


@functools.cache
def degenerate_planes(label):
    """Tight sets of the lower planes through more than d+1 lifted points."""
    local, heights, d = LIFTS[label]
    return [t for t in lower_planes(local, heights, d) if len(t) > d + 1]


@pytest.mark.parametrize("label", LIFTS)
def test_lower_hull_walk_matches_subset_loop(label):
    local, heights, d = LIFTS[label]
    rows, _ = _integer_matrix(local)
    cells, facets, _, flat = _lower_hull_cells(rows, _integer_row(heights)[0], d)
    try:
        expected = reference_lower_hull_cells(local, heights, d)
    except GeometryError as exc:
        # the walk names one flat lower plane, and its ties broken, the cells
        # still triangulate conv(points)
        assert frozenset(flat) in degenerate_planes(label)
        if len(degenerate_planes(label)) == 1:
            assert str(_non_generic(flat)) == str(exc)
        Triangulation([tuple(p) for p in local], cells)
    else:
        assert flat is None
        assert cells == expected
    # every facet halfspace holds on all points and is tight on d of them
    for a, b in facets:
        values = [dot(a, p) - b for p in rows]
        assert max(values) == 0
        assert Chart([p for p, v in zip(local, values) if v == 0]).dim == d - 1


def test_lifts_reach_the_non_generic_path():
    families = ("ties", "paraboloid", "planted", "square", "repeated")
    raised = [label for label in LIFTS if label.startswith(families)]
    raised = [label for label in raised if degenerate_planes(label)]
    assert len(raised) >= 15
    # several with one flat lower facet, where the witnesses must agree
    assert sum(len(degenerate_planes(label)) == 1 for label in raised) >= 5


# -- hulls: symbolic ties against the ε schedule ------------------------------
#
# `schedule_hull` is `_triangulated_hull` as it was: the paraboloid heights
# perturbed by ε^(i+1) for ε = 1/10, ..., 1/10^8 in turn, the next ε tried
# after a tie.  Each try walks concrete heights and only reads whether the
# walk met a flat plane, so the sign rule decides nothing in the oracle.

_GENERIC_SCHEDULE = [Fraction(1, 10**k) for k in range(1, 9)]


def schedule_hull(pts, scale, d):
    if d == 0:
        return [(0,)], [], ONE
    if len(_reduce([[x - y for x, y in zip(p, pts[0])] for p in pts[1:]])[0]) < d:
        return [], [], ZERO
    base = [Fraction(sum(x * x for x in p), scale * scale) for p in pts]
    for eps in _GENERIC_SCHEDULE:
        heights = [h + eps ** (i + 1) for i, h in enumerate(base)]
        cells, facets, volume, flat = _lower_hull_cells(pts, _integer_row(heights)[0], d)
        if flat:
            continue
        return cells, facets, Fraction(volume, math.factorial(d) * scale**d)
    raise GeometryError("could not find a generic height for the point set")


CIRCLE = [(5, 0), (0, 5), (-5, 0), (0, -5)] + [
    (sx * a, sy * b) for a, b in ((3, 4), (4, 3)) for sx in (1, -1) for sy in (1, -1)
]
SPHERE = sorted(
    set(itertools.permutations((3, 0, 0)))
    | set(itertools.permutations((-3, 0, 0)))
    | {p for q in itertools.permutations((1, 2, 2)) for p in itertools.product(*((x, -x) for x in q))}
)


def hull_sets():
    """Seeded lattice, cocircular and cospherical sets in 1-3 D, with repeated points.

    The paraboloid lift ties on all of these.  Some are shuffled, some
    placed on a plane in R^3, and some get a few repeated points.
    """
    rng = random.Random(29)
    out = []

    def add(label, pts):
        pts = [tuple(F(x) for x in p) for p in pts]
        if rng.random() < 0.5:
            pts += rng.sample(pts, rng.randint(1, 3))  # repeated points
        rng.shuffle(pts)
        out.append((label, pts))

    for sizes in ((2,), (4,), (2, 2), (3, 3), (4, 4), (2, 5), (3, 4), (2, 2, 2), (3, 2, 2), (3, 3, 2), (3, 3, 3)):
        add(f"lattice{sizes}", lattice(*sizes))
    for k in range(12):
        scale, shift = F(rng.randint(1, 4), rng.randint(1, 3)), rng.randint(-3, 3)
        pts = [(scale * x + shift, scale * y) for x, y in rng.sample(CIRCLE, rng.randint(3, 12))]
        add(f"circle{k}", pts)
    for k in range(8):
        add(f"sphere{k}", rng.sample(SPHERE, rng.randint(4, 14)))
    for k in range(6):  # on the plane x + y + z = 1, and a cocircular set on z = 2x - y
        if k % 2:
            pts = [(x, y, 2 * x - y) for x, y in rng.sample(CIRCLE, rng.randint(4, 10))]
        else:
            pts = [(F(x, 3), F(y, 3), 1 - F(x + y, 3)) for x, y in lattice(3, 3) if x + y <= 3]
        add(f"planar{k}", pts)
    for k in range(4):  # collinear, in R^2
        add(f"segment{k}", [(t, 2 * t + 1) for t in rng.sample(range(-4, 5), rng.randint(2, 6))])
    return out


HULL_SETS = hull_sets()


@pytest.mark.parametrize("label,points", HULL_SETS, ids=[c[0] for c in HULL_SETS])
def test_sign_rule_hull_matches_the_schedule(label, points):
    chart = Chart(points)
    rows, scale = chart.grid(points)
    _, expected_facets, expected_volume = schedule_hull(rows, scale, chart.dim)
    facets, volume = _triangulated_hull(rows, scale, chart.dim)
    assert sorted(facets) == sorted(expected_facets)
    assert volume == expected_volume
    assert extreme_points(points) == _hull_vertices(points, rows, expected_facets)


def test_hull_sets_tie_on_the_paraboloid():
    """Most sets lift to more than d + 1 points on one lower plane, so the
    sign rule decides, in every dimension, repeated points included."""
    tied = collections.Counter()
    for label, points in HULL_SETS:
        chart = Chart(points)
        rows, _ = chart.grid(points)
        heights = [sum(x * x for x in p) for p in rows]
        if chart.dim and _lower_hull_cells(rows, heights, chart.dim)[3]:
            tied[chart.dim] += 1
            tied["repeated"] += len(set(points)) < len(points)
    assert tied[1] >= 3 and tied[2] >= 15 and tied[3] >= 8, tied
    assert tied["repeated"] >= 10, tied


# -- arrangements -----------------------------------------------------------


def triangle_refinement(rng, corners, splits):
    tri = Triangulation(corners, [tuple(range(len(corners)))])
    for _ in range(splits):
        tri = tri.split_edge(tuple(rng.choice(tri.faces_of_dim(1))))
    return tri


def el_inputs(tri):
    """The arrangement `el_refinement` builds for a triangulated simplex."""
    chart, d = tri.chart, tri.dim
    hyperplanes = []
    for f in tri.faces_of_dim(d - 1):
        hp = hyperplane_through([chart.to_local(tri.vertices[i]) for i in f], d)
        if hp not in hyperplanes:
            hyperplanes.append(hp)
    base = [chart.to_local(p) for p in tri.polytope]
    return base, hyperplanes, d


def extension_inputs(rng, d, simplices):
    """Facet hyperplanes of small simplices inside the unit simplex.

    These are the arrangements `hyperplane_extension_subdivision` builds.
    """
    corners = [[F(0)] * d] + [[F(int(i == j)) for j in range(d)] for i in range(d)]
    hyperplanes = []
    for _ in range(simplices):
        while True:
            pts = [[F(rng.randint(1, 8), 16 * d) for _ in range(d)] for _ in range(d + 1)]
            if Chart(pts).dim == d:
                break
        for i in range(d + 1):
            hp = hyperplane_through([p for j, p in enumerate(pts) if j != i], d)
            if hp not in hyperplanes:
                hyperplanes.append(hp)
    return corners, hyperplanes, d


def through_points_inputs(rng, d, count):
    """Hyperplanes through lattice points of the simplex, base corners included."""
    corners = [[F(0)] * d] + [[F(4 * int(i == j)) for j in range(d)] for i in range(d)]
    points = [p for p in lattice(*[5] * d) if sum(p) <= 4]
    hyperplanes = []
    while len(hyperplanes) < count:
        pts = rng.sample(points, d)
        if Chart(pts).dim != d - 1:
            continue
        hp = hyperplane_through(pts, d)
        if hp not in hyperplanes:
            hyperplanes.append(hp)
    return corners, hyperplanes, d


def arrangements():
    rng = random.Random(7)
    out = []
    for k in range(30):
        corners = [
            tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(2)) for _ in range(3)
        ]
        if Chart(corners).dim < 2:
            continue
        out.append((f"el2-{k}", *el_inputs(triangle_refinement(rng, corners, rng.randint(1, 3)))))
    for k in range(8):
        corners = [(F(0), F(0), F(0)), (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))]
        out.append((f"el3-{k}", *el_inputs(triangle_refinement(rng, corners, 1))))
    for k in range(4):  # a triangle in R^3, worked in its 2-D chart
        corners = [(F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))]
        out.append((f"el-simplex-{k}", *el_inputs(triangle_refinement(rng, corners, 2))))
    for k in range(20):
        out.append((f"extension2-{k}", *extension_inputs(rng, 2, rng.randint(1, 2))))
    for k in range(8):
        out.append((f"extension3-{k}", *extension_inputs(rng, 3, 1)))
    for k in range(25):
        out.append((f"through2-{k}", *through_points_inputs(rng, 2, rng.randint(2, 6))))
    for k in range(10):
        out.append((f"through3-{k}", *through_points_inputs(rng, 3, rng.randint(2, 4))))
    return out


ARRANGEMENTS = arrangements()


def test_arrangement_inputs_cover_the_cases():
    assert len(ARRANGEMENTS) >= 100
    in_space = ("el3", "extension3", "through3")
    assert sum(label.startswith(in_space) for label, *_ in ARRANGEMENTS) >= 20


def arrangement_cells(base_hrep, base, hyperplanes, d):
    """`_arrangement_cells` on `Fraction` rows and vertices: the rows scaled to
    integers, the vertices put on one grid, and the cells' vertices read back
    as `Fraction` lists."""

    def integer(rows):
        return [(tuple(r[:-1]), r[-1]) for r in (_integer_row([*a, b])[0] for a, b in rows)]

    grid, scale = _integer_matrix(base)
    cells = _arrangement_cells(integer(base_hrep), grid, scale, integer(hyperplanes), d)
    return [(rows, [[F(x, v[-1]) for x in v[:-1]] for v in verts]) for rows, verts in cells]


@pytest.mark.parametrize(
    "label,base,hyperplanes,d", ARRANGEMENTS, ids=[c[0] for c in ARRANGEMENTS]
)
def test_arrangement_splits_match_recursion(label, base, hyperplanes, d):
    base_hrep = simplex_facet_halfspaces(base, d)
    expected = reference_arrangement_cells(base_hrep, hyperplanes, d)
    assert arrangement_cells(base_hrep, base, hyperplanes, d) == expected


# -- hull vertices ----------------------------------------------------------


def point_sets():
    rng = random.Random(3)
    out = [("single", [(F(1), F(2))]), ("single-repeated", [(F(1), F(2), F(0))] * 3)]
    for k in range(15):
        pts = [
            tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(2))
            for _ in range(rng.randint(2, 9))
        ]
        pts += rng.sample(pts, rng.randint(0, 2))  # duplicates
        out.append((f"plane{k}", pts))
    for k in range(6):
        # collinear points, in R^2 and R^3
        direction = [rng.randint(-3, 3) for _ in range(3)]
        start = [rng.randint(-3, 3) for _ in range(3)]
        if not any(direction):
            direction[0] = 1
        dims = 2 + k % 2
        pts = [
            tuple(F(s + t * v, 2) for s, v in zip(start[:dims], direction[:dims]))
            for t in rng.sample(range(-5, 6), 5)
        ]
        out.append((f"collinear{k}", pts))
    for k in range(6):
        # planar sets in R^3, through a probability simplex and a tilted plane
        pts = []
        for _ in range(rng.randint(3, 8)):
            x, y = F(rng.randint(0, 4), 4), F(rng.randint(0, 4), 4)
            pts.append((x, y, 1 - x - y) if k % 2 else (x, y, 2 * x - y + 1))
        pts += rng.sample(pts, 1)
        out.append((f"planar{k}", pts))
    for k in range(5):
        pts = [tuple(F(rng.randint(-2, 2)) for _ in range(3)) for _ in range(rng.randint(4, 10))]
        out.append((f"space{k}", pts))
    out.append(("square", [(F(0), F(0)), (F(2), F(0)), (F(0), F(2)), (F(2), F(2))]))
    out.append(("lattice3", [(F(x), F(y)) for x in range(3) for y in range(3)]))
    return out


POINT_SETS = point_sets()


@pytest.mark.parametrize("label,points", POINT_SETS, ids=[c[0] for c in POINT_SETS])
def test_extreme_points_match_the_lp(label, points):
    assert extreme_points(points) == reference_extreme_points(points)



# -- pair certificates ------------------------------------------------------
#
# `reference_validate` is `Triangulation.validate` as it was, with its pair
# certificate: every cell's facet halfspaces built in `Fraction`s
# (`reference_separation`, one `hyperplane_through` per facet) and
# evaluated at every vertex into a sign table (`ReferenceSeparation`), each
# pair tried against the two cells' own facets only, then the LP of
# `_intersect_in_common_face`.  `validate` now matches facets instead, and
# must reject at the same stage.


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


class ReferenceSeparation:
    """Exact certificates that two cells of a subdivision meet in a face.

    `cells` are vertex-index tuples into `points`; `cell_rows[k]` lists
    halfspaces (a, b), meaning a·x <= b, that hold on cell k.  Each
    halfspace is evaluated at every point once; a hyperplane that two cells
    bound from opposite sides is evaluated once for both.
    """

    def __init__(self, points, cells, cell_rows):
        self.points = points
        self.cells = cells
        known: dict = {}

        def signs(a, b):
            row = known.get((a, b))
            if row is None:
                neg = known.get((tuple(-x for x in a), -b))
                if neg is None:
                    row = [_sign(dot(a, p) - b) for p in points]
                else:
                    row = [-s for s in neg]
                known[(a, b)] = row
            return row

        self.signs = [[signs(a, b) for a, b in rows] for rows in cell_rows]

    def meet(self, i: int, j: int) -> Optional[frozenset[int]]:
        """Vertices spanning conv(cell i) ∩ conv(cell j), or None if uncertified.

        A halfspace h·x <= β of one cell certifies the pair when every
        vertex of the other cell has h·v >= β and those with h·v = β are
        among the first cell's own vertices on h·x = β.  The cells then
        meet inside the hyperplane, in the convex hull of those vertices:
        a face of the second cell lying in a face of the first.  An empty
        set means the cells are disjoint.
        """
        for p, q in ((i, j), (j, i)):
            vp, vq = self.cells[p], self.cells[q]
            for s in self.signs[p]:
                if any(s[v] > 0 for v in vp) or any(s[v] < 0 for v in vq):
                    continue
                tight = frozenset(v for v in vq if s[v] == 0)
                if tight <= {v for v in vp if s[v] == 0}:
                    return tight
        return None


def reference_separation(tri, local: Sequence[Sequence[Fraction]]) -> ReferenceSeparation:
    """Facet-separation certificates of the cells, from chart coordinates."""
    facets = [
        simplex_facet_halfspaces([local[i] for i in c], tri.dim)
        for c in tri.maximal
    ]
    return ReferenceSeparation(local, tri.maximal, facets)


def reference_validate(self) -> None:
    seen = set()
    for c in self.maximal:
        if c in seen:
            raise GeometryError(f"duplicate maximal cell {c}")
        seen.add(c)
        if len(c) != self.dim + 1:
            raise GeometryError(f"cell {c} is not full-dimensional")
        self.simplex(c)  # affine independence
    rows, scale = self.chart.grid(self.polytope)
    facets, _ = _triangulated_hull(rows, scale, self.dim)
    local = []
    for i, v in enumerate(self.vertices):
        try:
            x = self.chart.to_local(v)
        except ValueError:
            x = None  # off the polytope's affine hull
        if x is None or any(dot(a, x) * scale > b for a, b in facets):
            raise GeometryError(f"vertex {i} lies outside the covered polytope")
        local.append(x)
    total = sum(
        (_simplex_volume([local[i] for i in c]) for c in self.maximal), ZERO
    )
    target = reference_volume(self.polytope, self.chart)
    if total != target:
        raise GeometryError(
            f"simplex volumes sum to {total}, polytope volume is {target}"
        )
    if len(self.maximal) < 2:
        return  # no pairs; a lone point cell would have no facets either
    sep = reference_separation(self, local)
    for (i, a), (j, b) in itertools.combinations(enumerate(self.maximal), 2):
        if sep.meet(i, j) is None and not _intersect_in_common_face(self, a, b):
            raise GeometryError(f"cells {a} and {b} do not meet in a common face")


def validation_error(check, tri) -> Optional[str]:
    try:
        check(tri)
    except GeometryError as exc:
        return str(exc)
    return None


# The checks the oracles and `validate` share keep their texts; the pair
# stage's differ, as facet matching names a facet rather than a pair.
STAGES = {
    "lies outside the covered polytope": "vertex",
    "volumes sum to": "volume",
    "do not meet in a common face": "pair",
    "two cells intersect outside a common face": "pair",
}


def stage(error: Optional[str]) -> Optional[str]:
    """The check that rejected: None, "vertex", "volume", "pair", or any other error's text."""
    if error is None:
        return None
    return next((name for mark, name in STAGES.items() if mark in error), error)


def variant(tri, vertices, cells) -> Triangulation:
    return Triangulation(vertices, cells, tri.polytope, validate=False)


def hanging_node(tri, rng):
    """The midpoint of an edge of two or more cells, put in one of them only."""
    shared = [e for e in tri.faces_of_dim(1) if sum(set(e) <= set(c) for c in tri.maximal) >= 2]
    u, v = rng.choice(shared)
    cell = rng.choice([c for c in tri.maximal if u in c and v in c])
    w = len(tri.vertices)
    mid = tuple((a + b) / 2 for a, b in zip(tri.vertices[u], tri.vertices[v]))
    cells = [c for c in tri.maximal if c != cell]
    cells += [tuple(w if i == u else i for i in cell), tuple(w if i == v else i for i in cell)]
    return variant(tri, list(tri.vertices) + [mid], cells)


def moved_vertex(tri, rng):
    """One vertex moved by a small random offset (it may leave the polytope or its plane)."""
    verts = list(tri.vertices)
    k = rng.randrange(len(verts))
    verts[k] = tuple(x + F(rng.randint(-3, 3), 4) for x in verts[k])
    return variant(tri, verts, tri.maximal)


def sheared_cell(tri, rng):
    """One cell with a vertex slid parallel to the opposite facet: the same volume.

    The slid vertex reuses an existing vertex where it lands on one, so the
    cell overlaps its neighbours at shared vertices and edges.
    """
    cell = rng.choice(tri.maximal)
    v, a, b = rng.sample(cell, 3)
    t = rng.choice([F(-1), F(-1, 2), F(1, 2), F(1)])
    p = tuple(x + t * (y - z) for x, y, z in zip(tri.vertices[v], tri.vertices[b], tri.vertices[a]))
    verts = list(tri.vertices)
    if p not in verts:
        verts.append(p)
    w = verts.index(p)
    cells = [c for c in tri.maximal if c != cell] + [tuple(w if i == v else i for i in cell)]
    return variant(tri, verts, cells)


def flipped_edge(tri, rng):
    """Two triangles across an interior edge replaced by the other diagonal's two."""
    edges = [e for e in tri.faces_of_dim(1) if sum(set(e) <= set(c) for c in tri.maximal) == 2]
    u, v = rng.choice(edges)
    pair = [c for c in tri.maximal if u in c and v in c]
    p, q = (next(i for i in c if i not in (u, v)) for c in pair)
    cells = [c for c in tri.maximal if c not in pair] + [(u, p, q), (v, p, q)]
    return variant(tri, tri.vertices, cells)


def relabelled(tri, points):
    """`tri` over the full point list, so that spliced cells share indices."""
    index = {p: k for k, p in enumerate(points)}
    return [tuple(index[tri.vertices[i]] for i in c) for c in tri.maximal]


def spliced(rng, points, d):
    """The cells of two regular triangulations of `points` on either side of a random cut."""
    points = [tuple(p) for p in points]
    halves = []
    for _ in range(2):
        heights = [F(rng.randint(1, 1000), 997) for _ in points]
        halves.append(relabelled(regular_triangulation(points, heights), points))
    normal = [rng.randint(-2, 2) for _ in range(d)]
    cut = F(rng.randint(-2, 4), 2)

    def side(c):
        return sum(dot(normal, points[i]) for i in c) / len(c) < cut

    cells = [c for c in halves[0] if side(c)] + [c for c in halves[1] if not side(c)]
    return Triangulation(points, sorted(set(cells)), extreme_points(points), validate=False)


def certificate_cases():
    """Seeded valid and invalid 2-D and 3-D triangulations (some in R^3 on a plane)."""
    rng = random.Random(41)
    unit = [[F(int(i == j)) for j in range(3)] for i in range(3)]
    valid = [grid_triangulation(3)]
    for k in range(3):
        heights = [F(rng.randint(1, 1000), 997) for _ in range(9)]
        valid.append(regular_triangulation(lattice(3, 3), heights))
        corners = [[F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(2)] for _ in range(3)]
        if Chart(corners).dim == 2:
            valid.append(triangle_refinement(rng, corners, 5))
        valid.append(triangle_refinement(rng, unit, 4))  # a triangle on a plane in R^3
        valid.append(triangle_refinement(rng, unit + [[F(0)] * 3], 4))
        heights = [F(rng.randint(1, 1000), 997) for _ in range(12)]
        valid.append(regular_triangulation(lattice(3, 2, 2), heights))
        heights = [F(rng.randint(1, 1000), 997) for _ in range(18)]
        valid.append(regular_triangulation(lattice(3, 3, 2), heights))
    cases = [(f"valid{k}", tri) for k, tri in enumerate(valid)]
    for k, tri in enumerate(valid):
        for make in (hanging_node, moved_vertex, sheared_cell, sheared_cell):
            cases.append((f"{make.__name__}{k}-{len(cases)}", make(tri, rng)))
        if tri.dim == 2:
            cases.append((f"flipped_edge{k}", flipped_edge(tri, rng)))
    for k in range(6):
        cases.append((f"spliced2d-{k}", spliced(rng, lattice(3, 3), 2)))
        cases.append((f"spliced3d-{k}", spliced(rng, lattice(3, 2, 2), 3)))
    return cases


CERTIFICATE_CASES = dict(certificate_cases())


@functools.cache
def reference_error(label):
    return validation_error(reference_validate, CERTIFICATE_CASES[label])


@pytest.mark.parametrize("label", CERTIFICATE_CASES)
def test_validation_decides_as_the_facet_oracle(label):
    tri = CERTIFICATE_CASES[label]
    assert stage(validation_error(Triangulation.validate, tri)) == stage(reference_error(label))


def integer_separation(tri):
    """The certificate `Triangulation.validate` builds, from one elimination per cell."""
    pts, _ = tri.chart.grid(tri.vertices)
    rows = [_facet_rows(_barycentric_table(pts, c)[2]) for c in tri.maximal]
    return _Separation(tri.vertices, tri.maximal, rows)


def at_pair_stage(label):
    error = reference_error(label)
    return error is None or "do not meet in a common face" in error


def test_certificate_cases_cover_the_outcomes():
    outcomes = collections.Counter()
    overlaps = set()
    for label, tri in CERTIFICATE_CASES.items():
        error = reference_error(label)
        outcomes[(tri.dim, "valid" if error is None else re.sub(r"[\d(].*", "", error))] += 1
        if error is not None and at_pair_stage(label):
            for a, b in itertools.combinations(tri.maximal, 2):
                if not _intersect_in_common_face(tri, a, b):
                    overlaps.add((tri.dim, len(set(a) & set(b))))
    for d in (2, 3):
        assert outcomes[(d, "valid")] >= 8, outcomes
        assert outcomes[(d, "cells ")] >= 5, outcomes  # pairs not meeting in a face
    assert outcomes[(2, "simplex volumes sum to ")] > 0, outcomes
    assert outcomes[(2, "vertex ")] > 0, outcomes
    # cells overlapping with no shared vertex (2-D), or at a shared vertex or edge
    assert {(2, 0), (2, 1), (2, 2), (3, 1), (3, 2)} <= overlaps, overlaps


@pytest.mark.parametrize("label", [k for k in CERTIFICATE_CASES if at_pair_stage(k)])
def test_certified_pairs_agree_with_the_facet_oracle(label):
    """Every pair the oracle certifies is certified with the same set; a pair
    certified by a hyperplane of neither cell meets the LP's common face."""
    tri = CERTIFICATE_CASES[label]
    new = integer_separation(tri)
    own = integer_separation(tri)
    own.hyperplanes = []
    old = reference_separation(tri, [tri.chart.to_local(v) for v in tri.vertices])
    for (i, a), (j, b) in itertools.combinations(enumerate(tri.maximal), 2):
        meet = new.meet(i, j)
        if old.meet(i, j) is not None:
            assert meet == old.meet(i, j) == set(a) & set(b), (a, b)
        if meet is not None and own.meet(i, j) is None:
            assert _intersect_in_common_face(tri, a, b), (a, b)
            assert meet == set(a) & set(b), (a, b)


def test_foreign_hyperplanes_certify_pairs_in_2d_and_3d():
    found = collections.Counter()
    for label, tri in CERTIFICATE_CASES.items():
        if not at_pair_stage(label):
            continue
        new = integer_separation(tri)
        own = integer_separation(tri)
        own.hyperplanes = []
        for i, j in itertools.combinations(range(len(tri.maximal)), 2):
            found[tri.dim] += new.meet(i, j) is not None and own.meet(i, j) is None
    assert found[2] >= 20 and found[3] >= 3, found


def reference_cell_faces(self, cell: Sequence[Point]) -> set[frozenset]:
    """All faces of the cell with vertex points `cell`, as frozensets of
    points, from the oracle's facets."""
    tights: list[frozenset] = []
    for a, b in ambient_halfspaces(cell, self.chart):
        t = frozenset(v for v in cell if dot(a, v) == b)
        if t and t != frozenset(cell):
            tights.append(t)
    faces: set[frozenset] = {frozenset(cell)}
    frontier = set(tights)
    while frontier:
        faces |= frontier
        nxt = set()
        for f in frontier:
            for t in tights:
                g = f & t
                if g and g not in faces:
                    nxt.add(g)
        frontier = nxt
    return faces


def test_face_lattice_reads_the_halfspace_faces():
    """The faces read from each cell's walk are those the subset-loop facets give."""
    rng = random.Random(43)
    unit = [[F(int(i == j)) for j in range(3)] for i in range(3)]
    triangle = [[F(1), F(0)], [F(0), F(1)], [F(0), F(0)]]
    inner = [[F(1, 8), F(1, 8), F(1, 8)], [F(3, 8), F(1, 8), F(1, 16)]]
    inner += [[F(1, 8), F(5, 16), F(1, 8)], [F(1, 16), F(1, 8), F(3, 8)]]
    grid = grid_triangulation(2)
    complexes = [
        el_refinement(triangle_refinement(rng, triangle, 4))[0],
        el_refinement(triangle_refinement(rng, unit, 3))[0],
        el_refinement(triangle_refinement(rng, unit + [[F(0)] * 3], 2))[0],
        hyperplane_extension_subdivision(
            Simplex.of(triangle),
            [Simplex.of([[F(1, 4), F(1, 4)], [F(1, 2), F(1, 4)], [F(1, 4), F(1, 2)]])],
        ),
        hyperplane_extension_subdivision(Simplex.of(unit + [[F(0)] * 3]), [Simplex.of(inner)]),
        PolyhedralComplex(grid.vertices, grid.maximal, grid.polytope),
    ]
    for pc in complexes:
        expected = set().union(*(reference_cell_faces(pc, c) for c in cell_points(pc)))
        lattice = {frozenset(pc.vertices[i] for i in f): d for f, d in pc.face_lattice().items()}
        assert lattice == {f: Chart(sorted(f)).dim for f in expected}


# -- readings of the integer chart grid ---------------------------------------
#
# `reference_cell_diameter` is `Triangulation.cell_diameter` as it was: a
# validated `Simplex`, then every pair of vertices.  `reference_gamma_pieces`
# is el-refine's gamma as it was, signed at each cell's barycenter, and
# `reference_complex_validate` is `PolyhedralComplex.validate` as it was,
# with a `Chart` per cell for its dimension and `volume_in_chart` (one
# `to_local` per vertex) for the volumes, here over the subset-loop hull,
# and the pair stage: `_Separation` over the sign table
# `PolyhedralComplex._separation` built (`complex_sign_table`), then
# `_poly_intersection`.


def reference_cell_diameter(tri, cell) -> Fraction:
    pairs = itertools.combinations(tri.simplex(cell).vertices, 2)
    return max((max(abs(a - b) for a, b in zip(u, v)) for u, v in pairs), default=ZERO)


def diameter_cases():
    """The certificate cases, and regular triangulations of the generic lifts."""
    cases = dict(CERTIFICATE_CASES)
    for label, (local, heights, d) in LIFTS.items():
        try:
            cases[f"lift-{label}"] = regular_triangulation(local, heights)
        except GeometryError:
            continue  # a non-generic lift
    return cases


DIAMETER_CASES = diameter_cases()


def test_max_diameter_matches_the_simplex_pairs():
    compared = collections.Counter()
    for label, tri in DIAMETER_CASES.items():
        try:
            expected = [reference_cell_diameter(tri, c) for c in tri.maximal]
        except GeometryError:
            continue  # an affinely dependent cell: the oracle refuses it
        assert tri.max_diameter() == max(expected), label
        assert [tri.cell_diameter(c) for c in tri.maximal] == expected, label
        compared[len(tri.vertices[0])] += 1
    assert compared[1] >= 5 and compared[2] >= 60 and compared[3] >= 30, compared


def el_cases():
    """Seeded edge-split triangulations of simplices: 2-D, 3-D, and a triangle in R^3."""
    rng = random.Random(61)
    out = []
    while len(out) < 30:
        corners = [[F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2)] for _ in range(3)]
        if Chart(corners).dim == 2:
            out.append((f"el2-{len(out)}", triangle_refinement(rng, corners, rng.randint(1, 4))))
    for k in range(12):
        corners = [[F(0)] * 3]
        corners += [[F(rng.randint(1, 3), 2) * (i == j) for j in range(3)] for i in range(3)]
        out.append((f"el3-{k}", triangle_refinement(rng, corners, 1 + k % 2)))
    for k in range(12):
        corners = [[F(rng.randint(1, 3)) * (i == j) for j in range(3)] for i in range(3)]
        out.append((f"el-plane-{k}", triangle_refinement(rng, corners, rng.randint(1, 3))))
    return out


EL_CASES = el_cases()
EL_REFINEMENTS = {label: el_refinement(tri) for label, tri in EL_CASES}


def reference_gamma_pieces(tri, pc):
    """gamma's (gradient, offset) per cell, each H signed at the cell's barycenter."""
    chart, d = tri.chart, tri.dim
    hyperplanes = []
    for f in tri.faces_of_dim(d - 1):
        hp = hyperplane_through([chart.to_local(tri.vertices[i]) for i in f], d)
        if hp not in hyperplanes:
            hyperplanes.append(hp)
    local_base = [chart.to_local(p) for p in tri.polytope]
    peak = max(sum((abs(dot(a, p) - b) for a, b in hyperplanes), ZERO) for p in local_base)
    alpha = ONE / peak if peak > 0 else ONE
    pieces = []
    for cell in cell_points(pc):
        center = chart.to_local(barycenter(cell))
        grad, off = [ZERO] * d, ZERO
        for a, b in hyperplanes:
            s = ONE if dot(a, center) - b > 0 else -ONE
            grad = [g + s * x for g, x in zip(grad, a)]
            off -= s * b
        pieces.append(([alpha * g for g in grad], alpha * off))
    return pieces


def test_el_cases_cover_the_charts():
    dims = collections.Counter((tri.dim, len(tri.vertices[0])) for _, tri in EL_CASES)
    assert len(EL_CASES) >= 50 and min(dims[(2, 2)], dims[(3, 3)], dims[(2, 3)]) >= 10, dims
    # grids with a scale above 1, so a reading that drops the scale shows
    assert sum(tri.grid[1] > 1 for _, tri in EL_CASES) >= 30


@pytest.mark.parametrize("label,tri", EL_CASES, ids=[c[0] for c in EL_CASES])
def test_el_gamma_reads_as_the_value_oracle(label, tri):
    pc, gamma = EL_REFINEMENTS[label]
    assert gamma.pieces == reference_gamma_pieces(tri, pc)
    expected = {v: gamma.value(v) for v in pc.vertices}
    values = gamma.vertex_values()
    assert values == expected
    # el-refine's gamma_range
    assert (min(values.values()), max(values.values())) == (
        min(expected.values()),
        max(expected.values()),
    )


def complex_sign_table(pc) -> tuple[list[Point], list[int], list[list[tuple[int, int]]]]:
    """The distinct vertices, and per cell its vertex mask and facets' sign rows.

    `PolyhedralComplex._separation` as it was, fed by the oracle's facets
    (:func:`ambient_halfspaces`) instead of stored halfspaces.  Each
    halfspace is evaluated once at every vertex on an integer grid; a
    cell's facets are its halfspaces with maximal sets of tight vertices.
    """
    points = list(pc.vertices)
    index = {p: k for k, p in enumerate(points)}
    grid, scale = _integer_matrix(points)
    known: dict = {}

    def signs(hs: tuple[tuple[Fraction, ...], Fraction]) -> tuple[int, int]:
        row = known.get(hs)
        if row is None:
            *a, b = _integer_row([*hs[0], hs[1]])[0]
            b *= scale
            row = _sign_masks([sum(map(operator.mul, a, x)) - b for x in grid])
            known[hs] = row
            known[(tuple(-x for x in hs[0]), -hs[1])] = row[::-1]
        return row

    masks = [sum(1 << index[v] for v in c) for c in cell_points(pc)]
    rows = []
    for mask, c in zip(masks, cell_points(pc)):
        halfspaces = ambient_halfspaces(c, pc.chart)
        tight = {mask & ~(row[0] | row[1]): row for row in map(signs, halfspaces)}
        proper = set(tight) - {0, mask}
        maximal = {t for t in proper if not any(t & u == t != u for u in proper)}
        rows.append([row for t, row in tight.items() if t in maximal])
    return points, masks, rows


def complex_separation(pc) -> _Separation:
    """The pair certificates `PolyhedralComplex.validate` built, from the oracle's sign table."""
    points, masks, rows = complex_sign_table(pc)
    return _Separation(points, [_bits(m) for m in masks], rows)


def reference_complex_validate(pc) -> None:
    total = ZERO
    cells = cell_points(pc)
    for c in cells:
        if Chart(c).dim != pc.dim:
            raise GeometryError("non-maximal cell listed as maximal")
        total += reference_volume(c, pc.chart)
    target = reference_volume(pc.polytope, pc.chart)
    if total != target:
        raise GeometryError(f"cell volumes sum to {total}, polytope volume is {target}")
    sep = complex_separation(pc)
    index = {p: k for k, p in enumerate(sep.points)}
    faces = [_cell_faces(mask, rows) for mask, rows in zip(sep.masks, sep.rows)]
    for i, j in itertools.combinations(range(len(cells)), 2):
        meet = sep.meet(i, j)
        if meet is None:
            inter_dim, inter_verts = _poly_intersection(pc.chart, cells[i], cells[j])
            if inter_dim is None:
                continue
            key = (
                sum(1 << index[v] for v in inter_verts)
                if all(v in index for v in inter_verts)
                else None
            )
        elif not meet:
            continue
        else:
            key = sum(1 << v for v in meet)
        if key not in faces[i] or key not in faces[j]:
            raise GeometryError("two cells intersect outside a common face")


def complex_of(cells: Sequence[Sequence[Point]], polytope) -> PolyhedralComplex:
    """The complex of cells given by their vertex points, each distinct point one vertex."""
    vertices = list(dict.fromkeys(p for c in cells for p in c))
    return PolyhedralComplex(vertices, [[vertices.index(p) for p in c] for c in cells], polytope)


def complex_cases():
    """Seeded valid complexes and planted invalid ones.

    Valid: EL refinements, hyperplane extensions and simplicial complexes.
    Invalid: a cell dropped (a volume gap), a cell swapped for one of its
    facets or for a lower flat of its vertices (non-maximal), and the
    overlapping triangulations of the certificate cases as complexes.
    """
    rng = random.Random(67)
    valid = [(label, pc) for label, (pc, _) in list(EL_REFINEMENTS.items())[::3]]
    triangle = Simplex.of([[F(0), F(0)], [F(1), F(0)], [F(0), F(1)]])
    for k in range(4):
        inner = [[F(rng.randint(1, 3), 8), F(rng.randint(1, 3), 8)] for _ in range(3)]
        if Chart(inner).dim == 2:
            pc = hyperplane_extension_subdivision(triangle, [Simplex.of(inner)])
            valid.append((f"extension{k}", pc))
    cases = list(valid)
    for label, pc in valid:
        cells = cell_points(pc)
        if len(cells) > 1:
            k = rng.randrange(len(cells))
            gap = complex_of(cells[:k] + cells[k + 1 :], pc.polytope)
            cases.append((f"gap-{label}", gap))
        k = rng.randrange(len(cells))
        facet = max(
            (
                tuple(v for v in cells[k] if dot(a, v) == b)
                for a, b in ambient_halfspaces(cells[k], pc.chart)
            ),
            key=len,
        )
        cells[k] = facet
        cases.append((f"facet-{label}", complex_of(cells, pc.polytope)))
    for label, tri in CERTIFICATE_CASES.items():
        if not at_pair_stage(label) or len(tri.maximal) > 12:
            continue
        cases.append((f"simplicial-{label}", PolyhedralComplex(tri.vertices, tri.maximal, tri.polytope)))
    return cases


COMPLEX_CASES = dict(complex_cases())


@functools.cache
def reference_complex_error(label):
    return validation_error(reference_complex_validate, COMPLEX_CASES[label])


def test_complex_cases_cover_the_outcomes():
    errors = [reference_complex_error(label) for label in COMPLEX_CASES]
    outcomes = collections.Counter(
        "valid" if error is None else re.sub(r" \d.*", "", error) for error in errors
    )
    assert outcomes["valid"] >= 15, outcomes
    assert outcomes["cell volumes sum to"] >= 5, outcomes
    assert outcomes["non-maximal cell listed as maximal"] >= 5, outcomes
    assert outcomes["two cells intersect outside a common face"] >= 5, outcomes


@pytest.mark.parametrize("label", COMPLEX_CASES)
def test_complex_validation_decides_as_the_chart_oracle(label):
    pc = COMPLEX_CASES[label]
    assert stage(validation_error(PolyhedralComplex.validate, pc)) == stage(
        reference_complex_error(label)
    )


def test_complex_vertex_off_the_plane_is_rejected_as_by_the_oracle():
    pc, _ = EL_REFINEMENTS["el-plane-0"]
    cells = cell_points(pc)
    moved = tuple(x + F(1, 3) for x in cells[0][0])
    cells[0] = (moved,) + cells[0][1:]
    broken = complex_of(cells, pc.polytope)
    with pytest.raises(ValueError):
        reference_complex_validate(broken)
    with pytest.raises(GeometryError, match="off the polytope's affine hull"):
        broken.validate()


# -- facet matching against the pair checks ---------------------------------


def overlapping_moved_vertex(tri, rng):
    """`tri` with one vertex moved so that some pair of cells overlaps."""
    while True:
        k = rng.randrange(len(tri.vertices))
        verts = list(tri.vertices)
        verts[k] = tuple(x + F(rng.randint(-3, 3), 4) for x in verts[k])
        moved = variant(tri, verts, tri.maximal)
        try:
            for c in moved.maximal:
                moved.simplex(c)
        except GeometryError:
            continue  # a flattened cell
        if not all(
            _intersect_in_common_face(moved, a, b)
            for a, b in itertools.combinations(moved.maximal, 2)
        ):
            return moved


UNIT_TRIANGLE = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]
UNIT_TETRAHEDRON = [(F(0), F(0), F(0)), (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))]


@pytest.fixture(scope="module")
def pair_check_inputs():
    """Seeded valid triangulations (2-D and 3-D) and invalid variants of them."""
    valid = [grid_triangulation(3)]
    for seed in range(2):
        rng = random.Random(seed)
        pts = [(F(i), F(j)) for i in range(3) for j in range(3)]
        valid.append(regular_triangulation(pts, [F(rng.randint(1, 1000), 997) for _ in pts]))
        valid.append(triangle_refinement(random.Random(seed), UNIT_TRIANGLE, 5))
        valid.append(triangle_refinement(rng, UNIT_TETRAHEDRON, 4))
    invalid = []
    for seed, tri in enumerate(valid):
        rng = random.Random(100 + seed)
        invalid += [hanging_node(tri, rng), overlapping_moved_vertex(tri, rng)]
    return valid, invalid


def small_planar_complexes(tris):
    """The 2-D triangulations of at most 10 cells as complexes: the 3-D ones
    and the grid would make the vertex enumeration oracle dominate run time."""
    return [
        PolyhedralComplex(t.vertices, t.maximal, t.polytope)
        for t in tris
        if len(t.vertices[0]) == 2 and len(t.maximal) <= 10
    ]


def test_certified_triangulation_pairs_pass_the_lp(pair_check_inputs):
    valid, invalid = pair_check_inputs
    accepted = 0
    for tri in valid + invalid:
        sep = integer_separation(tri)
        rejected = 0
        for (i, a), (j, b) in itertools.combinations(enumerate(tri.maximal), 2):
            meet = sep.meet(i, j)
            exact = _intersect_in_common_face(tri, a, b)
            if meet is not None:
                assert exact, (a, b)
                assert meet == set(a) & set(b)
                accepted += 1
            rejected += not exact
        assert (rejected > 0) == (tri in invalid)
    assert accepted > 0


def test_certified_complex_pairs_match_vertex_enumeration(pair_check_inputs):
    valid, invalid = pair_check_inputs
    base = Simplex.of([[F(0), F(0)], [F(1), F(0)], [F(0), F(1)]])
    inner = Simplex.of([[F(1, 4), F(1, 4)], [F(1, 2), F(1, 4)], [F(1, 4), F(1, 2)]])
    complexes = small_planar_complexes(valid + invalid)
    complexes.append(hyperplane_extension_subdivision(base, [inner]))
    complexes += [
        el_refinement(triangle_refinement(random.Random(seed), UNIT_TRIANGLE, 4))[0]
        for seed in (1, 2)
    ]
    accepted = 0
    for pc in complexes:
        sep = complex_separation(pc)
        cells = cell_points(pc)
        for i, j in itertools.combinations(range(len(cells)), 2):
            meet = sep.meet(i, j)
            if meet is None:
                continue
            dim, verts = _poly_intersection(pc.chart, cells[i], cells[j])
            exact = frozenset() if dim is None else frozenset(verts)
            assert exact == frozenset(sep.points[v] for v in meet)
            accepted += 1
    assert accepted > 0


def test_pair_check_inputs_decide_as_the_pair_stage(pair_check_inputs):
    valid, invalid = pair_check_inputs
    for tri in valid + invalid:
        expected = stage(validation_error(reference_validate, tri))
        assert (expected is None) == (tri in valid)
        assert stage(validation_error(Triangulation.validate, tri)) == expected
    for pc in small_planar_complexes(valid + invalid):
        expected = stage(validation_error(reference_complex_validate, pc))
        assert stage(validation_error(PolyhedralComplex.validate, pc)) == expected


def split_cell(pc, k, normal):
    """`pc` with cell k cut in two by the plane normal·x = normal·(its barycenter)."""
    cells = cell_points(pc)
    cell = cells[k]
    local = [pc.chart.to_local(v) for v in cell]
    cut = (normal, dot(normal, barycenter(local)))
    rows = cell_halfspaces(cell, pc.chart)
    halves = [
        tuple(tuple(pc.chart.to_ambient(v)) for v in verts)
        for _, verts in arrangement_cells(rows, local, [cut], len(normal))
    ]
    return complex_of(cells[:k] + cells[k + 1 :] + halves, pc.polytope)


def test_facet_matching_decides_face_to_face_on_a_3d_extension():
    """Matched facets with an exact volume cover meet face to face: on a 3-D
    hyperplane extension both checks accept, and when its inner simplex is
    cut in two, the cut facets of its neighbours are matched by no cell."""
    inner = [(F(1, 8), F(1, 8), F(1, 8)), (F(3, 8), F(1, 8), F(1, 16))]
    inner += [(F(1, 8), F(5, 16), F(1, 8)), (F(1, 16), F(1, 8), F(3, 8))]
    pc = hyperplane_extension_subdivision(Simplex.of(UNIT_TETRAHEDRON), [Simplex.of(inner)])
    assert validation_error(reference_complex_validate, pc) is None
    k = next(k for k, c in enumerate(cell_points(pc)) if set(c) == set(inner))
    cut = split_cell(pc, k, (F(1), F(2), F(-3)))
    assert len(cut.maximal) == len(pc.maximal) + 1
    assert stage(validation_error(reference_complex_validate, cut)) == "pair"
    assert stage(validation_error(PolyhedralComplex.validate, cut)) == "pair"


# -- barycentric queries against one Fraction solve per cell ----------------


def reference_barycentric(vertices, point) -> Optional[list[Fraction]]:
    """`barycentric_in` as it was: Σ w_i v_i = point, Σ w_i = 1, solved in Fractions."""
    A = [[v[i] for v in vertices] for i in range(len(point))] + [[ONE] * len(vertices)]
    return reference_solve_linear(A, [*point, ONE])


def reference_find_cell(tri, point):
    """The first maximal cell whose ambient weights are all >= 0, with them."""
    for c in tri.maximal:
        w = reference_barycentric([tri.vertices[i] for i in c], point)
        if w is not None and min(w) >= 0:
            return c, w
    return None


def probability_simplex(n):
    return [tuple(F(int(i == j)) for j in range(n)) for i in range(n)]


def query_cases():
    """Seeded (label, triangulation, points): probability simplices in R^3 and
    R^4 refined by edge splits, grid and regular triangulations, each with its
    vertices, points on edges, inside cells, beyond an edge's end (inside or
    outside the polytope) and, for the embedded ones, off the affine hull."""
    rng = random.Random(83)
    cases = []
    for k in range(8):
        n = 3 + k % 2
        cases.append((f"probability{n}-{k}", triangle_refinement(rng, probability_simplex(n), k % 4)))
    for n in (1, 2, 3):
        cases.append((f"grid{n}", grid_triangulation(n)))
    for label in ("lattice4-0", "plane3", "plane7", "space1", "space4", "line2"):
        local, heights, _ = LIFTS[label]
        cases.append((f"regular-{label}", regular_triangulation(local, heights)))
    out = []
    for label, tri in cases:
        verts = tri.vertices
        points = list(verts)
        for _ in range(12):
            cell = rng.choice(tri.maximal)
            u, v = (verts[i] for i in rng.sample(cell, 2))
            for t in (F(rng.randint(1, 5), 6), F(rng.randint(7, 18), 6)):
                points.append(tuple(a + t * (b - a) for a, b in zip(u, v)))
            ws = [F(rng.randint(1, 5)) for _ in cell]
            points.append(tuple(sum(w * verts[i][r] for w, i in zip(ws, cell)) / sum(ws)
                                for r in range(len(u))))
        if tri.dim < len(verts[0]):
            points += [(p[0] + F(1, 7), *p[1:]) for p in points[::5]]
        out.append((label, tri, points))
    return out


QUERY_CASES = query_cases()


@pytest.mark.parametrize("label,tri,points", QUERY_CASES, ids=[c[0] for c in QUERY_CASES])
def test_simplex_weights_match_one_fraction_solve(label, tri, points):
    for cell in tri.maximal:
        simplex = tri.simplex(cell)
        for p in points:
            want = reference_barycentric(simplex.vertices, p)
            assert simplex.barycentric(p) == want, (cell, p)
            assert simplex.contains(p) == (want is not None and min(want) >= 0), (cell, p)
            assert simplex.strictly_contains(p) == (want is not None and min(want) > 0), (cell, p)


@pytest.mark.parametrize("label,tri,points", QUERY_CASES, ids=[c[0] for c in QUERY_CASES])
def test_triangulation_queries_match_one_fraction_solve_per_cell(label, tri, points):
    rng = random.Random(label)
    for p in points:
        found = reference_find_cell(tri, p)
        assert tri.find_cell(p) == found, p
        assert [tri.contains(k, p) for k in range(len(tri.maximal))] == [
            (w := reference_barycentric([tri.vertices[i] for i in c], p)) is not None
            and min(w) >= 0
            for c in tri.maximal
        ], p
        if found is None:
            for query in (tri.barycentric_coords, tri.carrier):
                with pytest.raises(GeometryError, match="lies outside the covered polytope"):
                    query(p)
            continue
        coords = {i: w for i, w in zip(*found) if w > 0}
        assert tri.barycentric_coords(p) == coords, p
        assert tri.carrier(p) == tuple(coords), p
        v = rng.randrange(len(tri.vertices))
        star = {i for c in tri.maximal if v in c for i in c}
        assert tri.star_bump(v, p) == sum((w for i, w in coords.items() if i in star), ZERO)


def test_query_cases_cover_every_kind_of_point():
    """Points on vertices, on edges, inside cells, outside the polytope and
    off its affine hull, in charts of one to three dimensions."""
    kinds = collections.Counter()
    for label, tri, points in QUERY_CASES:
        for p in points:
            found = reference_find_cell(tri, p)
            if found is None:
                on_flat = reference_barycentric(tri.simplex(tri.maximal[0]).vertices, p)
                kinds["outside" if on_flat is not None else "off the hull"] += 1
            else:
                zeros = sum(w == 0 for w in found[1])
                kinds[{0: "interior", tri.dim: "vertex"}.get(zeros, "boundary")] += 1
        kinds[f"dim {tri.dim} in R^{len(tri.vertices[0])}"] += 1
    assert min(kinds[k] for k in ("interior", "vertex", "boundary", "outside", "off the hull")) >= 20
    charts = ("dim 1 in R^1", "dim 2 in R^2", "dim 2 in R^3", "dim 3 in R^3", "dim 3 in R^4")
    assert all(kinds[k] for k in charts), kinds


def test_interpolated_pieces_match_one_fraction_solve_per_cell():
    """Each cell's gradient and offset, read from its table's forms on the
    grid, solve (to_local(v), 1)·(g, c) = h_v at its vertices in Fractions."""
    rng = random.Random(89)
    scaled = 0
    for label, tri, _ in QUERY_CASES:
        heights = {i: F(rng.randint(-9, 9), rng.randint(1, 4)) for i in range(len(tri.vertices))}
        want = []
        for c in tri.maximal:
            A = [[*tri.chart.to_local(tri.vertices[i]), ONE] for i in c]
            *grad, off = reference_solve_linear(A, [heights[i] for i in c])
            want.append((grad, off))
        assert interpolate_heights(tri, heights).pieces == want, label
        scaled += tri.grid[1] > 1
    assert scaled >= 5
