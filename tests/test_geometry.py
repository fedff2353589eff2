import itertools
import random
from fractions import Fraction

import pytest

from equilib.geometry import (
    GeometryError,
    PLFunction,
    PolyhedralComplex,
    Simplex,
    Triangulation,
    affine_below_except_marked,
    el_refinement,
    extreme_points,
    generalized_barycentric_subdivision,
    grid_triangulation,
    hyperplane_extension_subdivision,
    interpolate_heights,
    refine_modulo,
    regular_triangulation,
    triangulate_without_new_vertices,
    volume_in_chart,
)
from equilib.linalg import Chart, _sign
from oracles import barycenter, cell_points, in_convex_hull

F = Fraction


def unit_triangle():
    return Triangulation(
        [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))],
        [(0, 1, 2)],
    )


def random_refinement(seed, splits=4):
    """Seeded triangulation built by repeated edge splits of a triangle."""
    rng = random.Random(seed)
    tri = unit_triangle()
    for _ in range(splits):
        edges = tri.faces_of_dim(1)
        tri = tri.split_edge(tuple(rng.choice(edges)))
    tri.validate()
    return tri


def random_point(rng, tri):
    cell = rng.choice(tri.maximal)
    ws = [rng.randint(0, 6) for _ in cell]
    if sum(ws) == 0:
        ws[0] = 1
    tot = sum(ws)
    pts = [tri.vertices[i] for i in cell]
    return [
        sum(F(w, tot) * pts[k][d] for k, w in enumerate(ws))
        for d in range(len(pts[0]))
    ]


# -- simplices -------------------------------------------------------------


def test_simplex_barycentric_identity():
    s = Simplex.of([[F(0), F(0)], [F(2), F(0)], [F(0), F(2)]])
    assert s.barycentric(s.barycenter()) == [F(1, 3)] * 3
    assert s.contains([F(1), F(1)])
    assert not s.strictly_contains([F(1), F(1)])  # on the long edge


def test_degenerate_simplex_rejected():
    with pytest.raises(GeometryError):
        Simplex.of([[F(0), F(0)], [F(1), F(1)], [F(2), F(2)]])


# -- triangulations --------------------------------------------------------


def test_grid_statistics():
    tri = grid_triangulation(3)
    assert len(tri.vertices) == 16
    assert len(tri.faces_of_dim(1)) == 33
    assert len(tri.maximal) == 18


@pytest.mark.parametrize("seed", range(5))
def test_carrier_and_barycentric_invariants(seed):
    rng = random.Random(1000 + seed)
    tri = random_refinement(seed)
    for _ in range(50):
        p = random_point(rng, tri)
        carrier = tri.carrier(p)
        coords = tri.barycentric_coords(p)
        # coordinates are a convex combination supported on the carrier
        assert sum(coords.values()) == 1
        assert all(w > 0 for w in coords.values())
        assert set(coords) == set(carrier)
        recon = [
            sum(w * tri.vertices[i][d] for i, w in coords.items())
            for d in range(2)
        ]
        assert recon == list(map(F, p))
        # the carrier contains the point in its relative interior
        assert tri.simplex(carrier).contains(p)


def test_star_bump_is_one_on_star_and_zero_outside():
    tri = grid_triangulation(2)
    v = 4  # center vertex of the 2x2 grid
    star = tri.closed_star(v)
    for i, p in enumerate(tri.vertices):
        expected = 1 if i in star.vertices else 0
        assert tri.star_bump(v, p) == expected


def test_split_edge_preserves_volume():
    tri = random_refinement(3)
    total = sum(tri.cell_volume(c) for c in tri.maximal)
    assert total == F(1, 2)


def test_serialize_round_trip():
    tri = random_refinement(7)
    again = Triangulation.deserialize(tri.serialize())
    assert again.vertices == tri.vertices
    assert again.maximal == tri.maximal


# -- regular triangulations ------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_regular_triangulation_generic_heights(seed):
    rng = random.Random(seed)
    pts = [(F(i), F(j)) for i in range(3) for j in range(3)]
    heights = [F(rng.randint(1, 1000), 997) for _ in pts]
    tri = regular_triangulation(pts, heights)
    tri.validate()
    assert set(tri.vertices) <= set(pts)
    # the cells tile the square exactly: volumes sum to the full region
    from equilib.geometry import volume_in_chart

    total = sum(tri.cell_volume(c) for c in tri.maximal)
    assert total == volume_in_chart(pts, tri.chart) > 0


def test_regular_triangulation_flat_height_reported():
    pts = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))]
    with pytest.raises(GeometryError):
        regular_triangulation(pts, [F(0)] * 4)


UNIT_SQUARE = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))]


@pytest.mark.parametrize(
    "points",
    [
        [(F(0), F(0)), (F(2), F(0)), (F(0), F(2)), (F(2), F(2))],
        [(F(x), F(y)) for x in range(3) for y in range(3)],
    ],
    ids=["square", "lattice3"],
)
def test_cospherical_hulls(points):
    # every point set here lies on one circle or is a lattice of such squares,
    # so the paraboloid lift is flat on whole squares until it is perturbed
    assert extreme_points(points) == [p for p in points if set(p) <= {F(0), F(2)}]
    assert volume_in_chart(points, Chart(UNIT_SQUARE[:3])) == 4


def test_volume_in_chart_rejects_a_point_off_the_chart():
    chart = Chart([(F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))])
    assert volume_in_chart([(F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))], chart) == F(1, 2)
    with pytest.raises(GeometryError, match="point not in affine hull"):
        volume_in_chart([(F(1), F(0), F(0)), (F(0), F(0), F(0))], chart)


def test_sign_rule_reads_the_constant_then_the_lowest_index():
    # a nonzero constant wins over any ε terms
    assert _sign(3, [(0, -5)]) == 1
    assert _sign(-1, [(0, 7)]) == -1
    # otherwise the lowest index with a nonzero coefficient, in any order
    assert _sign(0, [(4, -1), (2, 3), (9, -8)]) == 1
    assert _sign(0, [(5, 2), (1, -1)]) == -1
    # coefficients of one index are summed first
    assert _sign(0, [(2, 3), (4, -1), (2, -3)]) == -1
    assert _sign(0, [(1, 2), (1, -2)]) == _sign(0) == 0


@pytest.mark.parametrize(
    "vertices,maximal,polytope",
    [
        (UNIT_SQUARE[:3] + [(F(2), F(2))], [(0, 1, 2), (1, 2, 3)], UNIT_SQUARE),
        (
            [(F(0), F(0), F(0)), (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))],
            [(0, 1, 2)],
            [(F(0), F(0), F(0)), (F(1), F(0), F(0)), (F(0), F(1), F(0))],
        ),
    ],
    ids=["outside-the-square", "off-the-affine-hull"],
)
def test_vertex_outside_the_polytope_rejected(vertices, maximal, polytope):
    with pytest.raises(GeometryError, match="^vertex 3 lies outside the covered polytope$"):
        Triangulation(vertices, maximal, polytope)


def test_grid_size_below_one_rejected():
    for n in (0, -1):
        with pytest.raises(GeometryError, match=f"grid size n must be at least 1, got {n}"):
            grid_triangulation(n)


# -- subdivisions and refinements -----------------------------------------


def test_hyperplane_extension_subdivision_covers_domain():
    base = Simplex.of([[F(0), F(0)], [F(1), F(0)], [F(0), F(1)]])
    inner = Simplex.of(
        [[F(1, 4), F(1, 4)], [F(1, 2), F(1, 4)], [F(1, 4), F(1, 2)]]
    )
    pc = hyperplane_extension_subdivision(base, [inner])
    pc.validate()
    tri = unit_triangle()
    rng = random.Random(0)
    for _ in range(20):
        p = random_point(rng, tri)
        assert any(pc.contains(k, p) for k in range(len(pc.maximal)))
    # the embedded simplex is a union of cells
    covered = [c for c in cell_points(pc) if all(inner.contains(v) for v in c)]
    assert covered
    for c in covered:
        assert inner.contains(barycenter(c))


def test_refine_modulo_protects_and_bounds():
    tri = grid_triangulation(2)
    protected = [tri.maximal[0]]
    bound = F(1, 2)
    refined = refine_modulo(tri, protected, bound)
    refined.validate()
    protected_pts = tuple(sorted(tri.vertices[i] for i in protected[0]))
    surviving = {
        tuple(sorted(refined.vertices[i] for i in c)) for c in refined.maximal
    }
    assert protected_pts in surviving
    protected_vertex_pts = set(protected_pts)
    for c in refined.maximal:
        pts = {refined.vertices[i] for i in c}
        if pts & protected_vertex_pts:
            continue
        assert refined.cell_diameter(c) <= bound


def test_generalized_barycentric_subdivision_volume():
    tri = unit_triangle()
    sub = generalized_barycentric_subdivision(tri)
    sub.validate()
    assert len(sub.maximal) == 6
    assert sum(sub.cell_volume(c) for c in sub.maximal) == F(1, 2)


# -- one data model: a triangulation read as a complex ----------------------


def data_model_triangulations():
    """A refined triangle, a grid square, and a split tetrahedron."""
    tetrahedron = [(F(0), F(0), F(0)), (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))]
    return [
        random_refinement(3, splits=3),
        grid_triangulation(2),
        Triangulation(tetrahedron, [(0, 1, 2, 3)]).split_edge((0, 1)).split_edge((2, 4)),
    ]


@pytest.mark.parametrize("k", range(3))
def test_triangulation_as_complex_has_its_lattice_and_subdivision(k):
    tri = data_model_triangulations()[k]
    pc = PolyhedralComplex(tri.vertices, tri.maximal, tri.polytope)
    pc.validate()
    assert pc.face_lattice() == tri.face_lattice()
    sub_tri = generalized_barycentric_subdivision(tri)
    sub_pc = generalized_barycentric_subdivision(pc)
    assert {frozenset(c) for c in cell_points(sub_pc)} == {frozenset(c) for c in cell_points(sub_tri)}


@pytest.mark.parametrize("k", range(3))
def test_pl_function_reads_a_triangulation_and_its_complex_alike(k):
    tri = data_model_triangulations()[k]
    pc = PolyhedralComplex(tri.vertices, tri.maximal, tri.polytope)
    rng = random.Random(k)
    # |x|² at the vertices is convex; seeded heights mostly are not
    for heights in (
        {i: sum(x * x for x in v) for i, v in enumerate(tri.vertices)},
        {i: F(rng.randint(-9, 9), 7) for i in range(len(tri.vertices))},
    ):
        on_tri = interpolate_heights(tri, heights)
        on_pc = PLFunction(pc, on_tri.pieces)
        assert on_pc.vertex_values() == on_tri.vertex_values()
        assert on_pc.is_convex() == on_tri.is_convex()
        assert on_pc.adjacent_cell_pairs() == on_tri.adjacent_cell_pairs()


def test_barycentric_subdivision_of_a_complex_takes_index_keyed_choices(el):
    _, (pc, _) = el
    sub = generalized_barycentric_subdivision(pc)
    sub.validate()
    edge = next(f for f, d in pc.face_lattice().items() if d == 1)
    u, v = (pc.vertices[i] for i in edge)
    middle = tuple((a + b) / 2 for a, b in zip(u, v))
    third = tuple((2 * a + b) / 3 for a, b in zip(u, v))
    assert middle in sub.vertices and third not in sub.vertices
    moved = generalized_barycentric_subdivision(pc, {edge: third})
    moved.validate()
    assert third in moved.vertices and middle not in moved.vertices
    assert len(moved.maximal) == len(sub.maximal)


# -- EL refinement and its convex witness ---------------------------------


@pytest.fixture
def el(request):
    tri = unit_triangle().split_edge((0, 1)).split_edge((0, 2))
    return tri, el_refinement(tri)


def test_el_gamma_properties(el):
    tri, (pc, gamma) = el
    verts = pc.vertices
    vals = [gamma.value(v) for v in verts]
    assert all(0 <= v <= 1 for v in vals)
    assert max(vals) == 1
    assert gamma.is_convex()
    assert gamma.nonlinear_across_every_interior_facet()


def test_el_gamma_linear_on_cells(el):
    tri, (pc, gamma) = el
    rng = random.Random(5)
    for vs in cell_points(pc):
        ws = [rng.randint(1, 5) for _ in vs]
        tot = sum(ws)
        p = [
            sum(F(w, tot) * vs[k][d] for k, w in enumerate(ws))
            for d in range(2)
        ]
        interp = sum(F(w, tot) * gamma.value(v) for v, w in zip(vs, ws))
        assert gamma.value(p) == interp


def test_point_errors_print_rationals(el):
    _, (_, gamma) = el
    tri = unit_triangle()
    outside = [F(2), F(1, 3)]
    for query in (tri.carrier, tri.barycentric_coords):
        with pytest.raises(GeometryError, match=r"^point \(2, 1/3\) lies outside the covered polytope$"):
            query(outside)
    with pytest.raises(GeometryError, match=r"^point \(2, 1/3\) outside the domain$"):
        gamma.value(outside)
    inner = Simplex.of([[F(1, 4), F(1, 4)], [F(1, 2), F(1, 4)], [F(1, 4), F(1, 2)]])
    with pytest.raises(GeometryError) as err:
        hyperplane_extension_subdivision(tri.simplex((0, 1, 2)), [inner], [[F(1, 8), F(1, 4)]])
    assert str(err.value) == (
        "degenerate arrangement: marked point (1/8, 1/4) lies on extended hyperplane (0, 4)·x = 1"
    )


def test_triangulate_without_new_vertices(el):
    tri, (pc, gamma) = el
    rng = random.Random(11)
    verts = pc.vertices
    for attempt in range(20):
        heights = [
            gamma.value(v) + F(rng.randint(-1, 1), 10**6) for v in verts
        ]
        try:
            fine, witness = triangulate_without_new_vertices(pc, heights)
        except GeometryError:
            continue
        fine.validate()
        assert set(fine.vertices) == set(verts)
        assert witness.is_convex()
        return
    pytest.fail("no generic height perturbation found in 20 attempts")


def test_affine_below_except_marked():
    tri = unit_triangle().split_edge((0, 1))
    pc, gamma = el_refinement(tri)
    fine, witness = _simplicial(pc, gamma)
    marked = [fine.faces_of_dim(1)[0]]
    grad_offset = affine_below_except_marked(witness, marked)
    grad, offset = grad_offset
    chart = witness.chart
    for i, v in enumerate(fine.vertices):
        loc = chart.to_local(v)
        affine = sum(g * x for g, x in zip(grad, loc)) + offset
        if i in marked[0]:
            assert affine == witness.value(v)
        else:
            assert affine < witness.value(v)


def _simplicial(pc, gamma):
    verts = pc.vertices
    heights = [gamma.value(v) for v in verts]
    rng = random.Random(23)
    for _ in range(50):
        jitter = [h + F(rng.randint(-1, 1), 10**7) for h in heights]
        try:
            return triangulate_without_new_vertices(pc, jitter)
        except GeometryError:
            continue
    raise AssertionError("could not triangulate the refinement")


# -- cells meeting in common faces ------------------------------------------

HANGING_SQUARE = [(F(0), F(0)), (F(2), F(0)), (F(0), F(2)), (F(2), F(2)), (F(1), F(1))]
# (1,1) is a vertex of the two lower-right cells and the midpoint of the
# upper-left cell's diagonal edge: volumes add up, faces do not match.
HANGING_CELLS = [(0, 3, 2), (0, 1, 4), (4, 1, 3)]


@pytest.mark.parametrize("cell,bad", [((0, 1, 3), "3"), ((0, 1, -1), "-1"), ((0, 1, "2"), "'2'")])
def test_cell_naming_no_vertex_rejected(cell, bad):
    with pytest.raises(GeometryError, match=f"names vertex {bad}, but the vertices are 0..2"):
        Triangulation([(F(0), F(0)), (F(1), F(0)), (F(0), F(1))], [cell], validate=False)


def test_hanging_node_triangulation_rejected():
    with pytest.raises(GeometryError, match="do not meet in a common face"):
        Triangulation(HANGING_SQUARE, HANGING_CELLS, HANGING_SQUARE[:4])


def test_hanging_node_complex_rejected():
    tri = Triangulation(HANGING_SQUARE, HANGING_CELLS, HANGING_SQUARE[:4], validate=False)
    with pytest.raises(GeometryError, match="two cells intersect outside a common face"):
        PolyhedralComplex(tri.vertices, tri.maximal, tri.polytope).validate()


# The boundary of a tetrahedron seen from above: every edge lies in two
# cells and the volumes add up to the hull's, which holds the fold strictly
# inside, but the two cells on edge (0, 1), and on (1, 2) and (0, 2), lie on
# one side of it.
FOLD = [(F(0), F(0)), (F(2), F(0)), (F(0), F(2)), (F(1, 2), F(1, 2))]
FOLD_CELLS = [(0, 1, 2), (0, 1, 3), (1, 2, 3), (0, 2, 3)]
FOLD_HULL = [(F(-1, 4), F(-1, 4)), (F(29, 12), F(-1, 4)), (F(-1, 4), F(11, 4))]


def test_folded_cells_rejected():
    with pytest.raises(GeometryError, match="do not meet in a common face"):
        Triangulation(FOLD, FOLD_CELLS, FOLD_HULL)
    tri = Triangulation(FOLD, FOLD_CELLS, FOLD_HULL, validate=False)
    with pytest.raises(GeometryError, match="two cells intersect outside a common face"):
        PolyhedralComplex(tri.vertices, tri.maximal, FOLD_HULL).validate()


def test_repeated_cell_rejected():
    tri = grid_triangulation(2)
    cells = tri.maximal
    # a copy of the first cell in place of the last: the volumes still add up
    with pytest.raises(GeometryError, match="two cells intersect outside a common face"):
        PolyhedralComplex(tri.vertices, cells[:-1] + cells[:1], tri.polytope).validate()
    with pytest.raises(GeometryError, match="cell volumes sum to"):
        PolyhedralComplex(tri.vertices, cells + cells[-1:], tri.polytope).validate()
    for maximal in (tri.maximal[:-1] + tri.maximal[:1], tri.maximal + tri.maximal[-1:]):
        with pytest.raises(GeometryError, match="duplicate maximal cell"):
            Triangulation(tri.vertices, maximal, tri.polytope)


# -- cell membership ----------------------------------------------------------


def membership_complexes():
    """EL refinements in 2-D, in 3-D and of a triangle in R^3, hyperplane
    extensions in 2-D and 3-D, and the square split along its diagonal."""
    tetrahedron = [(F(0), F(0), F(0)), (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))]
    plane = Triangulation(tetrahedron[1:], [(0, 1, 2)])
    inner = [(F(1, 8), F(1, 8), F(1, 8)), (F(3, 8), F(1, 8), F(1, 16))]
    inner += [(F(1, 8), F(5, 16), F(1, 8)), (F(1, 16), F(1, 8), F(3, 8))]
    solid = Triangulation(tetrahedron, [(0, 1, 2, 3)])
    square = grid_triangulation(1)
    return [
        el_refinement(unit_triangle().split_edge((0, 1)).split_edge((0, 2)))[0],
        el_refinement(solid.split_edge((0, 1)).split_edge((2, 4)))[0],
        el_refinement(plane.split_edge((0, 1)).split_edge((2, 3)))[0],
        hyperplane_extension_subdivision(
            Simplex.of(unit_triangle().vertices),
            [Simplex.of([[F(1, 4), F(1, 4)], [F(1, 2), F(1, 4)], [F(1, 4), F(1, 2)]])],
        ),
        hyperplane_extension_subdivision(Simplex.of(tetrahedron), [Simplex.of(inner)]),
        PolyhedralComplex(square.vertices, square.maximal, square.polytope),
    ]


def test_complex_contains_matches_hull_membership():
    """Each cell's vertices, the midpoints of its vertex pairs (its edges' on
    its boundary), its barycenter, points beyond its vertices, and points
    off the polytope's plane: `contains` answers as the LP does."""
    seen = {"vertex": 0, "midpoint": 0, "inside": 0, "outside": 0, "off-plane": 0}
    for pc in membership_complexes():
        pc.validate()
        ambient = len(pc.polytope[0])
        for k, vs in enumerate(cell_points(pc)):
            center = barycenter(vs)
            probes = [(v, "vertex") for v in vs]
            probes += [(barycenter(pair), "midpoint") for pair in itertools.combinations(vs, 2)]
            probes += [(center, "inside")]
            probes += [(tuple(2 * x - c for x, c in zip(v, center)), "outside") for v in vs]
            if pc.dim < ambient:
                probes += [
                    (tuple(x + F(1, 7) for x in p), "off-plane") for p in (center, *vs)
                ]
            for p, kind in probes:
                expected = in_convex_hull(vs, p)
                assert pc.contains(k, p) == expected, (k, p, kind)
                assert expected == (kind in ("vertex", "midpoint", "inside")), (k, p, kind)
                seen[kind] += 1
    assert min(seen.values()) >= 20, seen
    # the square's lower triangle holds (1, 0) and (9/10, 1/10); no cell holds (3/2, 1/4)
    square = membership_complexes()[-1]
    assert square.contains(0, (F(1), F(0))) and square.contains(0, (F(9, 10), F(1, 10)))
    assert not any(square.contains(k, (F(3, 2), F(1, 4))) for k in range(2))


def test_complex_cell_without_facets_holds_no_point():
    """A cell that is not full-dimensional has no facets to test against, so
    it holds no point, not every point of the polytope's affine hull."""
    square = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))]
    pc = PolyhedralComplex(square, [(0, 1), (0, 1, 3), (0, 2, 3)], square)
    assert not pc.contains(0, (F(5), F(5)))
    assert not pc.contains(0, (F(1, 2), F(0)))
    assert pc.contains(1, (F(1), F(0))) and not pc.contains(1, (F(5), F(5)))


def test_complex_vertex_in_no_cell_off_the_plane_rejected():
    """A vertex that no cell lists is still checked against the polytope's affine hull."""
    plane = [(F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))]
    pc = PolyhedralComplex(plane + [(F(1), F(1), F(1))], [(0, 1, 2)], plane)
    with pytest.raises(GeometryError, match="^a vertex lies off the polytope's affine hull$"):
        pc.validate()


def test_barycentric_coords_solves_the_containing_cell_once(monkeypatch):
    """The weights that locate the point's cell are its coordinates: a point
    of the second cell costs one solve per cell tried, not a third."""
    import equilib.geometry as geometry

    square = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))]
    tri = Triangulation(square, [(0, 1, 3), (0, 2, 3)])
    calls = []
    table = geometry._barycentric_table
    monkeypatch.setattr(
        geometry, "_barycentric_table", lambda pts, cell: calls.append(1) or table(pts, cell)
    )
    coords = tri.barycentric_coords((F(1, 4), F(1, 2)))
    assert coords == {0: F(1, 2), 2: F(1, 4), 3: F(1, 4)}
    assert len(calls) == 2


def test_queries_reject_a_cell_that_is_no_simplex_of_the_polytope():
    """An unvalidated triangulation's degenerate or lower-dimensional cell
    raises, rather than answering from a table it does not have."""
    square = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))]
    flat = Triangulation([*square, (F(1, 2), F(1, 2))], [(0, 3, 4)], square, validate=False)
    with pytest.raises(GeometryError, match="^simplex vertices are affinely dependent$"):
        flat.find_cell((F(1, 4), F(1, 4)))
    edge = Triangulation(square, [(0, 1)], square, validate=False)
    with pytest.raises(GeometryError, match="not a full-dimensional simplex"):
        edge.barycentric_coords((F(1, 2), F(0)))
