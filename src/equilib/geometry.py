"""Simplicial and polyhedral subdivision machinery over exact rationals.

One subdivision type: a :class:`PolyhedralComplex` is a polytope cut into
convex cells over one vertex list, and a :class:`Triangulation` is a complex
whose cells are simplices.  Both share one constructor check, one integer
chart grid, one table of facets and volume per cell, one `validate`, one
`contains` and one `face_lattice`; a triangulation adds the simplicial
queries the perturbation constructions rely on: carriers, closed stars,
barycentric-coordinate maps and star bumps.  Around them: hyperplane-
extension subdivisions, regular triangulations from height functions,
generalized barycentric subdivision, the envelope-line (EL) refinement with
its convex piecewise-linear certificate, and refinement of a complex into a
triangulation without new vertices.

All ambient coordinates are rational; simplices may live in a proper affine
subspace (e.g. probability simplices), in which case computations run in an
exact affine chart.  Lower hulls (regular triangulations, volumes, hull
facets and vertices) are walked cell to cell by `linalg.lex_walk`, and
arrangements are built by splitting cells one hyperplane at a time, so
both cost in proportion to the cells they produce; neither tries subsets
of points or of hyperplanes.  Subdivisions are validated by facet matching
(De Loera, Rambau & Santos, *Triangulations*, Springer 2010, ch. 4): each
cell facet lies on the covered polytope's boundary with one owner, or has
two owners on opposite sides, and the cell volumes sum to the polytope's.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .games import GameError
from .linalg import (
    ONE,
    ZERO,
    Chart,
    _basis_table,
    _integer_matrix,
    _integer_row,
    _least_ratio,
    _reduce,
    dot,
    frac_vec,
    lex_walk,
    linprog,
)
from .rational import format_point, format_rational, parse_rational

Point = tuple[Fraction, ...]
Face = tuple[int, ...]  # sorted vertex indices


class GeometryError(GameError):
    pass


def as_point(p: Sequence) -> Point:
    return tuple(Fraction(x) for x in p)


def _spread(rows: Sequence[Sequence[int]]) -> int:
    """Max pairwise sup-norm distance of integer rows: the widest coordinate range."""
    return max((max(col) - min(col) for col in zip(*rows)), default=0)


def _diameter(points: Sequence[Sequence[Fraction]]) -> Fraction:
    """Max pairwise sup-norm distance of rational points (0 for fewer than two)."""
    rows, scale = _integer_matrix(points)
    return Fraction(_spread(rows), scale)


@dataclass(frozen=True)
class Simplex:
    """Affinely independent rational points (ordered)."""

    vertices: tuple[Point, ...]

    def __post_init__(self):
        if not self.vertices:
            raise GeometryError("empty simplex")
        if self.chart.dim != len(self.vertices) - 1:
            raise GeometryError("simplex vertices are affinely dependent")

    @functools.cached_property
    def chart(self) -> Chart:
        """The affine chart of the vertices, in which the simplex is full-dimensional."""
        return Chart(self.vertices)

    @staticmethod
    def of(points: Iterable[Sequence]) -> "Simplex":
        return Simplex(tuple(as_point(p) for p in points))

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    def barycenter(self) -> Point:
        n = len(self.vertices)
        return tuple(
            sum((v[i] for v in self.vertices), ZERO) / n
            for i in range(len(self.vertices[0]))
        )

    def barycentric(self, point: Sequence) -> Optional[list[Fraction]]:
        """Affine weights of the point over the vertices, None off their affine hull.

        Weights may be negative; convexity is the caller's test.
        """
        return _chart_weights(self.chart, self.vertices, as_point(point))

    def contains(self, point: Sequence) -> bool:
        w = self.barycentric(point)
        return w is not None and all(x >= 0 for x in w)

    def strictly_contains(self, point: Sequence) -> bool:
        """Relative interior membership."""
        w = self.barycentric(point)
        return w is not None and all(x > 0 for x in w)


def extreme_points(points: Sequence[Point]) -> list[Point]:
    """The vertices of conv(points), in input order (a repeated point once).

    Read from one exact sign table of the points against the facets of
    conv(points), which one lower-hull walk in the points' affine chart
    finds (:func:`_triangulated_hull`): a point is a vertex exactly when
    no other point lies on every facet through it.
    """
    if not points:
        return []
    chart = Chart(points)
    rows, scale = chart.grid(points)
    return _hull_vertices(points, rows, _triangulated_hull(rows, scale, chart.dim)[0])


# --------------------------------------------------------------------------
# Facet sign tables and facet matching
# --------------------------------------------------------------------------


def _bits(mask: int) -> frozenset[int]:
    """The positions of the set bits of `mask`."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def _barycentric_table(
    pts: Sequence[Sequence[int]], cell: Sequence[int]
) -> tuple[int, list[list[int]], list[list[int]]]:
    """|det| of a simplex, its facet forms, and every point's barycentric coordinates.

    `pts` are integer coordinates in a chart of the simplex's dimension d
    and `cell` indexes d + 1 of them: :func:`linalg._basis_table` of the
    rows (p, 1), so forms[r] holds λ_r's coefficients on (x, 1) and
    lam[r][j] is λ_r(p_j), scaled by |det|, which is 0 on a degenerate cell.
    """
    return _basis_table([*map(list, zip(*pts)), [1] * len(pts)], cell)


def _chart_weights(
    chart: Chart, vertices: Sequence[Point], point: Point
) -> Optional[list[Fraction]]:
    """The point's barycentric weights over a simplex of the chart's dimension.

    Read from one :func:`_barycentric_table` on :meth:`Chart.grid` of the
    vertices and the point; None when the point is off the chart's hull.
    Raises on vertices that are not a full-dimensional simplex on that hull.
    """
    rows, _ = chart.grid([*vertices, point])
    if rows[-1] is None:
        return None
    if None in rows or len(vertices) != chart.dim + 1:
        raise GeometryError("cell is not a full-dimensional simplex of the polytope")
    det, _, lam = _barycentric_table(rows, range(len(vertices)))
    if not det:
        raise GeometryError("simplex vertices are affinely dependent")
    return [Fraction(row[-1], det) for row in lam]


def _facet_halfspace(form: Sequence[int], scale: int = 1) -> tuple[tuple[int, ...], int]:
    """λ >= 0 for the facet form λ(y) = form·(y, 1) as a·x <= b at x = y / scale, primitive."""
    a = [-x * scale for x in form[:-1]]
    g = math.gcd(*a, form[-1])
    return tuple(x // g for x in a), form[-1] // g


def _hyperplane(
    halfspace: tuple[Sequence[int], int], scale: int
) -> tuple[tuple[int, ...], int]:
    """The bound a·y = b of a grid halfspace as a·scale·x = b at x = y / scale.

    Primitive, with the first nonzero coefficient positive.
    """
    a, b = halfspace
    a = [x * scale for x in a]
    g = math.gcd(*a, b)
    if next(x for x in a if x) < 0:
        g = -g
    return tuple(x // g for x in a), b // g


def _sign_masks(values: Iterable[int]) -> tuple[int, int]:
    """(beyond, inside) bit masks of a halfspace a·x <= b from a·p − b at each point."""
    beyond = inside = 0
    for j, x in enumerate(values):
        if x > 0:
            beyond |= 1 << j
        elif x < 0:
            inside |= 1 << j
    return beyond, inside


def _match_facets(
    masks: Sequence[int],
    rows: Sequence[Iterable[tuple[int, int]]],
    pts: Sequence[Sequence[int]],
    hull_facets: Sequence[tuple[tuple[int, ...], int]],
) -> None:
    """Raise unless the cells' facets match: the pseudo-manifold property.

    `masks[k]` holds cell k's vertices and `rows[k]` the sign rows of its
    facet halfspaces over the integer points `pts`, in whose coordinates
    the polytope's facets are `hull_facets`, a·x <= b.  A facet, keyed by
    its cell's vertices on it, needs one owner if it lies in a hull facet,
    else two, each with a vertex strictly beyond the other's halfspace.
    With the cell volumes summing to the polytope's, that makes the cells
    a subdivision (De Loera, Rambau & Santos, *Triangulations*, ch. 4).
    """
    on_hull = [
        sum(1 << j for j, x in enumerate(pts) if sum(map(operator.mul, a, x)) == b)
        for a, b in hull_facets
    ]
    owners: dict[int, list[tuple[int, int]]] = {}
    for k, (mask, cell_rows) in enumerate(zip(masks, rows)):
        for beyond, inside in cell_rows:
            owners.setdefault(mask & ~(beyond | inside), []).append((k, beyond))
    for key, own in owners.items():
        if any(key & t == key for t in on_hull):
            if len(own) == 1:
                continue
        elif len(own) == 2:
            (i, beyond_i), (j, beyond_j) = own
            if masks[i] & beyond_j and masks[j] & beyond_i:
                continue
        raise GeometryError(
            f"facet on vertices {sorted(_bits(key))} lies in cells {[k for k, _ in own]}, "
            "not in one on the boundary or two on opposite sides: the cells do not meet "
            "in a common face"
        )


# --------------------------------------------------------------------------
# Subdivisions: polyhedral complexes, and triangulations among them
# --------------------------------------------------------------------------


def _cell_table(
    rows: Sequence[Sequence[int]], scale: int, d: int
) -> tuple[list[tuple[tuple[int, ...], int]], Fraction]:
    """A cell's facet halfspaces and volume, from its rows of a :meth:`Chart.grid`.

    The vertex count picks the source: a cell of d + 1 vertices is a
    simplex, whose one :func:`_barycentric_table` gives its |det| and its
    facets, the one opposite each vertex in vertex order; any other cell
    is walked (:func:`_triangulated_hull`).  The facets a·x <= b hold in
    the grid's integer coordinates and the volume is in chart units; a cell
    that is not full-dimensional has no facets and the volume 0.
    """
    if len(rows) != d + 1:
        return _triangulated_hull(rows, scale, d)
    det, forms, _ = _barycentric_table(rows, range(d + 1))
    if not det:
        return [], ZERO
    return [_facet_halfspace(f) for f in forms], Fraction(det, math.factorial(d) * scale**d)


def _cell_faces(mask: int, rows: Iterable[tuple[int, int]]) -> set[int]:
    """A cell's faces as vertex bit masks, read from its facets' sign rows.

    `mask` holds the cell's vertices, and a row's tight set is those of
    them on its hyperplane; the faces are the cell and every nonempty
    intersection of proper tight sets.
    """
    tights = {mask & ~(beyond | inside) for beyond, inside in rows} - {0, mask}
    faces = {mask}
    frontier = set(tights)
    while frontier:
        faces |= frontier
        frontier = {f & t for f in frontier for t in tights if f & t and f & t not in faces}
    return faces


class PolyhedralComplex:
    """Maximal convex cells over one vertex list, subdividing a polytope.

    `vertices`: rational points; `maximal`: each cell's vertex indices, in
    the order given (a :class:`PLFunction`'s pieces follow that order);
    `polytope`: the covered polytope's vertex list (by default
    :func:`extreme_points` of the vertices).  The constructor rejects an
    empty vertex or cell list, vertices of mixed dimension and a cell index
    that names no vertex.

    The chart coordinates of the vertices and of the polytope's points are
    read once onto one integer grid (:attr:`grid`), and each cell's facets
    and volume once from its rows (:func:`_cell_table`), which `validate`,
    `contains` and `face_lattice` all read.  `validate` checks that the
    cells are distinct and full-dimensional, that every vertex lies on the
    inner side of every facet of conv(polytope), that the cell volumes add
    up exactly to the polytope's, and that the cells' facets match
    (:func:`_match_facets`).  The polytope's facets and volume come from
    one lower-hull walk over its own points, never from a stored hull.
    """

    def __init__(
        self,
        vertices: Sequence[Sequence],
        maximal: Sequence[Sequence[int]],
        polytope: Optional[Sequence[Sequence]] = None,
    ):
        self.vertices: tuple[Point, ...] = tuple(as_point(p) for p in vertices)
        if not self.vertices:
            raise GeometryError("a subdivision needs at least one vertex")
        if not maximal:
            raise GeometryError("empty complex")
        n, ambient = len(self.vertices), len(self.vertices[0])
        for k, p in enumerate(self.vertices):
            if len(p) != ambient:
                raise GeometryError(
                    f"vertex {k} has {len(p)} coordinates, vertex 0 has {ambient}"
                )
        for c in maximal:
            for i in c:
                if not isinstance(i, int) or not 0 <= i < n:
                    raise GeometryError(
                        f"cell {tuple(c)} names vertex {i!r}, but the vertices are 0..{n - 1}"
                    )
        self.maximal: tuple[Face, ...] = tuple(tuple(c) for c in maximal)
        if polytope is None:
            polytope = extreme_points(self.vertices)
        self.polytope: tuple[Point, ...] = tuple(as_point(p) for p in polytope)
        self.chart = Chart(self.polytope)
        self.dim = self.chart.dim

    @functools.cached_property
    def grid(self) -> tuple[list[Optional[list[int]]], int]:
        """Chart coordinates of the vertices, then the polytope's points, on one grid.

        :meth:`Chart.grid`'s (rows, scale); a vertex off the polytope's
        affine hull has the row None.
        """
        return self.chart.grid(self.vertices + self.polytope)

    @functools.cached_property
    def _tables(self) -> list[tuple[list[tuple[tuple[int, ...], int]], Fraction]]:
        """Per cell, :func:`_cell_table`'s (facets, volume) on its rows of :attr:`grid`."""
        grid, scale = self.grid
        tables = []
        for c in self.maximal:
            rows = [grid[i] for i in c]
            if None in rows:
                raise GeometryError("a vertex lies off the polytope's affine hull")
            tables.append(_cell_table(rows, scale, self.dim))
        return tables

    @functools.cached_property
    def _facet_signs(self) -> tuple[list[int], list[list[tuple[int, int]]]]:
        """Per cell, its vertex mask and its facets' sign rows over every vertex.

        A facet two cells share is one primitive halfspace and its negation,
        so each hyperplane is evaluated once, a column of coordinates at a time.
        """
        pts = self.grid[0][: len(self.vertices)]
        if None in pts:
            raise GeometryError("a vertex lies off the polytope's affine hull")
        cols = list(zip(*pts))
        known: dict[tuple[tuple[int, ...], int], tuple[int, int]] = {}

        def signs(a: tuple[int, ...], b: int) -> tuple[int, int]:
            if (a, b) not in known:
                values = [-b] * len(pts)
                for x, col in zip(a, cols):
                    values = list(map(operator.add, values, [x * y for y in col]))
                beyond, inside = known[(a, b)] = _sign_masks(values)
                known[(tuple(-x for x in a), -b)] = inside, beyond
            return known[(a, b)]

        masks = [sum(1 << i for i in c) for c in self.maximal]
        return masks, [[signs(a, b) for a, b in facets] for facets, _ in self._tables]

    def contains(self, k: int, point: Sequence) -> bool:
        """Whether cell k holds the point, tested in integers against its facets.

        A cell that is not full-dimensional (volume 0) holds no point: it
        has no facets to test against.
        """
        (row,), s = self.chart.grid([as_point(point)])
        return self._holds(k, row, s)

    def _holds(self, k: int, row: Optional[Sequence[int]], s: int) -> bool:
        """:meth:`contains` on the point's :meth:`Chart.grid` row (None: off the hull) and scale."""
        facets, volume = self._tables[k]
        scale = self.grid[1]
        return volume > 0 and row is not None and all(
            scale * sum(map(operator.mul, a, row)) <= b * s for a, b in facets
        )

    def face_lattice(self) -> dict[Face, int]:
        """All faces of all cells, as sorted vertex-index tuples, mapped to their affine dimension.

        A face's dimension is the rank of its vertices' differences on :attr:`grid`.
        """
        rows = self.grid[0]
        faces = {
            tuple(sorted(_bits(f)))
            for mask, cell_rows in zip(*self._facet_signs)
            for f in _cell_faces(mask, cell_rows)
        }
        return {
            f: len(_reduce([[x - y for x, y in zip(rows[i], rows[f[0]])] for i in f[1:]])[0])
            for f in faces
        }

    def validate(self) -> None:
        """Raise unless the cells subdivide the polytope: the class docstring's checks, in order."""
        d = self.dim
        grid, scale = self.grid
        pts = grid[: len(self.vertices)]
        on_hull = None not in pts  # else no cell has a table, and a vertex is reported below
        seen = set()
        for k, c in enumerate(self.maximal):
            key = tuple(sorted(c))
            if key in seen:
                raise GeometryError(f"duplicate maximal cell {c}")
            seen.add(key)
            flat = on_hull and not self._tables[k][1]
            if flat or isinstance(self, Triangulation) and len(c) != d + 1:  # cells are simplices
                raise GeometryError(f"cell {c} is not full-dimensional")
        facets, target = _triangulated_hull(grid[len(self.vertices) :], scale, d)
        for i, x in enumerate(pts):
            if x is None or any(sum(map(operator.mul, a, x)) > b for a, b in facets):
                raise GeometryError(f"vertex {i} lies outside the covered polytope")
        total = sum((volume for _, volume in self._tables), ZERO)
        if total != target:
            raise GeometryError(f"cell volumes sum to {total}, polytope volume is {target}")
        if len(self.maximal) > 1:  # one cell of the polytope's volume is the polytope
            _match_facets(*self._facet_signs, pts, facets)


class Triangulation(PolyhedralComplex):
    """A polyhedral complex whose cells are simplices, each a sorted vertex-index tuple.

    The constructor validates unless told not to.  A point's barycentric
    weights over a cell come from one :func:`_barycentric_table` on the
    chart grid of the cell's vertices and the point (:func:`_chart_weights`);
    carriers, barycentric coordinates and star bumps read those weights.
    """

    def __init__(
        self,
        vertices: Sequence[Sequence],
        maximal: Sequence[Sequence[int]],
        polytope: Optional[Sequence[Sequence]] = None,
        *,
        validate: bool = True,
    ):
        super().__init__(vertices, maximal, polytope)
        self.maximal = tuple(sorted(tuple(sorted(c)) for c in self.maximal))
        if validate:
            self.validate()

    # -- basic structure ---------------------------------------------------

    def faces(self) -> frozenset[Face]:
        """Every face of every cell: a simplex's faces are its nonempty vertex subsets."""
        return frozenset(
            f for c in self.maximal for k in range(len(c)) for f in itertools.combinations(c, k + 1)
        )

    def faces_of_dim(self, k: int) -> list[Face]:
        return sorted(f for f in self.faces() if len(f) == k + 1)

    def cell_diameter(self, face: Face) -> Fraction:
        return _diameter([self.vertices[i] for i in face])

    def max_diameter(self) -> Fraction:
        rows, scale = _integer_matrix(self.vertices)
        return Fraction(max(_spread([rows[i] for i in c]) for c in self.maximal), scale)

    def cell_volume(self, face: Face) -> Fraction:
        """The volume of maximal cell `face`, in chart units, read from its table."""
        if face not in self.maximal:
            raise GeometryError(f"volume of {face}, which is not a maximal cell, requested")
        return self._tables[self.maximal.index(face)][1]

    # -- queries -----------------------------------------------------------

    def _weights(self, cell: Face, point: Point) -> Optional[list[Fraction]]:
        """The point's barycentric weights over the cell, or None when the cell misses it."""
        w = _chart_weights(self.chart, [self.vertices[i] for i in cell], point)
        return w if w is not None and all(x >= 0 for x in w) else None

    def find_cell(self, point: Sequence) -> Optional[tuple[Face, list[Fraction]]]:
        """The first maximal cell holding the point, with the point's weights over it."""
        p = as_point(point)
        return next(((c, w) for c in self.maximal if (w := self._weights(c, p)) is not None), None)

    def carrier(self, point: Sequence) -> Face:
        """The unique face containing the point in its relative interior."""
        return tuple(self.barycentric_coords(point))

    def barycentric_coords(self, point: Sequence) -> dict[int, Fraction]:
        """Convex weights over the carrier's vertices reproducing the point.

        Barycentric weights are unique, so the carrier is the containing
        cell's positive-weight vertices and its coordinates are those weights.
        """
        p = as_point(point)
        found = self.find_cell(p)
        if found is None:
            raise GeometryError(f"point {format_point(p)} lies outside the covered polytope")
        return {i: x for i, x in zip(*found) if x > 0}

    def closed_star(self, vertex: int) -> frozenset[int]:
        """The closed star's vertices: those of every cell holding `vertex`."""
        if not 0 <= vertex < len(self.vertices):
            raise GeometryError(f"no vertex {vertex}")
        return frozenset(i for c in self.maximal if vertex in c for i in c)

    def star_bump(self, vertex: int, point: Sequence) -> Fraction:
        """PL bump: 1 on the closed star of `vertex`, 0 outside its neighborhood.

        Piecewise-linear interpolation of the vertex indicator of the closed
        star's vertex set (1 on the vertex and its neighbors, 0 elsewhere).
        """
        star = self.closed_star(vertex)
        coords = self.barycentric_coords(point)
        return sum((w for i, w in coords.items() if i in star), ZERO)

    # -- modification ------------------------------------------------------

    def split_edge(self, edge: tuple[int, int]) -> "Triangulation":
        """Insert the midpoint of `edge`, bisecting every cell containing it."""
        u, v = edge
        mid = tuple((a + b) / 2 for a, b in zip(self.vertices[u], self.vertices[v]))
        verts = list(self.vertices)
        w = len(verts)
        verts.append(mid)
        cells: list[Face] = []
        for c in self.maximal:
            if u in c and v in c:
                cells.append(tuple(sorted([w if i == u else i for i in c])))
                cells.append(tuple(sorted([w if i == v else i for i in c])))
            else:
                cells.append(c)
        return Triangulation(verts, cells, self.polytope, validate=False)

    def serialize(self) -> str:
        lines = ["# vertices"]
        for p in self.vertices:
            lines.append("v " + " ".join(format_rational(x) for x in p))
        lines.append("# cells")
        for c in self.maximal:
            lines.append("c " + " ".join(str(i) for i in c))
        return "\n".join(lines) + "\n"

    @staticmethod
    def deserialize(text: str, *, validate: bool = True) -> "Triangulation":
        verts: list[Point] = []
        cells: list[Face] = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            tag, *rest = line.split()
            if tag == "v":
                verts.append(tuple(parse_rational(x) for x in rest))
            elif tag == "c":
                cell = []
                for x in rest:
                    try:
                        cell.append(int(x))
                    except ValueError:
                        raise GeometryError(f"cell index {x!r} is not an integer") from None
                cells.append(tuple(cell))
            else:
                raise GeometryError(f"unknown record {tag!r} in triangulation text")
        return Triangulation(verts, cells, validate=validate)


# --------------------------------------------------------------------------
# Volumes via lower hulls
# --------------------------------------------------------------------------


def _non_generic(tight: Iterable[int]) -> GeometryError:
    return GeometryError(
        f"non-generic height: lifted points {sorted(tight)} lie on a common lower hyperplane"
    )


def _first_lower_cell(pts: Sequence[list[int]], hs: Sequence[int], d: int) -> Face:
    """One lower cell of the points lifted to hs[j] + ε^(j+1), for every small ε > 0.

    A horizontal plane through the lowest lifted point (the last of the
    lowest heights), tilted: each tilt turns the plane about the lifted
    points it touches until it meets one more, the first by
    :func:`_least_ratio`, so after d tilts it touches d + 1 and is a lower
    cell.  Slack j carries its ε terms through the tilts: own·ε^(j+1) and
    coef[j][s]·ε^(tight[s]+1).
    """
    low = min(hs)
    tight = [max(j for j, h in enumerate(hs) if h == low)]
    slack = [h - low for h in hs]  # above the plane at height `low`, up to a positive factor
    own, coef = 1, [[-1] for _ in hs]
    while len(tight) <= d:
        # tilt about the touched points: slack_j changes by t·mu_j, mu affine
        # and zero on them, and t stops where the first falling slack hits 0
        # normal: the differences' kernel vector that is |det| on their first free column
        base = pts[tight[0]]
        T = [[x - y for x, y in zip(pts[j], base)] for j in tight[1:]] or [[0] * d]
        pivots, det, _ = _reduce(T)
        free = next(k for k in range(d) if k not in pivots)
        normal = [0] * d
        normal[free] = abs(det)
        for row, k in zip(T, pivots):
            normal[k] = -row[free] if det > 0 else row[free]
        c = sum(map(operator.mul, normal, base))
        mu = [sum(map(operator.mul, normal, p)) - c for p in pts]
        if all(m >= 0 for m in mu):
            mu = [-m for m in mu]
        k = _least_ratio(slack, mu, lambda j: [(j, own), *zip(tight, coef[j])])
        # slack + t·mu, scaled by -mu_k > 0 to stay integral, ε terms alike
        f, ck = -mu[k], coef[k]
        slack = [s * f + slack[k] * m for s, m in zip(slack, mu)]
        coef = [[x * f + y * m for x, y in zip(row, ck)] + [own * m] for row, m in zip(coef, mu)]
        own *= f
        tight.append(k)
    return tuple(sorted(tight))


def _lower_hull_cells(
    pts: Sequence[Sequence[int]], hs: Sequence[int], d: int
) -> tuple[list[Face], list[tuple[tuple[int, ...], int]], int, Optional[list[int]]]:
    """Lower cells of the lifted points, the facets and volume of conv(points).

    Gift wrapping (Chand & Kapur 1970) on the points' integer chart
    coordinates (a :meth:`Chart.grid`) lifted to the heights hs[j] +
    ε^(j+1), so the cells are those of one regular triangulation.  A lower
    cell is a plane z = a·x + c with a·p_j + c <= hs[j] + ε^(j+1) on every
    point, equality on the cell: a basis of the rows (p_j, 1 | hs[j]),
    which :func:`linalg.lex_walk` visits from :func:`_first_lower_cell`.
    Its tables are the cells' barycentric coordinates, and an unbounded
    edge is a ridge with no point beyond it, on a facet of conv(points).

    Returns the cells as sorted index tuples in lexicographic order; the
    facets as integer-primitive halfspaces (a, b), a·x <= b on every
    point, one per facet hyperplane, in the points' own integer
    coordinates; the sum of the cells' |det| (d! times their volume in
    those coordinates); and the lifted points on the first cell's plane,
    in walk order, that holds more than d + 1 of them at ε = 0 (None when
    no plane does, that is when the heights hs are generic).
    """
    cells, unbounded = lex_walk([[*p, 1] for p in pts], hs, _first_lower_cell(pts, hs, d))
    flat = next((tight for _, _, tight in cells if len(tight) > d + 1), None)
    facets = dict.fromkeys(_facet_halfspace(form) for _, _, form in unbounded)
    return sorted(c for c, _, _ in cells), list(facets), sum(det for _, det, _ in cells), flat


def _triangulated_hull(
    pts: Sequence[Sequence[int]], scale: int, d: int
) -> tuple[list[tuple[tuple[int, ...], int]], Fraction]:
    """The facet halfspaces and the volume of conv(pts), from one lower-hull walk.

    `pts` and `scale` are a :meth:`Chart.grid` of a d-dimensional chart:
    the facets hold in those integer coordinates, the volume is in chart
    units.  The walk lifts the points to the paraboloid, heights |p|²
    with ties broken symbolically (:func:`_lower_hull_cells`); no facets,
    and the volume 0, when the points do not span the chart.
    """
    if d == 0:
        return [], ONE
    if len(_reduce([[x - y for x, y in zip(p, pts[0])] for p in pts[1:]])[0]) < d:
        return [], ZERO
    _, facets, volume, _ = _lower_hull_cells(pts, [sum(x * x for x in p) for p in pts], d)
    return facets, Fraction(volume, math.factorial(d) * scale**d)


def _hull_vertices(
    points: Sequence[Point],
    rows: Sequence[Sequence[int]],
    facets: Sequence[tuple[tuple[int, ...], int]],
) -> list[Point]:
    """The vertices of conv(points), in input order, from its facet halfspaces.

    `rows` are the points' integer chart coordinates, in which `facets`
    are given.  A point is a vertex exactly when no other point lies on
    every facet through it.
    """
    on = [
        sum(1 << k for k, (a, b) in enumerate(facets) if sum(map(operator.mul, a, x)) == b)
        for x in rows
    ]
    out: list[Point] = []
    for p, m in zip(points, on):
        if p not in out and not any(q != p and f & m == m for q, f in zip(points, on)):
            out.append(p)
    return out


def volume_in_chart(points: Sequence[Point], chart: Chart) -> Fraction:
    """Exact volume of conv(points), measured in the given chart's coordinates.

    Returns 0 when the points do not span the chart's full dimension, and
    raises GeometryError when one is off the chart's affine hull.  Using a
    shared chart keeps volumes of different cells of one complex on the
    same scale.
    """
    rows, scale = chart.grid([as_point(p) for p in points])
    if None in rows:
        raise GeometryError("point not in affine hull")
    return _triangulated_hull(rows, scale, chart.dim)[1]


# --------------------------------------------------------------------------
# Regular triangulations from height functions
# --------------------------------------------------------------------------

HeightFunction = Mapping[int, Fraction]


def regular_triangulation(
    points: Sequence[Sequence], h: HeightFunction | Sequence
) -> Triangulation:
    """Lower-envelope triangulation of the lifted points.

    Every cell's lifted vertices span a hyperplane with all other lifted
    points strictly above (certified during construction).  Heights that
    put more than d + 1 lifted points on one lower hyperplane are
    non-generic: the error names the points on the first such plane the
    walk meets.  The polytope's vertices are read from the hull facets the
    same walk finds.
    """
    pts = [as_point(p) for p in points]
    if isinstance(h, Mapping):
        heights = [Fraction(h[i]) for i in range(len(pts))]
    else:
        heights = [Fraction(x) for x in h]
    if len(heights) != len(pts):
        raise GeometryError("height function must cover every point")
    chart = Chart(pts)
    d = chart.dim
    if d == 0:
        return Triangulation([pts[0]], [(0,)], [pts[0]])
    rows, _ = chart.grid(pts)
    cells, facets, _, flat = _lower_hull_cells(rows, _integer_row(heights)[0], d)
    if flat:
        raise _non_generic(flat)
    used = sorted({i for c in cells for i in c})
    remap = {i: j for j, i in enumerate(used)}
    return Triangulation(
        [pts[i] for i in used],
        [tuple(remap[i] for i in c) for c in cells],
        _hull_vertices(pts, rows, facets),
    )


# --------------------------------------------------------------------------
# Hyperplane arrangements within a base polytope
# --------------------------------------------------------------------------


def _arrangement_cells(
    base_hrep: list[tuple[tuple[int, ...], int]],
    base_vertices: Sequence[Sequence[int]],
    scale: int,
    hyperplanes: list[tuple[tuple[int, ...], int]],
    dim: int,
) -> list[tuple[list[tuple[tuple[int, ...], int]], list[tuple[int, ...]]]]:
    """Full-dimensional cells of the arrangement inside the base polytope.

    Double-description splits (Motzkin et al. 1953; Fukuda & Prodon 1996):
    the hyperplanes cut every current cell one at a time.  A cell with
    vertices strictly on both sides of a·x = b splits in two; each side
    keeps its own vertices and those on the hyperplane, plus one new vertex
    on every edge that crosses it.  Two vertices span an edge when no third
    vertex is tight on every row tight at both (and at least dim - 1 are).

    All in integers, in chart coordinates: the rows a·x <= b and the
    hyperplanes are integer, the base's vertices are the grid rows
    `base_vertices` over `scale` (a :meth:`Chart.grid`), and a vertex is
    (*num, den) in lowest terms, the point num / den with den > 0, at
    which a·x − b has the sign of (a, −b)·(num, den).

    Returns (H-rep rows, vertex list) pairs.  A cell's rows are the base's
    followed by one side of every hyperplane, (a, b) or its negation, the
    cells ordered by those sides with (a, b) first; its vertices are in
    `vertex_enumeration`'s order, that of the greedy (lexicographically
    first) independent set of their tight rows.
    """
    def value(row: tuple[tuple[int, ...], int], v: tuple[int, ...]) -> int:
        return sum(map(operator.mul, row[0], v)) - row[1] * v[-1]

    # a cell is (rows, [((*num, den), bit mask of the rows tight there)])
    base = [(*v, scale) for v in base_vertices]
    cells = [(
        list(base_hrep),
        [(v, sum(1 << k for k, row in enumerate(base_hrep) if not value(row, v))) for v in base],
    )]
    for k, (a, b) in enumerate(hyperplanes, start=len(base_hrep)):
        bit = 1 << k
        neg = (tuple(-x for x in a), -b)
        split = []
        for rows, verts in cells:
            values = [value((a, b), v) for v, _ in verts]
            below = [i for i, x in enumerate(values) if x < 0]
            above = [i for i, x in enumerate(values) if x > 0]
            # the vertices both sides keep: those on the hyperplane, and one
            # on every edge that crosses it
            shared = [(v, m | bit) for (v, m), x in zip(verts, values) if x == 0]
            for i in below:
                for j in above:
                    common = verts[i][1] & verts[j][1]
                    if common.bit_count() < dim - 1 or any(
                        m & common == common
                        for z, (_, m) in enumerate(verts)
                        if z != i and z != j
                    ):
                        continue  # not an edge
                    # the zero of a·x − b on the edge, s_w·u − s_u·w with the
                    # values s_u < 0 < s_w of u and w, so its den is positive
                    su, sw = values[i], values[j]
                    v = [sw * p - su * q for p, q in zip(verts[i][0], verts[j][0])]
                    g = math.gcd(*v)
                    shared.append((tuple(x // g for x in v), common | bit))
            if below:
                split.append((rows + [(a, b)], [verts[i] for i in below] + shared))
            if above:
                split.append((rows + [neg], [verts[i] for i in above] + shared))
        cells = split

    normals = [a for a, _ in base_hrep] + [a for a, _ in hyperplanes]
    keys: dict[tuple, tuple[int, ...]] = {}

    def greedy_basis(vertex: tuple[tuple[int, ...], int]) -> tuple[int, ...]:
        v, mask = vertex
        key = keys.get(v)
        if key is None:
            tight = [r for r in range(mask.bit_length()) if mask >> r & 1]
            pivots = _reduce([list(col) for col in zip(*[normals[r] for r in tight])])[0]
            key = keys[v] = tuple(tight[j] for j in pivots)
        return key

    return [(rows, [v for v, _ in sorted(verts, key=greedy_basis)]) for rows, verts in cells]


def _arrangement_complex(
    chart: Chart,
    base: Sequence[Sequence[int]],
    scale: int,
    hyperplanes: list[tuple[tuple[int, ...], int]],
    polytope: Sequence[Point],
) -> tuple[PolyhedralComplex, list]:
    """The validated complex of the arrangement inside a simplex, and its raw cells.

    `base` and `scale` are the simplex's :meth:`Chart.grid` rows in
    `chart`; the raw cells are :func:`_arrangement_cells`'.  Each distinct
    vertex (*num, den) is one vertex of the complex, lifted to ambient
    coordinates in order of first appearance.
    """
    d = chart.dim
    base_hrep = [_facet_halfspace(f, scale) for f in _barycentric_table(base, range(d + 1))[1]]
    raw = _arrangement_cells(base_hrep, base, scale, hyperplanes, d)
    index: dict[tuple[int, ...], int] = {}
    for _, verts in raw:
        for v in verts:
            index.setdefault(v, len(index))
    vertices = [chart.to_ambient([Fraction(x, v[-1]) for x in v[:-1]]) for v in index]
    pc = PolyhedralComplex(vertices, [[index[v] for v in verts] for _, verts in raw], polytope)
    pc.validate()
    return pc, raw


def hyperplane_extension_subdivision(
    base: Simplex,
    embedded: Sequence[Simplex],
    marked_points: Optional[Sequence[Sequence]] = None,
) -> PolyhedralComplex:
    """Subdivision of `base` induced by extending the embedded simplices' facets.

    Every facet hyperplane of every embedded simplex is extended across the
    base simplex; the cells of the resulting arrangement form the complex.
    Each embedded simplex is then a union of cells (the space of a
    subcomplex).  `marked_points`, if given, must avoid every extended
    hyperplane; a hit is reported as a degenerate arrangement.
    """
    chart = base.chart
    d = chart.dim
    if d < 1:
        raise GeometryError("base simplex must have dimension >= 1")
    for s in embedded:
        if s.dim != d:
            raise GeometryError("embedded simplices must be full-dimensional")
        for v in s.vertices:
            if not base.strictly_contains(v):
                raise GeometryError("embedded simplex not interior to the base")
    for s1, s2 in itertools.combinations(embedded, 2):
        if _simplices_intersect(s1, s2):
            raise GeometryError("embedded simplices are not pairwise disjoint")
    # the facets of each embedded simplex, on one grid with the base
    grid, scale = chart.grid([v for s in (base, *embedded) for v in s.vertices])
    hyperplanes = list(dict.fromkeys(
        _hyperplane(h, scale)
        for k in range(d + 1, len(grid), d + 1)
        for h in _cell_table(grid[k : k + d + 1], scale, d)[0]
    ))
    if marked_points is not None:
        for p in marked_points:
            lp = chart.to_local(as_point(p))
            for a, b in hyperplanes:
                if dot(a, lp) == b:
                    raise GeometryError(
                        f"degenerate arrangement: marked point {format_point(p)} lies on "
                        f"extended hyperplane {format_point(a)}·x = {format_rational(b)}"
                    )
    return _arrangement_complex(chart, grid[: d + 1], scale, hyperplanes, base.vertices)[0]


def _simplices_intersect(s1: Simplex, s2: Simplex) -> bool:
    n, m = len(s1.vertices), len(s2.vertices)
    ambient = len(s1.vertices[0])
    A_eq = [
        [s1.vertices[j][i] for j in range(n)] + [-s2.vertices[j][i] for j in range(m)]
        for i in range(ambient)
    ]
    A_eq.append([ONE] * n + [ZERO] * m)
    A_eq.append([ZERO] * n + [ONE] * m)
    b_eq = [ZERO] * ambient + [ONE, ONE]
    res = linprog([ZERO] * (n + m), A_eq=A_eq, b_eq=b_eq)
    return res.status == "optimal"


# --------------------------------------------------------------------------
# Refinement modulo protected cells
# --------------------------------------------------------------------------


def refine_modulo(
    tri: Triangulation,
    protected: Sequence[Sequence[int]],
    max_diameter: Fraction,
) -> Triangulation:
    """Refine by longest-edge bisection, never splitting a protected cell.

    Protected cells survive unchanged; every maximal cell sharing no vertex
    with a protected cell ends with sup-norm diameter <= max_diameter.
    Cells adjacent to protected ones are split only through their free
    edges and may stay larger.
    """
    max_diameter = Fraction(max_diameter)
    if max_diameter <= 0:
        raise GeometryError("max_diameter must be positive")
    prot = [tuple(sorted(f)) for f in protected]
    all_faces = tri.faces()
    for f in prot:
        if f not in all_faces:
            raise GeometryError(f"protected cell {f} is not a cell of the triangulation")
    prot_vertices: set[int] = set().union(*map(set, prot)) if prot else set()
    cur = tri
    for _ in range(100000):
        violating = [
            c
            for c in cur.maximal
            if not (set(c) & prot_vertices) and cur.cell_diameter(c) > max_diameter
        ]
        if not violating:
            out = Triangulation(cur.vertices, cur.maximal, cur.polytope)
            for f in prot:
                if f not in out.faces():
                    raise GeometryError(f"protected cell {f} was destroyed (bug)")
            return out
        cell = violating[0]
        edges = sorted(
            itertools.combinations(cell, 2),
            key=lambda e: (-_diameter([cur.vertices[e[0]], cur.vertices[e[1]]]), e),
        )
        cur = cur.split_edge(edges[0])
    achieved = max(
        cur.cell_diameter(c)
        for c in cur.maximal
        if not (set(c) & prot_vertices)
    )
    raise GeometryError(
        f"refinement did not reach diameter {max_diameter}; achieved {achieved}"
    )


# --------------------------------------------------------------------------
# Generalized barycentric subdivision
# --------------------------------------------------------------------------


def generalized_barycentric_subdivision(
    domain: PolyhedralComplex,
    choices: Optional[Mapping[Face, Sequence]] = None,
) -> Triangulation:
    """Derived triangulation from chains of per-face interior points.

    `choices` maps faces, as the sorted vertex-index tuples of the
    domain's `face_lattice`, to chosen interior points; unspecified faces
    use the true barycenter.  Maximal simplices correspond to maximal
    chains of faces ordered by inclusion.
    """
    choices = choices or {}
    lattice = domain.face_lattice()
    points: dict = {}
    for f, d in lattice.items():
        pts = [domain.vertices[i] for i in f]
        if d == 0:
            points[f] = pts[0]
            continue
        choice = choices.get(f)
        if choice is None:
            n = len(pts)
            choice = tuple(sum((p[i] for p in pts), ZERO) / n for i in range(len(pts[0])))
        else:
            choice = as_point(choice)
            if not _in_relative_interior(pts, choice):
                raise GeometryError(
                    f"chosen point {format_point(choice)} is not interior to its face"
                )
        points[f] = choice

    top_dim = max(lattice.values())
    by_dim: dict[int, list] = {}
    for f, d in lattice.items():
        by_dim.setdefault(d, []).append(f)

    vertex_list: list[Point] = []
    vertex_index: dict[Point, int] = {}
    for f in lattice:
        p = as_point(points[f])
        if p not in vertex_index:
            vertex_index[p] = len(vertex_list)
            vertex_list.append(p)

    cells: list[Face] = []

    def extend(chain, f, d):
        if d == top_dim:
            cells.append(tuple(sorted(vertex_index[as_point(points[g])] for g in chain)))
            return
        for g in by_dim.get(d + 1, []):
            if set(f) < set(g):
                extend(chain + [g], g, d + 1)

    for f in by_dim.get(0, []):
        extend([f], f, 0)

    return Triangulation(vertex_list, sorted(set(cells)), domain.polytope)


def _in_relative_interior(pts: Sequence[Point], x: Point) -> bool:
    """x ∈ relint(conv(pts)): a strictly positive convex certificate exists."""
    n = len(pts)
    ambient = len(x)
    # variables: weights (n) and margin t; maximize t with w_i >= t.
    A_eq = [[pts[j][i] for j in range(n)] + [ZERO] for i in range(ambient)]
    A_eq.append([ONE] * n + [ZERO])
    b_eq = list(x) + [ONE]
    A_ub = [
        [(-ONE if j == i else ZERO) for j in range(n)] + [ONE] for i in range(n)
    ]
    b_ub = [ZERO] * n
    A_ub.append([ZERO] * n + [ONE])
    b_ub.append(ONE)
    res = linprog([ZERO] * n + [ONE], A_ub, b_ub, A_eq, b_eq, maximize=True)
    return res.status == "optimal" and res.value is not None and res.value > 0


# --------------------------------------------------------------------------
# Piecewise-linear functions over subdivisions
# --------------------------------------------------------------------------


def _affine_at(g: Sequence[Fraction], off: Fraction, row: Sequence[int], scale: int) -> Fraction:
    """The affine function g·x + off at the chart point x = row / scale."""
    return sum(map(operator.mul, g, row), ZERO) / scale + off


class PLFunction:
    """One affine function per maximal cell of a subdivision.

    Pieces are (gradient, offset) in the domain chart's coordinates:
    value(x) = gradient · to_local(x) + offset on that cell.
    """

    def __init__(
        self,
        domain: PolyhedralComplex,
        pieces: Sequence[tuple[Sequence[Fraction], Fraction]],
    ):
        self.domain = domain
        self.chart = domain.chart
        if len(pieces) != len(domain.maximal):
            raise GeometryError("one affine piece per maximal cell required")
        self.pieces = [
            (frac_vec(g), Fraction(off)) for g, off in pieces
        ]

    # -- cell access -------------------------------------------------------

    def _cell_vertices(self, i: int) -> list[Point]:
        return [self.domain.vertices[j] for j in self.domain.maximal[i]]

    def _ncells(self) -> int:
        return len(self.pieces)

    def piece_value(self, i: int, point: Sequence) -> Fraction:
        g, off = self.pieces[i]
        return dot(g, self.chart.to_local(as_point(point))) + off

    def value(self, point: Sequence) -> Fraction:
        """The piece of the first cell that holds the point, at the point.

        The point is read onto the chart grid once; that row is tested
        against each cell's facets and gives the piece's value.
        """
        (row,), s = self.chart.grid([as_point(point)])
        k = next((k for k in range(self._ncells()) if self.domain._holds(k, row, s)), None)
        if k is None:
            raise GeometryError(f"point {format_point(as_point(point))} outside the domain")
        return _affine_at(*self.pieces[k], row, s)

    # -- structural checks ---------------------------------------------------

    def vertex_values(self) -> dict[Point, Fraction]:
        """The value at every vertex, through the first cell that lists it.

        Read off the domain's integer chart grid, one piece per vertex.
        """
        points, (rows, scale) = self.domain.vertices, self.domain.grid
        out: dict[Point, Fraction] = {}
        for (g, off), cell in zip(self.pieces, self.domain.maximal):
            for k in cell:
                if points[k] not in out:
                    out[points[k]] = _affine_at(g, off, rows[k], scale)
        return out

    def is_convex(self) -> bool:
        """Exact global convexity: every piece underestimates every vertex value."""
        points, (rows, scale) = self.domain.vertices, self.domain.grid
        vv = self.vertex_values()
        used = set().union(*self.domain.maximal)
        return all(
            _affine_at(g, off, rows[k], scale) <= vv[points[k]]
            for g, off in self.pieces
            for k in used
        )

    def adjacent_cell_pairs(self) -> list[tuple[int, int, tuple[Point, ...]]]:
        """Pairs of maximal cells sharing a codimension-1 face."""
        d = self.domain.dim
        out = []
        for i, j in itertools.combinations(range(self._ncells()), 2):
            shared = [v for v in self._cell_vertices(i) if v in self._cell_vertices(j)]
            if len(shared) >= d and Chart(shared).dim == d - 1:
                out.append((i, j, tuple(shared)))
        return out

    def nonlinear_across_every_interior_facet(self) -> bool:
        """True iff adjacent pieces differ as affine functions across each shared facet."""
        for i, j, shared in self.adjacent_cell_pairs():
            witnesses = [
                v for v in self._cell_vertices(i) + self._cell_vertices(j)
                if v not in shared
            ]
            if all(self.piece_value(i, w) == self.piece_value(j, w) for w in witnesses):
                return False
        return True


def interpolate_heights(
    tri: Triangulation, heights: Mapping[int, Fraction]
) -> PLFunction:
    """PL function linear on each maximal simplex with given vertex values."""
    grid, scale = tri.grid
    pieces = []
    for c in tri.maximal:
        # Σ_r h_r·λ_r, the forms λ_r(q) = form·(q, 1) / det on the grid rows q = scale·x
        det, forms, _ = _barycentric_table([grid[i] for i in c], range(len(c)))
        if not det:
            raise GeometryError("degenerate cell in height interpolation")
        h = [Fraction(heights[i]) for i in c]
        *grad, off = (sum(map(operator.mul, h, col), ZERO) / det for col in zip(*forms))
        pieces.append(([g * scale for g in grad], off))
    return PLFunction(tri, pieces)


# --------------------------------------------------------------------------
# EL refinement: arrangement of hyperplanes through codimension-1 cells
# --------------------------------------------------------------------------


def el_refinement(tri: Triangulation) -> tuple[PolyhedralComplex, PLFunction]:
    """Arrangement refinement of a triangulated simplex plus its convex witness.

    Extends the affine hull of every codimension-1 cell of `tri` across the
    base simplex; the cells of the arrangement form the refined complex.
    The returned function gamma(x) = alpha * sum_H |a_H·x − b_H| is convex
    piecewise-linear with range in [0,1], linear exactly on the complex's
    cells and non-linear across every interior facet.  Chart coordinates
    come from the triangulation's :attr:`Triangulation.grid`, and each
    cell's side of every H from the row the arrangement gave it.
    """
    if len(tri.polytope) != tri.dim + 1:
        raise GeometryError("el_refinement requires a triangulated simplex")
    d = tri.dim
    grid, scale = tri.grid
    if None in grid:
        raise GeometryError("a vertex lies off the triangulated simplex's affine hull")
    # each (d-1)-face's hyperplane from the table of a cell holding it, whose
    # facet r is the one opposite vertex r
    facets: dict[Face, tuple[tuple[int, ...], int]] = {}
    for c, (table, volume) in zip(tri.maximal, tri._tables):
        if len(c) != d + 1 or not volume:
            raise GeometryError(f"cell {c} is not full-dimensional")
        facets.update((c[:r] + c[r + 1 :], h) for r, h in enumerate(table))
    hyperplanes = list(
        dict.fromkeys(_hyperplane(facets[f], scale) for f in tri.faces_of_dim(d - 1))
    )
    base = grid[len(tri.vertices) :]
    pc, raw = _arrangement_complex(tri.chart, base, scale, hyperplanes, tri.polytope)
    # scale times the largest Σ_H |a_H·x − b_H|, which a base vertex x = row / scale takes
    peak = max(
        sum(abs(sum(map(operator.mul, a, row)) - b * scale) for a, b in hyperplanes)
        for row in base
    )
    alpha = Fraction(scale, peak) if peak else ONE
    pieces = []
    for rows, _ in raw:
        grad, off = [0] * d, 0
        # a cell's rows are the base simplex's d + 1 facets, then its side of every H
        for (a, b), side in zip(hyperplanes, rows[d + 1 :]):
            s = -1 if side == (a, b) else 1  # the cell lies in a·x <= b, or beyond
            grad = [g + s * x for g, x in zip(grad, a)]
            off -= s * b
        pieces.append(([alpha * g for g in grad], alpha * off))
    gamma = PLFunction(pc, pieces)
    return pc, gamma


# --------------------------------------------------------------------------
# Triangulating a complex without new vertices
# --------------------------------------------------------------------------


def triangulate_without_new_vertices(
    pc: PolyhedralComplex, h: Mapping[int, Fraction] | Sequence
) -> tuple[Triangulation, PLFunction]:
    """Refine `pc` into a triangulation on the same vertex set via heights.

    `h` assigns a height to each vertex of the complex (indexed as
    `pc.vertices`) and must be a small generic perturbation of a
    height inducing `pc`: the regular triangulation of the lifted vertices
    must use every vertex and refine the complex, else an error is raised.
    The PL witness interpolates `h`; it is convex and linear exactly on the
    simplices.
    """
    verts = pc.vertices
    if isinstance(h, Mapping):
        heights = {i: Fraction(h[i]) for i in range(len(verts))}
    else:
        heights = {i: Fraction(x) for i, x in enumerate(h)}
    if len(heights) != len(verts):
        raise GeometryError("height function must cover every vertex of the complex")

    if all(len(c) == pc.dim + 1 for c in pc.maximal):  # every cell a simplex
        tri = Triangulation(verts, pc.maximal, pc.polytope)
        witness = interpolate_heights(tri, heights)
        if not witness.is_convex():
            raise GeometryError("height is not a perturbation of a convex inducer")
        return tri, witness

    tri = regular_triangulation(verts, heights)
    if set(tri.vertices) != set(verts):
        raise GeometryError(
            "non-generic height: some vertex is not on the lower envelope"
        )
    for c in tri.maximal:
        pts = [tri.vertices[i] for i in c]
        if not any(all(pc.contains(k, p) for p in pts) for k in range(len(pc.maximal))):
            raise GeometryError(
                "height perturbation too large: triangulation does not refine the complex"
            )
    witness = interpolate_heights(
        tri, {i: heights[verts.index(v)] for i, v in enumerate(tri.vertices)}
    )
    if not witness.is_convex():
        raise GeometryError("interpolated witness is not convex (non-generic height)")
    if not witness.nonlinear_across_every_interior_facet():
        raise GeometryError("witness linear across a facet (non-generic height)")
    return tri, witness


def affine_below_except_marked(
    plf: PLFunction, marked: Sequence[Sequence[int]]
) -> tuple[list[Fraction], Fraction]:
    """Affine function equal to `plf` on marked-cell vertices, strictly below elsewhere.

    `plf` must live on a Triangulation; `marked` lists cells (vertex-index
    tuples).  Subtracting the result from `plf` yields a nonnegative PL
    function vanishing (hence constant) on every marked cell.  Requires the
    marked vertices not to affinely span the domain (reported otherwise).
    """
    tri = plf.domain
    if not isinstance(tri, Triangulation):
        raise GeometryError("marked-cell adjustment needs a triangulation domain")
    faces = tri.faces()
    marked_vertices: set[int] = set()
    for f in marked:
        f = tuple(sorted(f))
        if f not in faces:
            raise GeometryError(f"marked cell {f} is not a cell of the triangulation")
        marked_vertices |= set(f)
    mpts = [tri.vertices[i] for i in sorted(marked_vertices)]
    if Chart(mpts).dim >= tri.dim:
        raise GeometryError(
            "marked cells affinely span the domain; no strictly-below affine "
            "function exists (vertex-count condition violated)"
        )
    vv = plf.vertex_values()
    d = tri.dim
    others = [v for v in tri.vertices if v not in mpts]
    # variables: gradient (d) + offset, free; plus margin t >= 0.
    nv = d + 1

    def row(point, margin):
        return list(plf.chart.to_local(point)) + [ONE] + [margin]

    A_eq = [row(p, ZERO) for p in mpts]
    b_eq = [vv[p] for p in mpts]
    A_ub = [row(p, ONE) for p in others]
    b_ub = [vv[p] for p in others]
    A_ub.append([ZERO] * nv + [ONE])
    b_ub.append(ONE)
    c = [ZERO] * nv + [ONE]
    # gradient/offset are free; the margin t is also treated as free but
    # maximized, so positivity is certified by the optimum.
    res = linprog(c, A_ub, b_ub, A_eq, b_eq, maximize=True, free=True)
    if res.status != "optimal" or res.value is None or res.value <= 0:
        raise GeometryError(
            "no affine function lies strictly below the PL function off the marked cells"
        )
    grad = res.x[:d]
    off = res.x[d]
    return grad, off


# --------------------------------------------------------------------------
# Fixtures
# --------------------------------------------------------------------------


def grid_triangulation(n: int) -> Triangulation:
    """The n x n unit-square grid with all squares split along one diagonal."""
    if n < 1:
        raise GeometryError(f"grid size n must be at least 1, got {n}")
    verts = [(Fraction(i), Fraction(j)) for j in range(n + 1) for i in range(n + 1)]

    def idx(i, j):
        return j * (n + 1) + i

    cells = []
    for i in range(n):
        for j in range(n):
            cells.append((idx(i, j), idx(i + 1, j), idx(i + 1, j + 1)))
            cells.append((idx(i, j), idx(i, j + 1), idx(i + 1, j + 1)))
    corners = [(ZERO, ZERO), (Fraction(n), ZERO), (ZERO, Fraction(n)), (Fraction(n), Fraction(n))]
    return Triangulation(verts, cells, corners)
