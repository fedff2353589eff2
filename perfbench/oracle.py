"""Independent output checks, in exact ``Fraction`` arithmetic.

Nothing here imports ``equilib``.  Each ``check_*`` takes a job (its input
facts, from ``gen``) and what the program produced, and returns the list of
problems found plus a canonical answer that the reference file pins for the
default seed.  An empty problem list means the output passed.

The two-player oracle enumerates the vertices of the best-response
polytopes P = {x >= 0 : B'x <= 1} and Q = {y >= 0 : A'y <= 1} (payoffs
shifted to be positive) and pairs the completely labelled ones.  That gives
every extreme equilibrium of any bimatrix game, tells whether the game is
nondegenerate (no vertex with surplus labels), and counts the components of
the equilibrium set as the connected components of the graph whose edges
are the extreme equilibria.
"""

from __future__ import annotations

import itertools
import json
import re
from fractions import Fraction

_RATIONAL = re.compile(r"^\s*(-?\d+)(?:/(\d+))?\s*$")


def rat(text) -> Fraction:
    """Parse a ``"p/q"`` literal; floats and anything else are rejected."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    m = _RATIONAL.match(text) if isinstance(text, str) else None
    if m is None or m.group(2) == "0":
        raise ValueError(f"not a 'p/q' rational: {text!r}")
    return Fraction(int(m.group(1)), int(m.group(2) or 1))


def q(x) -> str:
    """Exact ``"p/q"`` text of a rational (``"p"`` for integers)."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# --------------------------------------------------------------------------
# Exact linear algebra
# --------------------------------------------------------------------------


def solve_unique(rows, rhs):
    """The unique solution of a square system, or None when it is singular."""
    n = len(rows)
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            return None
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [v * inv for v in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return [m[r][n] for r in range(n)]


def dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def area2(a, b, c) -> Fraction:
    """Twice the signed area of triangle abc."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def hull(points):
    """Convex hull vertices in counter-clockwise order (monotone chain)."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and area2(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower, upper = half(pts), half(reversed(pts))
    return lower[:-1] + upper[:-1]


def polygon_area(poly) -> Fraction:
    """Shoelace area of a simple polygon given in order."""
    return abs(
        sum((a[0] * b[1] - b[0] * a[1] for a, b in zip(poly, poly[1:] + poly[:1])), Fraction(0))
    ) / 2


def on_segment(p, a, b) -> bool:
    return (
        area2(a, b, p) == 0
        and min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


# --------------------------------------------------------------------------
# Games
# --------------------------------------------------------------------------


def parse_profile(game, data):
    """Report profile (per-player ``{label: "p/q"}``) as label -> Fraction maps."""
    if not isinstance(data, list) or len(data) != len(game["players"]):
        raise ValueError(f"profile must list one mixture per player: {data!r}")
    out = []
    for n, mix in enumerate(data):
        w = {str(k): rat(v) for k, v in mix.items()}
        if any(k not in game["strategies"][n] for k in w):
            raise ValueError(f"unknown strategy in {mix!r}")
        if any(v < 0 for v in w.values()) or sum(w.values()) != 1:
            raise ValueError(f"weights of {mix!r} are not a distribution")
        out.append({k: v for k, v in w.items() if v})
    return out


def canon(profile) -> str:
    return ";".join(",".join(f"{k}={q(v)}" for k, v in sorted(mix.items())) for mix in profile)


def pure_values(game, profile, n):
    """Expected payoff of each pure strategy of player n against the others."""
    others = [list(profile[m].items()) if m != n else None for m in range(len(profile))]
    values = {}
    for s in game["strategies"][n]:
        total = Fraction(0)
        choices = [[(s, Fraction(1))] if m == n else others[m] for m in range(len(profile))]
        for combo in itertools.product(*choices):
            w = Fraction(1)
            for _, p in combo:
                w *= p
            total += w * game["payoff"][tuple(lab for lab, _ in combo)][n]
        values[s] = total
    return values


def equilibrium_problems(game, profile) -> list[str]:
    """Best-response test: every strategy played is a best reply."""
    out = []
    for n in range(len(profile)):
        values = pure_values(game, profile, n)
        best = max(values.values())
        bad = [s for s in profile[n] if values[s] != best]
        if bad:
            out.append(f"{canon(profile)}: player {n} plays non-best replies {bad}")
    return out


def bimatrix_oracle(game) -> dict:
    """Extreme equilibria, component count and nondegeneracy of a 2-player game."""
    rows, cols = game["strategies"]
    m, n = len(rows), len(cols)
    pay = game["payoff"]
    lo = min(min(v) for v in pay.values())
    A = [[pay[(r, c)][0] - lo + 1 for c in cols] for r in rows]
    B = [[pay[(r, c)][1] - lo + 1 for c in cols] for r in rows]
    zero, one = Fraction(0), Fraction(1)
    # constraints (a, b): a.x <= b; label k is constraint k
    P = [([-one if i == k else zero for i in range(m)], zero) for k in range(m)]
    P += [([B[i][j] for i in range(m)], one) for j in range(n)]
    Q = [(A[i][:], one) for i in range(m)]
    Q += [([-one if j == k else zero for j in range(n)], zero) for k in range(n)]

    def vertices(cons, dim):
        out = {}
        for combo in itertools.combinations(range(len(cons)), dim):
            x = solve_unique([cons[k][0] for k in combo], [cons[k][1] for k in combo])
            if x is None or tuple(x) in out:
                continue
            slack = [b - dot(a, x) for a, b in cons]
            if all(s >= 0 for s in slack):
                out[tuple(x)] = frozenset(k for k, s in enumerate(slack) if s == 0)
        return out

    PV, QV = vertices(P, m), vertices(Q, n)
    nondegenerate = all(len(v) == m for v in PV.values()) and all(
        len(v) == n for v in QV.values()
    )
    everything = frozenset(range(m + n))
    edges = []
    for x, lx in PV.items():
        if not any(x):
            continue
        for y, ly in QV.items():
            if any(y) and lx | ly == everything:
                edges.append((x, y))
    parent: dict = {}

    def find(a):
        parent.setdefault(a, a)
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for x, y in edges:
        parent[find(("x", x))] = find(("y", y))
    size: dict = {}
    for x, y in edges:
        root = find(("x", x))
        simple = len(PV[x]) == m and len(QV[y]) == n
        size[root] = size.get(root, 0) + (1 if simple else 2)

    def mixture(v, labels):
        s = sum(v)
        return {lab: w / s for lab, w in zip(labels, v) if w}

    extreme = {canon([mixture(x, rows), mixture(y, cols)]) for x, y in edges}
    return {
        "extreme": extreme,
        "components": len(size),
        # components other than one equilibrium at two nondegenerate vertices
        "complex": sum(1 for v in size.values() if v > 1),
        "nondegenerate": nondegenerate,
    }


# --------------------------------------------------------------------------
# Checks, one per job kind
# --------------------------------------------------------------------------


def _oracle(job, cache):
    key = id(job.data["game"])
    if key not in cache:
        cache[key] = bimatrix_oracle(job.data["game"])
    return cache[key]


def check_solve(job, res, cache):
    game = job.data["game"]
    probs = []
    isolated = [parse_profile(game, p) for p in res["isolated"]]
    subsets = [[parse_profile(game, p) for p in s["vertices"]] for s in res["maximal_subsets"]]
    found = set()
    for p in isolated + [p for s in subsets for p in s]:
        probs += equilibrium_problems(game, p)
        found.add(canon(p))
    orc = _oracle(job, cache)
    if found != orc["extreme"]:
        probs.append(
            f"vertex profiles differ from the extreme equilibria: missing "
            f"{sorted(orc['extreme'] - found)}, extra {sorted(found - orc['extreme'])}"
        )
    if len(res["components"]) != orc["components"]:
        probs.append(f"{len(res['components'])} components, oracle finds {orc['components']}")
    if res["exhaustive"] is not True:
        probs.append("two-player enumeration reported as not exhaustive")
    if orc["nondegenerate"]:
        if any(len(s) > 1 for s in subsets):
            probs.append("nondegenerate game reported with a non-singleton Nash subset")
        if len(isolated) % 2 != 1:
            probs.append(f"nondegenerate game has an even number ({len(isolated)}) of equilibria")
    answer = {
        "equilibria": sorted(canon(p) for p in isolated),
        "subsets": sorted(sorted(canon(p) for p in s) for s in subsets),
        "components": len(res["components"]),
        "exhaustive": res["exhaustive"],
    }
    return probs, answer


def check_index(job, res, cache):
    probs = []
    indices = [e["index"] for e in res["entries"]]
    if not all(isinstance(i, int) for i in indices):
        probs.append(f"non-integer index in {indices}")
    elif sum(indices) != 1:
        probs.append(f"component indices {indices} sum to {sum(indices)}, not +1")
    if res["total"] != 1:
        probs.append(f"reported index total is {res['total']}, not +1")
    orc = _oracle(job, cache)
    if len(indices) != orc["components"]:
        probs.append(f"{len(indices)} index entries, oracle finds {orc['components']} components")
    return probs, {"indices": sorted(indices), "components": len(indices)}


def check_components(job, res, cache):
    probs = []
    comps = res["components"]
    members = sorted(i for c in comps for i in c)
    if members != list(range(len(res["subsets"]))):
        probs.append("components do not partition the maximal subsets")
    orc = _oracle(job, cache)
    if len(comps) != orc["components"]:
        probs.append(f"{len(comps)} components, oracle finds {orc['components']}")
    return probs, {"components": len(comps), "subsets": len(res["subsets"])}


def check_perturb(job, res, cache):
    probs = []
    if res["verified"] is not True:
        probs.append(f"pipeline not verified: {res.get('failures')}")
    signs = sorted(t["sign"] for t in job.data["targets"])
    if sorted(res["indices"]) != signs:
        probs.append(f"indices {res['indices']} do not realise target signs {signs}")
    # the perturbed game stays within eps of km, entry by entry, where each
    # added column is a near-copy of one original column
    game, eps = job.data["game"], job.data["eps"]
    with open(job.data["game_out"]) as fh:
        out = json.load(fh)
    rows, cols = game["strategies"]
    if out["strategies"][0] != rows:
        probs.append("perturbed game changed the row strategies")
        return probs, {"indices": sorted(res["indices"])}
    pay = {}
    for r, row in zip(out["strategies"][0], out["payoffs"]):
        for c, entry in zip(out["strategies"][1], row):
            pay[(r, c)] = [rat(v) for v in entry]

    def close(c_new, c_old):
        return all(
            abs(pay[(r, c_new)][k] - game["payoff"][(r, c_old)][k]) < eps
            for r in rows
            for k in range(2)
        )

    for c in out["strategies"][1]:
        if not (close(c, c) if c in cols else any(close(c, o) for o in cols)):
            probs.append(f"column {c} moved by eps={q(eps)} or more")
    perturbed = {"players": out["players"], "strategies": out["strategies"], "payoff": pay}
    orc = bimatrix_oracle(perturbed)
    if len(orc["extreme"]) != len(signs):
        probs.append(
            f"perturbed game has {len(orc['extreme'])} extreme equilibria, "
            f"{len(signs)} targets"
        )
    return probs, {"indices": sorted(res["indices"])}


def check_verify(job, res, cache):
    probs = []
    if res["all_passed"] is not True:
        probs.append("verify-example did not report all_passed")
    failed = [r["check"] for r in res["table"] if r["status"] != "pass"]
    if failed:
        probs.append(f"failed rows: {failed}")
    return probs, {"all_passed": res["all_passed"], "rows": len(res["table"])}


def parse_triangulation(text):
    verts, cells = [], []
    for line in text.splitlines():
        tag, *rest = line.split() or ["#"]
        if tag == "v":
            verts.append(tuple(rat(x) for x in rest))
        elif tag == "c":
            cells.append(tuple(int(i) for i in rest))
    return verts, cells


def _triangulation_problems(verts, cells, region):
    """Cells are proper triangles whose shoelace areas sum to the hull area."""
    probs = []
    total = Fraction(0)
    for c in cells:
        if len(c) != 3:
            probs.append(f"cell {c} is not a triangle")
            continue
        a = polygon_area([verts[i] for i in c])
        if a == 0:
            probs.append(f"cell {c} is degenerate")
        total += a
    want = polygon_area(hull(region))
    if total != want:
        probs.append(f"cell areas sum to {q(total)}, hull area is {q(want)}")
    return probs


def check_grid(job, res, cache):
    n = job.data["n"]
    verts, cells = parse_triangulation(res["triangulation"])
    lattice = {(Fraction(i), Fraction(j)) for i in range(n + 1) for j in range(n + 1)}
    probs = _triangulation_problems(verts, cells, lattice)
    if res["num_cells"] != 2 * n * n or len(cells) != 2 * n * n:
        probs.append(f"{res['num_cells']} cells, a {n}x{n} grid has {2 * n * n}")
    if res["num_vertices"] != (n + 1) ** 2 or set(verts) != lattice:
        probs.append(f"vertices are not the {(n + 1) ** 2} lattice points")
    return probs, {"cells": res["num_cells"], "vertices": res["num_vertices"]}


def check_regular(job, res, cache):
    pts, hs = job.data["points"], job.data["heights"]
    height = dict(zip(pts, hs))
    verts, cells = parse_triangulation(res["triangulation"])
    probs = _triangulation_problems(verts, cells, pts)
    if any(v not in height for v in verts):
        probs.append("a vertex is not one of the input points")
        return probs, {"cells": res["num_cells"]}
    # Euler: a triangulation of a polygon with V vertices, B of them on
    # the boundary, has 2V - B - 2 triangles
    h = hull(pts)
    boundary = sum(1 for v in verts if any(on_segment(v, a, b) for a, b in zip(h, h[1:] + h[:1])))
    if len(cells) != 2 * len(verts) - boundary - 2 or res["num_cells"] != len(cells):
        probs.append(f"{len(cells)} cells on {len(verts)} vertices ({boundary} on the boundary)")
    # regularity: every other lifted point lies strictly above each cell's plane
    for c in cells:
        tri = [verts[i] for i in c]
        coef = solve_unique([[p[0], p[1], Fraction(1)] for p in tri], [height[p] for p in tri])
        if coef is None:
            continue
        for p in pts:
            if p not in tri and height[p] <= coef[0] * p[0] + coef[1] * p[1] + coef[2]:
                probs.append(f"lifted point {p} is not above the plane of cell {c}")
                break
    return probs, {"cells": res["num_cells"], "vertices": res["num_vertices"]}


def arrangement_regions(verts, cells, corners) -> int:
    """Regions that the lines through interior edges cut the triangle into.

    A line crossing the open triangle adds one region plus one per distinct
    point, strictly inside, where it meets lines already placed.
    """
    corners = [tuple(Fraction(c) for c in p) for p in corners]
    sides = list(zip(corners, corners[1:] + corners[:1]))
    orient = 1 if area2(*corners) > 0 else -1
    lines = []
    for c in cells:
        for u, v in itertools.combinations(c, 2):
            a, b = verts[u], verts[v]
            if any(on_segment(a, s, t) and on_segment(b, s, t) for s, t in sides):
                continue  # boundary edge: its line does not cross the interior
            # normalise a x + b y = c so equal lines compare equal
            nx, ny = b[1] - a[1], a[0] - b[0]
            rhs = nx * a[0] + ny * a[1]
            k = nx if nx != 0 else ny
            line = (nx / k, ny / k, rhs / k)
            if line not in lines:
                lines.append(line)

    def strictly_inside(p):
        return all(orient * area2(s, t, p) > 0 for s, t in sides)

    regions = 1
    for k, (a1, b1, c1) in enumerate(lines):
        hits = set()
        for a2, b2, c2 in lines[:k]:
            d = a1 * b2 - a2 * b1
            if d == 0:
                continue
            p = ((c1 * b2 - c2 * b1) / d, (a1 * c2 - a2 * c1) / d)
            if strictly_inside(p):
                hits.add(p)
        regions += 1 + len(hits)
    return regions


def check_el(job, res, cache):
    probs = []
    lo, hi = (rat(x) for x in res["gamma_range"])
    if hi != 1 or not 0 <= lo <= hi:
        probs.append(f"gamma range [{q(lo)}, {q(hi)}] is not within [0, 1] with maximum 1")
    want = arrangement_regions(job.data["vertices"], job.data["cells"], job.data["corners"])
    if res["num_cells"] != want:
        probs.append(f"{res['num_cells']} cells, the line arrangement has {want} regions")
    return probs, {"cells": res["num_cells"], "gamma_range": res["gamma_range"]}


def check_degree(job, res, cache):
    want = job.data["degree"]
    probs = [] if res["degree"] == want else [f"degree {res['degree']}, expected {want}"]
    return probs, {"degree": res["degree"]}


def check_solve3p(job, res, cache):
    game = job.data["game"]
    probs = []
    eqs = [parse_profile(game, p) for p in res["isolated"]]
    for p in eqs:
        probs += equilibrium_problems(game, p)
    found_pure = {canon(p) for p in eqs if all(len(mix) == 1 for mix in p)}
    pure = set()
    for prof in itertools.product(*game["strategies"]):
        p = [{s: Fraction(1)} for s in prof]
        if not equilibrium_problems(game, p):
            pure.add(canon(p))
    if found_pure != pure:
        probs.append(f"pure equilibria {sorted(found_pure)}, expected {sorted(pure)}")
    if res["exhaustive"] != (not res["notes"]):
        probs.append("exhaustive flag disagrees with the notes")
    return probs, {"equilibria": sorted(canon(p) for p in eqs), "exhaustive": res["exhaustive"]}


CHECKS = {
    "solve": check_solve,
    "index": check_index,
    "components": check_components,
    "perturb": check_perturb,
    "verify-example": check_verify,
    "grid": check_grid,
    "regular": check_regular,
    "el-refine": check_el,
    "degree": check_degree,
    "solve3p": check_solve3p,
}


def check(job, code, report, cache) -> tuple[list[str], object]:
    """Problems with one job's outcome (empty when it passed) and its answer."""
    if code != 0:
        return [f"exit code {code}"], None
    if report is None:
        return ["no report written"], None
    try:
        return CHECKS[job.kind](job, report["results"], cache)
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError, OSError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"], None


# --------------------------------------------------------------------------
# Self-test: corrupted reports must fail
# --------------------------------------------------------------------------


def corrupt(job, report):
    """A copy of a passing report with one planted error, or None."""
    bad = json.loads(json.dumps(report))
    res = bad["results"]
    if job.kind in ("solve", "solve3p"):
        # play a pure strategy that is not a best reply
        game = job.data["game"]
        if not res["isolated"]:
            return None
        prof = parse_profile(game, res["isolated"][0])
        for n in range(len(prof)):
            values = pure_values(game, prof, n)
            worse = [s for s, v in values.items() if v < max(values.values())]
            if worse:
                res["isolated"][0][n] = {worse[0]: "1"}
                return bad
        return None
    if job.kind == "index":
        res["entries"][0]["index"] -= 1
        res["total"] -= 1
        return bad
    if job.kind in ("grid", "regular"):
        _, cells = parse_triangulation(res["triangulation"])
        lines = [ln for ln in res["triangulation"].splitlines() if not ln.startswith("c ")]
        res["triangulation"] = "\n".join(
            lines + ["c " + " ".join(map(str, c)) for c in cells[1:]]
        )
        res["num_cells"] -= 1
        return bad
    if job.kind == "degree":
        res["degree"] = 1 - res["degree"]
        return bad
    return None
