"""Seeded inputs for the benchmark workloads.

``make_deck(workload, seed, workdir)`` writes every input file a workload
needs into ``workdir`` and returns the workload's deck: the fixed list of
jobs that the timed loop runs, in order, as whole decks.  The seed decides
every payoff, height, coordinate and map; the mix (how many jobs of each
kind) is fixed per workload, so two seeds give decks of the same shape.

Files are JSON with rationals written as ``"p/q"`` strings, except the
triangulation input of ``el-refine``, which uses the program's own
``v``/``c`` text format (its coordinates are ``"p/q"`` too).

Nothing here imports ``equilib``: the inputs, and the facts the checker
later needs about them (exact payoffs, the zero of an affine map, the
triangle an edge-split triangulation covers), come from this file and the
benchmark's own oracle alone.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

import oracle
from oracle import q

DEFAULT_SEED = 1

WORKLOADS = ("solve-generic", "index-degenerate", "geometry", "solve-3p")


@dataclass
class Job:
    """One unit of closed-loop work.

    ``argv`` is a CLI call (``--out`` included); without it the job is a
    library call on the game file at ``path``, for work the CLI cannot reach.  ``data`` holds what the checker
    needs to know about the input, in the benchmark's own terms.
    """

    kind: str
    argv: list[str] | None = None
    out: str | None = None
    path: str | None = None
    data: dict = field(default_factory=dict)


# --------------------------------------------------------------------------
# Games
# --------------------------------------------------------------------------


def game_json(players, strategies, payoff) -> dict:
    """Nested ``"p/q"`` payoff array in the program's game-file layout."""

    def build(prefix, depth):
        if depth == len(players):
            return [q(v) for v in payoff[prefix]]
        return [build(prefix + (s,), depth + 1) for s in strategies[depth]]

    return {
        "players": list(players),
        "strategies": [list(s) for s in strategies],
        "payoffs": build((), 0),
    }


def random_game(rng, sizes, lo, hi) -> dict:
    """Game with independent uniform integer payoffs in ``lo..hi``."""
    prefixes = "rcdefg"
    players = [f"p{n + 1}" for n in range(len(sizes))]
    strategies = [[f"{prefixes[n]}{k + 1}" for k in range(m)] for n, m in enumerate(sizes)]
    payoff = {
        prof: tuple(Fraction(rng.randint(lo, hi)) for _ in sizes)
        for prof in itertools.product(*strategies)
    }
    return {"players": players, "strategies": strategies, "payoff": payoff}


def km_game() -> dict:
    """The 3x3 example whose equilibria form one cycle-shaped component."""
    table = {
        ("t", "L"): (1, 1), ("t", "M"): (0, -1), ("t", "R"): (-1, 1),
        ("m", "L"): (-1, 0), ("m", "M"): (0, 0), ("m", "R"): (-1, 0),
        ("b", "L"): (1, -1), ("b", "M"): (0, -1), ("b", "R"): (-2, -2),
    }
    return {
        "players": ["row", "col"],
        "strategies": [["t", "m", "b"], ["L", "M", "R"]],
        "payoff": {k: tuple(Fraction(v) for v in vs) for k, vs in table.items()},
    }


def write_json(path: str, data) -> str:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    return path


def write_game(workdir: str, name: str, game: dict) -> str:
    path = os.path.join(workdir, name)
    write_json(path, game_json(game["players"], game["strategies"], game["payoff"]))
    return path


def cli_job(kind, workdir, name, args, data) -> Job:
    out = os.path.join(workdir, f"{name}.out.json")
    return Job(kind, argv=list(args) + ["--out", out], out=out, data=data)


# --------------------------------------------------------------------------
# Geometry inputs
# --------------------------------------------------------------------------


def det(rows) -> Fraction:
    """Exact determinant by elimination over Fractions."""
    m = [[Fraction(x) for x in r] for r in rows]
    n = len(m)
    out = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            out = -out
        out *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return out


def generic_heights(rng, points, count: int) -> list[list[Fraction]]:
    """``count`` seeded perturbations of paraboloid heights, in general position.

    No lifted point may lie on the plane through three others whose base
    points span a triangle; the program's regular triangulation rejects
    such heights, so the generator draws again.  The lifted determinant
    det[x y h 1] of four points is linear in the heights, with integer
    cofactors of the base points computed once per quadruple.
    """
    quads = []
    for quad in itertools.combinations(range(len(points)), 4):
        base = [points[i] for i in quad]
        if not any(oracle.area2(*tri) for tri in itertools.combinations(base, 3)):
            continue  # four collinear points lift into a vertical plane
        # det[[x, y, 1]] of three points is area2(); expand along the h column
        cof = [(-1) ** k * oracle.area2(*(base[:k] + base[k + 1:])) for k in range(4)]
        quads.append((quad, cof))
    out = []
    while len(out) < count:
        hs = [x * x + y * y + Fraction(rng.randint(-50, 50), 128) for x, y in points]
        if all(sum(c * hs[i] for i, c in zip(quad, cof)) != 0 for quad, cof in quads):
            out.append(hs)
    return out


# Edge-split patterns for el-refine, as (u, v) vertex-index pairs split in
# order; vertices 0..2 are the base triangle, each split appends its
# midpoint.  Midpoint splits commute with affine maps, so each pattern has
# the same arrangement (and nearly the same cost) on every seeded triangle.
EL_PATTERNS = {
    "el2": [(0, 1), (1, 2)],
    "el3": [(0, 1), (2, 3), (1, 2)],
    "el3b": [(0, 1), (1, 2), (0, 2)],
}


def split_triangle(corners, pattern):
    verts = [tuple(Fraction(c) for c in p) for p in corners]
    cells = [(0, 1, 2)]
    for u, v in pattern:
        w = len(verts)
        verts.append(tuple((a + b) / 2 for a, b in zip(verts[u], verts[v])))
        new = []
        for c in cells:
            if u in c and v in c:
                new.append(tuple(sorted(w if i == u else i for i in c)))
                new.append(tuple(sorted(w if i == v else i for i in c)))
            else:
                new.append(c)
        cells = new
    return verts, cells


def random_triangle(rng):
    """A seeded unimodular integer image of the unit triangle.

    Its area is always 1/2, so the rationals el-refine works with stay as
    small as the unit triangle's, whatever the seed.
    """
    u, v = [1, 0], [0, 1]
    for _ in range(3):
        k = rng.choice([-2, -1, 1, 2])
        if rng.random() < 0.5:
            u = [u[0] + k * v[0], u[1] + k * v[1]]
        else:
            v = [v[0] + k * u[0], v[1] + k * u[1]]
    x, y = rng.randint(0, 5), rng.randint(0, 5)
    return [(x, y), (x + u[0], y + u[1]), (x + v[0], y + v[1])]


def degree_spec(rng, d: int, inside: bool) -> tuple[dict, dict]:
    """Affine map f(x) = M x + b whose displacement x - f(x) is A (x - z).

    ``A`` is a random invertible integer matrix and ``z`` the displacement's
    only zero, drawn strictly inside or strictly outside the box [-2, 2]^d.
    """
    while True:
        A = [[Fraction(rng.randint(-3, 3)) for _ in range(d)] for _ in range(d)]
        dA = det(A)
        if dA != 0:
            break
    z = [Fraction(rng.randint(-6, 6), 7) for _ in range(d)]
    if not inside:
        k = rng.randrange(d)
        z[k] = (1 if rng.random() < 0.5 else -1) * (3 + Fraction(rng.randint(0, 6), 7))
    M = [[(1 if r == c else 0) - A[r][c] for c in range(d)] for r in range(d)]
    b = [sum(A[r][c] * z[c] for c in range(d)) for r in range(d)]
    spec = {
        "matrix": [[q(x) for x in row] for row in M],
        "offset": [q(x) for x in b],
        "box": [["-2", "2"]] * d,
        "grid": 2,
    }
    expected = (1 if dA > 0 else -1) if inside else 0
    return spec, {"degree": expected}


# --------------------------------------------------------------------------
# Decks
# --------------------------------------------------------------------------

KM_TARGETS = {
    # name: (targets, eps) -- three signed targets, one mixed, one pure
    "three": (
        [
            {"component": 0, "point": [{"t": "1"}, {"L": "1"}], "sign": 1},
            {"component": 0, "point": [{"b": "1"}, {"L": "1"}], "sign": 1},
            {"component": 0, "point": [{"t": "1/2", "b": "1/2"}, {"L": "1"}], "sign": -1},
        ],
        "1/10",
    ),
    "mixed": (
        [{"component": 0, "point": [{"t": "1/2", "b": "1/2"}, {"L": "1"}], "sign": 1}],
        "1/100",
    ),
    "pure": (
        [{"component": 0, "point": [{"t": "1"}, {"L": "1"}], "sign": 1}],
        "1/10",
    ),
}


def shuffled_game(rng, game) -> dict:
    """The game with its rows and columns in a seeded order, labels kept."""
    rows, cols = (rng.sample(s, len(s)) for s in game["strategies"])
    payoff = {
        (r, c): game["payoff"][(rows[i], cols[j])]
        for i, r in enumerate(game["strategies"][0])
        for j, c in enumerate(game["strategies"][1])
    }
    return dict(game, payoff=payoff)


# The 5x5 game alone takes a third of the deck's time, and its cost varies
# with its payoffs, so every seed gets the same fixed 5x5 game with its
# strategies in a seeded order: the same work, presented differently.
FIXED_5X5 = random_game(random.Random("solve-generic 5x5"), (5, 5), 0, 20)


def deck_solve_generic(rng, workdir):
    games = [shuffled_game(rng, FIXED_5X5)] + [random_game(rng, (4, 4), 0, 20) for _ in range(24)]
    jobs = []
    for k, game in enumerate(games):
        path = write_game(workdir, f"g{k}.json", game)
        jobs.append(cli_job("solve", workdir, f"g{k}", ["solve", path], {"game": game}))
    return jobs


# Seeded 3x3 games per deck, by stratum: the number of equilibrium
# components that are not one equilibrium at nondegenerate vertices (the
# components ``index`` must perturb; 2 stands for 2 or more), and for one
# such component whether the game has at most 3 extreme equilibria.  These
# decide most of a job's cost, so a fixed mix keeps the deck's cost from
# swinging with the seed.  The counts put the deck's median job inside the
# (1, True) stratum and its tail inside the repeated km perturb jobs, so
# neither statistic sits on the boundary between two kinds of job.
INDEX_STRATA = {(0, True): 20, (1, True): 16, (1, False): 4, (2, True): 2}


def index_stratum(game):
    o = oracle.bimatrix_oracle(game)
    c = min(o["complex"], 2)
    return c, c != 1 or len(o["extreme"]) <= 3


def deck_index_degenerate(rng, workdir):
    jobs = []
    want = dict(INDEX_STRATA)
    while any(want.values()):
        game = random_game(rng, (3, 3), 0, 2)
        stratum = index_stratum(game)
        if not want[stratum]:
            continue
        want[stratum] -= 1
        k = len(jobs)
        path = write_game(workdir, f"d{k}.json", game)
        jobs.append(cli_job("index", workdir, f"d{k}", ["index", path], {"game": game}))
    km = km_game()
    km_path = write_game(workdir, "km.json", km)
    jobs.append(cli_job("components", workdir, "km-components", ["components", km_path], {"game": km}))
    for copy in range(2):
        jobs.append(cli_job("index", workdir, f"km-index{copy}", ["index", km_path], {"game": km}))
    for name, (targets, eps) in KM_TARGETS.items():
        tpath = write_json(os.path.join(workdir, f"targets-{name}.json"), targets)
        ppath = write_json(os.path.join(workdir, f"params-{name}.json"), {"eps": eps})
        for copy in range(4):
            gout = os.path.join(workdir, f"perturbed-{name}{copy}.json")
            jobs.append(
                cli_job(
                    "perturb",
                    workdir,
                    f"perturb-{name}{copy}",
                    ["perturb", km_path, tpath, "--params", ppath, "--game-out", gout],
                    {"game": km, "targets": targets, "eps": Fraction(eps), "game_out": gout},
                )
            )
    jobs.append(cli_job("verify-example", workdir, "verify-km", ["verify-example", "km"], {}))
    return jobs


def deck_geometry(rng, workdir):
    """Grids and edge-split triangles twice, 12 regular lifts, 4 degree maps.

    The regular triangulations, with grid n=4 and the 3-split triangles,
    form the middle of the deck's cost distribution; the counts put both
    the median and the tail job inside that group.
    """
    jobs = []
    lattice = [(x, y) for x in range(4) for y in range(4)]
    heights = generic_heights(rng, lattice, 12)
    for k, hs in enumerate(heights):
        path = write_json(
            os.path.join(workdir, f"points{k}.json"),
            {"points": [[q(x), q(y)] for x, y in lattice], "heights": [q(h) for h in hs]},
        )
        jobs.append(
            cli_job(
                "regular",
                workdir,
                f"regular{k}",
                ["triangulate", "regular", "--points", path],
                {"points": [tuple(map(Fraction, p)) for p in lattice], "heights": hs},
            )
        )
    for copy in range(2):
        for n in (3, 4, 5):
            jobs.append(
                cli_job("grid", workdir, f"grid{n}-{copy}", ["triangulate", "grid", "--n", str(n)], {"n": n})
            )
        for name, pattern in EL_PATTERNS.items():
            corners = random_triangle(rng)
            verts, cells = split_triangle(corners, pattern)
            path = os.path.join(workdir, f"{name}-{copy}.tri")
            with open(path, "w") as fh:
                fh.write("# vertices\n")
                for p in verts:
                    fh.write("v " + " ".join(q(x) for x in p) + "\n")
                fh.write("# cells\n")
                for c in cells:
                    fh.write("c " + " ".join(str(i) for i in c) + "\n")
            jobs.append(
                cli_job(
                    "el-refine",
                    workdir,
                    f"{name}-{copy}",
                    ["el-refine", path],
                    {"vertices": verts, "cells": cells, "corners": corners},
                )
            )
        for d, inside in [(2 + copy, True), (3 - copy, False)]:
            spec, facts = degree_spec(rng, d, inside)
            name = f"degree{d}{'in' if inside else 'out'}-{copy}"
            path = write_json(os.path.join(workdir, f"{name}.json"), spec)
            jobs.append(cli_job("degree", workdir, name, ["degree-oracle", path], facts))
    return jobs


def deck_solve_3p(rng, workdir):
    jobs = []
    for k in range(80):
        game = random_game(rng, (2, 2, 2), 0, 20)
        path = write_game(workdir, f"t{k}.json", game)
        jobs.append(Job("solve3p", path=path, data={"game": game}))
    return jobs


DECKS = {
    "solve-generic": deck_solve_generic,
    "index-degenerate": deck_index_degenerate,
    "geometry": deck_geometry,
    "solve-3p": deck_solve_3p,
}


def make_deck(workload: str, seed: int, workdir: str) -> list[Job]:
    """Write the workload's inputs for ``seed`` into ``workdir``; return its deck.

    The deck order is shuffled by the seed, so no job kind always runs
    first or last.
    """
    rng = random.Random(f"{workload}:{seed}")
    jobs = DECKS[workload](rng, workdir)
    for slot, job in enumerate(jobs):
        job.data["slot"] = slot
    rng.shuffle(jobs)
    return jobs
