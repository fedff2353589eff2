"""Command-line front end: file I/O, subcommand dispatch, and reports.

Each ``cmd_*`` loads its inputs, computes, and returns a :class:`Report`
(an input echo, results and any certifications performed) with its exit
code.  ``main`` is the one run path: it times the subcommand into
``timings["total"]``, prints the report's text, writes ``--out`` (the
report as JSON, which round-trips through ``Report(**data)``) and returns
the exit code: 0 success, 1 verification failure (any ``GameError``, the
root of every equilib verification error, or a ``perturb`` or
``verify-example`` check that did not pass), 2 usage error (malformed
input, such as a mixture that is no JSON object, has weights that are
negative or do not sum to 1, or names a strategy its player does not
have, or a profile without one mixture per player, and a game of other
than two players for ``solve``, ``components`` or ``index``, whose
enumeration is two-player only, and ``.tri`` inputs of the wrong shape:
``tilde`` needs one triangulation of each player's strategy simplex,
``el-refine`` a triangulated simplex, and a file that cannot be read or
written: missing, a directory or not UTF-8).  At module level this file imports
only what every subcommand uses (``games`` and ``rational``); each
``cmd_*`` imports the modules it runs, so a process loads no more.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

from .games import (
    FiniteGame,
    GameError,
    MixedStrategy,
    Profile,
    eliminate_strictly_dominated,
    game_from_json,
    save_game,
    write_json,
)
from .rational import RationalParseError, format_rational, parse_rational

if TYPE_CHECKING:
    from .equivalence import AffineSurjection
    from .geometry import Triangulation
    from .perturb import PipelineParams, TargetSpec


class UsageError(Exception):
    pass


# --------------------------------------------------------------------------
# Reports
# --------------------------------------------------------------------------


@dataclass
class Report:
    command: str
    inputs: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    certifications: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    def render_text(self) -> str:
        lines = [f"== {self.command} =="]
        for section in ("inputs", "params", "results"):
            data = getattr(self, section)
            if data:
                lines.append(f"[{section}]")
                for k, v in data.items():
                    _render_value(lines, k, v)
        if self.certifications:
            lines.append("[certifications]")
            for c in self.certifications:
                lines.append(f"  - {c}")
        if self.timings:
            lines.append("[timings]")
            for k, v in self.timings.items():
                lines.append(f"  {k}: {v}s")
        return "\n".join(lines) + "\n"


def _render_value(lines: list[str], prefix: str, value) -> None:
    """Append ``prefix: value`` to ``lines``, nesting dicts and listing lists."""
    if isinstance(value, dict):
        lines.append(f"{prefix}:")
        for k, v in value.items():
            _render_value(lines, f"  {k}", v)
    elif isinstance(value, list):
        lines.append(f"{prefix}:")
        for v in value:
            lines.append(f"  - {v}")
    else:
        lines.append(f"{prefix}: {value}")


def _mixture_json(sigma: MixedStrategy) -> dict:
    return {s: format_rational(w) for s, w in sigma.weights}


def _profile_json(profile: Profile) -> list:
    return [_mixture_json(sigma) for sigma in profile]


def _emit(report: Report, out_path) -> None:
    sys.stdout.write(report.render_text())
    if out_path:
        write_json(out_path, vars(report))  # the fields, uncopied


# --------------------------------------------------------------------------
# Input parsing helpers
# --------------------------------------------------------------------------


def _json_argument(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{what} is not valid JSON: {exc}") from exc


def _read_mixture(data, what: str, labels: tuple[str, ...]) -> MixedStrategy:
    """The mixture over ``labels`` that a JSON object of label -> rational spells out."""
    if not isinstance(data, dict):
        raise UsageError(f"{what} must be a JSON object of label -> rational")
    try:
        mixture = MixedStrategy.of({k: parse_rational(v) for k, v in data.items()})
        mixture.as_vector(labels)  # raises on a strategy outside `labels`
    except GameError as exc:
        raise UsageError(f"{what}: {exc}") from exc
    return mixture


def _read_profile(data, game: FiniteGame, what: str) -> Profile:
    """The profile a JSON list of one mixture object per player of ``game`` spells out."""
    if not isinstance(data, list) or len(data) != game.num_players:
        raise UsageError(
            f"{what} must be a JSON list of {game.num_players} per-player objects"
        )
    return tuple(
        _read_mixture(entry, f"{what} entry {n}", game.strategies[n])
        for n, entry in enumerate(data)
    )


def _load_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(
                f"{path}: invalid JSON at line {exc.lineno} col {exc.colno}"
            ) from exc


def _load_game(path: str) -> FiniteGame:
    """The game in the file ``path``; a file that is not a game is a usage error."""
    try:
        return game_from_json(_load_json(path))
    except GameError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _load_two_player_game(path: str) -> FiniteGame:
    """The game in ``path``; solve, components and index enumerate two-player games only."""
    game = _load_game(path)
    if game.num_players != 2:
        raise UsageError(
            f"{path}: solve, components and index handle two-player games only, "
            f"and this game has {game.num_players} players"
        )
    return game


def _load_triangulation(path: str) -> Triangulation:
    """Read and validate a `.tri` file.

    Malformed records (a cell index naming no vertex, vertices of mixed
    dimension) are usage errors; a well-formed file whose cells do not
    subdivide the polytope fails validation, a verification failure.
    """
    from .geometry import GeometryError, Triangulation

    with open(path) as fh:
        text = fh.read()
    try:
        tri = Triangulation.deserialize(text, validate=False)
    except GeometryError as exc:
        raise UsageError(f"{path}: {exc}") from exc
    tri.validate()
    return tri


def load_params(path: str) -> PipelineParams:
    from .perturb import PipelineParams

    data = _load_json(path)
    if not isinstance(data, dict) or "eps" not in data:
        raise UsageError(f"{path}: params file must set 'eps'")
    names = [f.name for f in fields(PipelineParams)]
    unknown = ", ".join(repr(k) for k in data if k not in names)
    if unknown:
        raise UsageError(f"{path}: unknown params key(s) {unknown} (known: {', '.join(names)})")
    try:
        return PipelineParams(**{k: parse_rational(v) for k, v in data.items()})
    except GameError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def load_target_spec(path: str, game: FiniteGame) -> TargetSpec:
    from .perturb import TargetPoint, TargetSpec

    data = _load_json(path)
    if not isinstance(data, list):
        raise UsageError(f"{path}: target spec must be a JSON list")
    points = []
    for i, entry in enumerate(data):
        what = f"{path}: target entry {i}"
        try:
            profile = _read_profile(entry["point"], game, f"{what} point")
            component, sign = entry["component"], entry["sign"]
        except (KeyError, TypeError, ValueError) as exc:  # ValueError: a bad rational
            raise UsageError(f"{what} malformed: {exc}") from exc
        # int() would truncate 0.9 to 0 and take true for 1
        for key, value in (("component", component), ("sign", sign)):
            if type(value) is not int:
                raise UsageError(f"{what} malformed: {key} must be a JSON integer, not {value!r}")
        points.append(TargetPoint(component, profile, sign))
    return TargetSpec(tuple(points))


# --------------------------------------------------------------------------
# Subcommands: each returns its report and exit code
# --------------------------------------------------------------------------


def cmd_solve(args) -> tuple[Report, int]:
    from .solver import certify, components, support_enumeration

    game = _load_two_player_game(args.game)
    es = certify(game, support_enumeration(game))
    cg = components(es)
    results = {
        "isolated": [_profile_json(p) for p in es.isolated],
        "maximal_subsets": [
            {
                "supports": [list(s) for s in ns.supports],
                "vertices": [_profile_json(p) for p in ns.vertex_profiles()],
            }
            for ns in cg.subsets
        ],
        "components": [list(c) for c in cg.components],
        "exhaustive": es.exhaustive,
        "notes": list(es.notes),
    }
    return Report(
        "solve",
        inputs={"game": args.game},
        results=results,
        certifications=["every reported vertex profile verified as an equilibrium"],
    ), 0


def cmd_components(args) -> tuple[Report, int]:
    from .solver import certify, components, support_enumeration

    game = _load_two_player_game(args.game)
    cg = components(certify(game, support_enumeration(game)))
    results = {
        "subsets": [
            {"supports": [list(s) for s in ns.supports]} for ns in cg.subsets
        ],
        "edges": sorted([list(e) for e in cg.edges]),
        "components": [list(c) for c in cg.components],
        "degrees": {
            str(i): len(adj) for i, adj in sorted(cg.adjacency().items())
        },
    }
    return Report("components", inputs={"game": args.game}, results=results), 0


def cmd_index(args) -> tuple[Report, int]:
    from .indices import IndexError_, component_entry, game_index_report, index_regular
    from .indices import reduced_equilibria
    from .solver import components

    game = _load_two_player_game(args.game)
    report = Report("index", inputs={"game": args.game})
    if args.point is not None:
        profile = _read_profile(_json_argument(args.point, "--point"), game, "--point")
        report.inputs["point"] = args.point
        report.results = {"index": index_regular(game, profile), "method": "determinant"}
    elif args.component is not None:
        es = reduced_equilibria(game)
        cg = components(es)
        count = len(cg.components)
        if not 0 <= args.component < count:
            raise UsageError(f"component {args.component} out of range (game has {count})")
        entry = component_entry(es, [cg.subsets[i] for i in cg.components[args.component]])
        report.inputs["component"] = args.component
        report.results = {"index": entry.index, "method": entry.method}
    else:
        ir = game_index_report(reduced_equilibria(game))
        if ir.total() != 1:
            raise IndexError_(f"indices over all components sum to {ir.total()}, not +1")
        report.results = ir.to_json()
        report.certifications.append("indices over all components sum to +1")
    return report, 0


def cmd_dominance(args) -> tuple[Report, int]:
    reduced, trace = eliminate_strictly_dominated(_load_game(args.game))
    results = {
        "trace": [
            {"player": e.player, "strategy": e.strategy, "witness": _mixture_json(e.witness)}
            for e in trace
        ],
        "residual_strategies": [list(s) for s in reduced.strategies],
    }
    return Report(
        "dominance",
        inputs={"game": args.game},
        results=results,
        certifications=["every elimination carries a strictly dominating mixture witness"],
    ), 0


def cmd_duplicate(args) -> tuple[Report, int]:
    from .equivalence import duplicate_strategy, identity_surjection, save_mapping

    game = _load_game(args.game)
    if not 0 <= args.player < game.num_players:
        raise UsageError(f"player {args.player} out of range (game has {game.num_players})")
    labels = game.strategies[args.player]
    mixture = _read_mixture(_json_argument(args.mixture, "mixture"), "mixture", labels)
    try:
        new_game, phi = duplicate_strategy(game, args.player, mixture, new_label=args.label)
    except GameError as exc:  # the new label, given or default, is already in use
        raise UsageError(str(exc)) from exc
    if args.game_out:
        save_game(new_game, args.game_out)
    if args.mapping_out:
        phis = [
            phi
            if n == args.player
            else identity_surjection(new_game.strategies[n])
            for n in range(new_game.num_players)
        ]
        save_mapping(args.mapping_out, phis)
    inputs = {
        "game": args.game,
        "player": args.player,
        "mixture": args.mixture,
        "label": args.label,
    }
    results = {
        "new_strategy": phi.source_labels[-1],
        "strategies": [list(s) for s in new_game.strategies],
        "game_out": args.game_out,
        "mapping_out": args.mapping_out,
    }
    return Report("duplicate", inputs=inputs, results=results), 0


def cmd_tilde(args) -> tuple[Report, int]:
    from .equivalence import build_tilde_game

    game = _load_game(args.game)
    tris = [_load_triangulation(path) for path in args.triangulation]
    try:
        tg = build_tilde_game(game, tris)
    except GameError as exc:  # a triangulation count or a simplex that does not fit the game
        raise UsageError(f"{args.game}: {exc}") from exc
    results = {
        "first_labels": [list(l) for l in tg.first_labels],
        "pair_strategy_counts": [
            len(tg.polytope_game.vertex_labels[n])
            for n in range(game.num_players)
        ],
        "projections": [
            {lab: _mixture_json(tg.vertex_mixtures[n][lab]) for lab in tg.first_labels[n]}
            for n in range(game.num_players)
        ],
    }
    inputs = {"game": args.game, "triangulations": list(args.triangulation)}
    return Report("tilde", inputs=inputs, results=results), 0


def cmd_triangulate(args) -> tuple[Report, int]:
    from .geometry import grid_triangulation, regular_triangulation

    if args.kind == "grid":
        if args.n < 1:
            raise UsageError(f"triangulate grid needs --n of at least 1, got {args.n}")
        tri = grid_triangulation(args.n)
        inputs = {"kind": "grid", "n": args.n}
    else:
        if args.points is None:
            raise UsageError("triangulate regular needs --points")
        data = _load_json(args.points)
        try:
            points = [[parse_rational(x) for x in p] for p in data["points"]]
            heights = [parse_rational(h) for h in data["heights"]]
        except (KeyError, TypeError) as exc:
            raise UsageError(
                f"{args.points}: points file needs 'points' and 'heights' lists ({exc!r})"
            ) from exc
        if len({len(p) for p in points}) != 1:
            raise UsageError(f"{args.points}: points must be nonempty and of one dimension")
        if len(heights) != len(points):
            raise UsageError(f"{args.points}: {len(heights)} heights for {len(points)} points")
        tri = regular_triangulation(points, heights)
        inputs = {"kind": "regular", "points": args.points}
    text = tri.serialize()
    results = {
        "num_vertices": len(tri.vertices),
        "num_cells": len(tri.maximal),
        "max_diameter": format_rational(tri.max_diameter()),
        "triangulation": text,
    }
    if args.tri_out:
        with open(args.tri_out, "w") as fh:
            fh.write(text)
    return Report("triangulate", inputs=inputs, results=results), 0


def cmd_el_refine(args) -> tuple[Report, int]:
    from .geometry import el_refinement

    tri = _load_triangulation(args.triangulation)
    if len(tri.polytope) != tri.dim + 1:
        raise UsageError(
            f"{args.triangulation}: el-refine needs a triangulated simplex, but the cells "
            f"cover a polytope of {len(tri.polytope)} vertices in dimension {tri.dim}"
        )
    complex_, gamma = el_refinement(tri)
    values = gamma.vertex_values().values()
    results = {
        "num_cells": len(complex_.maximal),
        "gamma_range": [format_rational(min(values)), format_rational(max(values))],
    }
    return Report(
        "el-refine",
        inputs={"triangulation": args.triangulation},
        results=results,
        certifications=["gamma is linear on every cell and non-linear across interior facets"],
    ), 0


def cmd_degree_oracle(args) -> tuple[Report, int]:
    from .indices import degree_oracle

    data = _load_json(args.spec)
    try:
        A = [[parse_rational(x) for x in row] for row in data["matrix"]]
        b = [parse_rational(x) for x in data["offset"]]
        box = [
            (parse_rational(lo), parse_rational(hi)) for lo, hi in data["box"]
        ]
        grid = data.get("grid", 2)
    except RationalParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:  # ValueError: a box entry not a pair
        raise UsageError(
            f"{args.spec}: spec needs 'matrix', 'offset' and 'box' lists ({exc!r})"
        ) from exc
    n = len(box)
    if len(b) != n or len(A) != n or any(len(row) != n for row in A):
        raise UsageError(
            f"{args.spec}: a box of {n} intervals needs an {n}x{n} matrix and {n} offsets"
        )
    if type(grid) is not int or grid < 1:
        raise UsageError(f"{args.spec}: 'grid' must be an integer of at least 1, got {grid!r}")
    for k, (lo, hi) in enumerate(box):
        if not lo < hi:
            raise UsageError(
                f"{args.spec}: box side {k} is empty: "
                f"lo {format_rational(lo)} is not below hi {format_rational(hi)}"
            )

    def fmap(x):
        return [
            sum(A[r][c] * x[c] for c in range(len(x))) + b[r]
            for r in range(len(b))
        ]

    return Report(
        "degree-oracle",
        inputs={"spec": args.spec},
        params={"grid": grid},
        results={"degree": degree_oracle(fmap, box, grid)},
        certifications=["no boundary simplex admitted a sign-ambiguous displacement"],
    ), 0


def cmd_perturb(args) -> tuple[Report, int]:
    from .equivalence import save_mapping
    from .perturb import run_pipeline

    game = _load_game(args.game)
    spec = load_target_spec(args.targets, game)
    params = load_params(args.params)
    perturbed, chain, pipeline_report = run_pipeline(game, spec, params)
    if args.game_out:
        save_game(perturbed, args.game_out)
    if args.witness_out:
        save_mapping(args.witness_out, [chain[0][0], chain[1][1]])
    report = Report(
        "perturb",
        inputs={
            "game": args.game,
            "targets": args.targets,
            "params_file": args.params,
        },
        params={"eps": format_rational(params.eps)},
        results=pipeline_report.to_json(),
    )
    report.results["game_out"] = args.game_out
    report.results["witness_out"] = args.witness_out
    if pipeline_report.verified:
        report.certifications.append(
            "equilibria, indices, and projections verified against targets; "
            "payoff change certified below eps"
        )
    return report, 0 if pipeline_report.verified else 1


def _km_duplication_phi() -> list[AffineSurjection]:
    """Maps of the perturbed example games (km with L duplicated as L') onto km."""
    from .equivalence import duplicate_strategy, identity_surjection
    from .examples import km_game

    km = km_game()
    return [
        identity_surjection(km.strategies[0]),
        duplicate_strategy(km, 1, MixedStrategy.pure("L"), new_label="L'")[1],
    ]


def cmd_verify_example(args) -> tuple[Report, int]:
    from .examples import KM_EPS, KM_EXPECTED
    from .indices import verify_realization

    if args.name != "km":
        raise UsageError(f"unknown example {args.name!r} (try 'km')")
    phis = _km_duplication_phi()
    rows = []
    for eps in KM_EPS:
        for expect in KM_EXPECTED:
            game = expect.game(eps)
            ok = True
            if expect.eliminated is not None:
                # the same reduction that verify_realization certifies below
                _, trace = eliminate_strictly_dominated(game)
                ok = sorted((e.player, e.strategy) for e in trace) == expect.eliminated
            ok = ok and not verify_realization(game, phis, expect.equilibria)[1]
            rows.append((f"{expect.name}, eps={format_rational(eps)}", ok))
    ok_all = all(ok for _, ok in rows)
    results = {
        "table": [
            {"check": name, "status": "pass" if ok else "FAIL"}
            for name, ok in rows
        ],
        "all_passed": ok_all,
    }
    report = Report("verify-example", inputs={"name": args.name}, results=results)
    return report, 0 if ok_all else 1


# --------------------------------------------------------------------------
# Dispatch
# --------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (``parse_args`` keeps no state)."""
    parser = argparse.ArgumentParser(
        prog="equilib",
        description="Exact equilibrium enumeration, index calculus, and "
        "payoff-perturbation pipeline.",
    )
    sub = parser.add_subparsers(dest="subcommand")

    def common(p):
        p.add_argument("--out", help="write machine-readable report JSON here")

    p = sub.add_parser("solve", help="enumerate equilibria of a game file")
    p.add_argument("game")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("components", help="equilibrium component structure")
    p.add_argument("game")
    common(p)
    p.set_defaults(func=cmd_components)

    p = sub.add_parser("index", help="fixed-point indices")
    p.add_argument("game")
    p.add_argument("--point", help="JSON profile for a single regular equilibrium")
    p.add_argument("--component", type=int, help="component number to evaluate")
    common(p)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("dominance", help="iterated strict dominance trace")
    p.add_argument("game")
    common(p)
    p.set_defaults(func=cmd_dominance)

    p = sub.add_parser("duplicate", help="duplicate a mixture as a new strategy")
    p.add_argument("game")
    p.add_argument("player", type=int)
    p.add_argument("mixture", help='JSON mixture, e.g. \'{"L": "1"}\'')
    p.add_argument("--label", help="label for the new strategy")
    p.add_argument("--game-out", dest="game_out", help="write the new game here")
    p.add_argument(
        "--mapping-out", dest="mapping_out", help="write the witness mapping here"
    )
    common(p)
    p.set_defaults(func=cmd_duplicate)

    p = sub.add_parser("tilde", help="lift a game onto triangulated simplices")
    p.add_argument("game")
    p.add_argument("triangulation", nargs="+", help="one file per player")
    common(p)
    p.set_defaults(func=cmd_tilde)

    p = sub.add_parser("triangulate", help="build a triangulation")
    p.add_argument("kind", choices=["grid", "regular"])
    p.add_argument("--n", type=int, default=2, help="grid resolution")
    p.add_argument("--points", help="JSON file with points and heights")
    p.add_argument("--tri-out", dest="tri_out", help="write the triangulation here")
    common(p)
    p.set_defaults(func=cmd_triangulate)

    p = sub.add_parser("el-refine", help="arrangement refinement with convex witness")
    p.add_argument("triangulation")
    common(p)
    p.set_defaults(func=cmd_el_refine)

    p = sub.add_parser("degree-oracle", help="PL degree of an affine map over a box")
    p.add_argument("spec", help="JSON file with matrix, offset, box, grid")
    common(p)
    p.set_defaults(func=cmd_degree_oracle)

    p = sub.add_parser("perturb", help="run the perturbation pipeline")
    p.add_argument("game")
    p.add_argument("targets", help="JSON target spec")
    p.add_argument("--params", required=True, help="JSON params file (sets eps)")
    p.add_argument("--game-out", dest="game_out", help="write the perturbed game here")
    p.add_argument(
        "--witness-out", dest="witness_out", help="write the witness mapping here"
    )
    common(p)
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("verify-example", help="end-to-end reproduction checks")
    p.add_argument("name")
    common(p)
    p.set_defaults(func=cmd_verify_example)

    return parser


def main(argv=None) -> int:
    """Run one subcommand: time it, print its report, write ``--out``, return its exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return 2
    t0 = time.monotonic()
    try:
        report, code = args.func(args)
        report.timings["total"] = f"{time.monotonic() - t0:.3f}"
        _emit(report, args.out)
    # an input that cannot be read (missing, a directory, not UTF-8) or an
    # --out that cannot be written is a usage error, not a failed check
    except (UsageError, OSError, UnicodeDecodeError, RationalParseError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except GameError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
