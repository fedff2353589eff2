import gc
import itertools
import json
import os
import random
import subprocess
import sys
import types
from dataclasses import asdict
from fractions import Fraction

import pytest

import equilib.cli
import equilib.indices
import equilib.solver
from equilib.cli import Report, main
from equilib.examples import km_game, km_perturbation_1
from equilib.games import FiniteGame, MixedStrategy, load_game, save_game
from equilib.games import write_json as write_report
from equilib.geometry import Triangulation
from equilib.indices import IndexEntry, IndexReport
from oracles import load_mapping

F = Fraction


@pytest.fixture
def km_file(tmp_path):
    path = tmp_path / "km.json"
    save_game(km_game(), str(path))
    return str(path)


def write_json(path, data):
    path.write_text(json.dumps(data) + "\n")
    return str(path)


# -- exit codes ------------------------------------------------------------


# In a fresh interpreter: import equilib.cli, run main(argv) if argv is given,
# and print the exit code, the equilib modules loaded and whether sympy is.
LOAD_PROBE = """
import contextlib, io, json, sys
import equilib.cli
argv = json.loads(sys.argv[1])
code = None
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = equilib.cli.main(argv)
loaded = sorted(m.split(".")[1] for m in sys.modules if m.startswith("equilib."))
print(json.dumps([code, loaded, "sympy" in sys.modules]))
"""

# subcommand -> the equilib modules besides cli, games, linalg and rational
# that running it loads
SUBCOMMAND_MODULES = {
    "import": [],
    "solve": ["solver"],
    "components": ["solver"],
    "dominance": [],
    "index": ["indices", "solver"],
    "triangulate-grid": ["geometry"],
    "el-refine": ["geometry"],
    "degree-oracle": ["indices", "solver"],
}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_MODULES))
def test_subcommand_loads_only_the_modules_it_runs(command, km_file, tmp_path):
    import equilib

    if command == "import":
        argv = []
    elif command in ("triangulate-grid", "el-refine", "degree-oracle"):
        argv = geometry_argv(command, tmp_path)
    else:
        argv = [command, km_file]
    src = os.path.dirname(os.path.dirname(equilib.__file__))
    out = subprocess.run(
        [sys.executable, "-c", LOAD_PROBE, json.dumps(argv)],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    )
    code, loaded, sympy_loaded = json.loads(out.stdout)
    assert code == (0 if argv else None)
    assert loaded == sorted(["cli", "games", "linalg", "rational"] + SUBCOMMAND_MODULES[command])
    assert not sympy_loaded


def test_unknown_subcommand_exits_2(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_missing_file_exits_2(capsys):
    assert main(["solve", "/nonexistent/game.json"]) == 2
    assert "usage error" in capsys.readouterr().err


def unreadable_argv(case, tmp_path, km_file):
    """argv whose input cannot be read, or whose --out cannot be written."""
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes('{"players": ["Zo\xeb"]}'.encode("latin-1"))
    return {
        "solve-directory": ["solve", str(tmp_path)],
        "dominance-directory": ["dominance", str(tmp_path)],
        "el-refine-directory": ["el-refine", str(tmp_path)],
        "solve-out-directory": ["solve", km_file, "--out", str(tmp_path)],
        "solve-not-utf8": ["solve", str(not_utf8)],
        "degree-oracle-not-utf8": ["degree-oracle", str(not_utf8)],
    }[case]


@pytest.mark.parametrize(
    "case",
    [
        "solve-directory",
        "dominance-directory",
        "el-refine-directory",
        "solve-out-directory",
        "solve-not-utf8",
        "degree-oracle-not-utf8",
    ],
)
def test_unreadable_input_or_output_exits_2(case, tmp_path, km_file, capsys):
    """A directory or a file that is not UTF-8 is a usage error, as a missing file is:
    exit 2 with one "usage error" line, not a traceback and the verification-failure code."""
    assert main(unreadable_argv(case, tmp_path, km_file)) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "Traceback" not in err, err


def test_unreadable_input_exits_2_from_the_command_line(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "equilib.cli", "solve", str(tmp_path)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.path.join(os.path.dirname(__file__), "..", "src")},
    )
    assert result.returncode == 2
    assert result.stderr.startswith("usage error: ") and "Traceback" not in result.stderr


def test_unknown_example_exits_2(capsys):
    assert main(["verify-example", "other"]) == 2
    capsys.readouterr()


# the subcommands that read a game file, with the rest of their arguments
GAME_COMMANDS = {
    "solve": [],
    "components": [],
    "index": [],
    "dominance": [],
    "duplicate": ["0", '{"a": "1"}'],
    "tilde": ["a.tri", "x.tri"],
    "perturb": ["targets.json", "--params", "params.json"],
}


@pytest.mark.parametrize(
    "text, message",
    [
        (
            json.dumps(
                {
                    "players": ["p1", "p2"],
                    "strategies": [["a"], ["x", "y"]],
                    "payoffs": [[["1", "0"], ["1/0", "2"]]],
                }
            ),
            "payoffs[a][y]",
        ),
        (
            json.dumps({"players": ["p1", "p2"], "strategies": [[], ["x"]], "payoffs": []}),
            "player 'p1' has no strategies",
        ),
        (
            json.dumps(
                {
                    "players": ["p1", "p2"],
                    "strategies": [["a", "a"], ["x", "y"]],
                    "payoffs": [[["1", "0"], ["2", "0"]], [["3", "0"], ["4", "0"]]],
                }
            ),
            "player 'p1' repeats a strategy label",
        ),
        ('{"players": ["p1", "p2"],', "invalid JSON at line 1"),
        (json.dumps({"players": ["p1", "p2"], "strategies": [["a"], ["x"]]}), "missing/invalid section"),
        ("[]", "missing/invalid section"),
    ],
    ids=["bad-rational", "no-strategies", "repeated-label", "invalid-json", "missing-payoffs",
         "not-an-object"],
)
@pytest.mark.parametrize("command", GAME_COMMANDS)
def test_malformed_game_file_exits_2(command, text, message, tmp_path, capsys):
    """Every subcommand that reads a game file reads it first, and a file
    that is not a game is a usage error like any other input that fails to parse."""
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main([command, str(path), *GAME_COMMANDS[command]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and message in err


# -- solve / components / index -------------------------------------------


# each form of solve, components and index, with the rest of its arguments
THREE_PLAYER_FORMS = {
    "solve": ["solve"],
    "components": ["components"],
    "index": ["index"],
    "index-component": ["index", "--component", "0"],
    "index-point": ["index", "--point", '[{"a": "1"}, {"x": "1/2", "y": "1/2"}, {"u": "1"}]'],
}


@pytest.mark.parametrize("form", sorted(THREE_PLAYER_FORMS))
def test_three_player_game_is_outside_the_two_player_scope(form, tmp_path, capsys):
    """The enumeration behind solve, components and index is two-player
    only, so a 2x2x2 game is a usage error that names that scope, never a
    failed verification."""
    strategies = [["a", "b"], ["x", "y"], ["u", "v"]]
    payoffs = {
        p: tuple(F((3 * k + sum(map(ord, "".join(p)))) % 4) for k in range(3))
        for p in itertools.product(*strategies)
    }
    path = str(tmp_path / "3p.json")
    save_game(FiniteGame.of(["p1", "p2", "p3"], strategies, payoffs), path)
    command, *rest = THREE_PLAYER_FORMS[form]
    assert main([command, path, *rest]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"usage error: {path}: solve, components and index handle two-player games only, "
        "and this game has 3 players\n"
    )


def test_solve_trivial_game(tmp_path, capsys):
    game = FiniteGame.of(["p1", "p2"], [["a"], ["x"]], {("a", "x"): (F(0), F(0))})
    path = tmp_path / "one.json"
    save_game(game, str(path))
    out = tmp_path / "report.json"
    assert main(["solve", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    assert data["results"]["isolated"] == [[{"a": "1"}, {"x": "1"}]]
    assert data["results"]["exhaustive"] is True


def test_solve_km_reports_six_subsets(km_file, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["solve", km_file, "--out", str(out)]) == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    assert len(data["results"]["maximal_subsets"]) == 6
    assert data["results"]["components"] == [[0, 1, 2, 3, 4, 5]]


def test_components_cycle_degrees(km_file, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["components", km_file, "--out", str(out)]) == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    assert set(data["results"]["degrees"].values()) == {2}


def test_index_at_point(tmp_path, capsys):
    game = FiniteGame.of(
        ["p1", "p2"],
        [["A", "B"], ["C", "D"]],
        {
            ("A", "C"): (F(1), F(-1)),
            ("A", "D"): (F(-1), F(1)),
            ("B", "C"): (F(-1), F(1)),
            ("B", "D"): (F(1), F(-1)),
        },
    )
    path = tmp_path / "mp.json"
    save_game(game, str(path))
    point = json.dumps(
        [{"A": "1/2", "B": "1/2"}, {"C": "1/2", "D": "1/2"}]
    )
    out = tmp_path / "r.json"
    assert main(["index", str(path), "--point", point, "--out", str(out)]) == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    assert data["results"] == {"index": 1, "method": "determinant"}


INDEX_POINT_FAILURES = {
    # against C/2 + D/2, A earns 1 and B earns 3/2
    "non-equilibrium": (
        [{"A": "1/2", "B": "1/2"}, {"C": "1/2", "D": "1/2"}],
        "profile is not an equilibrium at A",
    ),
    # B earns 2 against C, as A does
    "irregular": (
        [{"A": "1"}, {"C": "1"}],
        "off-support strategy B is not strictly inferior; use component_index",
    ),
    "unequal supports": (
        [{"A": "1/2", "B": "1/2"}, {"C": "1"}],
        "unequal support sizes: equilibrium is not regular; use component_index",
    ),
}


@pytest.mark.parametrize("case", INDEX_POINT_FAILURES)
def test_index_at_point_rejects_what_is_no_regular_equilibrium(case, tmp_path, capsys):
    game = FiniteGame.of(
        ["p1", "p2"],
        [["A", "B"], ["C", "D"]],
        {("A", "C"): (2, 2), ("A", "D"): (0, 0), ("B", "C"): (2, 0), ("B", "D"): (1, 1)},
    )
    path, out = tmp_path / "g.json", tmp_path / "r.json"
    save_game(game, str(path))
    point, message = INDEX_POINT_FAILURES[case]
    assert main(["index", str(path), "--point", json.dumps(point), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"verification failure: {message}\n"
    assert not out.exists()


def test_index_full_report_sums_to_one(km_file, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["index", km_file, "--out", str(out)]) == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    assert data["results"]["total"] == 1
    assert "indices over all components sum to +1" in data["certifications"]


def test_index_full_report_bad_total_exits_1(km_file, tmp_path, monkeypatch, capsys):
    report = IndexReport([IndexEntry("a", 1, "determinant"), IndexEntry("b", 1, "determinant")])
    monkeypatch.setattr("equilib.indices.game_index_report", lambda game: report)
    out = tmp_path / "r.json"
    assert main(["index", km_file, "--out", str(out)]) == 1
    assert "sum to 2, not +1" in capsys.readouterr().err
    assert not out.exists()


def test_index_component(km_file, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["index", km_file, "--component", "0", "--out", str(out)]) == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    assert data["results"] == {"index": 1, "method": "perturbation-sum"}


def test_index_component_out_of_range(km_file, capsys):
    assert main(["index", km_file, "--component", "7"]) == 2
    capsys.readouterr()


def test_index_component_is_the_full_reports_entry(coordination, tmp_path, capsys):
    path = tmp_path / "coordination.json"
    save_game(coordination, str(path))
    full, one = tmp_path / "full.json", tmp_path / "one.json"
    assert main(["index", str(path), "--out", str(full)]) == 0
    assert main(["index", str(path), "--component", "0", "--out", str(one)]) == 0
    capsys.readouterr()
    entry = json.loads(full.read_text())["results"]["entries"][0]
    data = json.loads(one.read_text())
    assert data["results"] == {"index": 1, "method": "determinant"}
    assert data["results"] == {"index": entry["index"], "method": entry["method"]}


def test_index_component_out_of_range_computes_no_index(km_file, monkeypatch, capsys):
    def boom(*args):
        raise AssertionError("an index was computed")

    for name in ("game_index_report", "component_index", "index_regular"):
        monkeypatch.setattr(f"equilib.indices.{name}", boom)
    assert main(["index", km_file, "--component", "1"]) == 2
    assert "component 1 out of range (game has 1)" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [[], ["--component", "0"]])
def test_index_exits_1_when_a_dominance_witness_fails(extra, tmp_path, monkeypatch, capsys):
    import equilib.games as games

    # 10/11*t + 1/11*b dominates m only weakly: it earns -1 against R, as m does
    weak = MixedStrategy.of({"t": F(10, 11), "b": F(1, 11)})
    dominating_mixture = games._dominating_mixture

    def weak_witness(game, live, player, strategy):
        witness = dominating_mixture(game, live, player, strategy)
        return weak if strategy == "m" and witness else witness

    monkeypatch.setattr(games, "_dominating_mixture", weak_witness)
    path, out = tmp_path / "g1.json", tmp_path / "r.json"
    save_game(km_perturbation_1(F(1, 10)), str(path))
    assert main(["index", str(path), "--out", str(out)] + extra) == 1
    assert capsys.readouterr().err == (
        "verification failure: elimination of 'm' (player 0) is not certified: "
        "1/11*b + 10/11*t does not strictly dominate it\n"
    )
    assert not out.exists()


def test_index_where_concrete_perturbations_stay_degenerate(tmp_path, capsys):
    # one component, so index +1; some payoff perturbations of size 1/1000
    # leave this game with a degenerate equilibrium set
    rows, cols = ["r0", "r1", "r2", "r3"], ["c0", "c1", "c2"]
    table = [
        [(1, 2), (1, 2), (1, 2)],
        [(1, 2), (1, 1), (1, 1)],
        [(1, 0), (0, 2), (2, 0)],
        [(1, 2), (2, 0), (1, 0)],
    ]
    game = FiniteGame.of(
        ["1", "2"], [rows, cols],
        {(r, c): table[i][j] for i, r in enumerate(rows) for j, c in enumerate(cols)},
    )
    path, out = tmp_path / "g.json", tmp_path / "r.json"
    save_game(game, str(path))
    assert main(["index", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    results = json.loads(out.read_text())["results"]
    assert [(e["index"], e["method"]) for e in results["entries"]] == [(1, "perturbation-sum")]
    assert results["total"] == 1


def seeded_3x3(seed):
    """A 3x3 game with payoffs 0..2 drawn from ``random.Random(seed)``."""
    rng = random.Random(seed)
    rows, cols = ["a", "b", "c"], ["x", "y", "z"]
    payoffs = {(r, c): (rng.randint(0, 2), rng.randint(0, 2)) for r in rows for c in cols}
    return FiniteGame.of(["p1", "p2"], [rows, cols], payoffs)


def test_index_component_computes_only_its_entry(tmp_path, monkeypatch, capsys):
    path, full, one = (tmp_path / name for name in ("g.json", "full.json", "one.json"))
    save_game(seeded_3x3(153), str(path))
    assert main(["index", str(path), "--out", str(full)]) == 0
    entries = json.loads(full.read_text())["results"]["entries"]
    assert [e["method"] for e in entries] == ["determinant", "perturbation-sum", "perturbation-sum"]
    calls = {"components": 0, "component_index": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((equilib.solver, "components"), (equilib.indices, "components"),
                         (equilib.indices, "component_index")):
        counted(module, name)
    assert main(["index", str(path), "--component", "0", "--out", str(one)]) == 0
    capsys.readouterr()
    assert calls == {"components": 1, "component_index": 0}
    assert json.loads(one.read_text())["results"] == {
        "index": entries[0]["index"], "method": entries[0]["method"]
    }


# -- dominance -------------------------------------------------------------


def test_dominance_trace_on_perturbed_game(tmp_path, capsys):
    path = tmp_path / "g1.json"
    save_game(km_perturbation_1(F(1, 10)), str(path))
    out = tmp_path / "r.json"
    assert main(["dominance", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    removed = sorted(
        (e["player"], e["strategy"]) for e in data["results"]["trace"]
    )
    assert removed == [[0, "m"], [1, "M"], [1, "R"]] or removed == [
        (0, "m"),
        (1, "M"),
        (1, "R"),
    ]


# -- duplicate -------------------------------------------------------------


def test_duplicate_writes_game_and_mapping(km_file, tmp_path, capsys):
    game_out = tmp_path / "dup.json"
    map_out = tmp_path / "map.json"
    code = main(
        [
            "duplicate",
            km_file,
            "1",
            '{"L": "1"}',
            "--label",
            "L'",
            "--game-out",
            str(game_out),
            "--mapping-out",
            str(map_out),
        ]
    )
    assert code == 0
    capsys.readouterr()
    dup = load_game(str(game_out))
    assert "L'" in dup.strategies[1]
    assert dup.payoffs[("t", "L'")] == dup.payoffs[("t", "L")]
    mapping = json.loads(map_out.read_text())
    assert mapping["players"][1]["columns"]["L'"] == {"L": "1"}


def test_duplicate_label_in_use_exits_2(km_file, tmp_path, capsys):
    """Duplicating a mixture again in the game it produced reuses the default
    label: a usage error, as when the same label is given with --label."""
    game_out = tmp_path / "dup.json"
    assert main(["duplicate", km_file, "0", '{"t": "1"}', "--game-out", str(game_out)]) == 0
    capsys.readouterr()
    for label in ([], ["--label", "1*t#dup"]):
        assert main(["duplicate", str(game_out), "0", '{"t": "1"}', *label]) == 2
        assert capsys.readouterr().err == "usage error: label '1*t#dup' already in use\n"


# -- perturb ---------------------------------------------------------------


def test_perturb_pipeline_cli(km_file, tmp_path, capsys):
    targets = write_json(
        tmp_path / "targets.json",
        [
            {"component": 0, "point": [{"t": "1"}, {"L": "1"}], "sign": 1},
            {"component": 0, "point": [{"b": "1"}, {"L": "1"}], "sign": 1},
            {
                "component": 0,
                "point": [{"t": "1/2", "b": "1/2"}, {"L": "1"}],
                "sign": -1,
            },
        ],
    )
    params = write_json(tmp_path / "params.json", {"eps": "1/10"})
    game_out = tmp_path / "perturbed.json"
    out = tmp_path / "r.json"
    code = main(
        [
            "perturb",
            km_file,
            targets,
            "--params",
            params,
            "--game-out",
            str(game_out),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    assert data["results"]["verified"] is True
    assert sorted(data["results"]["indices"]) == [-1, 1, 1]
    load_game(str(game_out))  # round-trips


def test_perturb_requires_eps_in_params(km_file, tmp_path, capsys):
    targets = write_json(
        tmp_path / "targets.json",
        [{"component": 0, "point": [{"t": "1"}, {"L": "1"}], "sign": 1}],
    )
    params = write_json(tmp_path / "params.json", {"alpha": "1/100"})
    assert main(["perturb", km_file, targets, "--params", params]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "target, message",
    [
        ({"component": 7, "sign": 1}, "unknown component id 7"),
        ({"component": 0, "sign": -1}, "component 0: signs sum to -1, but its index is 1"),
        (
            {"component": 0, "sign": 1, "point": [{"m": "1/3", "t": "2/3"}, {"L": "1"}]},
            "target point 1/3*m + 2/3*t ; 1*L is not an equilibrium",
        ),
    ],
)
def test_perturb_unreachable_target_exits_1(target, message, km_file, tmp_path, capsys):
    targets = write_json(
        tmp_path / "targets.json", [{"point": [{"t": "1"}, {"L": "1"}], **target}]
    )
    params = write_json(tmp_path / "params.json", {"eps": "1/10"})
    assert main(["perturb", km_file, targets, "--params", params]) == 1
    assert f"verification failure: [target] {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "component, sign",
    [(0.9, 1.5), (0, 1.0), (False, 1), (0, True), ("0", 1), (0, "1")],
)
def test_perturb_target_component_and_sign_must_be_json_integers(
    component, sign, km_file, tmp_path, capsys
):
    # int() would truncate 0.9 and 1.5 to component 0 and sign +1, and the run would pass
    targets = write_json(
        tmp_path / "targets.json",
        [{"component": component, "point": [{"t": "1"}, {"L": "1"}], "sign": sign}],
    )
    params = write_json(tmp_path / "params.json", {"eps": "1/10"})
    assert main(["perturb", km_file, targets, "--params", params]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "must be a JSON integer" in err, err


# -- verify-example --------------------------------------------------------


def test_verify_example_km(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["verify-example", "km", "--out", str(out)]) == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    assert data["results"]["all_passed"] is True
    assert len(data["results"]["table"]) == 4
    assert all(row["status"] == "pass" for row in data["results"]["table"])


# -- reports and file round-trips ------------------------------------------


def test_report_round_trip(km_file, tmp_path, capsys):
    out = tmp_path / "r.json"
    main(["solve", km_file, "--out", str(out)])
    capsys.readouterr()
    data = json.loads(out.read_text())
    report = Report(**data)
    assert asdict(report) == data
    assert report.render_text().startswith("== solve ==")


def cyclic_garbage(argv) -> list:
    """Every object that ``main(argv)`` leaves in reference cycles, from any module."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        main(argv)
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    return garbage


def equilib_garbage(argv) -> list:
    """Objects of equilib types or functions that ``main(argv)`` leaves in reference cycles."""
    return [
        o
        for o in cyclic_garbage(argv)
        if type(o).__module__.startswith("equilib")
        or (isinstance(o, types.FunctionType) and o.__module__.startswith("equilib"))
    ]


@pytest.mark.parametrize("command", ["solve", "index"])
def test_main_leaves_no_cyclic_garbage(command, km_file, tmp_path, capsys):
    assert cyclic_garbage([command, km_file, "--out", str(tmp_path / "r.json")]) == []
    assert equilib_garbage([command, km_file]) == []
    capsys.readouterr()


def test_cached_parser_keeps_no_options_between_calls(km_file, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["solve", km_file, "--out", str(out)]) == 0
    out.unlink()
    assert main(["solve", km_file]) == 0
    assert not out.exists()
    assert main(["index", km_file, "--component", "0"]) == 0
    capsys.readouterr()
    assert main(["index", km_file, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["results"]["entries"]  # the full report, not component 0
    capsys.readouterr()


@pytest.mark.parametrize("seed", range(20))
def test_game_file_round_trip(tmp_path, seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 3), rng.randint(1, 3)
    labels = [[f"r{i}" for i in range(rows)], [f"c{j}" for j in range(cols)]]
    payoffs = {
        (a, b): (
            F(rng.randint(-9, 9), rng.randint(1, 9)),
            F(rng.randint(-9, 9), rng.randint(1, 9)),
        )
        for a in labels[0]
        for b in labels[1]
    }
    game = FiniteGame.of(["p1", "p2"], labels, payoffs)
    path = tmp_path / f"g{seed}.json"
    save_game(game, str(path))
    assert load_game(str(path)) == game


# -- tilde / triangulate / el-refine / degree-oracle -----------------------


def geometry_argv(command, tmp_path):
    """argv for one of the subcommands that take triangulations or specs."""
    if command == "tilde":
        segment = Triangulation(
            [(F(1), F(0)), (F(1, 2), F(1, 2)), (F(0), F(1))],
            [(0, 1), (1, 2)],
            [(F(1), F(0)), (F(0), F(1))],
        )
        (tmp_path / "seg.tri").write_text(segment.serialize())
        game = tmp_path / "pennies.json"
        save_game(
            FiniteGame.of(
                ["p1", "p2"],
                [["A", "B"], ["C", "D"]],
                {
                    ("A", "C"): (1, -1),
                    ("A", "D"): (-1, 1),
                    ("B", "C"): (-1, 1),
                    ("B", "D"): (1, -1),
                },
            ),
            str(game),
        )
        return ["tilde", str(game), str(tmp_path / "seg.tri"), str(tmp_path / "seg.tri")]
    if command == "triangulate-grid":
        return ["triangulate", "grid", "--n", "2", "--tri-out", str(tmp_path / "grid.tri")]
    if command == "triangulate-regular":
        points = [[str(i), str(j)] for i in range(3) for j in range(3)]
        heights = ["0", "1/3", "4", "1", "2/7", "5", "4", "5", "9"]
        return ["triangulate", "regular", "--points",
                write_json(tmp_path / "points.json", {"points": points, "heights": heights})]
    if command == "el-refine":
        base = Triangulation([(F(0), F(0)), (F(1), F(0)), (F(0), F(1))], [(0, 1, 2)])
        (tmp_path / "split.tri").write_text(base.split_edge((0, 1)).split_edge((0, 2)).serialize())
        return ["el-refine", str(tmp_path / "split.tri")]
    # x -> x/2 on [-1, 1]^2: the displacement x/2 has degree +1
    spec = {
        "matrix": [["1/2", "0"], ["0", "1/2"]],
        "offset": ["0", "0"],
        "box": [["-1", "1"], ["-1", "1"]],
        "grid": 2,
    }
    return ["degree-oracle", write_json(tmp_path / "spec.json", spec)]


GEOMETRY_COMMANDS = [
    "tilde", "triangulate-grid", "triangulate-regular", "el-refine", "degree-oracle"
]


@pytest.mark.parametrize("command", GEOMETRY_COMMANDS)
def test_geometry_subcommand_report_round_trip(command, tmp_path, capsys):
    argv = geometry_argv(command, tmp_path)
    out = tmp_path / "r.json"
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    assert asdict(Report(**data)) == data
    assert data["command"] == argv[0]
    if command == "triangulate-grid":
        tri = Triangulation.deserialize((tmp_path / "grid.tri").read_text())
        assert len(tri.maximal) == data["results"]["num_cells"] == 8
    if command == "degree-oracle":
        assert data["results"]["degree"] == 1


def subcommand_argv(command, km_file, tmp_path):
    """argv for each subcommand, on km or on the geometry inputs."""
    if command in GEOMETRY_COMMANDS:
        return geometry_argv(command, tmp_path)
    if command == "dominance":
        path = tmp_path / "g1.json"
        save_game(km_perturbation_1(F(1, 10)), str(path))
        return ["dominance", str(path)]
    if command == "duplicate":
        return ["duplicate", km_file, "1", '{"L": "1"}', "--label", "L'",
                "--game-out", str(tmp_path / "dup.json"),
                "--mapping-out", str(tmp_path / "map.json")]
    if command == "perturb":
        targets = write_json(tmp_path / "targets.json", PURE_TARGETS)
        params = write_json(tmp_path / "params.json", {"eps": "1/10"})
        return ["perturb", km_file, targets, "--params", params,
                "--game-out", str(tmp_path / "perturbed.json"),
                "--witness-out", str(tmp_path / "witness.json")]
    if command == "verify-example":
        return ["verify-example", "km"]
    return [command, km_file]


# perfbench's "pure" target file for km
PURE_TARGETS = [{"component": 0, "point": [{"t": "1"}, {"L": "1"}], "sign": 1}]

SUBCOMMANDS = ["solve", "components", "index", "dominance", "duplicate", "perturb",
               "verify-example"] + GEOMETRY_COMMANDS


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_out_is_the_indented_json_of_the_report(command, km_file, tmp_path, monkeypatch, capsys):
    """main prints the report's text, times it in the one entry ``total``, and
    writes to --out exactly json.dumps(asdict(report), indent=2) and a newline;
    the run leaves no cyclic garbage from any module."""
    argv = subcommand_argv(command, km_file, tmp_path)
    reports = []
    emit = equilib.cli._emit

    def keep(report, out_path):
        reports.append(report)
        emit(report, out_path)

    monkeypatch.setattr(equilib.cli, "_emit", keep)
    out = tmp_path / "r.json"
    assert main(argv + ["--out", str(out)]) == 0
    (report,) = reports
    assert capsys.readouterr().out == report.render_text()
    assert list(report.timings) == ["total"]
    assert out.read_bytes() == (json.dumps(asdict(report), indent=2) + "\n").encode()
    assert cyclic_garbage(argv + ["--out", str(out)]) == []
    if command == "dominance":  # km loses no strategy, where the game above loses three
        assert cyclic_garbage(["dominance", km_file, "--out", str(out)]) == []
    capsys.readouterr()


@pytest.mark.parametrize(
    "value",
    [{}, [], "é\n\"", 3, -2.5, None, True, [[], {}, [[]]], (1, "a"),
     {"a": {"b": [1, {"c": None}], "d": {}}, 3: "int key", None: 0, 1.5: [], False: ()}],
)
def test_report_writer_matches_json_dump(value, tmp_path):
    write_report(str(tmp_path / "v.json"), value)
    assert (tmp_path / "v.json").read_text() == json.dumps(value, indent=2) + "\n"


def test_report_writer_refuses_keys_json_refuses(tmp_path):
    with pytest.raises(TypeError):
        json.dumps({(1, 2): 0}, indent=2)
    with pytest.raises(TypeError):
        write_report(str(tmp_path / "v.json"), {(1, 2): 0})


def test_perturb_witness_out_maps_the_perturbed_game_onto_km(km_file, tmp_path, capsys):
    argv = subcommand_argv("perturb", km_file, tmp_path)
    assert main(argv) == 0
    capsys.readouterr()
    perturbed, km = load_game(str(tmp_path / "perturbed.json")), km_game()
    phis = load_mapping(str(tmp_path / "witness.json"))
    assert len(phis) == len(km.strategies) == len(perturbed.strategies)
    for phi, source, target in zip(phis, perturbed.strategies, km.strategies):
        assert phi.source_labels == tuple(source)
        assert phi.target_labels == tuple(target)
        for s in source:  # every pure strategy lands on a mixture over km's
            image = phi.apply(MixedStrategy.pure(s))
            assert set(image.support()) <= set(target) and sum(w for _, w in image.weights) == 1


@pytest.mark.parametrize("command", [c for c in GEOMETRY_COMMANDS if c != "triangulate-grid"])
def test_geometry_subcommand_missing_input_exits_2(command, tmp_path, capsys):
    argv = geometry_argv(command, tmp_path)
    argv[-1] = str(tmp_path / "missing.json")
    assert main(argv) == 2
    assert "usage error" in capsys.readouterr().err


MALFORMED_GEOMETRY_INPUTS = {
    "triangulate-regular-without-points": (["triangulate", "regular"], None),
    "points-without-heights": (["triangulate", "regular", "--points"], {"points": [["0", "0"]]}),
    "points-not-an-object": (["triangulate", "regular", "--points"], [["0", "0"]]),
    "points-not-json": (["triangulate", "regular", "--points"], "{'points': "),
    "spec-not-json": (["degree-oracle"], "matrix = [[1]]"),
    "spec-without-matrix": (["degree-oracle"], {"offset": ["0"], "box": [["-1", "1"]]}),
    "spec-box-entry-not-a-pair": (
        ["degree-oracle"], {"matrix": [["1"]], "offset": ["0"], "box": [["-1", "0", "1"]]}
    ),
    "points-of-two-dimensions": (
        ["triangulate", "regular", "--points"],
        {"points": [["0", "0"], ["1"]], "heights": ["0", "1"]},
    ),
    "points-empty": (["triangulate", "regular", "--points"], {"points": [], "heights": []}),
    "points-with-too-few-heights": (
        ["triangulate", "regular", "--points"],
        {"points": [["0", "0"], ["1", "0"], ["0", "1"]], "heights": ["0", "1"]},
    ),
    "points-with-too-many-heights": (
        ["triangulate", "regular", "--points"],
        {"points": [["0", "0"], ["1", "0"], ["0", "1"]], "heights": ["0", "1", "2", "3"]},
    ),
    "grid-of-size-0": (["triangulate", "grid", "--n", "0"], None),
    "grid-of-negative-size": (["triangulate", "grid", "--n", "-2"], None),
    "spec-offset-too-short": (
        ["degree-oracle"],
        {"matrix": [["1", "0"], ["0", "1"]], "offset": ["0"], "box": [["-1", "1"], ["-1", "1"]]},
    ),
    "spec-grid-fractional": (
        ["degree-oracle"], {"matrix": [["1/2"]], "offset": ["0"], "box": [["-1", "1"]], "grid": 1.7}
    ),
    "spec-grid-bool": (
        ["degree-oracle"], {"matrix": [["1/2"]], "offset": ["0"], "box": [["-1", "1"]], "grid": True}
    ),
    "spec-grid-0": (
        ["degree-oracle"], {"matrix": [["1/2"]], "offset": ["0"], "box": [["-1", "1"]], "grid": 0}
    ),
    "spec-box-side-empty": (
        ["degree-oracle"],
        {"matrix": [["1/2", "0"], ["0", "1/2"]], "offset": ["0", "0"], "box": [["-1", "1"], ["1", "1"]]},
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_GEOMETRY_INPUTS))
def test_malformed_geometry_input_exits_2(case, tmp_path, capsys):
    argv, content = MALFORMED_GEOMETRY_INPUTS[case]
    argv = list(argv)
    if content is not None:
        path = tmp_path / "input.json"
        if isinstance(content, str):
            path.write_text(content)
        else:
            write_json(path, content)
        argv.append(str(path))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert any(line.startswith("usage error: ") for line in err.splitlines()), err


# argv after the subcommand's game file; a perturb case gives the one entry
# of its target spec instead
MALFORMED_PROFILE_INPUTS = {
    "index-point-not-objects": (["index", "--point", "[1, 2]"], None),
    "index-point-for-one-player": (["index", "--point", '[{"A": "1"}]'], None),
    "target-point-not-objects": (["perturb"], {"component": 0, "point": [1, 2], "sign": 1}),
    "target-point-for-one-player": (
        ["perturb"], {"component": 0, "point": [{"A": "1"}], "sign": 1}
    ),
    "target-component-not-a-number": (
        ["perturb"], {"component": "x", "point": [{"A": "1"}, {"C": "1"}], "sign": 1}
    ),
    "duplicate-player-past-the-last": (["duplicate", "5", '{"A": "1"}'], None),
    "duplicate-negative-player": (["duplicate", "-1", '{"C": "1"}'], None),
    # weights that are no mixture, and strategies the player does not have
    "index-point-weights-not-summing-to-one": (
        ["index", "--point", '[{"A": "1/2", "B": "1/3"}, {"C": "1"}]'], None
    ),
    "target-point-weights-not-summing-to-one": (
        ["perturb"], {"component": 0, "point": [{"A": "1/2", "B": "1/3"}, {"C": "1"}], "sign": 1}
    ),
    "duplicate-weights-not-summing-to-one": (
        ["duplicate", "0", '{"A": "1/2", "B": "1/3"}'], None
    ),
    "index-point-negative-weight": (
        ["index", "--point", '[{"A": "-1", "B": "2"}, {"C": "1"}]'], None
    ),
    "index-point-unknown-label": (["index", "--point", '[{"A": "1"}, {"z": "1"}]'], None),
    "target-point-unknown-label": (
        ["perturb"], {"component": 0, "point": [{"z": "1"}, {"C": "1"}], "sign": 1}
    ),
    "duplicate-unknown-label": (["duplicate", "0", '{"z": "1"}'], None),
    "duplicate-used-label": (["duplicate", "0", '{"A": "1"}', "--label", "B"], None),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PROFILE_INPUTS))
def test_malformed_profile_input_exits_2(case, matching_pennies, tmp_path, capsys):
    (command, *rest), target = MALFORMED_PROFILE_INPUTS[case]
    save_game(matching_pennies, str(tmp_path / "g.json"))
    argv = [command, str(tmp_path / "g.json")] + rest
    if target is not None:
        argv += [write_json(tmp_path / "targets.json", [target]),
                 "--params", write_json(tmp_path / "params.json", {"eps": "1/10"})]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: "), err


MALFORMED_TRIANGULATIONS = {
    "index-past-the-last-vertex": ("c 0 1 3", "names vertex 3"),
    "negative-index": ("c 0 1 -1", "names vertex -1"),
    "non-integer-index": ("c 0 1 x", "cell index 'x' is not an integer"),
    "vertices-of-two-dimensions": ("v 1 1 1\nc 0 1 2", "vertex 3 has 3 coordinates"),
}


@pytest.mark.parametrize("command", ["el-refine", "tilde"])
@pytest.mark.parametrize("case", sorted(MALFORMED_TRIANGULATIONS))
def test_malformed_triangulation_file_exits_2(command, case, tmp_path, capsys):
    argv = geometry_argv(command, tmp_path)
    records, message = MALFORMED_TRIANGULATIONS[case]
    with open(argv[-1], "w") as fh:
        fh.write(f"v 0 0\nv 1 0\nv 0 1\n{records}\n")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and message in err, err


def test_invalid_triangulation_file_exits_1(tmp_path, capsys):
    # well formed, but (1/2, 0) hangs on the other cell's edge
    path = tmp_path / "hanging.tri"
    path.write_text("v 0 0\nv 1 0\nv 0 1\nv 1 1\nv 1/2 0\nc 0 4 2\nc 4 1 2\nc 0 1 3\n")
    assert main(["el-refine", str(path)]) == 1
    assert capsys.readouterr().err.startswith("verification failure: ")


def wrong_shape_argv(case, tmp_path):
    """argv and the expected message of a `.tri` input of the wrong shape."""
    argv = geometry_argv("tilde", tmp_path)
    game, seg = argv[1], argv[2]
    if case == "tilde-one-triangulation-for-two-players":
        return argv[:-1], f"{game}: one triangulation per player required: 2 players, 1 given"
    if case == "tilde-triangle-for-two-strategies":
        triangle = tmp_path / "triangle.tri"
        triangle.write_text(Triangulation([(F(0), F(0)), (F(1), F(0)), (F(0), F(1))], [(0, 1, 2)]).serialize())
        return ["tilde", game, str(triangle), seg], (
            f"{game}: triangulation for player 0 does not cover the simplex of its 2 strategies"
        )
    square = tmp_path / "square.tri"
    square.write_text("v 0 0\nv 1 0\nv 0 1\nv 1 1\nc 0 1 3\nc 0 2 3\n")
    return ["el-refine", str(square)], (
        f"{square}: el-refine needs a triangulated simplex, "
        "but the cells cover a polytope of 4 vertices in dimension 2"
    )


@pytest.mark.parametrize(
    "case",
    ["tilde-one-triangulation-for-two-players", "tilde-triangle-for-two-strategies", "el-refine-square"],
)
def test_wrong_shape_triangulation_input_exits_2(case, tmp_path, capsys):
    argv, message = wrong_shape_argv(case, tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"


def test_flat_regular_lift_exits_1_naming_every_point(tmp_path, capsys):
    square = [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]
    path = write_json(tmp_path / "points.json", {"points": square, "heights": ["0", "1", "1", "2"]})
    assert main(["triangulate", "regular", "--points", path]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "verification failure: non-generic height: lifted points [0, 1, 2, 3] "
        "lie on a common lower hyperplane"
    ]


def test_params_file_unknown_key_exits_2(km_file, tmp_path, capsys):
    targets = write_json(tmp_path / "targets.json", [])
    # a misspelt key, and a key that PipelineParams no longer has
    for key, value in (("eps_0", "x"), ("alpha", "1/100")):
        params = write_json(tmp_path / "params.json", {"eps": "1/10", key: value})
        assert main(["perturb", km_file, targets, "--params", params]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and f"unknown params key(s) '{key}' (known: eps)" in err


@pytest.mark.parametrize("eps", ["0", "-1/10"])
def test_params_file_non_positive_eps_exits_2(eps, km_file, tmp_path, capsys):
    targets = write_json(tmp_path / "targets.json", [])
    params = write_json(tmp_path / "params.json", {"eps": eps})
    assert main(["perturb", km_file, targets, "--params", params]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.endswith("[params] eps must be positive\n"), err


def test_params_file_not_an_object_exits_2(km_file, tmp_path, capsys):
    targets = write_json(tmp_path / "targets.json", [])
    params = write_json(tmp_path / "params.json", ["eps", "1/10"])
    assert main(["perturb", km_file, targets, "--params", params]) == 2
    assert "usage error: " in capsys.readouterr().err
