"""Certification of two-player answers: one ``solver.certify`` step per answer.

``support_enumeration`` returns its candidates unchecked; ``certify(game,
es)`` checks each vertex profile of ``es`` with ``is_equilibrium`` on the
game the answer is about, and raises ``GameError``.  ``solve``,
``components``, ``index`` (through ``indices.reduced_equilibria``),
``perturb`` and ``verify-example`` all read certified sets: with ``certify``
rejecting everything each exits 1, a verification failure.  Counting the
``is_equilibrium`` calls that ``certify`` makes shows each returned vertex
profile certified exactly once, on the whole game, also for games that
lose strategies to dominance.
"""

import json
from collections import Counter
from fractions import Fraction

import pytest

import equilib.indices
import equilib.solver
from equilib.cli import main
from equilib.examples import km_game, km_perturbation_1, km_perturbation_2
from equilib.games import GameError, eliminate_strictly_dominated, is_equilibrium, save_game
from equilib.indices import reduced_equilibria
from equilib.solver import support_enumeration

F = Fraction
GAMES = {
    "km": km_game(),
    "km_perturbation_1": km_perturbation_1(F(1, 10)),
    "km_perturbation_2": km_perturbation_2(F(1, 10)),
}


def write_json(path, data):
    path.write_text(json.dumps(data) + "\n")
    return str(path)


def argv(command, tmp_path):
    path = tmp_path / "km.json"
    save_game(km_game(), str(path))
    if command == "perturb":
        targets = write_json(
            tmp_path / "targets.json",
            [{"component": 0, "point": [{"t": "1"}, {"L": "1"}], "sign": 1}],
        )
        params = write_json(tmp_path / "params.json", {"eps": "1/10"})
        return ["perturb", str(path), targets, "--params", params]
    if command == "verify-example":
        return ["verify-example", "km"]
    name, *options = command.split(" ")
    return [name, str(path), *options]


COMMANDS = ["solve", "components", "index", "index --component 0", "perturb", "verify-example"]


@pytest.mark.parametrize("command", COMMANDS)
def test_every_reader_exits_1_when_certify_rejects(command, tmp_path, monkeypatch, capsys):
    args = argv(command, tmp_path)
    assert main(args) == 0
    capsys.readouterr()

    def reject(game, es):
        raise GameError("certify rejects every answer")

    for module in (equilib.solver, equilib.indices):
        monkeypatch.setattr(module, "certify", reject)
    out = tmp_path / "r.json"
    assert main(args + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == "verification failure: certify rejects every answer\n"
    assert not out.exists()


@pytest.fixture
def certified(monkeypatch):
    """Every (game, profile) that ``certify`` hands to ``is_equilibrium``."""
    calls = []

    def recording(game, profile):
        calls.append((game, profile))
        return is_equilibrium(game, profile)

    monkeypatch.setattr(equilib.solver, "is_equilibrium", recording)
    return calls


@pytest.mark.parametrize("name", GAMES)
def test_each_vertex_profile_is_certified_once_on_the_whole_game(name, certified):
    game = GAMES[name]
    # km keeps every strategy; its perturbations lose m, M and R
    assert bool(eliminate_strictly_dominated(game)[1]) == (name != "km")
    es = reduced_equilibria(game)
    assert es.game is game
    assert certified and all(g is game for g, _ in certified)
    profiles = Counter(p for _, p in certified)
    assert profiles == Counter(es.all_vertex_profiles())
    assert set(profiles.values()) == {1}
    # the whole game's own enumeration has the same vertex profiles
    certified.clear()
    whole = support_enumeration(game)
    assert certified == []  # the enumerator certifies nothing itself
    assert sorted(map(str, whole.all_vertex_profiles())) == sorted(map(str, profiles))


@pytest.mark.parametrize("command", ["solve", "components", "index", "index --component 0"])
def test_each_cli_answer_is_certified_once_on_the_whole_game(command, tmp_path, certified, capsys):
    name, *options = command.split(" ")
    path = tmp_path / "g.json"
    for game in GAMES.values():
        save_game(game, str(path))
        certified.clear()
        assert main([name, str(path), *options]) == 0
        capsys.readouterr()
        assert {g.strategies for g, _ in certified} == {game.strategies}
        profiles = Counter(p for _, p in certified)
        want = support_enumeration(game).all_vertex_profiles()
        assert profiles == Counter(want), command
