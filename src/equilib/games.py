"""Finite games with exact rational payoffs.

The central object is :class:`FiniteGame` (normal form, payoff tensor over
pure profiles).  All evaluation is exact; best replies and
dominance witnesses are decided by integer comparison, and a mixture that
strictly dominates a strategy no pure one does is found by exact LP.

Payoffs, deviations, best replies and equilibrium checks all read one
kernel, :func:`payoff_vector`'s: each pure strategy's payoff against the
others' mixtures, in one pass over their support product, on the game's
integer payoff tables (:attr:`FiniteGame.integer_payoffs`) with integer
weight numerators, so best replies are compared as integers.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

from .linalg import ZERO, linprog
from .rational import RationalParseError, format_rational, parse_rational

Label = str


class GameError(ValueError):
    """Structured error for malformed games/profiles (message names the culprit).

    The root of every equilib verification error; the CLI exits 1 on it.
    """


@dataclass(frozen=True)
class MixedStrategy:
    """Probability distribution over pure-strategy labels.

    Weights are Fractions, nonnegative, summing to exactly 1.  The value is the
    weight tuple as it stands (equality, hashing); :meth:`of` and :meth:`_from_integers`
    build the normal form, labels sorted and no zero weights.
    """

    weights: tuple[tuple[Label, Fraction], ...]

    @staticmethod
    def of(weights: Mapping[Label, Fraction | int | str]) -> "MixedStrategy":
        items = []
        total = ZERO
        for label, w in weights.items():
            w = parse_rational(w)
            if w < 0:
                raise GameError(f"negative weight {w} on strategy {label!r}")
            if w > 0:
                items.append((label, w))
            total += w
        if total != 1:
            raise GameError(f"weights sum to {total}, expected 1")
        return MixedStrategy(tuple(sorted(items)))

    @staticmethod
    def _from_integers(nums: Iterable[tuple[Label, int]], den: int) -> "MixedStrategy":
        """Weight ``k/den`` on each ``(label, k)``, kept as :attr:`integer_weights`, not recomputed.

        Internal, for callers that hold the integer form: the ``k`` must be
        positive, sum to ``den`` and have no common factor (this is not checked).
        """
        nums = tuple(sorted(nums))
        sigma = MixedStrategy(tuple([(s, Fraction(k, den)) for s, k in nums]))
        sigma.__dict__["integer_weights"] = nums, den
        return sigma

    @staticmethod
    def pure(label: Label) -> "MixedStrategy":
        return MixedStrategy._from_integers(((label, 1),), 1)

    def as_dict(self) -> dict[Label, Fraction]:
        return dict(self.weights)

    def weight(self, label: Label) -> Fraction:
        return next((w for s, w in self.weights if s == label), ZERO)

    @cached_property
    def integer_weights(self) -> tuple[tuple[tuple[Label, int], ...], int]:
        """The nonzero weights as integer numerators over their least common denominator."""
        den = math.lcm(*[w.denominator for _, w in self.weights])
        return tuple([(s, w.numerator * (den // w.denominator)) for s, w in self.weights if w]), den

    def support(self) -> tuple[Label, ...]:
        return tuple(label for label, w in self.weights if w)

    def as_vector(self, labels: Sequence[Label]) -> list[Fraction]:
        d = self.as_dict()
        missing = set(d) - set(labels)
        if missing:
            raise GameError(f"strategy labels {sorted(missing)} not in {list(labels)}")
        return [d.get(label, ZERO) for label in labels]

    def is_pure(self) -> bool:
        return len(self.weights) == 1

    def __str__(self) -> str:
        return " + ".join(f"{format_rational(w)}*{s}" for s, w in self.weights)


Profile = tuple[MixedStrategy, ...]


def format_profile(profile: Profile) -> str:
    """Render a profile as its strategies' texts joined by ``" ; "``."""
    return " ; ".join(map(str, profile))


def profile_of(*strategies: MixedStrategy | Mapping | Label) -> Profile:
    out = []
    for s in strategies:
        if isinstance(s, MixedStrategy):
            out.append(s)
        elif isinstance(s, str):
            out.append(MixedStrategy.pure(s))
        else:
            out.append(MixedStrategy.of(s))
    return tuple(out)


@dataclass(frozen=True)
class FiniteGame:
    """Normal-form game: player labels, per-player strategy labels, payoff tensor."""

    players: tuple[Label, ...]
    strategies: tuple[tuple[Label, ...], ...]
    payoffs: Mapping[tuple[Label, ...], tuple[Fraction, ...]] = field(hash=False)

    def __post_init__(self):
        if len(self.players) != len(self.strategies):
            raise GameError("player count does not match strategy lists")
        for player, labels in zip(self.players, self.strategies):
            if not labels:
                raise GameError(f"player {player!r} has no strategies")
            if len(set(labels)) < len(labels):
                raise GameError(f"player {player!r} repeats a strategy label in {list(labels)}")
        for profile in itertools.product(*self.strategies):
            entry = self.payoffs.get(profile)
            if entry is None:
                raise GameError(f"payoff tensor missing entry for pure profile {profile}")
            if len(entry) != len(self.players):
                raise GameError(f"payoff entry for {profile} has wrong arity")

    @staticmethod
    def of(
        players: Sequence[Label],
        strategies: Sequence[Sequence[Label]],
        payoffs: Mapping[tuple, Sequence],
    ) -> "FiniteGame":
        """The game with payoffs read by :func:`parse_rational`: floats and bools are refused."""
        tensor = {tuple(k): tuple(map(parse_rational, v)) for k, v in payoffs.items()}
        return FiniteGame(tuple(players), tuple(map(tuple, strategies)), tensor)

    @property
    def num_players(self) -> int:
        return len(self.players)

    def pure_profiles(self) -> Iterable[tuple[Label, ...]]:
        return itertools.product(*self.strategies)

    @cached_property
    def offsets(self) -> tuple[dict[Label, int], ...]:
        """Per player, each strategy's offset in the flat :attr:`integer_payoffs` tables.

        Pure profile ``pure`` sits at ``sum(offsets[n][s] for n, s in
        enumerate(pure))``, its position in ``pure_profiles()``.
        """
        stride, out = 1, []
        for labels in reversed(self.strategies):
            out.append({s: i * stride for i, s in enumerate(labels)})
            stride *= len(labels)
        return tuple(reversed(out))

    @cached_property
    def integer_payoffs(self) -> tuple[tuple[list[int], int], ...]:
        """Per player, (table, scale): the payoffs as integers over one positive scale.

        The table lists the player's payoff at each pure profile, in
        ``pure_profiles()`` order, times the scale, the lcm of that
        player's payoff denominators.
        """
        out = []
        for column in zip(*map(self.payoffs.__getitem__, self.pure_profiles())):
            dens = [x.denominator for x in column]
            scale = math.lcm(*dens)
            out.append(([x.numerator * (scale // d) for x, d in zip(column, dens)], scale))
        return tuple(out)

    def check_profile(self, profile: Profile) -> None:
        if len(profile) != self.num_players:
            raise GameError(
                f"profile has {len(profile)} strategies for {self.num_players} players"
            )
        for n, (sigma, pos) in enumerate(zip(profile, self.offsets)):
            extra = [s for s, w in sigma.weights if s not in pos and w]
            if extra:
                raise GameError(
                    f"player {self.players[n]!r}: unknown strategies {sorted(extra)}"
                )

    @cached_property
    def _reduction(self) -> tuple[Optional["FiniteGame"], tuple["Elimination", ...]]:
        """:func:`eliminate_strictly_dominated`'s answer, once per game (None: not reduced)."""
        return _iterated_elimination(self)

    def restrict(self, keep: Sequence[Sequence[Label]]) -> "FiniteGame":
        """Subgame on the given strategy subsets (order taken from the game)."""
        kept = tuple(
            tuple(s for s in self.strategies[n] if s in set(keep[n]))
            for n in range(self.num_players)
        )
        tensor = {
            p: self.payoffs[p] for p in itertools.product(*kept)
        }
        return FiniteGame(self.players, kept, tensor)


def _weights(game: FiniteGame, profile: Profile, skip: Optional[int] = None) -> list:
    """Per player, its :attr:`MixedStrategy.integer_weights` by offset; player `skip` gets None."""
    return [
        None if m == skip
        else ([(pos[s], k) for s, k in sigma.integer_weights[0]], sigma.integer_weights[1])
        for m, (sigma, pos) in enumerate(zip(profile, game.offsets))
    ]


def _payoff_sums(
    game: FiniteGame, weights: list, player: int, own: Iterable[int]
) -> tuple[dict[int, int], int]:
    """Integer payoffs of `player`'s strategies at offsets `own`, by offset, and their denominator.

    The strategy at offset ``i`` earns ``sums[i] / den`` against the others'
    :func:`_weights`, summed in one pass over their support product;
    ``den > 0`` is shared, so the sums compare as the payoffs do.
    """
    table, den = game.integer_payoffs[player]
    terms = [(0, 1)]  # (offset, integer weight) per pure profile of the others
    for m, entry in enumerate(weights):
        if m != player:
            nums, d = entry
            terms = [(o + p, w * k) for o, w in terms for p, k in nums]
            den *= d
    sums = {}
    for i in own:
        sums[i] = sum([w * table[o + i] for o, w in terms])
    return sums, den


def payoff_vector(game: FiniteGame, profile: Profile, player: int) -> tuple[Fraction, ...]:
    """Payoff of each of `player`'s pure strategies, in game order, against `profile`.

    The other players play their mixtures in `profile`; `player`'s own
    entry is checked but not read.
    """
    game.check_profile(profile)
    weights = _weights(game, profile, player)
    sums, den = _payoff_sums(game, weights, player, game.offsets[player].values())
    return tuple(Fraction(v, den) for v in sums.values())


def payoff(game: FiniteGame, profile: Profile, player: int) -> Fraction:
    """Multilinear expected payoff of `player` under a mixed profile."""
    game.check_profile(profile)
    weights = _weights(game, profile)
    nums, d = weights[player]
    sums, den = _payoff_sums(game, weights, player, [o for o, _ in nums])
    return Fraction(sum(k * sums[o] for o, k in nums), den * d)


def payoff_all(game: FiniteGame, profile: Profile) -> tuple[Fraction, ...]:
    return tuple(payoff(game, profile, n) for n in range(game.num_players))


def payoff_against(
    game: FiniteGame, profile: Profile, player: int, strategy: MixedStrategy | Label
) -> Fraction:
    """Payoff to `player` when deviating to `strategy`, others as in `profile`."""
    if isinstance(strategy, str):
        strategy = MixedStrategy.pure(strategy)
    deviated = tuple(
        strategy if n == player else sigma for n, sigma in enumerate(profile)
    )
    return payoff(game, deviated, player)


def best_replies(game: FiniteGame, profile: Profile, player: int) -> set[Label]:
    """Pure strategies attaining the exact maximum payoff against `profile`."""
    game.check_profile(profile)
    pos = game.offsets[player]
    sums, _ = _payoff_sums(game, _weights(game, profile, player), player, pos.values())
    best = max(sums.values())
    return {s for s, o in pos.items() if sums[o] == best}


def is_equilibrium(game: FiniteGame, profile: Profile) -> bool:
    """True iff every player's support consists of best replies.

    The weights are read once; per player, one pass of :func:`_payoff_sums`
    gives every pure strategy's payoff, and the supported ones must reach the maximum.
    """
    game.check_profile(profile)
    weights = _weights(game, profile)
    for n, (nums, _) in enumerate(weights):
        sums, _ = _payoff_sums(game, weights, n, game.offsets[n].values())
        best = max(sums.values())
        for o, _ in nums:
            if sums[o] != best:
                return False
    return True


@dataclass(frozen=True)
class Elimination:
    player: int
    strategy: Label
    witness: MixedStrategy  # mixture over remaining strategies that strictly dominates


def _opponent_offsets(live: Sequence[Mapping[Label, int]], player: int) -> list[int]:
    """Offset of each pure profile of the others in `player`'s flat payoff table.

    ``live`` holds each player's strategies in play by offset (``game.offsets``
    for all); `player`'s own strategy s is left out and adds ``live[player][s]``.
    """
    others = (pos.values() for m, pos in enumerate(live) if m != player)
    return [sum(o) for o in itertools.product(*others)]


def _pure_best_replies(game: FiniteGame, live: list[dict[Label, int]], player: int) -> set[Label]:
    """`player`'s strategies in play that best reply to some pure profile of the others in play."""
    table = game.integer_payoffs[player][0]
    own = live[player]
    out: set[Label] = set()
    for base in _opponent_offsets(live, player):
        sums = {s: table[base + o] for s, o in own.items()}
        best = max(sums.values())
        out.update(s for s, v in sums.items() if v == best)
    return out


def strictly_dominates(
    game: FiniteGame, player: int, witness: MixedStrategy, strategy: Label,
    live: Optional[Sequence[Mapping[Label, int]]] = None,
) -> bool:
    """Whether `witness` earns strictly more than `strategy` against every pure profile of the others.

    Exact, on the integer payoff tables of :func:`payoff_vector`'s kernel, among the
    strategies in ``live`` (:func:`_opponent_offsets`; default all); False when either
    names a strategy `player` does not have in play.
    """
    live = live or game.offsets
    own = live[player]
    nums, den = witness.integer_weights
    if strategy not in own or not all(s in own for s, _ in nums):
        return False
    table = game.integer_payoffs[player][0]
    return all(
        sum(k * table[base + own[s]] for s, k in nums) > den * table[base + own[strategy]]
        for base in _opponent_offsets(live, player)
    )


def _dominating_mixture(
    game: FiniteGame, live: list[dict[Label, int]], player: int, strategy: Label
) -> Optional[MixedStrategy]:
    """Mixture over the player's other strategies in play strictly dominating `strategy`.

    The first other pure strategy that dominates it is the witness; only
    when none does, an exact LP maximizes the worst-case margin, and a
    strictly positive optimum yields a witness mixture.
    """
    own = live[player]
    others = [s for s in own if s != strategy]
    for r in others:
        if strictly_dominates(game, player, pure := MixedStrategy.pure(r), strategy, live):
            return pure
    if not others:
        return None
    table, scale = game.integer_payoffs[player]
    bases = _opponent_offsets(live, player)
    # Variables: y_r (r in others), delta.  Maximize delta subject to sum_r y_r = 1 and
    # sum_r y_r u(r, p) - delta >= u(strategy, p) for all opponent profiles p, each row
    # times the player's scale (the integer table's rows), which leaves the simplex's
    # pivots and solution as on the payoffs.  Bound delta so the LP stays bounded:
    # twice the largest payoff in play, plus one.
    profiles = [sum(o) for o in itertools.product(*(pos.values() for pos in live))]
    top = max(Fraction(max(abs(t[o]) for o in profiles), s) for t, s in game.integer_payoffs)
    zeros = [0] * len(others)
    A_ub = [[-table[b + own[r]] for r in others] + [scale] for b in bases] + [zeros + [scale]]
    b_ub = [-table[b + own[strategy]] for b in bases] + [(top * 2 + 1) * scale]
    res = linprog(zeros + [1], A_ub, b_ub, [[scale] * len(others) + [0]], [scale], maximize=True)
    if res.status != "optimal" or res.value is None or res.value <= 0:
        return None
    y = res.x[: len(others)]
    return MixedStrategy.of({r: w for r, w in zip(others, y) if w > 0})


def _iterated_elimination(game: FiniteGame) -> tuple[Optional[FiniteGame], tuple[Elimination, ...]]:
    """The reduced game (None if nothing goes) and the trace; restricts the game once, at the end."""
    live = [dict(pos) for pos in game.offsets]
    trace: list[Elimination] = []
    changed = True
    while changed:
        changed = False
        for player in range(game.num_players):
            # a best reply to a pure profile of the others is never strictly dominated
            replies = _pure_best_replies(game, live, player)
            for s in live[player]:
                witness = None if s in replies else _dominating_mixture(game, live, player, s)
                if witness is not None:
                    trace.append(Elimination(player, s, witness))
                    del live[player][s]
                    changed = True
                    break
            if changed:
                break
    return game.restrict(live) if trace else None, tuple(trace)


def eliminate_strictly_dominated(
    game: FiniteGame,
) -> tuple[FiniteGame, list[Elimination]]:
    """Iterated elimination of strictly dominated strategies (mixed dominators).

    Returns the reduced game and the trace of removals, each carrying the
    dominating mixture as a witness.  Each round scans the players in
    order and their strategies in game order, and removes the first one a
    mixture strictly dominates.  A strategy that is a best reply to some
    pure profile of the others (read on the integer payoff tables) cannot
    be, and a pure dominator found there is the witness if there is one,
    so only the rest cost an exact LP.  Every test reads the game's own
    integer tables.  The reduction is computed once per game object; later
    calls return the same reduced game.
    """
    reduced, trace = game._reduction
    return reduced or game, list(trace)


# --------------------------------------------------------------------------
# Game file format (JSON)
# --------------------------------------------------------------------------


def _payoff_tree(game: FiniteGame, prefix: tuple[Label, ...]) -> list:
    if len(prefix) == game.num_players:
        return [format_rational(v) for v in game.payoffs[prefix]]
    return [_payoff_tree(game, prefix + (s,)) for s in game.strategies[len(prefix)]]


def game_to_json(game: FiniteGame) -> dict:
    return {
        "players": list(game.players),
        "strategies": [list(s) for s in game.strategies],
        "payoffs": _payoff_tree(game, ()),
    }


class _Literals(dict):
    """The payoff strings of one file, each parsed once."""

    def __missing__(self, text: str) -> Fraction:
        self[text] = value = parse_rational(text)
        return value


def _where(prefix: tuple[Label, ...]) -> str:
    return "payoffs" + "".join(f"[{s}]" for s in prefix)


def _read_payoff_tree(raw, strategies, num_players) -> dict:
    """The payoff entries of the nested payoff arrays ``raw``, by pure profile."""
    level = [((), raw)]
    for labels in strategies:
        for prefix, node in level:
            if not isinstance(node, list) or len(node) != len(labels):
                raise GameError(f"payoff array at {_where(prefix)} must have {len(labels)} entries")
        level = [(prefix + (s,), child) for prefix, node in level for s, child in zip(labels, node)]
    payoffs, literals = {}, _Literals()
    for prefix, node in level:
        if not isinstance(node, list) or len(node) != num_players:
            raise GameError(f"payoff entry at {_where(prefix)} must list one rational per player")
        try:
            payoffs[prefix] = tuple(
                [literals[v] if isinstance(v, str) else parse_rational(v) for v in node]
            )
        except RationalParseError as exc:
            raise GameError(f"payoff entry at {_where(prefix)}: {exc}") from exc
    return payoffs


def game_from_json(data: dict) -> FiniteGame:
    try:
        players = [str(p) for p in data["players"]]
        strategies = [[str(s) for s in strats] for strats in data["strategies"]]
        raw = data["payoffs"]
    except (KeyError, TypeError) as exc:
        raise GameError(f"malformed game file: missing/invalid section ({exc})") from exc
    payoffs = _read_payoff_tree(raw, strategies, len(players))
    return FiniteGame(tuple(players), tuple(map(tuple, strategies)), payoffs)


def load_game(path: str) -> FiniteGame:
    """The game in the JSON file `path`; every :class:`GameError` it raises names the path.

    The bytes must be UTF-8 text holding valid JSON that
    :func:`game_from_json` reads; a file that cannot be opened raises ``OSError``.
    """
    with open(path, "rb") as fh:  # one read and one decode, faster than a text file reads
        text = fh.read()
    try:
        data = json.loads(text.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise GameError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise GameError(f"{path}: invalid JSON at line {exc.lineno} col {exc.colno}") from exc
    try:
        return game_from_json(data)
    except GameError as exc:
        raise GameError(f"{path}: {exc}") from exc


def _json_parts(value, parts: list[str], indent: str = "") -> None:
    """Append the text of ``json.dumps(value, indent=2)`` to ``parts``.

    Containers are laid out here and every key and scalar is encoded by
    ``json.dumps`` (the C encoder).  ``json.dump(..., indent=2)`` would run
    the pure-Python encoder instead, whose nested closures are left in a
    reference cycle on every call.
    """
    if isinstance(value, dict) and value:
        inner = indent + "  "
        sep = "{\n"
        for k, v in value.items():
            if not isinstance(k, str):
                if not (k is None or isinstance(k, (int, float))):
                    raise TypeError(f"key {k!r} is not a str, int, float, bool or None")
                k = json.dumps(k)
            parts += (sep, inner, json.dumps(k), ": ")
            _json_parts(v, parts, inner)
            sep = ",\n"
        parts += ("\n", indent, "}")
    elif isinstance(value, (list, tuple)) and value:
        inner = indent + "  "
        sep = "[\n"
        for v in value:
            parts += (sep, inner)
            _json_parts(v, parts, inner)
            sep = ",\n"
        parts += ("\n", indent, "]")
    else:
        parts.append(json.dumps(value))


def write_json(path: str, value) -> None:
    """Write ``value`` to ``path`` as ``json.dump(value, fh, indent=2)`` would, plus a newline."""
    parts: list[str] = []
    _json_parts(value, parts)
    parts.append("\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(parts))


def save_game(game: FiniteGame, path: str) -> None:
    write_json(path, game_to_json(game))
