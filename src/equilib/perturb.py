"""Payoff-perturbation constructions and the end-to-end pipeline.

The bonus machinery rewards, at a given profile, the vertices that a reply
field designates: the first-coordinate bonus lifts designated vertices to
the payoff envelope plus a margin, the second-coordinate bonus tracks the
next player's barycentric position.  ``run_pipeline`` composes duplication,
a small frame overlay, and elimination bonuses to realize a prescribed set
of projected equilibria with prescribed index signs, then verifies the
result with the solver and the index module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Mapping, Optional, Sequence

from .equivalence import (
    AffineSurjection,
    TildeGame,
    duplicate_strategy,
    identity_surjection,
    project_profile,
)
from .games import (
    FiniteGame,
    GameError,
    Label,
    MixedStrategy,
    PolytopeGame,
    Profile,
    best_replies,
    eliminate_strictly_dominated,
    format_profile,
    is_equilibrium,
    payoff_vector,
)
from .indices import game_index_report, reduced_equilibria, verify_realization
from .linalg import ONE, ZERO, frac_vec, linf_distance, vec_add, vec_scale

if TYPE_CHECKING:
    from .geometry import PLFunction, Simplex


class PerturbError(GameError):
    """A pipeline or construction stage failed its certified precondition."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


# --------------------------------------------------------------------------
# Parameter and target containers
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineParams:
    eps: Fraction

    def __post_init__(self):
        if Fraction(self.eps) <= 0:
            raise PerturbError("params", "eps must be positive")


@dataclass(frozen=True)
class TargetPoint:
    component: int
    profile: Profile
    sign: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise PerturbError("target", "sign must be +1 or -1")


@dataclass(frozen=True)
class TargetSpec:
    points: tuple[TargetPoint, ...]

    def validate(self, game: FiniteGame, component_indices: Mapping[int, int]) -> None:
        by_component: dict[int, list[TargetPoint]] = {}
        for tp in self.points:
            by_component.setdefault(tp.component, []).append(tp)
        for cid, pts in by_component.items():
            if cid not in component_indices:
                raise PerturbError("target", f"unknown component id {cid}")
            total = sum(p.sign for p in pts)
            if total != component_indices[cid]:
                raise PerturbError(
                    "target",
                    f"component {cid}: signs sum to {total}, "
                    f"but its index is {component_indices[cid]}",
                )
            if len({p.profile for p in pts}) != len(pts):
                raise PerturbError("target", "target points must be distinct")
            for p in pts:
                if not is_equilibrium(game, p.profile):
                    raise PerturbError(
                        "target",
                        f"target point {format_profile(p.profile)} is not an equilibrium",
                    )


# --------------------------------------------------------------------------
# Bonus vectors and the oplus operator
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BonusVector:
    """Per-player nonnegative bonuses on one strategy factor (0 or 1)."""

    factor: int
    values: tuple[Mapping[Label, Fraction], ...]

    def __post_init__(self):
        if self.factor not in (0, 1):
            raise PerturbError("bonus", "factor must be 0 or 1")
        for m in self.values:
            for s, v in m.items():
                if v < 0:
                    raise PerturbError("bonus", f"negative bonus on {s!r}")

    def norm(self) -> Fraction:
        out = ZERO
        for m in self.values:
            for v in m.values():
                out = max(out, abs(v))
        return out


def zero_bonus(num_players: int, factor: int) -> BonusVector:
    return BonusVector(factor, tuple({} for _ in range(num_players)))


def oplus(game: PolytopeGame, g0: BonusVector, g1: BonusVector) -> PolytopeGame:
    """Add linear first/second-factor bonuses to a pair-strategy game."""
    N = len(game.players)
    if len(g0.values) != N or len(g1.values) != N:
        raise PerturbError("oplus", "one bonus mapping per player required")
    if g0.factor != 0 or g1.factor != 1:
        raise PerturbError("oplus", "g0 must target factor 0 and g1 factor 1")
    payoffs = {}
    for prof, entry in game.payoffs.items():
        new = list(entry)
        for n in range(N):
            a, b = prof[n].split("&", 1)
            new[n] = new[n] + g0.values[n].get(a, ZERO) + g1.values[n].get(b, ZERO)
        payoffs[prof] = tuple(new)
    return PolytopeGame(game.players, game.vertex_labels, game.vertex_points, payoffs)


# --------------------------------------------------------------------------
# Payoff envelopes
# --------------------------------------------------------------------------


def _profile_from_vectors(game: FiniteGame, vectors: Sequence[Sequence[Fraction]]) -> Profile:
    return tuple(
        MixedStrategy.of(
            {s: Fraction(w) for s, w in zip(game.strategies[n], vectors[n]) if w != 0}
        )
        for n in range(game.num_players)
    )


def best_reply_value(game: FiniteGame, profile: Profile, player: int) -> Fraction:
    return max(payoff_vector(game, profile, player))


def envelope_r(
    game: FiniteGame,
    regions: Sequence[Sequence[Simplex]],
    margins: Sequence[Fraction],
) -> list[Callable[[Profile], Fraction]]:
    """Per-player payoff envelopes: r_n >= the best-reply value everywhere.

    Inside region k (a product of per-player simplices in strategy-weight
    coordinates) the envelope is the constant max of best-reply values over
    the region's vertices; within the margin shell it blends toward the
    pointwise value; outside it equals the pointwise best-reply value.
    """
    from .geometry import _simplices_intersect

    if len(regions) != len(margins):
        raise PerturbError("envelope", "one margin per region required")
    for k, l in itertools.combinations(range(len(regions)), 2):
        if all(
            _simplices_intersect(regions[k][n], regions[l][n])
            for n in range(game.num_players)
        ):
            raise PerturbError("envelope", f"regions {k} and {l} overlap")
    consts: list[list[Fraction]] = []
    for region in regions:
        per_player = []
        for n in range(game.num_players):
            vals = []
            for corner in itertools.product(*(s.vertices for s in region)):
                prof = _profile_from_vectors(game, corner)
                vals.append(best_reply_value(game, prof, n))
            per_player.append(max(vals))
        consts.append(per_player)

    def region_distance(region: Sequence[Simplex], profile: Profile) -> Fraction:
        """Max over players of the ell-infinity distance to the region factor."""
        return max(
            linf_distance(profile[n].as_vector(game.strategies[n]), simplex.vertices)
            for n, simplex in enumerate(region)
        )

    def make(n: int) -> Callable[[Profile], Fraction]:
        def r_n(profile: Profile) -> Fraction:
            pointwise = best_reply_value(game, profile, n)
            value = pointwise
            for k, region in enumerate(regions):
                dist = region_distance(region, profile)
                margin = Fraction(margins[k])
                if dist == 0:
                    value = max(value, consts[k][n])
                elif dist < margin:
                    mu = (margin - dist) / margin
                    value = max(value, (ONE - mu) * pointwise + mu * consts[k][n])
            return value

        return r_n

    return [make(n) for n in range(game.num_players)]


# --------------------------------------------------------------------------
# Reply fields
# --------------------------------------------------------------------------

TildeProfile = tuple[tuple[MixedStrategy, MixedStrategy], ...]


@dataclass(frozen=True)
class MarkedRegion:
    """A product region around one target: per player, matched simplices and a fixer."""

    domain: tuple[Simplex, ...]  # X_n, in strategy-weight coordinates
    fixers: tuple  # AffineFixer per player, X_n -> Y_n fixing the target

    def contains_projection(self, game: FiniteGame, sigma: Sequence[MixedStrategy]) -> bool:
        return all(
            self.domain[n].contains(
                sigma[n].as_vector(list(game.strategies[n]))
            )
            for n in range(len(self.domain))
        )

    def strictly_contains_projection(
        self, game: FiniteGame, sigma: Sequence[MixedStrategy]
    ) -> bool:
        return all(
            self.domain[n].strictly_contains(
                sigma[n].as_vector(list(game.strategies[n]))
            )
            for n in range(len(self.domain))
        )


# outside every marked region the reply field moves this share of the way
# from the player's projection to its lexicographically first best reply
_BLEND = Fraction(9, 10)


class ReplyField:
    """Evaluable stand-in for a globally constructed reply map.

    Inside a marked region the value is the product of the region's affine
    fixers; outside, it blends the player's projection toward the
    lexicographically first best reply (:data:`_BLEND`).  Every evaluation
    is certified as an eps-best reply; failures raise.
    """

    def __init__(self, tg: TildeGame, eps: Fraction, marked: Sequence[MarkedRegion] = ()):
        self.tg = tg
        self.eps = Fraction(eps)
        self.marked = tuple(marked)

    def _beta(self, player: int, point: Sequence[Fraction]) -> MixedStrategy:
        """Barycentric coordinates of a strategy-space point, as S0 labels."""
        tri = self.tg.triangulations[player]
        coords = tri.barycentric_coords(point)
        return MixedStrategy.of(
            {self.tg.first_labels[player][i]: w for i, w in coords.items() if w > 0}
        )

    def projections(self, profile: TildeProfile) -> list[MixedStrategy]:
        return [
            self.tg.phi0[n].apply(profile[n][0]) for n in range(len(profile))
        ]

    def value(self, profile: TildeProfile) -> tuple[tuple[MixedStrategy, MixedStrategy], ...]:
        base = self.tg.base
        sigma = self.projections(profile)
        region = next(
            (m for m in self.marked if m.contains_projection(base, sigma)), None
        )
        points: list[list[Fraction]] = []
        for n in range(base.num_players):
            x = frac_vec(sigma[n].as_vector(list(base.strategies[n])))
            if region is not None:
                points.append(region.fixers[n].apply(x))
            else:
                br = _lex_first_best_reply(base, tuple(sigma), n)
                e = frac_vec(
                    MixedStrategy.pure(br).as_vector(list(base.strategies[n]))
                )
                points.append(vec_add(vec_scale(ONE - _BLEND, x), vec_scale(_BLEND, e)))
        self._certify(sigma, points)
        out = []
        for n in range(base.num_players):
            f0 = self._beta(n, points[n])
            nxt = (n + 1) % base.num_players
            if region is not None:
                # inside the marked region the fixer product also supplies
                # the tracking coordinate
                f1 = self._beta(nxt, points[nxt])
            else:
                # outside, the second factor mirrors the next player's
                # actual position
                f1 = self._beta(
                    nxt, sigma[nxt].as_vector(list(base.strategies[nxt]))
                )
            out.append((f0, f1))
        return tuple(out)

    def _certify(
        self, sigma: Sequence[MixedStrategy], points: Sequence[Sequence[Fraction]]
    ) -> None:
        base = self.tg.base
        prof = tuple(sigma)
        for n in range(base.num_players):
            reply = MixedStrategy.of(
                {s: w for s, w in zip(base.strategies[n], points[n]) if w != 0}
            )
            pays = dict(zip(base.strategies[n], payoff_vector(base, prof, n)))
            got = sum((w * pays[s] for s, w in reply.weights), ZERO)
            best = max(pays.values())
            if got <= best - self.eps:
                raise PerturbError(
                    "replyfield",
                    f"value for player {n} falls short of an eps-best reply "
                    f"({got} vs {best}, eps={self.eps})",
                )


def _lex_first_best_reply(game: FiniteGame, profile: Profile, player: int) -> Label:
    replies = best_replies(game, profile, player)
    return next(s for s in game.strategies[player] if s in replies)


# --------------------------------------------------------------------------
# Bonuses g0 and g1
# --------------------------------------------------------------------------


def bonus_g1(tg: TildeGame, eps0: Fraction, profile: TildeProfile) -> BonusVector:
    """Second-factor bonus: eps0 times the next player's barycentric position."""
    eps0 = Fraction(eps0)
    if eps0 <= 0:
        raise PerturbError("bonus", "eps0 must be positive")
    N = len(tg.first_labels)
    values = []
    for n in range(N):
        nxt = (n + 1) % N
        point = tg.phi0[nxt].apply(profile[nxt][0]).as_vector(
            list(tg.base.strategies[nxt])
        )
        coords = tg.triangulations[nxt].barycentric_coords(point)
        values.append(
            {
                tg.first_labels[nxt][i]: eps0 * w
                for i, w in coords.items()
                if w > 0
            }
        )
    return BonusVector(1, tuple(values))


def bonus_g0(
    tg: TildeGame,
    rf: ReplyField,
    r_fns: Sequence[Callable[[Profile], Fraction]],
    eps0: Fraction,
    profile: TildeProfile,
) -> BonusVector:
    """First-factor bonus combining the envelope lift and the reply-field reward.

    Entry for strategy s of player n: star-bump of s at the reply point,
    times the envelope-to-payoff gap, plus eps0 times the reply field's
    coordinate on s.  Certifies the size bound
    ``norm(g0) + norm(g1) < eps`` at the queried profile.
    """
    eps0 = Fraction(eps0)
    base = tg.base
    fvals = rf.value(profile)
    sigma = rf.projections(profile)
    values = []
    for n in range(base.num_players):
        tri = tg.triangulations[n]
        reply_point = tg.phi0[n].apply(fvals[n][0]).as_vector(
            list(base.strategies[n])
        )
        r_val = r_fns[n](tuple(sigma))
        pays = dict(zip(base.strategies[n], payoff_vector(base, tuple(sigma), n)))
        out: dict[Label, Fraction] = {}
        for i, lab in enumerate(tg.first_labels[n]):
            bump = tri.star_bump(i, reply_point)
            mixture = tg.vertex_mixtures[n][lab]
            gap = r_val - sum((w * pays[s] for s, w in mixture.weights), ZERO)
            if gap < 0:
                raise PerturbError(
                    "bonus", f"envelope below payoff at {lab!r} (gap {gap})"
                )
            val = bump * gap + eps0 * fvals[n][0].weight(lab)
            if val != 0:
                out[lab] = val
        values.append(out)
    g0 = BonusVector(0, tuple(values))
    g1 = bonus_g1(tg, eps0, profile)
    if g0.norm() + g1.norm() >= rf.eps:
        offender = max(
            (
                (v, s)
                for m in g0.values + g1.values
                for s, v in m.items()
            ),
        )
        raise PerturbError(
            "bonus",
            f"size bound violated at {offender[1]!r}: "
            f"{g0.norm()} + {g1.norm()} >= eps {rf.eps} (shrink eps0)",
        )
    return g0


# --------------------------------------------------------------------------
# Best replies and equilibrium tests in an oplus game
# --------------------------------------------------------------------------


def oplus_best_replies(
    tg: TildeGame,
    g0: BonusVector,
    g1: BonusVector,
    profile: TildeProfile,
    player: int,
) -> tuple[set[Label], set[Label], Fraction]:
    """Per-factor best replies of the bonused game, and the improvement margin.

    Payoffs separate across factors: the base payoff depends only on first
    coordinates, so the second factor is judged on its bonus alone.  Returns
    (first-factor argmax, second-factor argmax, improvement available to the
    player over the current pair).
    """
    base = tg.base
    sigma = [tg.phi0[n].apply(profile[n][0]) for n in range(base.num_players)]
    pays = dict(zip(base.strategies[player], payoff_vector(base, tuple(sigma), player)))
    first_vals = {
        lab: sum((w * pays[s] for s, w in tg.vertex_mixtures[player][lab].weights), ZERO)
        + g0.values[player].get(lab, ZERO)
        for lab in tg.first_labels[player]
    }
    second_vals = {
        lab: g1.values[player].get(lab, ZERO)
        for lab in tg.second_labels(player)
    }
    best_first = max(first_vals.values())
    best_second = max(second_vals.values())
    cur = sum(
        w * first_vals[lab] for lab, w in profile[player][0].weights
    ) + sum(w * second_vals[lab] for lab, w in profile[player][1].weights)
    margin = (best_first + best_second) - cur
    return (
        {lab for lab, v in first_vals.items() if v == best_first},
        {lab for lab, v in second_vals.items() if v == best_second},
        margin,
    )


def oplus_equilibrium_margin(
    tg: TildeGame, g0: BonusVector, g1: BonusVector, profile: TildeProfile
) -> Fraction:
    """Largest improvement any player can gain; zero iff profile is an equilibrium."""
    return max(
        oplus_best_replies(tg, g0, g1, profile, n)[2]
        for n in range(len(tg.first_labels))
    )


# --------------------------------------------------------------------------
# Five-part hat perturbation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class HatTarget:
    """Marked-cell data for one target in the hat game."""

    supports: tuple[tuple[Label, ...], ...]  # per player, allowed pair labels
    extreme_point: Profile  # the chosen extreme point (pair-label mixtures)


def hat_perturbation(
    hg,
    targets: Sequence[HatTarget],
    gamma: Sequence[PLFunction],
    rf: ReplyField,
    params: PipelineParams,
    *,
    alpha: Optional[Fraction] = None,
    alpha_star: Optional[Fraction] = None,
    eps0: Optional[Fraction] = None,
) -> FiniteGame:
    """Assemble the five-component perturbation of a hat game.

    Components: the hat payoffs, first/second-factor bonuses evaluated at
    each pure profile, the support penalty scaled by alpha_star, and the
    PL penalties gamma scaled by alpha.  Each of eps0, alpha and alpha_star
    is eps/4 unless a keyword overrides it (zero allowed).  Certifies the
    total entrywise perturbation stays below eps, unless everything is
    switched off.
    """
    game = hg.finite_game
    tg = hg.tilde
    eps = Fraction(params.eps)
    alpha = eps / 4 if alpha is None else Fraction(alpha)
    alpha_star = eps / 4 if alpha_star is None else Fraction(alpha_star)
    eps0 = eps / 4 if eps0 is None else Fraction(eps0)
    allowed = [
        set(itertools.chain.from_iterable(t.supports[n] for t in targets))
        for n in range(game.num_players)
    ]
    payoffs = {}
    for prof in game.pure_profiles():
        # project the pure hat profile to a tilde profile
        tilde_prof = []
        for n, lab in enumerate(prof):
            a, b = lab.split("&", 1)
            tilde_prof.append(
                (hg.hat_mixtures[n][a], hg.hat_mixtures[(n + 1) % game.num_players][b])
            )
        tilde_prof = tuple(tilde_prof)
        g1 = bonus_g1(tg, eps0, tilde_prof) if eps0 > 0 else None
        fvals = rf.value(tilde_prof) if eps0 > 0 else None
        entry = []
        for n in range(game.num_players):
            a, b = prof[n].split("&", 1)
            v = game.payoffs[prof][n]
            # second-factor bonus (exactly evaluable); first-factor reward
            # comes from the reply-field coordinate alone at pure profiles
            if eps0 > 0:
                v += eps0 * sum(
                    w * fvals[n][0].weight(lab)
                    for lab, w in hg.hat_mixtures[n][a].weights
                )
                v += sum(
                    w * g1.values[n].get(lab, ZERO)
                    for lab, w in hg.hat_mixtures[
                        (n + 1) % game.num_players
                    ][b].weights
                )
            if alpha_star > 0 and targets and prof[n] not in allowed[n]:
                v -= alpha_star
            if alpha > 0:
                point_a = frac_vec(
                    hg.hat_mixtures[n][a].as_vector(list(tg.first_labels[n]))
                )
                v -= alpha * gamma[n].value(point_a)
                nxt = (n + 1) % game.num_players
                point_b = frac_vec(
                    hg.hat_mixtures[nxt][b].as_vector(list(tg.first_labels[nxt]))
                )
                v -= alpha * gamma[nxt].value(point_b)
            entry.append(v)
        payoffs[prof] = tuple(entry)
    out = FiniteGame.of(game.players, [list(s) for s in game.strategies], payoffs)
    for prof in game.pure_profiles():
        for n in range(game.num_players):
            diff = abs(out.payoffs[prof][n] - game.payoffs[prof][n])
            if diff >= eps:
                raise PerturbError(
                    "hat",
                    f"perturbation of entry {prof} for player {n} is {diff} >= eps",
                )
    return out


# --------------------------------------------------------------------------
# Desk-scale pipeline
# --------------------------------------------------------------------------


@dataclass
class PipelineReport:
    stages: list[str] = field(default_factory=list)
    equilibria: list[Profile] = field(default_factory=list)
    projections: list[Profile] = field(default_factory=list)
    indices: list[int] = field(default_factory=list)
    verified: bool = False
    failures: list[str] = field(default_factory=list)

    def log(self, message: str) -> None:
        self.stages.append(message)

    def to_json(self) -> dict:
        def prof_str(p):
            return [str(s) for s in p]

        return {
            "stages": list(self.stages),
            "equilibria": [prof_str(p) for p in self.equilibria],
            "projections": [prof_str(p) for p in self.projections],
            "indices": list(self.indices),
            "verified": self.verified,
            "failures": list(self.failures),
        }


def _frame_for_player(
    targets: Sequence[TargetPoint], player: int
) -> tuple[list[MixedStrategy], Optional[MixedStrategy]]:
    """Distinct pure anchors and the optional mixed target for one player."""
    pures = []
    mixed = None
    for tp in targets:
        s = tp.profile[player]
        if tp.sign == -1 or not s.is_pure():
            if mixed is not None and mixed != s:
                raise PerturbError(
                    "frame", f"player {player}: more than one mixed target strategy"
                )
            mixed = s
        else:
            if s not in pures:
                pures.append(s)
    return pures, mixed


def run_pipeline(
    game: FiniteGame, target: TargetSpec, params: PipelineParams
) -> tuple[FiniteGame, list[list[AffineSurjection]], PipelineReport]:
    """Realize the target equilibria (with signs) by an equivalent perturbed game.

    Desk-scale scope: 2-player games; all targets on a single component;
    per player the target strategies must lie on a segment between two pure
    strategies (duplicating a pure strategy when only one is used); sign
    patterns (+1) or a permutation of (+1, +1, -1).  The output is verified
    end-to-end: the dominance witnesses are checked, the reduced game's
    equilibria enumerated, indices computed on the whole game, projections
    matched exactly, and the payoff change certified below eps.
    """
    report = PipelineReport()
    eps = Fraction(params.eps)
    if game.num_players != 2:
        raise PerturbError("scope", "pipeline handles exactly 2 players")

    # Stage 1: components and indices, on the certified dominance-reduced game
    entries = game_index_report(reduced_equilibria(game)).entries
    comp_indices = {cid: e.index for cid, e in enumerate(entries)}
    report.log(f"components: {len(entries)} with indices {comp_indices}")
    target.validate(game, comp_indices)
    cids = {tp.component for tp in target.points}
    if len(cids) != 1:
        raise PerturbError("scope", "all targets must lie on a single component")
    signs = sorted(tp.sign for tp in target.points)
    if signs not in ([1], [-1, 1, 1]):
        raise PerturbError(
            "scope", f"sign pattern {signs} unsupported (need (+1) or (+1,+1,-1))"
        )
    points = list(target.points)

    # Stage 2: per-player frames, duplicating when a segment endpoint is missing
    multi = len(points) == 3
    pure_design = not multi and all(s.is_pure() for s in points[0].profile)
    current = game
    chain: list[list[AffineSurjection]] = []
    frames: list[tuple[Label, Label]] = []
    lam: list[Fraction] = []
    for n in range(2):
        pures, mixed = _frame_for_player(points, n)
        if len(pures) > 2:
            raise PerturbError(
                "frame", f"player {n}: targets use more than two pure strategies"
            )
        if mixed is not None and len(mixed.support()) > 2:
            raise PerturbError(
                "frame", f"player {n}: mixed target mixes more than two strategies"
            )
        anchors = [p.support()[0] for p in pures]
        if mixed is not None:
            for s in mixed.support():
                if s not in anchors:
                    anchors.append(s)
        if len(anchors) > 2:
            raise PerturbError(
                "frame", f"player {n}: target strategies do not fit on a segment"
            )
        if pure_design or len(anchors) == 2:
            a = anchors[0]
            b = anchors[1] if len(anchors) == 2 else anchors[0]
            phis = [identity_surjection(current.strategies[m]) for m in range(2)]
            chain.append(phis)
        else:
            a = anchors[0]
            b = f"{a}'"
            current, phi = duplicate_strategy(
                current, n, MixedStrategy.pure(a), new_label=b
            )
            phis = [
                identity_surjection(current.strategies[m]) if m != n else phi
                for m in range(2)
            ]
            chain.append(phis)
            report.log(f"player {n}: duplicated {a!r} as {b!r}")
        frames.append((a, b))
        if mixed is not None and len(mixed.support()) == 2 and a in mixed.support():
            lam.append(mixed.weight(a))
        else:
            lam.append(Fraction(1, 2))
    report.log(f"frames: {frames}, mixed weights {[str(l) for l in lam]}")

    projections = [chain[0][0], chain[1][1]]

    # The designed mixed equilibrium must project exactly onto the mixed target.
    mixed_targets = [tp for tp in points if not all(s.is_pure() for s in tp.profile)]
    if not mixed_targets:
        mixed_targets = [tp for tp in points if tp.sign == -1]
    for tp in mixed_targets:
        designed = tuple(
            MixedStrategy.of(
                {frames[n][0]: lam[n], frames[n][1]: ONE - lam[n]}
                if frames[n][0] != frames[n][1]
                else {frames[n][0]: ONE}
            )
            for n in range(2)
        )
        got = project_profile(projections, designed)
        if got != tp.profile:
            raise PerturbError(
                "frame",
                f"designed mixed point projects to {format_profile(got)}, not the target "
                f"{format_profile(tp.profile)}; targets exceed desk-scale scope",
            )

    # check the frame block is contained in the component (all best replies)
    for ra in frames[0]:
        for ca in frames[1]:
            prof = (MixedStrategy.pure(ra), MixedStrategy.pure(ca))
            if not is_equilibrium(current, prof):
                raise PerturbError(
                    "frame",
                    f"frame profile ({ra},{ca}) is not an equilibrium of the "
                    "duplicated game; targets exceed desk-scale scope",
                )

    # Stage 3: design overlay on the frame block
    t_bonus = eps / 2
    overlay: dict[tuple[Label, Label], list[Fraction]] = {}

    def add(cell, player, amount):
        overlay.setdefault(cell, [ZERO, ZERO])[player] += amount

    (a1, b1), (a2, b2) = frames
    if multi:
        # coordination overlay: strict at (a1,a2) and (b1,b2), mixed at (lam)
        add((a1, a2), 0, (ONE - lam[1]) * t_bonus)
        add((b1, b2), 0, lam[1] * t_bonus)
        add((a1, a2), 1, (ONE - lam[0]) * t_bonus)
        add((b1, b2), 1, lam[0] * t_bonus)
    elif pure_design:
        add((a1, a2), 0, t_bonus)
        add((a1, a2), 1, t_bonus)
    else:
        # anti-coordination overlay: unique mixed equilibrium at (lam)
        add((a1, a2), 0, (ONE - lam[1]) * t_bonus)
        add((b1, b2), 0, lam[1] * t_bonus)
        add((a1, b2), 1, (ONE - lam[0]) * t_bonus)
        add((b1, a2), 1, lam[0] * t_bonus)
    report.log(f"overlay bonuses: { {k: [str(x) for x in v] for k, v in overlay.items()} }")

    # Stage 4: elimination bonuses on frame strategies
    delta = eps / 4
    frame_sets = [set(frames[n]) for n in range(2)]
    pay = {}
    for prof in current.pure_profiles():
        entry = list(current.payoffs[prof])
        for n in range(2):
            if prof[n] in frame_sets[n]:
                entry[n] += delta
        if prof in overlay:
            entry[0] += overlay[prof][0]
            entry[1] += overlay[prof][1]
        pay[prof] = tuple(entry)
    perturbed = FiniteGame.of(current.players, current.strategies, pay)
    # computed once for `perturbed`: Stage 6 certifies this same reduction
    reduced, trace = eliminate_strictly_dominated(perturbed)
    if sorted(reduced.strategies[0]) != sorted(frame_sets[0]) or sorted(
        reduced.strategies[1]
    ) != sorted(frame_sets[1]):
        raise PerturbError(
            "elimination",
            f"iterated dominance left {reduced.strategies}, expected frames "
            f"{frame_sets}; targets exceed desk-scale scope",
        )
    report.log(
        "eliminated: "
        + ", ".join(f"player {e.player} drops {e.strategy!r}" for e in trace)
    )

    # Stage 5: size certification
    for prof in current.pure_profiles():
        for n in range(2):
            diff = abs(perturbed.payoffs[prof][n] - current.payoffs[prof][n])
            if diff >= eps:
                report.failures.append(
                    f"entry {prof} player {n} perturbed by {diff} >= eps"
                )
    if report.failures:
        report.verified = False
        return perturbed, chain, report

    # Stage 6: verification on the reduced game, its witnesses checked exactly
    found, report.failures = verify_realization(
        perturbed, projections, [(tp.profile, tp.sign) for tp in points]
    )
    for eq, proj, idx in found:
        report.equilibria.append(eq)
        report.projections.append(proj)
        report.indices.append(idx)
    report.verified = not report.failures
    report.log("verification " + ("passed" if report.verified else "FAILED"))
    return perturbed, chain, report
