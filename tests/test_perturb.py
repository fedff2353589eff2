from fractions import Fraction

import pytest

from equilib.equivalence import build_tilde_game
from equilib.games import MixedStrategy, payoff, payoff_vector, profile_of
from equilib.geometry import Simplex, Triangulation
from equilib.indices import make_affine_fixer
from equilib.perturb import (
    BonusVector,
    HatTarget,
    MarkedRegion,
    PerturbError,
    PipelineParams,
    ReplyField,
    TargetPoint,
    TargetSpec,
    best_reply_value,
    bonus_g0,
    bonus_g1,
    envelope_r,
    hat_perturbation,
    oplus,
    run_pipeline,
)
from equilib.solver import support_enumeration
from oracles import subset_contains

F = Fraction
HALF = F(1, 2)


# -- parameters and targets ------------------------------------------------


def test_params_require_positive_eps():
    with pytest.raises(PerturbError):
        PipelineParams(eps=F(0))


def test_target_point_sign_validation():
    prof = profile_of("t", "L")
    with pytest.raises(PerturbError):
        TargetPoint(0, prof, 0)


def test_target_spec_sign_sum_must_match_component_index(km):
    spec = TargetSpec((TargetPoint(0, profile_of("t", "L"), -1),))
    with pytest.raises(PerturbError, match="signs sum"):
        spec.validate(km, {0: 1})


def test_target_spec_unknown_component(km):
    spec = TargetSpec((TargetPoint(5, profile_of("t", "L"), 1),))
    with pytest.raises(PerturbError, match="unknown component"):
        spec.validate(km, {0: 1})


def test_target_spec_points_must_be_distinct(km):
    tp = TargetPoint(0, profile_of("t", "L"), 1)
    again = TargetPoint(0, profile_of("t", "L"), 1)
    third = TargetPoint(0, profile_of("b", "L"), -1)
    spec = TargetSpec((tp, again, third))
    with pytest.raises(PerturbError, match="distinct"):
        spec.validate(km, {0: 1})


def test_target_spec_points_must_be_equilibria(km):
    spec = TargetSpec((TargetPoint(0, profile_of("m", "L"), 1),))
    with pytest.raises(PerturbError, match="not an equilibrium"):
        spec.validate(km, {0: 1})


# -- bonus vectors and oplus -----------------------------------------------


def test_bonus_vector_validation():
    with pytest.raises(PerturbError):
        BonusVector(2, ({},))
    with pytest.raises(PerturbError):
        BonusVector(0, ({"a": F(-1)},))


def test_bonus_norm():
    b = BonusVector(0, ({"a": F(1, 4)}, {"b": F(1, 2)}))
    assert b.norm() == F(1, 2)
    assert BonusVector(1, ({}, {})).norm() == 0


def segment_triangulation():
    """The trivial triangulation of a 2-strategy simplex."""
    return Triangulation(
        [(F(1), F(0)), (F(0), F(1))],
        [(0, 1)],
        [(F(1), F(0)), (F(0), F(1))],
    )


@pytest.fixture
def tilde(matching_pennies):
    tris = [segment_triangulation(), segment_triangulation()]
    return build_tilde_game(matching_pennies, tris)


def uniform_tilde_profile(tg):
    out = []
    for n in range(2):
        first = MixedStrategy.of({l: HALF for l in tg.first_labels[n]})
        second = MixedStrategy.of({l: HALF for l in tg.second_labels(n)})
        out.append((first, second))
    return tuple(out)


def test_oplus_adds_factor_bonuses(tilde):
    g0 = BonusVector(0, ({"T0v0": F(1, 8)}, {}))
    g1 = BonusVector(1, ({}, {"T0v1": F(1, 16)}))
    bumped = oplus(tilde.finite_game, g0, g1)
    base = tilde.finite_game.payoffs
    assert (
        bumped.payoffs[("T0v0&T1v0", "T1v0&T0v0")][0]
        == base[("T0v0&T1v0", "T1v0&T0v0")][0] + F(1, 8)
    )
    # player 1's second factor carries T0 labels
    assert (
        bumped.payoffs[("T0v0&T1v0", "T1v0&T0v1")][1]
        == base[("T0v0&T1v0", "T1v0&T0v1")][1] + F(1, 16)
    )


def test_oplus_rejects_wrong_factors(tilde):
    with pytest.raises(PerturbError):
        oplus(tilde.finite_game, BonusVector(1, ({}, {})), BonusVector(1, ({}, {})))


# -- payoff envelopes ------------------------------------------------------


def weight_segment(lo, hi):
    return Simplex.of([[lo, 1 - lo], [hi, 1 - hi]])


def test_envelope_dominates_best_reply_value(matching_pennies):
    region = [weight_segment(F(1, 4), F(3, 4)) for _ in range(2)]
    r_fns = envelope_r(matching_pennies, [region], [F(1, 8)])
    for prof in [
        profile_of("A", "C"),
        profile_of({"A": HALF, "B": HALF}, {"C": HALF, "D": HALF}),
        profile_of({"A": F(1, 3), "B": F(2, 3)}, "D"),
    ]:
        for n in range(2):
            assert r_fns[n](prof) >= best_reply_value(matching_pennies, prof, n)


def test_envelope_constant_inside_region(matching_pennies):
    region = [weight_segment(F(1, 4), F(3, 4)) for _ in range(2)]
    r_fns = envelope_r(matching_pennies, [region], [F(1, 8)])
    inside = [
        profile_of({"A": F(3, 8), "B": F(5, 8)}, {"C": F(5, 8), "D": F(3, 8)}),
        profile_of({"A": HALF, "B": HALF}, {"C": F(2, 5), "D": F(3, 5)}),
    ]
    for n in range(2):
        vals = {r_fns[n](p) for p in inside}
        assert len(vals) == 1


def test_envelope_rejects_overlapping_regions(matching_pennies):
    region = [weight_segment(F(1, 4), F(3, 4)) for _ in range(2)]
    with pytest.raises(PerturbError, match="overlap"):
        envelope_r(matching_pennies, [region, region], [F(1, 8), F(1, 8)])


# -- reply fields ----------------------------------------------------------


def pure_tilde_profile(tg, labels):
    """Tilde profile whose first coordinates are the given T-labels."""
    out = []
    for n, lab in enumerate(labels):
        second = MixedStrategy.pure(tg.second_labels(n)[0])
        out.append((MixedStrategy.pure(lab), second))
    return tuple(out)


def test_reply_field_blends_toward_best_reply(tilde):
    rf = ReplyField(tilde, eps=F(1, 2))
    # player 0 plays A (=T0v0) against D (=T1v1): B is the unique best reply
    prof = pure_tilde_profile(tilde, ["T0v0", "T1v1"])
    vals = rf.value(prof)
    f0 = vals[0][0]
    assert f0.weight("T0v0") == F(1, 10)
    assert f0.weight("T0v1") == F(9, 10)
    # outside marked regions the second factor mirrors the next player's spot
    assert vals[0][1] == MixedStrategy.pure("T1v1")


def test_reply_field_certifies_eps_best_reply(tilde):
    rf = ReplyField(tilde, eps=F(1, 10))
    prof = pure_tilde_profile(tilde, ["T0v0", "T1v1"])
    # the blend keeps weight 1/10 on a strategy losing by 2: shortfall 1/5
    with pytest.raises(PerturbError, match="eps-best"):
        rf.value(prof)


def test_reply_field_fixer_inside_marked_region(tilde, matching_pennies):
    X = [weight_segment(F(3, 8), F(5, 8)) for _ in range(2)]
    Y = [weight_segment(F(1, 4), F(3, 4)) for _ in range(2)]
    target = [F(1, 2), F(1, 2)]
    fixers = tuple(make_affine_fixer(X[n], Y[n], target, 1) for n in range(2))
    region = MarkedRegion(tuple(X), fixers)
    rf = ReplyField(tilde, eps=F(1, 2), marked=[region])
    prof = uniform_tilde_profile(tilde)
    vals = rf.value(prof)
    for n in range(2):
        # the fixer fixes the target, so the field reports it unchanged
        assert sorted(vals[n][0].weights) == [("T%dv0" % n, HALF), ("T%dv1" % n, HALF)]


# -- bonuses ---------------------------------------------------------------


def test_bonus_g1_tracks_next_player_position(tilde):
    prof = uniform_tilde_profile(tilde)
    g1 = bonus_g1(tilde, F(1, 100), prof)
    assert g1.factor == 1
    # player 0's second factor rewards player 1's barycentric position
    assert g1.values[0] == {"T1v0": F(1, 200), "T1v1": F(1, 200)}


def test_bonus_g0_within_size_bound(tilde, matching_pennies):
    rf = ReplyField(tilde, eps=F(1, 2))
    r_fns = envelope_r(matching_pennies, [], [])
    prof = uniform_tilde_profile(tilde)
    g0 = bonus_g0(tilde, rf, r_fns, F(1, 100), prof)
    g1 = bonus_g1(tilde, F(1, 100), prof)
    assert g0.norm() + g1.norm() < F(1, 2)
    bonused = oplus(tilde.finite_game, g0, g1)
    pairs = tuple(
        MixedStrategy.of({f"{a}&{b}": w * v for a, w in first.weights for b, v in second.weights})
        for first, second in prof
    )
    for n in range(2):
        assert max(payoff_vector(bonused, pairs, n)) - payoff(bonused, pairs, n) >= 0


def test_bonus_g0_size_bound_violation_names_strategy(tilde, matching_pennies):
    rf = ReplyField(tilde, eps=F(1, 100))
    r_fns = envelope_r(matching_pennies, [], [])
    # the uniform profile is the equilibrium: every reply certifies, but a
    # large eps0 pushes the combined bonus past eps
    prof = uniform_tilde_profile(tilde)
    with pytest.raises(PerturbError, match="size bound violated at"):
        bonus_g0(tilde, rf, r_fns, F(1, 4), prof)


# -- hat perturbation ------------------------------------------------------


@pytest.fixture
def hat(tilde):
    refinements = [segment_triangulation(), segment_triangulation()]
    return build_tilde_game(tilde.vertex_game, refinements)


def test_hat_perturbation_zero_is_identity(hat, tilde):
    params = PipelineParams(eps=F(1, 2))
    rf = ReplyField(tilde, eps=F(1, 2))
    out = hat_perturbation(
        hat, [], (None, None), rf, params, alpha=0, alpha_star=0, eps0=0
    )
    assert out.payoffs == hat.finite_game.payoffs


def test_hat_perturbation_requires_the_reply_fields_vertex_game(hat, matching_pennies):
    other = build_tilde_game(matching_pennies, [segment_triangulation(), segment_triangulation()])
    rf = ReplyField(other, eps=F(1, 2))
    with pytest.raises(PerturbError, match="vertex game"):
        hat_perturbation(
            hat, [], (None, None), rf, PipelineParams(eps=F(1, 2)),
            alpha=0, alpha_star=0, eps0=0,
        )


def test_hat_perturbation_support_penalty(hat, tilde):
    params = PipelineParams(eps=F(1, 2))
    rf = ReplyField(tilde, eps=F(1, 2))
    allowed0 = ("T0v0&T1v0",)
    allowed1 = ("T1v0&T0v0",)
    target = HatTarget(
        (allowed0, allowed1),
        (MixedStrategy.pure(allowed0[0]), MixedStrategy.pure(allowed1[0])),
    )
    out = hat_perturbation(
        hat, [target], (None, None), rf, params,
        alpha=0, alpha_star=F(1, 100), eps0=0,
    )
    base = hat.finite_game.payoffs
    for prof, entry in out.payoffs.items():
        for n in range(2):
            allowed = (allowed0, allowed1)[n]
            expected = base[prof][n] - (0 if prof[n] in allowed else F(1, 100))
            assert entry[n] == expected


def test_hat_perturbation_stays_below_eps(hat, tilde):
    from equilib.geometry import el_refinement

    tri = Triangulation(
        [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))], [(0, 1, 2)]
    )
    _, gamma = el_refinement(tri.split_edge((0, 1)))
    params = PipelineParams(eps=F(1, 2))
    rf = ReplyField(tilde, eps=F(1, 2))
    out = hat_perturbation(
        hat, [], (gamma, gamma), rf, params,
        alpha=F(1, 100), alpha_star=0, eps0=F(1, 100),
    )
    base = hat.finite_game.payoffs
    for prof, entry in out.payoffs.items():
        for n in range(2):
            assert abs(entry[n] - base[prof][n]) < F(1, 2)


def test_hat_perturbation_certifies_size(hat, tilde):
    params = PipelineParams(eps=F(1, 200))
    rf = ReplyField(tilde, eps=F(1, 200))
    target = HatTarget(
        (("T0v0&T1v0",), ("T1v0&T0v0",)),
        (MixedStrategy.pure("T0v0&T1v0"), MixedStrategy.pure("T1v0&T0v0")),
    )
    with pytest.raises(PerturbError, match="eps"):
        hat_perturbation(
            hat, [target], (None, None), rf, params,
            alpha=0, alpha_star=F(1, 100), eps0=0,
        )


# -- pipeline --------------------------------------------------------------


def km_targets():
    return TargetSpec(
        (
            TargetPoint(0, profile_of("t", "L"), 1),
            TargetPoint(0, profile_of("b", "L"), 1),
            TargetPoint(0, profile_of({"t": HALF, "b": HALF}, "L"), -1),
        )
    )


def test_pipeline_three_targets(km):
    params = PipelineParams(eps=F(1, 10))
    perturbed, projections, report = run_pipeline(km, km_targets(), params)
    assert report.verified, report.failures
    assert sorted(report.indices) == [-1, 1, 1]
    # every payoff entry moved by less than eps (after duplication)
    data = report.to_json()
    assert data["verified"] is True and len(data["equilibria"]) == 3


def test_pipeline_single_pure_target(km):
    params = PipelineParams(eps=F(1, 10))
    spec = TargetSpec((TargetPoint(0, profile_of("t", "L"), 1),))
    perturbed, projections, report = run_pipeline(km, spec, params)
    assert report.verified, report.failures
    assert report.indices == [1]
    es = support_enumeration(perturbed)
    assert len(es.isolated) == 1 and not es.subsets


def test_pipeline_single_mixed_target(km):
    params = PipelineParams(eps=F(1, 100))
    spec = TargetSpec(
        (TargetPoint(0, profile_of({"t": HALF, "b": HALF}, "L"), 1),)
    )
    perturbed, projections, report = run_pipeline(km, spec, params)
    assert report.verified, report.failures
    assert report.indices == [1]


def test_pipeline_rejects_three_players():
    from equilib.games import FiniteGame

    labels = [["a"], ["x"], ["u"]]
    game = FiniteGame.of(
        ["p1", "p2", "p3"], labels, {("a", "x", "u"): (F(0), F(0), F(0))}
    )
    spec = TargetSpec(
        (TargetPoint(0, profile_of("a", "x", "u"), 1),)
    )
    with pytest.raises(PerturbError, match="2 players"):
        run_pipeline(game, spec, PipelineParams(eps=F(1, 10)))


def test_pipeline_rejects_multi_component_targets(coordination):
    spec = TargetSpec(
        (
            TargetPoint(0, profile_of("A", "C"), 1),
            TargetPoint(1, profile_of("B", "D"), 1),
        )
    )
    with pytest.raises(PerturbError, match="single component"):
        run_pipeline(coordination, spec, PipelineParams(eps=F(1, 10)))


def test_pipeline_rejects_unsupported_sign_pattern(coordination):
    mixed = profile_of({"A": F(1, 3), "B": F(2, 3)}, {"C": F(1, 3), "D": F(2, 3)})
    es = support_enumeration(coordination)
    from equilib.solver import components

    cg = components(es)
    cid = next(
        i
        for i, comp in enumerate(cg.components)
        for k in comp
        if subset_contains(coordination, cg.subsets[k], mixed)
    )
    spec = TargetSpec(((TargetPoint(cid, mixed, -1)),))
    with pytest.raises(PerturbError, match="sign pattern"):
        run_pipeline(coordination, spec, PipelineParams(eps=F(1, 10)))


def test_pipeline_rejects_non_segment_targets(km):
    spec = TargetSpec(
        (
            TargetPoint(0, profile_of("t", "L"), 1),
            TargetPoint(0, profile_of("b", "M"), 1),
            TargetPoint(0, profile_of("m", "R"), -1),
        )
    )
    with pytest.raises(PerturbError):
        run_pipeline(km, spec, PipelineParams(eps=F(1, 10)))
