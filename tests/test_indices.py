import random
from fractions import Fraction
from typing import Optional

import pytest

from equilib.games import FiniteGame, MixedStrategy, profile_of
from equilib.geometry import Simplex
from equilib.indices import (
    IndexError_,
    _boundary_simplices,
    _indifference_jacobian,
    _kuhn_simplices,
    _raw_degree,
    component_index,
    degree_oracle,
    game_index_report,
    index_regular,
    index_via_degree,
    make_affine_fixer,
    verify_realization,
)
from equilib.linalg import ONE, ZERO, determinant, linprog, solve_unique, vec_sub
from equilib.solver import components, support_enumeration
from oracles import is_regular

F = Fraction
HALF = F(1, 2)


# -- regular equilibrium indices -------------------------------------------


def test_strict_pure_equilibrium_has_index_one(coordination):
    assert index_regular(coordination, profile_of("A", "C")) == 1
    assert index_regular(coordination, profile_of("B", "D")) == 1


def test_coordination_mixed_has_index_minus_one(coordination):
    mixed = profile_of({"A": F(1, 3), "B": F(2, 3)}, {"C": F(1, 3), "D": F(2, 3)})
    assert index_regular(coordination, mixed) == -1


def test_matching_pennies_index_one(matching_pennies):
    mixed = profile_of({"A": HALF, "B": HALF}, {"C": HALF, "D": HALF})
    assert index_regular(matching_pennies, mixed) == 1


def test_indices_sum_to_one(coordination):
    es = support_enumeration(coordination)
    assert sum(index_regular(coordination, eq) for eq in es.isolated) == 1
    assert game_index_report(es).total() == 1


def test_irregular_equilibrium_rejected(km):
    # (t, L) sits inside a continuum of the base game: not regular
    assert not is_regular(km, profile_of("t", "L"))
    with pytest.raises(IndexError_):
        index_regular(km, profile_of("t", "L"))


def shift_payoffs(game, player, amount):
    payoffs = {
        p: tuple(
            v + amount if n == player else v for n, v in enumerate(entry)
        )
        for p, entry in game.payoffs.items()
    }
    return FiniteGame.of(game.players, game.strategies, payoffs)


def scale_payoffs(game, player, factor):
    payoffs = {
        p: tuple(
            v * factor if n == player else v for n, v in enumerate(entry)
        )
        for p, entry in game.payoffs.items()
    }
    return FiniteGame.of(game.players, game.strategies, payoffs)


@pytest.mark.parametrize("amount,factor", [(F(7), F(3)), (F(-2), F(1, 5))])
def test_index_invariant_under_shift_and_positive_scaling(
    matching_pennies, amount, factor
):
    mixed = profile_of({"A": HALF, "B": HALF}, {"C": HALF, "D": HALF})
    base = index_regular(matching_pennies, mixed)
    shifted = shift_payoffs(matching_pennies, 0, amount)
    scaled = scale_payoffs(shifted, 1, factor)
    assert index_regular(scaled, mixed) == base


# -- degree oracle ---------------------------------------------------------


def test_degree_of_constant_map_is_one():
    box = [(F(-1), F(1)), (F(-1), F(1))]
    assert degree_oracle(lambda x: [F(0), F(0)], box, 2) == 1


def test_degree_of_expansion_is_one_2d():
    # Id - 2x = -x: orientation (-1)^2
    box = [(F(-1), F(1)), (F(-1), F(1))]
    assert degree_oracle(lambda x: [2 * x[0], 2 * x[1]], box, 2) == 1


def test_degree_of_expansion_is_minus_one_1d():
    box = [(F(-1), F(1))]
    assert degree_oracle(lambda x: [2 * x[0]], box, 1) == -1


def test_degree_mixed_signs_3d():
    box = [(F(-1), F(1))] * 3
    fmap = lambda x: [2 * x[0], F(0), 2 * x[2]]  # noqa: E731
    assert degree_oracle(fmap, box, 2) == 1


def test_degree_no_fixed_point_in_box_is_zero():
    box = [(F(1), F(2))]
    assert degree_oracle(lambda x: [F(0)], box, 2) == 0


def test_index_via_degree_agrees(matching_pennies, coordination):
    mixed_mp = profile_of({"A": HALF, "B": HALF}, {"C": HALF, "D": HALF})
    assert index_via_degree(matching_pennies, mixed_mp) == 1
    mixed_co = profile_of(
        {"A": F(1, 3), "B": F(2, 3)}, {"C": F(1, 3), "D": F(2, 3)}
    )
    assert index_via_degree(coordination, mixed_co) == -1
    assert index_via_degree(coordination, profile_of("A", "C")) == 1


def test_degree_raises_when_values_surround_the_origin():
    # the displacement (x0, x0) takes opposite values at the two ends of the
    # edge x1 = -1, whose matrix of values is singular
    box = [(F(-1), F(1))] * 2
    with pytest.raises(IndexError_, match="surround the origin"):
        degree_oracle(lambda x: [F(0), x[1] - x[0]], box, 1)


def test_degree_through_a_singular_simplex_away_from_the_origin(monkeypatch):
    import equilib.indices as indices

    # the displacement is x except at (1, 0), where it is (1, 1): the edge
    # from (1, 0) to (1, 1) has equal values, away from the origin
    def fmap(x):
        return [F(0), F(-1) if x == [1, 0] else F(0)]

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(indices, "linprog", counted)
    box = [(F(-1), F(1))] * 2
    assert degree_oracle(fmap, box, 2) == 1 == reference_degree_oracle(fmap, box, 2)
    assert len(calls) == 1


# -- the degree oracle against the concrete-ray oracle it replaced ---------
#
# `reference_degree_oracle` is the previous implementation, kept as the
# oracle: one LP per boundary simplex for the surround check, then up to
# eight concrete rays (1, e, ..., e^(d-1)), each counted by one solve per
# simplex, until one meets no simplex image on a face.

_RAY_SCHEDULE = [F(1, p) for p in (10, 13, 17, 23, 31, 43, 59, 71)]
NO_RAY = "no generic ray direction found; refine the grid"


def reference_raw_degree(values, d, ray) -> Optional[int]:
    """Signed ray-crossing count; None when the ray is non-generic."""
    total = 0
    for w, orient in values:
        n = len(w)  # == d
        rows = [[w[i][r] for i in range(n)] + [-ray[r]] for r in range(d)]
        rows.append([ONE] * n + [ZERO])
        rhs = [ZERO] * d + [ONE]
        sol = solve_unique(rows, rhs)
        if sol is None:
            # singular system: degenerate only if the ray actually meets the image
            sys_ub = [[-ONE if j == i else ZERO for j in range(n + 1)] for i in range(n + 1)]
            res = linprog([ZERO] * (n + 1), sys_ub, [ZERO] * (n + 1), rows, rhs)
            if res.status == "optimal":
                return None
            continue
        lam, t = sol[:n], sol[n]
        if min(lam) >= 0 and t >= 0 and (t == 0 or any(x == 0 for x in lam)):
            return None
        if all(x > 0 for x in lam) and t > 0:
            mat = [vec_sub(w[i], w[0]) for i in range(1, n)] + [list(ray)]
            det = determinant([list(col) for col in zip(*mat)])
            if det == 0:
                return None
            total += orient * (1 if det > 0 else -1)
    return total


def reference_values(fmap, region, grid):
    """Each boundary simplex's displacement values, as the old oracle checked them."""
    d = len(region)
    values = []
    for verts, orient in _boundary_simplices(region, grid):
        w = [vec_sub(v, fmap(list(v))) for v in verts]
        if any(all(c == 0 for c in x) for x in w):
            raise IndexError_("fixed point on the boundary grid; refine the grid")
        A_eq = [[x[r] for x in w] for r in range(d)] + [[ONE] * d]
        if linprog([ZERO] * d, A_eq=A_eq, b_eq=[ZERO] * d + [ONE]).status == "optimal":
            raise IndexError_(
                "displacement values surround the origin on a boundary simplex; "
                "refine the grid"
            )
        values.append((w, orient))
    return values


def reference_degree_oracle(fmap, region, grid) -> int:
    d = len(region)
    calibration = None
    for eps in _RAY_SCHEDULE:
        ray = [eps**i for i in range(d)]
        calibration = reference_raw_degree(
            reference_values(lambda x: [ZERO] * d, [(F(-1), F(1))] * d, 1), d, ray
        )
        if calibration is not None:
            break
    assert calibration in (1, -1)
    values = reference_values(fmap, region, grid)
    for eps in _RAY_SCHEDULE:
        raw = reference_raw_degree(values, d, [eps**i for i in range(d)])
        if raw is not None:
            return raw * calibration
    raise IndexError_(NO_RAY)


def seeded_map(rng, d, quadratic):
    """x -> b + M x (+ the quadratic terms q_rij x_i x_j), small rationals."""
    b = [F(rng.randint(-2, 2), 2) for _ in range(d)]
    M = [[F(rng.randint(-2, 2)) for _ in range(d)] for _ in range(d)]
    Q = [
        {(i, j): F(rng.randint(-1, 1)) for i in range(d) for j in range(i, d)}
        if quadratic
        else {}
        for _ in range(d)
    ]

    def fmap(x):
        return [
            b[r]
            + sum(M[r][c] * x[c] for c in range(d))
            + sum(q * x[i] * x[j] for (i, j), q in Q[r].items())
            for r in range(d)
        ]

    return fmap


def outcome(oracle, fmap, region, grid):
    try:
        return oracle(fmap, region, grid)
    except IndexError_ as exc:
        return str(exc)


def test_degree_oracle_agrees_with_concrete_rays():
    rng = random.Random(13)
    decided = errors = 0
    for d in (2, 3):
        for quadratic in (False, True):
            for grid in (1, 2, 3):
                for _ in range(6 if d == 2 else 3):
                    fmap = seeded_map(rng, d, quadratic)
                    region = [(F(-1), F(1))] * d
                    old = outcome(reference_degree_oracle, fmap, region, grid)
                    if old == NO_RAY:
                        continue
                    assert outcome(degree_oracle, fmap, region, grid) == old
                    decided += 1
                    errors += isinstance(old, str)
    assert decided >= 30 and 0 < errors < decided


def test_degree_oracle_decides_where_the_first_concrete_ray_is_degenerate():
    # disp(x) = A x with A (1, 1) = (10, 1), on the first old ray (1, 1/10)
    def fmap(x):
        return [x[0] - 5 * x[0] - 5 * x[1], x[1] - x[0]]

    box = [(F(-1), F(1))] * 2
    assert reference_raw_degree(reference_values(fmap, box, 1), 2, [ONE, F(1, 10)]) is None
    assert degree_oracle(fmap, box, 1) == -1 == reference_degree_oracle(fmap, box, 1)


def endpoint_sign_degree(fmap, region, grid):
    """The 1-D degree from the ends alone: (sh − sl)/2, s the sign of x − f(x)."""
    ((lo, hi),) = region
    values = [lo - fmap([lo])[0], hi - fmap([hi])[0]]
    if 0 in values:
        raise IndexError_("fixed point on the boundary grid; refine the grid")
    sl, sh = (1 if v > 0 else -1 for v in values)
    return (sh - sl) // 2


def test_one_dimensional_degree_is_the_endpoint_sign_rule():
    """In one dimension the boundary is the two ends, so the general path
    must give the end sign rule's degree, and its error on a zero at an end."""
    rng = random.Random(17)
    outcomes = []
    for _ in range(300):
        fmap = seeded_map(rng, 1, quadratic=False)
        lo = F(rng.randint(-4, 1), 2)
        region = [(lo, lo + F(rng.randint(1, 4), 2))]
        want = outcome(endpoint_sign_degree, fmap, region, 1)
        for grid in (1, 2, 3):
            assert outcome(degree_oracle, fmap, region, grid) == want, region
        outcomes.append(want)
    assert {-1, 0, 1} <= set(outcomes)
    assert 20 < sum(isinstance(w, str) for w in outcomes) < 150


# -- affine fixers ---------------------------------------------------------


def nested_simplices(dim, seed):
    """A shrunken copy of the standard simplex inside a larger one."""
    rng = random.Random(seed)
    corners = [
        [F(int(i == j)) for j in range(dim + 1)] for i in range(dim + 1)
    ]
    bary = [F(1, dim + 1)] * (dim + 1)

    def shrink(factor):
        return Simplex.of(
            [
                [b + factor * (c - b) for b, c in zip(bary, corner)]
                for corner in corners
            ]
        )

    inner = F(rng.randint(2, 4), 10)
    outer = inner + F(rng.randint(1, 3), 10)
    return shrink(inner), shrink(outer), bary


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("r", [1, -1])
def test_make_affine_fixer_signs(dim, r):
    X, Y, sigma = nested_simplices(dim, 17 * dim + r)
    fx = make_affine_fixer(X, Y, sigma, r)
    assert fx.index == r
    assert fx.apply(sigma) == sigma
    # bijection X -> Y: vertex images recover Y's vertex set
    images = sorted(tuple(fx.apply(list(v))) for v in X.vertices)
    assert images == sorted(tuple(v) for v in Y.vertices)


def test_fixer_unique_fixed_point():
    X, Y, sigma = nested_simplices(2, 5)
    fx = make_affine_fixer(X, Y, sigma, -1)
    # any other sample point moves
    for v in X.vertices:
        assert fx.apply(list(v)) != list(v)


def test_zero_dimensional_fixer_only_plus_one():
    point = Simplex.of([[F(1)]])
    fx = make_affine_fixer(point, point, [F(1)], 1)
    assert fx.index == 1
    with pytest.raises(IndexError_):
        make_affine_fixer(point, point, [F(1)], -1)


# -- component indices -----------------------------------------------------


def test_component_distance_to_the_mixed_equilibrium_of_matching_pennies(matching_pennies):
    from equilib.solver import NashSubset
    from oracles import component_distance

    mixed = support_enumeration(matching_pennies).isolated[0]
    real = NashSubset(
        (("A", "B"), ("C", "D")), ((mixed[0],), (mixed[1],))
    )
    assert component_distance(matching_pennies, profile_of("A", "C"), [real]) == HALF


def test_km_component_index_plus_one(km):
    es = support_enumeration(km)
    cg = components(es)
    assert len(cg.components) == 1
    subs = [cg.subsets[i] for i in cg.components[0]]
    assert component_index(es, subs) == 1


def test_component_index_on_singleton_matches_determinant(matching_pennies):
    es = support_enumeration(matching_pennies)
    cg = components(es)
    subs = [cg.subsets[i] for i in cg.components[0]]
    assert component_index(es, subs) == 1


def test_component_index_where_concrete_trials_left_a_degenerate_set():
    # one component, so its index is +1; some concrete payoff perturbations
    # of size 1/1000 leave this game with a degenerate equilibrium set
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
    es = support_enumeration(game)
    cg = components(es)
    assert len(cg.components) == 1
    assert component_index(es, [cg.subsets[i] for i in cg.components[0]]) == 1
    assert [e.index for e in game_index_report(es).entries] == [1]


def test_game_index_report(km_p2):
    report = game_index_report(support_enumeration(km_p2))
    assert sorted(e.index for e in report.entries) == [-1, 1, 1]
    assert report.total() == 1
    data = report.to_json()
    assert data["total"] == 1 and len(data["entries"]) == 3


# -- sign conventions --------------------------------------------------------
#
# `index_regular` is the sign of the indifference Jacobian's determinant, and
# `degree_oracle` is (-1)^(d-1) times `_raw_degree`.  Two reference maps of
# index +1 pin both signs: the k x k game in which player 1 wants to match
# and player 2 to mismatch (its unique equilibrium is uniform; for k = 1 a
# strict pure one), and the identity on a box.  The Jacobian there splits
# into two bordered blocks with determinants k and (-1)^(k-1)·k, and the
# block permutation contributes (-1)^(k-1), so its determinant is k².


def reference_game(k):
    rows = [f"r{i}" for i in range(k)]
    cols = [f"c{j}" for j in range(k)]
    pay = {
        (rows[i], cols[j]): (F(i == j), F(i != j) if k > 1 else ONE)
        for i in range(k)
        for j in range(k)
    }
    uniform = F(1, k)
    return FiniteGame.of(["1", "2"], [rows, cols], pay), (
        MixedStrategy.of(dict.fromkeys(rows, uniform)),
        MixedStrategy.of(dict.fromkeys(cols, uniform)),
    )


@pytest.mark.parametrize("k", range(1, 13))
def test_reference_game_has_determinant_k_squared(k):
    game, eq = reference_game(k)
    assert determinant(_indifference_jacobian(game, [s.support() for s in eq])) == k * k
    assert index_regular(game, eq) == 1


def reference_facet_orientation(d: int, axis: int, side: int) -> int:
    """The sign of det(e_free..., outward normal) of the box facet x_axis = side."""
    free = [a for a in range(d) if a != axis]
    frame = [[ONE if r == a else ZERO for r in range(d)] for a in free]
    frame.append([F(1 if side == 1 else -1) if r == axis else ZERO for r in range(d)])
    return 1 if determinant([list(col) for col in zip(*frame)]) > 0 else -1


@pytest.mark.parametrize("d", range(1, 7))
def test_boundary_orientation_is_the_frame_determinant(d):
    """Each boundary simplex's orientation is its Kuhn sign times its facet's
    frame determinant, on both sides of every axis."""
    expected = [
        sign * reference_facet_orientation(d, axis, side)
        for axis in range(d)
        for side in (0, 1)
        for _, sign in _kuhn_simplices(d - 1)
    ]
    assert [orient for _, orient in _boundary_simplices([(-ONE, ONE)] * d, 1)] == expected
    assert {reference_facet_orientation(d, a, s) for a in range(d) for s in (0, 1)} == {1, -1}


@pytest.mark.parametrize("d", range(1, 7))
def test_identity_raw_degree_is_minus_one_to_the_d_minus_one(d):
    box = [(-ONE, ONE)] * d
    assert _raw_degree(_boundary_simplices(box, 1)) == (-1) ** (d - 1)
    assert degree_oracle(lambda x: [ZERO] * d, box, 1) == 1


# -- realization check -----------------------------------------------------


def km_duplication_phis():
    from equilib.cli import _km_duplication_phi

    return _km_duplication_phi()


def test_verify_realization_matches_km_perturbation_2(km_p2):
    from equilib.examples import KM_EXPECTED

    want = KM_EXPECTED[1].equilibria
    found, failures = verify_realization(km_p2, km_duplication_phis(), want)
    assert failures == []
    got = [(proj, idx) for _, proj, idx in found]
    assert sorted(got, key=repr) == sorted(want, key=repr)
    for eq, _, idx in found:
        assert index_regular(km_p2, eq) == idx


def test_verify_realization_rejects_a_degenerate_equilibrium_set(km):
    from equilib.equivalence import identity_surjection

    phis = [identity_surjection(s) for s in km.strategies]
    found, failures = verify_realization(km, phis, [])
    assert found == []
    assert failures == ["perturbed game has a degenerate equilibrium set"]


def test_verify_realization_rejects_an_irregular_equilibrium():
    from equilib.equivalence import identity_surjection

    # (r0, c1) is isolated, but r1 does as well against c1: not regular
    game = FiniteGame.of(
        ["1", "2"],
        [["r0", "r1"], ["c0", "c1"]],
        {("r0", "c0"): (0, 1), ("r0", "c1"): (1, 1), ("r1", "c0"): (1, 2), ("r1", "c1"): (1, 0)},
    )
    phis = [identity_surjection(s) for s in game.strategies]
    strict, irregular = profile_of("r1", "c0"), profile_of("r0", "c1")
    assert support_enumeration(game).subsets == []
    found, failures = verify_realization(game, phis, [(strict, 1)])
    assert found == [(strict, strict, 1)]
    assert failures == [
        "index computation failed at 1*r0 ; 1*c1: "
        "off-support strategy r1 is not strictly inferior; use component_index"
    ]


def test_verify_realization_checks_every_dominance_witness(monkeypatch):
    import equilib.games as games
    from equilib.examples import KM_EXPECTED, km_perturbation_1

    # 10/11*t + 1/11*b earns -1 against R, as m does, and more than m elsewhere:
    # it dominates m, but only weakly
    weak = MixedStrategy.of({"t": F(10, 11), "b": F(1, 11)})

    def weak_witness(game, player, strategy):
        witness = dominating_mixture(game, player, strategy)
        return weak if strategy == "m" and witness else witness

    dominating_mixture = games._dominating_mixture
    monkeypatch.setattr(games, "_dominating_mixture", weak_witness)
    game = km_perturbation_1(F(1, 10))
    assert games.eliminate_strictly_dominated(game)[1][0].witness == weak
    found, failures = verify_realization(game, km_duplication_phis(), KM_EXPECTED[0].equilibria)
    assert failures == [
        "elimination of 'm' (player 0) is not certified: "
        "1/11*b + 10/11*t does not strictly dominate it"
    ]
    # the replay stops there and certifies on the whole game, which still realizes the target
    assert [(proj, idx) for _, proj, idx in found] == KM_EXPECTED[0].equilibria


def test_verify_realization_runs_no_lp_after_the_reduction(km_p1, monkeypatch):
    import equilib.games as games
    import equilib.indices as indices
    from equilib.examples import KM_EXPECTED

    games.eliminate_strictly_dominated(km_p1)
    for module in (games, indices):
        monkeypatch.setattr(module, "linprog", lambda *a, **k: pytest.fail("LP solved"))
    assert verify_realization(km_p1, km_duplication_phis(), KM_EXPECTED[0].equilibria)[1] == []


def test_verify_realization_rejects_a_wrong_sign(km_p2):
    from equilib.examples import KM_EXPECTED

    want = list(KM_EXPECTED[1].equilibria)
    (profile, sign) = want[-1]
    want[-1] = (profile, -sign)
    found, failures = verify_realization(km_p2, km_duplication_phis(), want)
    assert len(found) == 3
    assert failures == [
        "equilibria [1/2*b + 1/2*t ; 1*L (-1), 1*b ; 1*L (+1), 1*t ; 1*L (+1)] "
        "do not match targets [1/2*b + 1/2*t ; 1*L (+1), 1*b ; 1*L (+1), 1*t ; 1*L (+1)]"
    ]
