"""End-to-end acceptance checks.

Each test prints a single pass/fail line (visible with ``pytest -s`` or in
the captured output) and enforces a wall-clock budget.
"""

import random
import time
from fractions import Fraction

from equilib.cli import _km_duplication_phi
from equilib.equivalence import build_tilde_game, duplicate_strategy
from equilib.examples import km_game, km_perturbation_1, km_perturbation_2
from equilib.games import (
    FiniteGame,
    MixedStrategy,
    best_replies,
    eliminate_strictly_dominated,
    payoff,
    payoff_against,
    payoff_vector,
    profile_of,
)
from equilib.geometry import (
    Simplex,
    Triangulation,
    el_refinement,
    grid_triangulation,
    refine_modulo,
    regular_triangulation,
    volume_in_chart,
)
from equilib.indices import (
    degree_oracle,
    index_regular,
    index_via_degree,
    make_affine_fixer,
)
from equilib.perturb import (
    MarkedRegion,
    PipelineParams,
    ReplyField,
    TargetPoint,
    TargetSpec,
    bonus_g0,
    bonus_g1,
    envelope_r,
    oplus,
    run_pipeline,
)
from equilib.solver import components, support_enumeration

F = Fraction
HALF = F(1, 2)


def finish(name, t0, limit):
    elapsed = time.monotonic() - t0
    assert elapsed < limit, f"{name}: took {elapsed:.1f}s (limit {limit}s)"
    print(f"{name}: PASS ({elapsed:.2f}s)")


def key(profile):
    return tuple(tuple(sorted(s.weights)) for s in profile)


def test_criterion_1_first_perturbation():
    t0 = time.monotonic()
    phis = _km_duplication_phi()
    for eps in (F(1, 10), F(1, 100)):
        g1 = km_perturbation_1(eps)
        reduced, trace = eliminate_strictly_dominated(g1)
        assert sorted((e.player, e.strategy) for e in trace) == [
            (0, "m"),
            (1, "M"),
            (1, "R"),
        ]
        es = support_enumeration(g1)
        assert len(es.isolated) == 1 and not es.subsets
        eq = es.isolated[0]
        assert index_regular(g1, eq) == 1
        proj = tuple(phi.apply(s) for phi, s in zip(phis, eq))
        assert key(proj) == key(
            (MixedStrategy.of({"t": HALF, "b": HALF}), MixedStrategy.pure("L"))
        )
    finish("criterion 1 (elimination perturbation)", t0, 1)


def test_criterion_2_second_perturbation():
    t0 = time.monotonic()
    phis = _km_duplication_phi()
    want = sorted(
        [
            (key(profile_of("t", "L")), 1),
            (key(profile_of("b", "L")), 1),
            (key(profile_of({"t": HALF, "b": HALF}, "L")), -1),
        ]
    )
    for eps in (F(1, 10), F(1, 100)):
        g2 = km_perturbation_2(eps)
        es = support_enumeration(g2)
        assert len(es.isolated) == 3 and not es.subsets
        found = sorted(
            (
                key(tuple(phi.apply(s) for phi, s in zip(phis, eq))),
                index_regular(g2, eq),
            )
            for eq in es.isolated
        )
        assert found == want
    finish("criterion 2 (three signed equilibria)", t0, 1)


def test_criterion_3_cycle_component():
    t0 = time.monotonic()
    km = km_game()
    es = support_enumeration(km)
    cg = components(es)
    assert len(cg.subsets) == 6
    assert len(cg.components) == 1
    adj = cg.adjacency()
    assert all(len(nbrs) == 2 for nbrs in adj.values())
    # connected 6-cycle: walking from any node visits all six
    seen = {0}
    prev, cur = None, 0
    for _ in range(6):
        nxt = [k for k in adj[cur] if k != prev]
        prev, cur = cur, nxt[0]
        seen.add(cur)
    assert cur == 0 and seen == set(range(6))
    # the cycle passes through exactly the six pure vertex profiles
    corners = set()
    shared = {}
    for i, ns in enumerate(cg.subsets):
        ks = {key(p) for p in ns.vertex_profiles()}
        shared[i] = ks
        corners |= {k for k in ks if all(len(s) == 1 for s in k)}
    assert corners == {
        key(profile_of(r, c))
        for r, c in [("t", "L"), ("b", "L"), ("b", "M"), ("m", "M"), ("m", "R"), ("t", "R")]
    }
    for i, j in cg.edges:
        assert len(shared[i] & shared[j]) == 1
    from equilib.indices import component_index

    subs = [cg.subsets[i] for i in cg.components[0]]
    assert component_index(es, subs) == 1
    finish("criterion 3 (single cycle component of index +1)", t0, 5)


def random_game(seed):
    rng = random.Random(1000 + seed)
    labels = [[f"r{i}" for i in range(3)], [f"c{j}" for j in range(3)]]
    payoffs = {
        (a, b): (F(rng.randint(0, 20)), F(rng.randint(0, 20)))
        for a in labels[0]
        for b in labels[1]
    }
    return FiniteGame.of(["p1", "p2"], labels, payoffs)


def is_strict_pure(game, eq):
    if not all(s.is_pure() for s in eq):
        return False
    for n in range(2):
        own = eq[n].support()[0]
        base = payoff_against(game, eq, n, own)
        for s in game.strategies[n]:
            if s != own and payoff_against(game, eq, n, s) >= base:
                return False
    return True


def test_criterion_4_random_game_indices():
    t0 = time.monotonic()
    collected = 0
    seed = 0
    checked_against_oracle = 0
    while collected < 50:
        game = random_game(seed)
        seed += 1
        es = support_enumeration(game)
        if es.subsets or not es.exhaustive:
            continue  # degenerate seed
        indices = [index_regular(game, eq) for eq in es.isolated]
        assert all(i in (1, -1) for i in indices)
        assert sum(indices) == 1
        for eq, idx in zip(es.isolated, indices):
            if is_strict_pure(game, eq):
                assert idx == 1
        if collected < 10:
            for eq, idx in zip(es.isolated, indices):
                assert index_via_degree(game, eq) == idx
            checked_against_oracle += 1
        collected += 1
    assert checked_against_oracle == 10
    finish("criterion 4 (50 random games, signed indices)", t0, 60)


def fixer_instance(k):
    dim = 1 + k % 3
    r = 1 if (k // 3) % 2 == 0 else -1
    rng = random.Random(100 + k)
    corners = [[F(int(i == j)) for j in range(dim + 1)] for i in range(dim + 1)]
    bary = [F(1, dim + 1)] * (dim + 1)

    def shrink(factor):
        return Simplex.of(
            [[b + factor * (c - b) for b, c in zip(bary, corner)] for corner in corners]
        )

    inner = F(rng.randint(2, 4), 10)
    outer = inner + F(rng.randint(1, 3), 10)
    return dim, r, shrink(inner), shrink(outer), bary


def test_criterion_5_affine_fixers():
    t0 = time.monotonic()
    for k in range(20):
        dim, r, X, Y, sigma = fixer_instance(k)
        fx = make_affine_fixer(X, Y, sigma, r)
        assert fx.index == r
        assert fx.apply(sigma) == sigma
        images = sorted(tuple(fx.apply(list(v))) for v in X.vertices)
        assert images == sorted(tuple(v) for v in Y.vertices)
        if dim <= 2:
            # independent check: the degree of the map around sigma, in a
            # barycentric chart of X, equals the declared index
            def fmap(t):
                lam = list(t) + [1 - sum(t)]
                p = [
                    sum(l * X.vertices[i][d] for i, l in enumerate(lam))
                    for d in range(dim + 1)
                ]
                q = fx.apply(p)
                mu = X.barycentric(q)
                return mu[:dim]

            center = F(1, dim + 1)
            box = [(center - F(1, 20), center + F(1, 20))] * dim
            assert degree_oracle(fmap, box, 64) == r
    finish("criterion 5 (20 fixer instances, oracle-checked)", t0, 30)


def split_refinement(seed, splits=4):
    rng = random.Random(seed)
    tri = Triangulation([(F(0), F(0)), (F(1), F(0)), (F(0), F(1))], [(0, 1, 2)])
    for _ in range(splits):
        tri = tri.split_edge(tuple(rng.choice(tri.faces_of_dim(1))))
    return tri


def sample_point(rng, tri):
    cell = rng.choice(tri.maximal)
    ws = [rng.randint(0, 6) for _ in cell]
    if sum(ws) == 0:
        ws[0] = 1
    tot = sum(ws)
    pts = [tri.vertices[i] for i in cell]
    return [
        sum(F(w, tot) * pts[k][d] for k, w in enumerate(ws)) for d in range(2)
    ]


def test_criterion_6_geometry():
    t0 = time.monotonic()
    # (a) grid statistics
    tri3 = grid_triangulation(3)
    assert (len(tri3.vertices), len(tri3.faces_of_dim(1)), len(tri3.maximal)) == (
        16,
        33,
        18,
    )
    # (b) carrier / barycentric invariants on 1000 random points
    rng = random.Random(2024)
    for seed in range(10):
        tri = split_refinement(seed)
        for _ in range(100):
            p = sample_point(rng, tri)
            carrier = tri.carrier(p)
            coords = tri.barycentric_coords(p)
            assert sum(coords.values()) == 1
            assert all(w > 0 for w in coords.values())
            assert set(coords) == set(carrier)
            recon = [
                sum(w * tri.vertices[i][d] for i, w in coords.items())
                for d in range(2)
            ]
            assert recon == p
    # (c) regular triangulations for 20 generic height vectors
    pts = [(F(i), F(j)) for i in range(3) for j in range(3)]
    for seed in range(20):
        hrng = random.Random(seed)
        heights = [F(hrng.randint(1, 10**6), 999983) for _ in pts]
        rt = regular_triangulation(pts, heights)
        rt.validate()
        total = sum(rt.cell_volume(c) for c in rt.maximal)
        assert total == volume_in_chart(pts, rt.chart) > 0
    # (d) arrangement refinement with a convex PL witness
    base = Triangulation(
        [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))], [(0, 1, 2)]
    ).split_edge((0, 1)).split_edge((0, 2))
    pc, gamma = el_refinement(base)
    vals = [gamma.value(v) for v in pc.vertices]
    assert all(0 <= v <= 1 for v in vals) and max(vals) == 1
    assert gamma.is_convex()
    assert gamma.nonlinear_across_every_interior_facet()
    # (e) refinement modulo a protected cell
    g2 = grid_triangulation(2)
    protected = [g2.maximal[0]]
    refined = refine_modulo(g2, protected, F(1, 2))
    refined.validate()
    protected_pts = tuple(sorted(g2.vertices[i] for i in protected[0]))
    surviving = {
        tuple(sorted(refined.vertices[i] for i in c)) for c in refined.maximal
    }
    assert protected_pts in surviving
    for c in refined.maximal:
        if {refined.vertices[i] for i in c} & set(protected_pts):
            continue
        assert refined.cell_diameter(c) <= F(1, 2)
    finish("criterion 6 (subdivision geometry)", t0, 120)


def midpoint_triangulation():
    return Triangulation(
        [(F(1), F(0)), (HALF, HALF), (F(0), F(1))],
        [(0, 1), (1, 2)],
        [(F(1), F(0)), (F(0), F(1))],
    )


def test_criterion_7_reply_field_and_bonuses(matching_pennies):
    t0 = time.monotonic()
    xi = F(1, 200)
    tg = build_tilde_game(
        matching_pennies, [midpoint_triangulation(), midpoint_triangulation()]
    )
    target = [F(3, 8), F(5, 8)]
    X = [
        Simplex.of([[F(11, 32), F(21, 32)], [F(13, 32), F(19, 32)]])
        for _ in range(2)
    ]
    Y = [
        Simplex.of([[F(10, 32), F(22, 32)], [F(14, 32), F(18, 32)]])
        for _ in range(2)
    ]
    fixers = tuple(
        make_affine_fixer(X[n], Y[n], target, 1 if n == 0 else -1)
        for n in range(2)
    )
    region = MarkedRegion(tuple(X), fixers)
    # payoff gaps in this base game reach 2, so the bonus budget must be
    # wider than that for the size certification to go through
    rf = ReplyField(tg, eps=F(5, 2), marked=[region])
    r_fns = envelope_r(matching_pennies, [tuple(X)], [F(1, 16)])
    eps0 = F(1, 100)

    rng = random.Random(7)

    def random_tilde_profile():
        out = []
        for n in range(2):
            ws = [rng.randint(0, 8) for _ in tg.first_labels[n]]
            if sum(ws) == 0:
                ws[0] = 1
            tot = sum(ws)
            first = MixedStrategy.of(
                {
                    l: F(w, tot)
                    for l, w in zip(tg.first_labels[n], ws)
                    if w
                }
            )
            second = MixedStrategy.pure(
                rng.choice(tg.second_labels(n))
            )
            out.append((first, second))
        return tuple(out)

    def pair_profile(prof):
        """Each player's (first, second) as the product mixture over its pair strategies."""
        return tuple(
            MixedStrategy.of(
                {f"{a}&{b}": wa * wb for a, wa in first.weights for b, wb in second.weights}
            )
            for first, second in prof
        )

    min_margin = None
    for _ in range(200):
        prof = random_tilde_profile()
        fvals = rf.value(prof)
        g1 = bonus_g1(tg, eps0, prof)
        g0 = bonus_g0(tg, rf, r_fns, eps0, prof)
        bonused, pairs = oplus(tg.finite_game, g0, g1), pair_profile(prof)
        for n in range(2):
            replies = best_replies(bonused, pairs, n)
            bf = {lab.split("&")[0] for lab in replies}
            bs = {lab.split("&")[1] for lab in replies}
            assert bf <= set(fvals[n][0].support())
            assert bs <= set(fvals[n][1].support())
        sigma = rf.projections(prof)
        if not region.strictly_contains_projection(matching_pennies, sigma):
            margin = max(
                max(payoff_vector(bonused, pairs, n)) - payoff(bonused, pairs, n)
                for n in range(2)
            )
            # robust non-equilibrium: any bonus perturbation below xi/2
            # leaves an improvement of at least xi/2
            assert margin > xi
            min_margin = margin if min_margin is None else min(min_margin, margin)
    assert min_margin is not None and min_margin > xi
    finish("criterion 7 (reply-field bonuses)", t0, 60)


def test_criterion_8_pipeline():
    t0 = time.monotonic()
    km = km_game()
    eps = F(1, 10)
    spec = TargetSpec(
        (
            TargetPoint(0, profile_of("t", "L"), 1),
            TargetPoint(0, profile_of("b", "L"), 1),
            TargetPoint(0, profile_of({"t": HALF, "b": HALF}, "L"), -1),
        )
    )
    perturbed, projections, report = run_pipeline(km, spec, PipelineParams(eps=eps))
    assert report.verified, report.failures
    found = sorted(
        (key(p), i) for p, i in zip(report.projections, report.indices)
    )
    assert found == sorted(
        [
            (key(profile_of("t", "L")), 1),
            (key(profile_of("b", "L")), 1),
            (key(profile_of({"t": HALF, "b": HALF}, "L")), -1),
        ]
    )
    # the payoff tensors differ entrywise by less than eps from the
    # duplicated-but-unperturbed game
    duplicated, _ = duplicate_strategy(
        km, 1, MixedStrategy.pure("L"), new_label="L'"
    )
    assert perturbed.strategies == duplicated.strategies
    for prof, entry in perturbed.payoffs.items():
        for n in range(2):
            assert abs(entry[n] - duplicated.payoffs[prof][n]) < eps
    finish("criterion 8 (full pipeline)", t0, 600)
