"""Horseshoe region geometry, verification report, manifolds, trellises."""

import math

import numpy as np
import pytest

from attractorlab import horseshoe
from attractorlab.horseshoe import (HorseshoeRegion, RefinementExplosion,
                                    count_components, find_saddles,
                                    leaf_component_count, leaf_strip_intervals,
                                    model_horseshoe_map, trellis,
                                    unstable_manifold, verify_ah)
from attractorlab.dynamics import find_cycle
from attractorlab.chaos import max_lyapunov_norm_sum
from attractorlab.maps import (gauss_rotation, pioneer_climax_full,
                               user_map)

SINK_Y = -79.0 / 19.0


def test_region_membership_and_frame_roundtrip():
    region = HorseshoeRegion()
    assert region.inside_h(np.array([[-2.0, 4.0]]))[0] == pytest.approx(4.0)
    assert region.inside_h(np.array([[5.0, 4.0]]))[0] == pytest.approx(-3.0)
    assert region.inside_c0(np.array([[-2.0, -3.0]]))[0] == pytest.approx(2.0)
    assert region.inside_c1(np.array([[-2.0, 11.0]]))[0] == pytest.approx(2.0)
    assert region.inside_s_half(np.array([[-2.0, 4.0]]))[0] == pytest.approx(1.0)

    framed = HorseshoeRegion(matrix=[[0.3, 0.1], [-0.2, 0.5]],
                             offset=[1.5, -2.0])
    pts = np.array([[0.0, 0.0], [-2.0, 4.0], [1.0, -3.0]])
    np.testing.assert_allclose(framed.to_model(framed.to_world(pts)), pts,
                               atol=1e-12)
    with pytest.raises(ValueError):
        HorseshoeRegion(matrix=[[1.0, 2.0], [2.0, 4.0]])


def test_region_inverts_its_frame_once(monkeypatch):
    matrix, offset = [[0.3, 0.1], [-0.2, 0.5]], [1.5, -2.0]
    framed = HorseshoeRegion(matrix=matrix, offset=offset)
    pts = np.array([[0.0, 0.0], [-2.0, 4.0], [1.0, -3.0]])
    # bit for bit what inverting the matrix on every call gave
    np.testing.assert_array_equal(
        framed.to_model(pts),
        (pts - np.asarray(offset)) @ np.linalg.inv(np.asarray(matrix)).T)
    np.testing.assert_allclose(framed.to_model(framed.to_world(pts)), pts,
                               atol=1e-12)
    handle = model_horseshoe_map(region=framed)
    before = verify_ah(handle, framed, sampling=16).as_text()
    calls = []
    real_inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv",
                        lambda m: calls.append(1) or real_inv(m))
    after = verify_ah(handle, framed, sampling=16).as_text()
    assert calls == []
    assert after == before


def test_region_sampling():
    region = HorseshoeRegion()
    for piece in ("h", "z", "c0", "c1", "s0", "s_half", "s1"):
        pts = region.sample(piece, 16)
        assert len(pts) > 0
    z = region.sample("z", 16)
    assert np.all(region.inside_z(z) >= 0)
    with pytest.raises(ValueError):
        region.sample("annulus", 8)
    hb = region.sample("h", 8, boundary=True)
    d = region.inside_h(hb)
    assert d.min() > -1e-9 and abs(d.min()) < 1e-9


def test_verify_ah_model_passes_with_exact_rates():
    handle = model_horseshoe_map()
    report = verify_ah(handle, HorseshoeRegion())
    assert report.all_pass, report.as_text()
    rates = report.check("foliation_rates").data
    assert rates["lambda_contr"] == pytest.approx(0.2, abs=1e-6)
    assert rates["mu_exp"] == pytest.approx(4.0, abs=1e-6)
    saddle = report.check("band_saddle").data["saddle"]
    assert saddle is not None and saddle.period == 1
    np.testing.assert_allclose(saddle.points[0], [0.0, 0.0], atol=1e-9)
    names = [e.name for e in report.checks]
    assert names == ["injectivity", "region_into_interior",
                     "caps_into_sink_cap", "fold_band_into_top_cap",
                     "vertical_transversality", "sink_cap_contraction",
                     "band_saddle", "foliation_rates"]
    text = report.as_text()
    assert text.splitlines()[0] == "condition\tstatus\tmargin\twitness"
    assert len(text.splitlines()) == 9


def test_verify_ah_framed_region():
    region = HorseshoeRegion(matrix=[[0.3, 0.1], [-0.2, 0.5]],
                             offset=[1.5, -2.0])
    handle = model_horseshoe_map(region=region)
    report = verify_ah(handle, region, sampling=32)
    assert report.all_pass, report.as_text()
    rates = report.check("foliation_rates").data
    assert rates["lambda_contr"] == pytest.approx(0.2, abs=1e-6)
    assert rates["mu_exp"] == pytest.approx(4.0, abs=1e-6)


def test_verify_ah_block_checks_match_the_point_loops():
    # a map with full, point-dependent Jacobians in a sheared frame: the
    # closed-form Lipschitz bound and the vectorised transversality angle
    # against one SVD 2-norm and one angle per sample point
    region = HorseshoeRegion(matrix=[[0.3, 0.1], [-0.2, 0.5]],
                             offset=[0.5, -0.25])
    handle = gauss_rotation(2.7, 0.3)
    report = verify_ah(handle, region, sampling=24)

    def model_jac(q):
        return region.inverse @ handle.eval(region.to_world(q), True)[1] @ \
            region.matrix

    c0 = region.sample("c0", 24)
    lip = max(np.linalg.norm(model_jac(q), 2)
              for q in c0[region.inside_c0(c0) > 1e-9])
    data = report.check("sink_cap_contraction").data
    assert data["lipschitz"] == pytest.approx(lip, rel=1e-12)
    z = region.sample("z", 24)
    img = region.to_model(handle.eval(region.to_world(z)))
    angles = [math.asin(min(1.0, abs(v[1]) / np.linalg.norm(v)))
              for v in (model_jac(q)[:, 1]
                        for q in z[region.inside_z(img) >= 0.0])]
    assert len(angles) > 100
    data = report.check("vertical_transversality").data
    assert data["min_angle"] == pytest.approx(min(angles), abs=1e-12)


def test_verify_ah_identity_fails_with_boundary_witness():
    ident = user_map(lambda x: x, 2, jac=lambda x: np.eye(2),
                     batch=lambda p: p)
    region = HorseshoeRegion()
    report = verify_ah(ident, region)
    assert not report.all_pass
    into = report.check("region_into_interior")
    assert into.status == "fail"
    assert into.margin <= 0.0
    # worst witness sits on the capsule boundary, which maps onto itself
    wd = region.inside_h(region.to_model(into.witness[None, :]))[0]
    assert abs(wd) < 1e-9
    assert report.check("caps_into_sink_cap").status == "fail"
    assert report.check("foliation_rates").status == "fail"
    with pytest.raises(KeyError):
        report.check("nonexistent")


def test_model_map_validation_and_seams():
    with pytest.raises(ValueError):
        model_horseshoe_map(contraction=1.2)
    with pytest.raises(ValueError):
        model_horseshoe_map(expansion=0.9)
    handle = model_horseshoe_map()
    # continuity across the four seams
    for seam in (-1.0, 3.0, 5.0, 9.0):
        for x1 in (-5.5, -2.0, 1.5):
            lo = handle.eval(np.array([x1, seam - 1e-9]))
            hi = handle.eval(np.array([x1, seam + 1e-9]))
            assert np.linalg.norm(hi - lo) < 1e-7


def test_model_map_band_edges_follow_the_written_formulas():
    lam, mu = 0.2, 4.0
    handle = model_horseshoe_map(contraction=lam, expansion=mu)

    def affine(scale, origin, const):
        return lambda x1, x2: (
            [scale[0] * (x1 - origin[0]) + const[0],
             scale[1] * (x2 - origin[1]) + const[1]],
            [[scale[0], 0.0], [0.0, scale[1]]])

    def fold(x1, x2):
        t = (x2 - 3.0) / 2.0
        r, h = lam * x1 + 1.6, 0.2 + 0.025 * (x1 + 6.0)
        c, s = math.cos(math.pi * t), math.sin(math.pi * t)
        return ([-1.6 + r * c, 12.0 + h * s],
                [[lam * c, -r * math.pi * s * 0.5],
                 [0.025 * s, h * math.pi * c * 0.5]])

    c0 = affine((lam, 0.05), (0.0, -1.0), (0.0, -4.0))
    s0 = affine((lam, mu), (0.0, 0.0), (0.0, 0.0))
    s1 = affine((-lam, -mu), (0.0, 0.0), (-3.2, 32.0))
    c1 = affine((-lam, -0.05), (0.0, 9.0), (-3.2, -4.0))
    up, down = (lambda v: np.nextafter(v, np.inf),
                lambda v: np.nextafter(v, -np.inf))
    # x2 <= -1 < x2 < 3 <= x2 <= 5 < x2 < 9 <= x2
    cases = [(-1.0, c0), (up(-1.0), s0), (down(3.0), s0), (3.0, fold),
             (5.0, fold), (up(5.0), s1), (down(9.0), s1), (9.0, c1)]
    for x2, band in cases:
        for x1 in (-5.5, -2.0, 1.5):
            x = np.array([x1, x2])
            img, jac = band(x1, x2)
            np.testing.assert_array_equal(handle.eval(x), img)
            np.testing.assert_array_equal(handle.eval(x, True)[1], jac)


def test_model_map_non_finite_rows_stay_non_finite():
    rng = np.random.default_rng(3)
    for region in (None, HorseshoeRegion([[1.0, 0.3], [0.0, 1.0]],
                                         [0.5, -0.25])):
        handle = model_horseshoe_map(region=region)
        for _ in range(50):
            pts = rng.uniform([-6.0, -5.0], [2.0, 13.0], size=(8, 2))
            bad = rng.random(8) < 0.5
            pts[bad, rng.integers(0, 2, size=bad.sum())] = np.nan
            img, jac = handle.eval(pts), handle.eval(pts, True)[1]
            assert np.array_equal(~np.isfinite(img).all(axis=1), bad)
            assert np.array_equal(~np.isfinite(jac).all(axis=(1, 2)), bad)
        for x in ([np.nan, 1.0], [1.0, np.nan], [np.nan, np.nan]):
            assert not np.isfinite(handle.eval(np.array(x))).all()
            assert not np.isfinite(handle.eval(np.array(x), True)[1]).all()


def test_model_fold_injectivity_sampled():
    handle = model_horseshoe_map()
    g1, g2 = np.meshgrid(np.linspace(-6.0, 2.0, 24),
                         np.linspace(3.0, 5.0, 24), indexing="ij")
    pts = np.column_stack([g1.ravel(), g2.ravel()])
    img = handle.eval(pts)
    d2 = ((img[:, None, :] - img[None, :, :]) ** 2).sum(axis=2)
    d2[np.diag_indices(len(img))] = np.inf
    pre_d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    assert d2[pre_d2 > 1e-6].min() > 1e-8


def test_find_saddles_model_inventory():
    handle = model_horseshoe_map()
    cycles = find_saddles(handle, [(-6.0, 2.0), (-5.0, 13.0)], k_max=2,
                          n_seeds=9)
    assert sorted(c.period for c in cycles) == [1, 1, 1, 2]
    anchors = {c.period: [] for c in cycles}
    for c in cycles:
        for p in c.points:
            anchors[c.period].append(p)
    fixed = np.array(anchors[1])
    expected = np.array([[0.0, 0.0], [0.0, SINK_Y], [-8.0 / 3.0, 6.4]])
    for e in expected:
        assert np.min(np.linalg.norm(fixed - e, axis=1)) < 1e-9
    two = [c for c in cycles if c.period == 2][0]
    want = {(-40.0 / 13.0, 32.0 / 17.0), (-8.0 / 13.0, 128.0 / 17.0)}
    for p in two.points:
        assert min(np.hypot(p[0] - a, p[1] - b) for a, b in want) < 1e-9
    np.testing.assert_allclose(np.sort(two.multipliers),
                               [-16.0, -0.04], atol=1e-9)
    assert two.stability == "saddle"
    with pytest.raises(ValueError):
        find_saddles(handle, [(-1, 1), (-1, 1)], k_max=0)


@pytest.mark.parametrize("period, seed", [
    (1, (0.05, 0.02)), (1, (0.1, -4.0)), (1, (-2.5, 6.3)), (2, (-3.0, 1.9))])
def test_find_cycle_commutes_with_the_frame(period, seed):
    region = HorseshoeRegion([[1.0, 0.3], [0.0, 1.0]], [0.5, -0.25])
    plain = find_cycle(model_horseshoe_map(), period, np.array(seed))
    framed = find_cycle(model_horseshoe_map(region=region), period,
                        region.to_world(np.array(seed)))
    assert framed.period == plain.period == period
    np.testing.assert_allclose(np.sort_complex(framed.multipliers),
                               np.sort_complex(plain.multipliers),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(framed.points, region.to_world(plain.points),
                               rtol=0, atol=1e-12)


def test_find_cycle_reduced_period_has_the_maps_multipliers():
    # f^2 closes at the saddle, but its minimal period is 1, so the
    # multipliers are those of f (0.2, 4), not of f^2 (0.04, 16)
    cyc = find_cycle(model_horseshoe_map(), 2, np.array([0.05, 0.02]))
    assert cyc.period == 1 and cyc.points.shape == (1, 2)
    np.testing.assert_allclose(cyc.points[0], [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(np.sort(cyc.multipliers.real), [0.2, 4.0],
                               rtol=1e-12)
    assert cyc.stability == "saddle"


def test_find_saddles_translation_finds_nothing():
    shift = user_map(lambda x: x + np.array([0.3, 0.0]), 2,
                     batch=lambda p: p + np.array([0.3, 0.0]))
    assert find_saddles(shift, [(-1.0, 1.0), (-1.0, 1.0)], n_seeds=4) == []


def _bisect(f, lo, hi):
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_find_saddles_pioneer_fixed_point_census():
    handle = pioneer_climax_full(3.0, 3.0)
    cycles = find_saddles(handle, [(0.0, 8.0), (0.0, 8.0)], k_max=1)
    assert len(cycles) == 5
    # axis roots of 0.8 y exp(3 - 0.8 y) = 1 and the interior crossing
    gy = lambda y: 0.8 * y * math.exp(3.0 - 0.8 * y) - 1.0
    y_lo = _bisect(gy, 0.01, 1.0)
    y_hi = _bisect(gy, 1.0, 8.0)
    hx = lambda x: (12.0 - 3.0 * x) * math.exp(3.0 * x - 9.0) - 1.0
    x_int = _bisect(hx, 1.0, 3.5)
    expected = np.array([[0.0, 0.0], [3.75, 0.0], [0.0, y_lo], [0.0, y_hi],
                         [x_int, 15.0 - 4.0 * x_int]])
    found = np.array([c.points[0] for c in cycles])
    for e in expected:
        assert np.min(np.linalg.norm(found - e, axis=1)) < 1e-8
    interior = cycles[int(np.argmin(np.linalg.norm(found - expected[-1],
                                                   axis=1)))]
    assert interior.stability == "saddle"


def test_unstable_manifold_model_exact_axis():
    handle = model_horseshoe_map()
    saddle = find_cycle(handle, 1, np.array([0.05, 0.02]))
    cloud = unstable_manifold(handle, saddle, arc_budget=4.0, tol=1e-3)
    pts = cloud.points
    assert cloud.ordered
    # the branch stays on the x2-axis: S0 is diagonal and the lower cap
    # preserves x1 = 0, and arc budget 2 per branch stops short of the fold
    assert np.abs(pts[:, 0]).max() < 1e-9
    assert np.all(np.diff(pts[:, 1]) > 0)
    gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    assert gaps.max() <= 1e-3 + 1e-9
    assert cloud.meta["multiplier"] == pytest.approx(4.0, abs=1e-9)
    assert cloud.meta["period"] == 1
    n_minus, n_plus = cloud.meta["branch_sizes"]
    assert n_minus + n_plus + 1 == len(pts)
    # the downward branch crosses into the sink cap (x2 < -1) and stops
    # where its arclength reaches the budget's half, 2, within one gap
    assert -2.0 - 1e-3 <= pts[0, 1] <= -2.0


def test_unstable_manifold_stop_reasons():
    handle = model_horseshoe_map()
    saddle = find_cycle(handle, 1, np.array([0.05, 0.02]))
    short = unstable_manifold(handle, saddle, arc_budget=4.0, tol=1e-3)
    assert short.meta["stop_reasons"] == ("arc_budget", "arc_budget")
    assert min(short.meta["branch_arclength"]) >= 2.0
    # the lower branch runs into the sink with about 4.16 of arclength,
    # short of half of 50; it stalls there instead of refining forever
    cloud = unstable_manifold(handle, saddle, arc_budget=50.0, tol=1e-3)
    meta = cloud.meta
    assert meta["stop_reasons"] == ("stalled", "arc_budget")
    arc_minus, arc_plus = meta["branch_arclength"]
    assert arc_minus < 25.0 <= arc_plus
    # early gains are far below tol but grow, so no branch stops early
    assert min(meta["branch_iterations"]) > 5
    assert len(cloud.points) < 200_000
    n_minus, n_plus = meta["branch_sizes"]
    assert n_minus + n_plus + 1 == len(cloud.points)
    gaps = np.linalg.norm(np.diff(cloud.points, axis=0), axis=1)
    assert gaps.max() <= 1e-3
    assert np.linalg.norm(cloud.points[0] - [0.0, SINK_Y]) < 1e-3


@pytest.mark.parametrize("make, seed, arc_budget, tol", [
    (model_horseshoe_map, (0.05, 0.02), 4.0, 1e-3),
    (model_horseshoe_map, (0.05, 0.02), 50.0, 1e-3),
    (lambda: pioneer_climax_full(3.0, 3.0), (2.498, 5.007), 40.0, 2e-3)])
def test_branches_stop_within_one_gap_of_the_arc_budget(make, seed,
                                                        arc_budget, tol):
    handle = make()
    saddle = find_cycle(handle, 1, np.array(seed))
    meta = unstable_manifold(handle, saddle, arc_budget, tol).meta
    half = arc_budget / 2.0
    arcs = [arc for reason, arc in zip(meta["stop_reasons"],
                                       meta["branch_arclength"])
            if reason == "arc_budget"]
    assert arcs
    for arc in arcs:
        assert half <= arc <= half + tol


def test_unstable_manifold_rejects_wrong_stability():
    handle = model_horseshoe_map()
    sink = find_cycle(handle, 1, np.array([0.1, -4.0]))
    with pytest.raises(ValueError):
        unstable_manifold(handle, sink)
    source = find_cycle(pioneer_climax_full(3.0, 3.0), 1,
                        np.array([3.7, 0.05]))
    assert source.stability == "source"
    with pytest.raises(ValueError):
        unstable_manifold(pioneer_climax_full(3.0, 3.0), source)


def test_refinement_explosion_carries_partial(monkeypatch):
    # chaotic vertical dynamics fold the branch forever; a tiny point
    # budget must surface as RefinementExplosion with the partial cloud
    def step(x):
        return np.array([0.5 * x[0] + 0.1 * x[1],
                         3.9 * x[1] * (1.0 - x[1])])

    def batch(p):
        return np.column_stack([0.5 * p[:, 0] + 0.1 * p[:, 1],
                                3.9 * p[:, 1] * (1.0 - p[:, 1])])

    def jac(x):
        return np.array([[0.5, 0.1], [0.0, 3.9 * (1.0 - 2.0 * x[1])]])

    handle = user_map(step, 2, jac=jac, batch=batch)
    saddle = find_cycle(handle, 1, np.array([0.01, 0.01]))
    assert saddle.stability == "saddle"
    monkeypatch.setattr(horseshoe, "POINT_CAP", 20_000)
    with pytest.raises(RefinementExplosion) as exc:
        unstable_manifold(handle, saddle, arc_budget=50.0, tol=1e-7)
    partial = exc.value.partial
    assert 0 < len(partial.points) <= 20_000
    assert partial.ordered


def test_trellis_components_and_cycle_exchange():
    handle = model_horseshoe_map()
    two = find_cycle(handle, 2, np.array([-3.0, 1.9]))
    assert two.period == 2
    cloud = trellis(handle, two, arc_budget=1.0, tol=1e-3)
    slices = cloud.meta["component_slices"]
    assert len(slices) == 2
    assert slices[0][0] == 0 and slices[-1][1] == len(cloud.points)
    comp0 = cloud.points[slices[0][0]:slices[0][1]]
    comp1 = cloud.points[slices[1][0]:slices[1][1]]
    # the second component passes through the other cycle point exactly
    p0, p1 = two.points
    assert np.min(np.linalg.norm(comp0 - p0, axis=1)) < 1e-9
    assert np.min(np.linalg.norm(comp1 - p1, axis=1)) < 1e-9
    # component 1 is the pointwise image of component 0 plus refinements
    img0 = handle.eval(comp0[:50])
    d = np.linalg.norm(comp1[None, :, :] - img0[:, None, :], axis=2)
    assert d.min(axis=1).max() < 1e-9


def test_leaf_strip_intervals_and_component_counts():
    np.testing.assert_allclose(leaf_strip_intervals(0), [[-6.0, 2.0]])
    np.testing.assert_allclose(leaf_strip_intervals(1),
                               [[-3.6, -2.0], [-1.2, 0.4]], atol=1e-12)
    lvl1 = leaf_strip_intervals(1)
    lvl2 = leaf_strip_intervals(2)
    for lo, hi in lvl2:
        assert any(plo - 1e-12 <= lo and hi <= phi + 1e-12
                   for plo, phi in lvl1)
    for depth in range(7):
        count = leaf_component_count(depth, n_samples=1 << 18)
        assert count == 2 ** depth
    with pytest.raises(ValueError):
        leaf_component_count(-1)
    with pytest.raises(ValueError):
        leaf_component_count(2, x2_level=20.0)
    assert count_components(np.array([True, True, False, True])) == 2
    assert count_components(np.array([], dtype=bool)) == 0


def test_norm_sum_exact_at_model_saddle():
    handle = model_horseshoe_map()
    est = max_lyapunov_norm_sum(handle, [0.0, 0.0], 500, 0)
    # the origin is float-exact fixed; every step contributes log 4
    assert est.max_exponent == pytest.approx(math.log(4.0), abs=1e-12)
