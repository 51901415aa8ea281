"""Horseshoe region geometry, verification report, manifolds, trellises."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attractorlab import _kernels, horseshoe
from attractorlab.horseshoe import (HorseshoeRegion, RefinementExplosion,
                                    find_saddles, model_horseshoe_map,
                                    trellis, unstable_manifold, verify_ah)
from attractorlab.dynamics import Cycle, find_cycle
from attractorlab.chaos import max_lyapunov_norm_sum
from attractorlab.maps import (GOLDEN_MEAN, gauss_rotation,
                               pioneer_climax_full, user_map)

from model_oracles import leaf_component_count, leaf_strip_intervals

SINK_Y = -79.0 / 19.0


# a known point of each piece of H* and its signed distance inside it
_PIECE_POINTS = [("h", [-2.0, 4.0], 4.0), ("h", [5.0, 4.0], -3.0),
                 ("z", [-3.0, 4.0], 3.0), ("c0", [-2.0, -3.0], 2.0),
                 ("c1", [-2.0, 11.0], 2.0), ("s0", [-2.0, 1.0], 2.0),
                 ("s_half", [-2.0, 4.0], 1.0), ("s1", [-2.0, 7.0], 2.0),
                 ("s0", [-2.0, 4.0], -1.0), ("c1", [-2.0, 8.0], -1.0)]


def test_region_membership_and_frame_roundtrip():
    region = HorseshoeRegion()
    for piece, q, depth in _PIECE_POINTS:
        assert region.inside(piece, np.array([q]))[0] == pytest.approx(depth)
    assert {piece for piece, _, _ in _PIECE_POINTS} == {
        "h", "z", "c0", "c1", "s0", "s_half", "s1"}
    with pytest.raises(ValueError, match="unknown piece"):
        region.inside("annulus", np.zeros(2))

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
    assert np.all(region.inside("z", z) >= 0)
    with pytest.raises(ValueError):
        region.sample("annulus", 8)
    hb = region.sample("h", 8, boundary=True)
    d = region.inside("h", hb)
    assert d.min() > -1e-9 and abs(d.min()) < 1e-9


def test_verify_ah_model_passes_with_exact_rates():
    handle = model_horseshoe_map()
    report = verify_ah(handle, HorseshoeRegion())
    assert report.all_pass, report.as_text()
    rates = report.check("foliation_rates").data
    assert rates["lambda_contr"] == pytest.approx(0.2, abs=1e-12)
    assert rates["mu_exp"] == pytest.approx(4.0, abs=1e-12)
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
    assert rates["lambda_contr"] == pytest.approx(0.2, abs=1e-12)
    assert rates["mu_exp"] == pytest.approx(4.0, abs=1e-12)


@pytest.mark.parametrize("sampling", [2, 3, 4, 5])
@pytest.mark.parametrize("frame", [None, [[0.3, 0.1], [-0.2, 0.5]]])
def test_verify_ah_never_raises_at_coarse_sampling(sampling, frame):
    region = HorseshoeRegion(matrix=frame)
    report = verify_ah(model_horseshoe_map(region=region), region,
                       sampling=sampling)
    assert len(report.checks) == 8
    if sampling == 2:
        # no sample lies strictly inside C0, Z or a band
        for name in ("sink_cap_contraction", "foliation_rates"):
            check = report.check(name)
            assert check.status == "inconclusive"
            assert check.witness.startswith("no sample strictly inside")


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
              for q in c0[region.inside("c0", c0) > 1e-9])
    data = report.check("sink_cap_contraction").data
    assert data["lipschitz"] == pytest.approx(lip, rel=1e-12)
    z = region.sample("z", 24)
    img = region.to_model(handle.eval(region.to_world(z)))
    angles = [math.asin(min(1.0, abs(v[1]) / np.linalg.norm(v)))
              for v in (model_jac(q)[:, 1]
                        for q in z[region.inside("z", img) >= 0.0])]
    assert len(angles) > 100
    data = report.check("vertical_transversality").data
    assert data["min_angle"] == pytest.approx(min(angles), abs=1e-12)


def test_verify_ah_identity_fails_with_boundary_witness():
    ident = user_map(lambda x: x, jac=lambda x: np.eye(2),
                     batch=lambda p: p)
    region = HorseshoeRegion()
    report = verify_ah(ident, region)
    assert not report.all_pass
    into = report.check("region_into_interior")
    assert into.status == "fail"
    assert into.margin <= 0.0
    # worst witness sits on the capsule boundary, which maps onto itself
    wd = region.inside("h", region.to_model(into.witness[None, :]))[0]
    assert abs(wd) < 1e-9
    assert report.check("caps_into_sink_cap").status == "fail"
    assert report.check("foliation_rates").status == "fail"
    # the identity's Newton matrix J - I is zero, so no seed finds a saddle
    assert "\tno saddle found in lower band\n" in report.as_text()
    with pytest.raises(KeyError):
        report.check("nonexistent")


def test_injectivity_fail_witness_collides_with_its_partner():
    # the fold |x1 + 2| sends x1 = -2 - d and -2 + d to one image; the
    # witness and its partner have equal images from separated preimages
    fold = user_map(lambda x: np.array([0.1 * abs(x[0] + 2.0) - 2.0,
                                        0.1 * x[1] + 3.0]))
    check = verify_ah(fold, HorseshoeRegion(), sampling=16).check(
        "injectivity")
    assert check.status == "fail"
    partner = check.data["collides_with"]
    assert np.linalg.norm(fold.eval(check.witness)
                          - fold.eval(partner)) < 1e-7
    assert np.linalg.norm(check.witness - partner) > 1e-4


@pytest.mark.parametrize("matrix, offset", [
    ([[np.nan, 0.0], [0.0, 1.0]], None),
    ([[1.0, 0.0], [0.0, np.inf]], None),
    (None, [0.0, np.nan])])
def test_region_rejects_a_non_finite_frame(matrix, offset):
    with pytest.raises(ValueError, match="frame must be finite"):
        HorseshoeRegion(matrix=matrix, offset=offset)


def test_sink_cap_margin_on_a_failed_sink_search():
    # a translation has no fixed point: Newton's matrix J - I is zero, so
    # the sink search fails, and the margin is still 1 - lip = 0
    shift = user_map(lambda x: x + [1.0, 0.0], jac=lambda x: np.eye(2),
                     batch=lambda p: p + [1.0, 0.0])
    check = verify_ah(shift, HorseshoeRegion(), sampling=8).check(
        "sink_cap_contraction")
    assert check.status == "fail"
    assert check.witness.startswith("sink search failed: ")
    assert "singular" in check.witness
    assert check.margin == 0.0


def test_band_saddle_reads_the_unstable_angle_in_model_coordinates():
    # a linear saddle at model point (-2, 1) of the frame 2 I: multiplier
    # 3 along a direction tilted phi from vertical, 0.5 along horizontal
    phi = 0.05
    region = HorseshoeRegion(matrix=[[2.0, 0.0], [0.0, 2.0]])
    p = region.to_world(np.array([-2.0, 1.0]))
    vecs = np.array([[math.sin(phi), 1.0], [math.cos(phi), 0.0]])
    a = vecs @ np.diag([3.0, 0.5]) @ np.linalg.inv(vecs)
    lin = user_map(lambda x: p + a @ (x - p), jac=lambda x: a,
                   batch=lambda x: p + (x - p) @ a.T)
    check = verify_ah(lin, region, sampling=8).check("band_saddle")
    np.testing.assert_allclose(check.data["saddle"].points[0], p, atol=1e-12)
    assert check.data["unstable_angle_from_vertical"] == pytest.approx(
        phi, abs=1e-12)
    assert check.status == "fail"


def test_model_map_validation_and_seams():
    with pytest.raises(ValueError):
        model_horseshoe_map(contraction=1.2)
    with pytest.raises(ValueError):
        model_horseshoe_map(expansion=0.9)
    # from contraction 4/15 on, the images of S0 and S1 overlap: at 0.27,
    # (-5.9, 1) and (-5.9519, 7) both map to about (-1.593, 4)
    with pytest.raises(ValueError, match="4/15"):
        model_horseshoe_map(contraction=0.27)
    report = verify_ah(model_horseshoe_map(contraction=0.26),
                       HorseshoeRegion())
    assert all(c.status == "pass" for c in report.checks), report.as_text()
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


@pytest.mark.parametrize("box", [[(-1, 1), (-1, 1), (-1, 1)], [-1, 1, -1, 1],
                                 [(-1, 1)]])
def test_find_saddles_needs_a_two_axis_box(box):
    with pytest.raises(ValueError, match=r"box must have shape \(2, 2\)"):
        find_saddles(model_horseshoe_map(), box)


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


def _period_product(handle, cycle):
    """The derivative of f^k at the cycle's first point, multiplied out
    from the handle's Jacobians along the orbit."""
    x, prod = cycle.points[0], np.eye(2)
    for _ in range(cycle.period):
        x, jac = handle.eval(x, True)
        prod = jac @ prod
    return prod


_CYCLE_CENSUS = [
    (lambda: pioneer_climax_full(3.0, 3.0), [(0.0, 8.0), (0.0, 8.0)]),
    (model_horseshoe_map, [(-6.0, 2.0), (-5.0, 13.0)])]


@pytest.mark.parametrize("make, box", _CYCLE_CENSUS)
def test_cycle_vectors_are_unit_eigenvectors_of_the_period_product(make,
                                                                   box):
    handle = make()
    cycles = find_saddles(handle, box, k_max=2)
    assert len(cycles) >= 4
    for c in cycles:
        jac = _period_product(handle, c)
        assert c.vectors.shape == (2, 2)
        for mu, v in zip(c.multipliers, c.vectors.T):
            assert np.linalg.norm(jac @ v - mu * v) <= \
                1e-9 * np.linalg.norm(jac, 2)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    if make is model_horseshoe_map:
        # every band of the model is diagonal, so are its cycles' products
        for c in cycles:
            assert np.sort(np.abs(c.vectors).ravel()) == \
                pytest.approx([0.0, 0.0, 1.0, 1.0], abs=1e-12)
            assert abs(np.linalg.det(c.vectors)) == pytest.approx(1.0)
        origin = [c for c in cycles if np.linalg.norm(c.points[0]) < 1e-9][0]
        up = origin.vectors[:, np.abs(origin.multipliers) > 1][:, 0]
        assert np.abs(up) == pytest.approx([0.0, 1.0], abs=1e-12)


@pytest.mark.parametrize("make, box", _CYCLE_CENSUS)
def test_find_saddles_returns_each_orbit_once(make, box):
    # seeds that converge to one orbit may land a last bit apart (or on
    # -0.0 against 0.0); the orbit must still come back once
    cycles = find_saddles(make(), box, k_max=2)
    keys = [(c.period, frozenset(map(tuple, np.round(c.points, 6) + 0.0)))
            for c in cycles]
    assert len(set(keys)) == len(keys)


def test_find_saddles_translation_finds_nothing():
    shift = user_map(lambda x: x + np.array([0.3, 0.0]),
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
    # a hand-built saddle whose unstable multiplier is not real
    spiral = Cycle(np.zeros((1, 2)), 1, np.array([2.0 + 0.5j, 0.5]),
                   "saddle", np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="unstable multiplier must be real"):
        unstable_manifold(handle, spiral)


@pytest.mark.parametrize("tol, arc_budget", [
    (0.0, 4.0), (-1.0, 4.0), (np.nan, 4.0), (np.inf, 4.0),
    (1e-3, 0.0), (1e-3, -4.0), (1e-3, np.nan), (1e-3, np.inf)])
def test_manifolds_reject_tolerances_that_are_not_finite_and_positive(
        tol, arc_budget):
    handle = model_horseshoe_map()
    saddle = find_cycle(handle, 1, np.array([0.05, 0.02]))
    for trace in (unstable_manifold, trellis):
        with pytest.raises(ValueError, match="finite and positive"):
            trace(handle, saddle, arc_budget=arc_budget, tol=tol)


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

    handle = user_map(step, jac=jac, batch=batch)
    saddle = find_cycle(handle, 1, np.array([0.01, 0.01]))
    assert saddle.stability == "saddle"
    monkeypatch.setattr(horseshoe, "POINT_CAP", 20_000)
    with pytest.raises(RefinementExplosion) as exc:
        unstable_manifold(handle, saddle, arc_budget=50.0, tol=1e-7)
    partial = exc.value.partial
    assert 0 < len(partial.points) <= 20_000
    assert partial.ordered


MANIFOLD_FRAME = HorseshoeRegion(matrix=[[0.7, -0.4], [0.2, 1.3]],
                                 offset=[3.1, -2.2])

# name: (map, period, saddle seed, arc_budget, tol, unstable multiplier)
MANIFOLD_FIXTURES = {
    "model": (model_horseshoe_map, 1, (0.05, 0.02), 50.0, 1e-3, 4.0),
    "model_framed": (lambda: model_horseshoe_map(MANIFOLD_FRAME), 1,
                     MANIFOLD_FRAME.to_world(np.array([0.05, 0.02])), 20.0,
                     1e-3, 4.0),
    "pioneer": (lambda: pioneer_climax_full(3.0, 3.0), 1, (2.498, 5.007),
                40.0, 2e-3, -2.3952),
    # the same saddle, to the last bits Newton gives from this seed: a
    # fundamental segment laid along the eigenvector misses the image of
    # its start by about 7e-4 once grown, so each image begins away from
    # where the one before it ends (gaps up to 1.3 tol)
    "pioneer_seed_2": (lambda: pioneer_climax_full(3.0, 3.0), 1, (2.49, 5.0),
                       40.0, 2e-3, -2.3952),
    "model_period_2": (model_horseshoe_map, 2, (-3.0, 1.9), 1.0, 1e-3,
                       -16.0),
}


def manifold_fixture(name):
    make, period, seed, arc_budget, tol, mu = MANIFOLD_FIXTURES[name]
    handle = make()
    saddle = find_cycle(handle, period, np.array(seed))
    assert saddle.period == period
    return handle, saddle, arc_budget, tol, mu


@pytest.mark.parametrize("name", MANIFOLD_FIXTURES)
def test_trellis_gaps_are_at_most_tol(name):
    # catches growth under f^k when mu < 0, whose images alternate sides
    # of the saddle (pioneer gaps up to 12.3, period-2 gaps up to 0.14),
    # and a refinement that stops cutting before every gap is within tol
    handle, saddle, arc_budget, tol, mu = manifold_fixture(name)
    cloud = trellis(handle, saddle, arc_budget, tol)
    assert cloud.meta["period"] == saddle.period
    assert cloud.meta["multiplier"] == pytest.approx(mu, abs=1e-4)
    for start, stop in cloud.meta["component_slices"]:
        gaps = np.linalg.norm(np.diff(cloud.points[start:stop], axis=0),
                              axis=1)
        assert gaps.max() <= tol


@pytest.mark.parametrize("name", MANIFOLD_FIXTURES)
def test_manifold_length_is_the_branch_arclength(name):
    # catches the f^k zigzag when mu < 0 (pioneer: 113.1 against 40.0)
    # and an arclength that counts the part of the last iterate cut away
    handle, saddle, arc_budget, tol, _ = manifold_fixture(name)
    cloud = unstable_manifold(handle, saddle, arc_budget, tol)
    length = np.linalg.norm(np.diff(cloud.points, axis=0), axis=1).sum()
    assert length == pytest.approx(sum(cloud.meta["branch_arclength"]),
                                   abs=1e-5)


def manifold_branches(cloud):
    """The (minus, plus) branches, each from the saddle outward."""
    n_minus = cloud.meta["branch_sizes"][0]
    return cloud.points[:n_minus][::-1], cloud.points[n_minus + 1:]


@pytest.mark.parametrize("cap, capped", [(120_000, "minus"),
                                        (20_000, "plus")])
def test_refinement_explosion_lays_the_partial_out_like_the_polyline(
        monkeypatch, cap, capped):
    # the cap stops the minus branch at 120 000 points and the plus branch
    # at 20 000; the partial is minus reversed, the saddle, plus, like the
    # full polyline, and not the branches laid end to end (a 0.112 jump)
    handle = pioneer_climax_full(3.0, 3.0)
    saddle = find_cycle(handle, 1, np.array([2.498, 5.007]))
    tol = 2e-3
    full = dict(zip(("minus", "plus"), manifold_branches(
        unstable_manifold(handle, saddle, 300.0, tol))))
    monkeypatch.setattr(horseshoe, "POINT_CAP", cap)
    with pytest.raises(RefinementExplosion) as exc:
        unstable_manifold(handle, saddle, 300.0, tol)
    partial = exc.value.partial
    pts = partial.points
    assert partial.ordered and len(pts) <= cap
    at = np.flatnonzero((pts == saddle.points[0]).all(axis=1))
    assert len(at) == 1
    s = int(at[0])
    joins = _kernels.row_norms(np.diff(pts[max(s - 1, 0):s + 2], axis=0))
    assert joins.max() <= tol
    branches = {"minus": pts[:s][::-1], "plus": pts[s + 1:]}
    if capped == "minus":
        assert np.array_equal(branches["plus"], full["plus"])
    else:
        assert len(branches["minus"]) == 0
    # the capped branch is the full one up to its first gap above tol,
    # where the capped iterate's refinement stopped
    branch, full_branch = branches[capped], full[capped]
    over = np.flatnonzero(_kernels.row_norms(np.diff(branch, axis=0)) > tol)
    n = int(over[0]) + 1 if over.size else len(branch)
    assert 0 < n and len(branch) < len(full_branch)
    assert np.array_equal(branch[:n], full_branch[:n])


def test_growth_images_only_what_the_budget_keeps(monkeypatch):
    # per iterate, the rows imaged before refinement are at most the rows
    # the budget keeps for it plus one block; imaging whole iterates fails
    # this, since the minus branch's last keeps 572 of its 60 782 rows
    handle = pioneer_climax_full(3.0, 3.0)
    saddle = find_cycle(handle, 1, np.array([2.498, 5.007]))
    imaged, kept = [0], []

    def count(x, with_jac=False):
        imaged[-1] += len(np.atleast_2d(x))
        return handle.eval(x, with_jac)

    refine = horseshoe._refine_segment

    def spy(_, k, pre, img, gaps, tol, n_kept):
        # refinement images through the uncounted handle
        kept.append(len(img) * k)
        imaged.append(0)
        return refine(handle, k, pre, img, gaps, tol, n_kept)

    monkeypatch.setattr(horseshoe, "_refine_segment", spy)
    cloud = unstable_manifold(dataclasses.replace(handle, eval=count),
                              saddle, 300.0, 2e-3)
    m = 2  # mu < 0, so the branches grow under f^2
    assert cloud.meta["multiplier"] < 0
    assert len(kept) == sum(cloud.meta["branch_iterations"])
    # a branch's first count also holds the m rows of its segment's end
    for rows, keep in zip(imaged, kept):
        assert rows <= keep + m * (horseshoe._IMAGE_BLOCK + 1)


def _refine_by_insert(handle, k, pre, img, tol, cap):
    """The np.insert form of horseshoe._refine_segment, its oracle: the
    refined image, or _CapReached with the image the cap stopped at, cut
    to cap rows.  It measures every round's gaps itself."""
    for _ in range(60):
        gaps = np.linalg.norm(np.diff(img, axis=0), axis=1)
        big = np.flatnonzero(gaps > tol)
        parts = np.ceil(gaps[big] / tol)
        if len(img) + np.sum(parts - 1.0) > cap:
            raise horseshoe._CapReached(img[:cap])
        if big.size == 0:
            return img
        new = parts.astype(np.int64) - 1
        at = np.repeat(big, new)
        j = np.arange(1, len(at) + 1) - np.repeat(np.cumsum(new) - new, new)
        t = (j / np.repeat(parts, new))[:, None]
        cut_pre = pre[at] + t * (pre[at + 1] - pre[at])
        cut_img = horseshoe._power_eval(handle, cut_pre, k)
        pre = np.insert(pre, at + 1, cut_pre, axis=0)
        img = np.insert(img, at + 1, cut_img, axis=0)
    raise horseshoe._CapReached(img[:cap])


# name: (handle, box of segment starts, frame applied to the segment)
ORACLE_MAPS = {
    "gauss": (gauss_rotation(3.6, GOLDEN_MEAN), (-1.5, 1.5, -1.5, 1.5),
              None),
    "pioneer": (pioneer_climax_full(3.0, 3.0), (0.5, 4.0, 0.5, 6.0), None),
    "model": (model_horseshoe_map(), (-6.0, 2.0, -5.0, 13.0), None),
    "model_framed": (model_horseshoe_map(MANIFOLD_FRAME),
                     (-6.0, 2.0, -5.0, 13.0), MANIFOLD_FRAME),
}


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(sorted(ORACLE_MAPS)),
       start=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       angle=st.floats(0.0, 2.0 * math.pi),
       length=st.floats(0.05, 1.0),
       n=st.integers(2, 12), k=st.integers(1, 2),
       tol=st.sampled_from([2e-3, 1e-2, 5e-2]),
       slack=st.sampled_from([0, 3, 40, 400, 20_000]))
def test_refine_segment_matches_the_insert_oracle(name, start, angle, length,
                                                  n, k, tol, slack):
    handle, (x0, x1, y0, y1), frame = ORACLE_MAPS[name]
    a = np.array([x0 + start[0] * (x1 - x0), y0 + start[1] * (y1 - y0)])
    b = a + length * np.array([math.cos(angle), math.sin(angle)])
    pre = np.linspace(a, b, n)
    if frame is not None:
        pre = frame.to_world(pre)
    img = horseshoe._power_eval(handle, pre, k)
    gaps = _kernels.row_norms(np.diff(img, axis=0))
    cap = n + slack
    kept = horseshoe.POINT_CAP - cap
    try:
        want = _refine_by_insert(handle, k, pre, img, tol, cap)
    except horseshoe._CapReached as stop:
        with pytest.raises(horseshoe._CapReached) as got:
            horseshoe._refine_segment(handle, k, pre, img, gaps, tol, kept)
        assert got.value.img.tobytes() == stop.img.tobytes()
        return
    got, gaps = horseshoe._refine_segment(handle, k, pre, img, gaps, tol,
                                          kept)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert gaps.tobytes() == np.linalg.norm(np.diff(got, axis=0),
                                            axis=1).tobytes()
    assert gaps.max(initial=0.0) <= tol
    # the input points keep their order: each is found after the last
    rows = got.view(np.complex128).ravel()
    pos = -1
    for row in img.view(np.complex128).ravel():
        pos += 1 + int(np.flatnonzero(rows[pos + 1:] == row)[0])
    assert pos < len(got)


@pytest.mark.parametrize("name", MANIFOLD_FIXTURES)
def test_smaller_budget_branches_are_a_prefix(name):
    # catches refining less of the last iterate than the budget keeps
    # (slicing the coarse image at searchsorted(half) + 1): the cut then
    # falls short and the branch grows on from a truncated image
    handle, saddle, arc_budget, tol, _ = manifold_fixture(name)
    large = unstable_manifold(handle, saddle, arc_budget, tol)
    small = unstable_manifold(handle, saddle, arc_budget / 2.0, tol)
    for short, full in zip(manifold_branches(small),
                           manifold_branches(large)):
        assert len(short) <= len(full)
        assert np.array_equal(short, full[:len(short)])


@pytest.mark.parametrize("name", MANIFOLD_FIXTURES)
def test_manifold_leaves_the_saddle_along_its_unstable_vector(name):
    handle, saddle, arc_budget, tol, _ = manifold_fixture(name)
    cloud = unstable_manifold(handle, saddle, arc_budget, tol)
    u = saddle.vectors[:, np.abs(saddle.multipliers) > 1][:, 0].real
    for sign, branch in zip((-1.0, 1.0), manifold_branches(cloud)):
        step = branch[0] - saddle.points[0]
        assert step / np.linalg.norm(step) == \
            pytest.approx(sign * u, abs=1e-6)


def test_period_one_trellis_is_the_manifold_uncopied(monkeypatch):
    handle, saddle, arc_budget, tol, _ = manifold_fixture("model")
    grown = []
    grow = horseshoe.unstable_manifold
    monkeypatch.setattr(horseshoe, "unstable_manifold",
                        lambda *args: grown.append(grow(*args)) or grown[-1])
    cloud = trellis(handle, saddle, arc_budget, tol)
    assert cloud.points is grown[0].points
    assert cloud.meta["component_slices"] == [(0, len(cloud.points))]


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
        assert leaf_component_count(depth) == 2 ** depth
    with pytest.raises(ValueError):
        leaf_component_count(-1)
    with pytest.raises(ValueError):
        leaf_component_count(2, x2_level=20.0)


def test_norm_sum_exact_at_model_saddle():
    handle = model_horseshoe_map()
    est = max_lyapunov_norm_sum(handle, [0.0, 0.0], 500, 0)
    # the origin is float-exact fixed; every step contributes log 4
    assert est.max_exponent == pytest.approx(math.log(4.0), abs=1e-12)


def test_point_cap_counts_every_point(monkeypatch):
    # the saddle and each branch's 33-point fundamental segment count too,
    # and so does an image that needs no cut: the model manifold has
    # 43 557 points, 65 more than a cap of 43 492, and at a cap of 200 the
    # pioneer partial would hold 226 points if they went uncounted
    handle, saddle, _, _, _ = manifold_fixture("model")
    pioneer = pioneer_climax_full(3.0, 3.0)
    pioneer_saddle = find_cycle(pioneer, 1, np.array([2.498, 5.007]))
    for h, s, arc_budget, tol, cap in (
            (handle, saddle, 50.0, 1e-3, 43_492),
            (pioneer, pioneer_saddle, 300.0, 2e-3, 200)):
        monkeypatch.setattr(horseshoe, "POINT_CAP", cap)
        with pytest.raises(RefinementExplosion) as exc:
            unstable_manifold(h, s, arc_budget, tol)
        assert 0 < len(exc.value.partial) <= cap
    monkeypatch.setattr(horseshoe, "POINT_CAP", 43_557)
    assert len(unstable_manifold(handle, saddle, 50.0, 1e-3)) == 43_557


def test_trellis_components_count_against_the_one_cap(monkeypatch):
    # period 2: the manifold holds 1 193 points and the trellis 5 380
    handle, saddle, arc_budget, tol, _ = manifold_fixture("model_period_2")
    assert len(trellis(handle, saddle, arc_budget, tol)) == 5_380
    monkeypatch.setattr(horseshoe, "POINT_CAP", 5_380)
    assert len(trellis(handle, saddle, arc_budget, tol)) == 5_380
    for cap in (5_379, 3_000):
        monkeypatch.setattr(horseshoe, "POINT_CAP", cap)
        with pytest.raises(RefinementExplosion) as exc:
            trellis(handle, saddle, arc_budget, tol)
        assert 1_193 < len(exc.value.partial) <= cap


def test_growth_measures_each_image_gap_once(monkeypatch):
    # _image_to_budget hands the kept image's gaps to _refine_segment,
    # which measures again only after a round that cuts; the polyline is
    # the one a refinement measuring every round's gaps itself gives
    handle, saddle, arc_budget, tol, _ = manifold_fixture("pioneer")
    want = unstable_manifold(handle, saddle, arc_budget, tol).points
    calls, rounds = [0, 0], []
    row_norms, cut_gaps = _kernels.row_norms, horseshoe._cut_gaps
    refine = horseshoe._refine_segment

    def count_norms(v):
        calls[0] += 1
        return row_norms(v)

    def count_cuts(*args):
        calls[1] += 1
        return cut_gaps(*args)

    def spy(h, k, pre, img, gaps, tol, kept):
        assert gaps.tobytes() == row_norms(np.diff(img, axis=0)).tobytes()
        before = calls.copy()
        out = refine(h, k, pre, img, gaps, tol, kept)
        rounds.append([c - b for c, b in zip(calls, before)])
        return out

    monkeypatch.setattr(_kernels, "row_norms", count_norms)
    monkeypatch.setattr(horseshoe, "_cut_gaps", count_cuts)
    monkeypatch.setattr(horseshoe, "_refine_segment", spy)
    got = unstable_manifold(handle, saddle, arc_budget, tol).points
    assert got.tobytes() == want.tobytes()
    # each call measures once per round that cut, and some rounds cut
    assert all(norms == cuts for norms, cuts in rounds)
    assert sum(cuts for _, cuts in rounds) > 0

    def by_insert(h, k, pre, img, gaps, tol, kept):
        img = _refine_by_insert(h, k, pre, img, tol,
                                horseshoe.POINT_CAP - kept)
        return img, row_norms(np.diff(img, axis=0))

    monkeypatch.setattr(horseshoe, "_refine_segment", by_insert)
    got = unstable_manifold(handle, saddle, arc_budget, tol).points
    assert got.tobytes() == want.tobytes()
