import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from attractorlab import _kernels, chaos
from attractorlab.maps import (GOLDEN_MEAN, gauss_rotation,
                               pioneer_climax_full, pioneer_climax_mixed,
                               user_map)
from attractorlab.dynamics import DivergenceError, PointCloud
from attractorlab.chaos import (box_counting_dimension, lyapunov_spectrum_qr,
                                max_lyapunov_norm_sum)


def diag_map(sx, sy):
    d = np.array([sx, sy])
    return user_map(lambda x: d * x, jac=lambda x: np.diag(d),
                    batch=lambda p: p * d)


def test_qr_spectrum_exact_on_diagonal_map():
    h = diag_map(2.0, 0.5)
    est = lyapunov_spectrum_qr(h, [1e-8, 1e-8], 1000, 0)
    np.testing.assert_allclose(np.sort(est.spectrum),
                               [-math.log(2), math.log(2)], atol=1e-9)
    assert est.max_exponent == pytest.approx(math.log(2), abs=1e-9)
    assert est.method == "qr_spectrum"
    assert not est.degenerate


def test_norm_sum_exact_on_diagonal_map():
    h = diag_map(2.0, 0.5)
    est = max_lyapunov_norm_sum(h, [1e-8, 1e-8], 1000, 0)
    assert est.max_exponent == pytest.approx(math.log(2), abs=1e-9)
    assert est.method == "norm_sum"


def test_gauss_sink_exponents_match_log_half():
    h = gauss_rotation(0.5, GOLDEN_MEAN)
    qr = lyapunov_spectrum_qr(h, [0.3, 0.1], 100_000, 1000)
    np.testing.assert_allclose(qr.spectrum, [math.log(0.5)] * 2, atol=1e-6)
    ns = max_lyapunov_norm_sum(h, [0.3, 0.1], 100_000, 1000)
    assert ns.max_exponent == pytest.approx(math.log(0.5), abs=1e-6)


def test_norm_sum_upper_bounds_qr():
    h = gauss_rotation(4.4, GOLDEN_MEAN)
    ns = max_lyapunov_norm_sum(h, [0.3, 0.1], 20_000, 2000)
    qr = lyapunov_spectrum_qr(h, [0.3, 0.1], 20_000, 2000)
    assert ns.max_exponent >= qr.max_exponent - 1e-9


def test_lyapunov_argument_validation():
    h = diag_map(0.5, 0.5)
    with pytest.raises(ValueError):
        max_lyapunov_norm_sum(h, [0.1, 0.1], 50, 0)  # n too small
    with pytest.raises(ValueError):
        lyapunov_spectrum_qr(h, [0.1, 0.1], 1000, -1)


def test_degenerate_orbit_reports_instead_of_raising():
    # orbit collapses to the origin where the Jacobian vanishes
    h = user_map(lambda x: 0.0 * x, jac=lambda x: np.zeros((2, 2)),
                 batch=lambda p: 0.0 * p)
    est = max_lyapunov_norm_sum(h, [0.5, 0.5], 1000, 0)
    assert est.degenerate
    assert est.max_exponent == -np.inf


@pytest.mark.parametrize("generic", [False, True])
def test_qr_keeps_lambda1_through_rank_deficient_steps(generic):
    # the orbit sits on the superstable fixed point x1 = 1.25 of the mixed
    # pioneer map, where j11 = j12 = 0, so every step has r22 == 0 exactly
    h = pioneer_climax_mixed(1.0, 1.0)
    if generic:
        h = user_map(h.eval, jac=lambda x, h=h: h.eval(x, True)[1],
                     batch=h.eval, cone=h.cone)
    qr = lyapunov_spectrum_qr(h, [0.05, 0.05], 1000, 50)
    ns = max_lyapunov_norm_sum(h, [0.05, 0.05], 1000, 50)
    assert qr.degenerate and qr.n_used == 1000
    assert np.isfinite(qr.max_exponent)
    assert qr.max_exponent <= ns.max_exponent
    assert qr.spectrum[1] == -np.inf
    assert np.isfinite(qr.convergence_trace).all()


def test_convergence_trace_progresses():
    h = gauss_rotation(4.4, GOLDEN_MEAN)
    est = lyapunov_spectrum_qr(h, [0.3, 0.1], 10_000, 1000)
    trace = np.asarray(est.convergence_trace)
    assert trace.ndim == 1 and trace.size >= 10
    assert trace[-1] == pytest.approx(est.max_exponent, abs=5e-2)


def test_diverging_orbit_raises_divergence_error():
    # started outside its positivity cone the pioneer orbit overflows
    h = pioneer_climax_full(3.0, 3.0)
    for estimate in (max_lyapunov_norm_sum, lyapunov_spectrum_qr):
        with pytest.raises(DivergenceError):
            estimate(h, [-1.0, 0.5], 200)


def test_diverging_orbit_emits_no_runtime_warnings():
    # the overflow is reported by DivergenceError alone, on every lane
    h = pioneer_climax_full(3.0, 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for estimate in (max_lyapunov_norm_sum, lyapunov_spectrum_qr):
            with pytest.raises(DivergenceError):
                estimate(h, [-1.0, 0.5], 200)


def test_boxdim_segment_is_one():
    t = np.linspace(0.0, 1.0, 20_000)
    cloud = PointCloud(np.column_stack([t, 0.5 * t]), ordered=False)
    res = box_counting_dimension(cloud)
    assert res.dimension == pytest.approx(1.0, abs=0.05)
    assert res.r2 > 0.99


def test_boxdim_filled_square_is_two():
    rng = np.random.default_rng(1)
    cloud = PointCloud(rng.uniform(size=(200_000, 2)), ordered=False)
    res = box_counting_dimension(cloud)
    assert res.dimension == pytest.approx(2.0, abs=0.1)


def test_boxdim_cantor_dust_cross_product():
    # middle-half Cantor set: keep [0,1/4] and [3/4,1], dim log2/log4 = 1/2
    # per axis, so the product dust has dimension 1.  Coarse rungs of the
    # dyadic ladder carry a known upward transient before the asymptotic
    # slope takes over, so the default-window estimate is only good to a
    # couple of tenths; a deeper window must move it toward the truth.
    def axis_points(depth):
        idx = np.arange(1 << depth)
        digits = (idx[:, None] >> np.arange(depth)[::-1]) & 1
        scales = 4.0 ** -(1 + np.arange(depth))
        return (digits * 3 * scales).sum(axis=1) + 0.5 * 4.0 ** -depth

    ax = axis_points(8)
    gx, gy = np.meshgrid(ax, ax)
    cloud = PointCloud(np.column_stack([gx.ravel(), gy.ravel()]), ordered=False)
    res = box_counting_dimension(cloud)
    assert 0.95 < res.dimension < 1.25
    assert res.r2 > 0.98
    deeper = box_counting_dimension(cloud, n_scales=12)
    assert abs(deeper.dimension - 1.0) < abs(res.dimension - 1.0)


def test_boxdim_needs_enough_points():
    with pytest.raises(ValueError):
        box_counting_dimension(PointCloud(np.zeros((10, 2)), ordered=False))


def test_boxdim_degenerate_single_point():
    cloud = PointCloud(np.zeros((5000, 2)), ordered=False)
    res = box_counting_dimension(cloud)
    assert res.degenerate
    assert res.dimension == 0.0


def test_boxdim_clamped_to_embedding_dimension():
    rng = np.random.default_rng(3)
    cloud = PointCloud(rng.uniform(size=(50_000, 2)), ordered=False)
    res = box_counting_dimension(cloud, n_scales=6)
    assert 0.0 <= res.dimension <= 2.0


def row_unique_counts(pts, scales):
    # reference: occupied boxes as distinct rows of the box index
    mins = pts.min(axis=0)
    return [len(np.unique(np.floor((pts - mins) / eps).astype(np.int64),
                          axis=0)) for eps in scales]


@pytest.mark.parametrize("seed", [2, 3])
def test_boxdim_counts_match_row_unique_reference(seed):
    pts = np.random.default_rng(seed).normal(size=(20_000, 2))
    res = box_counting_dimension(pts)
    assert list(res.counts) == row_unique_counts(pts, res.scales)


def test_boxdim_rejects_ladders_past_int64_box_indices():
    # two finest box indices, each below 2^(n_scales + 2), must interleave
    # into one int64 key: 29 scales
    assert chaos.MAX_SCALES == 29
    pts = np.tile(np.random.default_rng(7).uniform(size=(50, 2)), (20, 1))
    box_counting_dimension(pts, n_scales=29)
    for n_scales in (4, 30, 62, 70):
        with pytest.raises(ValueError, match="5..29, got"):
            box_counting_dimension(pts, n_scales=n_scales)


@pytest.mark.parametrize("shape", [(2000,), (2000, 1), (2000, 3),
                                   (2000, 2, 1)])
def test_boxdim_rejects_clouds_that_are_not_planar(shape):
    pts = np.random.default_rng(5).uniform(size=shape)
    with pytest.raises(ValueError, match=r"shape \(n, 2\)"):
        box_counting_dimension(pts)


def test_boxdim_finest_allowed_ladder_counts_stay_exact():
    x = np.tile(np.random.default_rng(3).uniform(size=50), 20)
    pts = np.column_stack([x, np.zeros_like(x)])
    res = box_counting_dimension(pts, n_scales=chaos.MAX_SCALES)
    assert len(res.counts) == 29
    assert np.all(np.diff(res.counts) >= 0)
    assert res.counts.max() <= 50
    assert res.counts[-1] == 50


def morton_key_by_bits(idx, bits):
    """Reference Morton key, one bit at a time: bit b of column j of an
    (n, m) index lands at bit m*b + j."""
    m = idx.shape[1]
    key = np.zeros(len(idx), dtype=np.int64)
    for b in range(bits):
        for j in range(m):
            key |= ((idx[:, j] >> b) & 1) << (m * b + j)
    return key


@given(st.integers(5, chaos.MAX_SCALES).flatmap(lambda n: st.tuples(
    st.just(n), arrays(np.int64, st.tuples(st.integers(1, 50), st.just(2)),
                       elements=st.integers(0, 2 ** (n + 1))))))
@example((29, np.array([[2 ** 30, 0], [0, 2 ** 30], [2 ** 30 - 1] * 2])))
def test_morton_key_matches_the_bit_loop(case):
    # the finest box index of a ladder of n_scales rungs is at most
    # 2^(n_scales + 1), so n_scales + 2 bits hold it
    n_scales, idx = case
    want = morton_key_by_bits(idx, n_scales + 2)
    assert np.array_equal(chaos._morton_key(idx), want)


# Box-counting oracles.  A cloud is either up to 40 points repeated to
# 1000 rows, which never saturates, so every rung of even the finest
# ladder is counted, or a random normal cloud, which saturates.  Ladders
# are drawn up to and at the Morton key's limit of 29 scales.
LADDERS = [5, 8, chaos.MAX_SCALES]


@st.composite
def box_clouds(draw):
    if draw(st.booleans()):
        distinct = draw(arrays(
            np.float64, st.tuples(st.integers(1, 40), st.just(2)),
            elements=st.floats(-1e3, 1e3, allow_subnormal=False)))
        pts = np.tile(distinct, (-(-1000 // len(distinct)), 1))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        pts = rng.normal(size=(draw(st.integers(1000, 3000)), 2))
    return pts, draw(st.sampled_from(LADDERS))


@given(box_clouds())
def test_boxdim_counts_match_row_unique_reference_on_any_ladder(cloud):
    pts, n_scales = cloud
    res = box_counting_dimension(pts, n_scales=n_scales)
    assert list(res.counts) == row_unique_counts(pts, res.scales)


@given(box_clouds(), st.sampled_from([-3, 5, 17]), st.integers(0, 2 ** 32 - 1))
def test_boxdim_counts_invariant_under_dyadic_scaling_and_permutation(
        cloud, k, seed):
    # scaling by 2^k is exact in binary floating point, and the grid is
    # anchored at the bounding-box corner, so no count may move
    pts, n_scales = cloud
    want = box_counting_dimension(pts, n_scales=n_scales)
    moved = np.random.default_rng(seed).permutation(pts) * 2.0 ** k
    got = box_counting_dimension(moved, n_scales=n_scales)
    assert np.array_equal(got.counts, want.counts)
    assert np.array_equal(got.scales, want.scales * 2.0 ** k)


# QR oracles over gauss and pioneer parameters and start points, on the
# closed-form tangent loops of a built-in handle and on the generic loops
# of the same map wrapped as a user map
@st.composite
def tangent_orbits(draw):
    if draw(st.booleans()):
        h = gauss_rotation(draw(st.floats(0.5, 6.0)), draw(st.floats(0, 1)))
        x0 = draw(st.tuples(*[st.floats(-1.0, 1.0)] * 2))
    else:
        family = draw(st.sampled_from([pioneer_climax_full,
                                       pioneer_climax_mixed]))
        h = family(draw(st.floats(1.0, 3.5)), draw(st.floats(1.0, 3.5)))
        x0 = draw(st.tuples(*[st.floats(0.05, 3.0)] * 2))
    if draw(st.booleans()):
        h = user_map(h.eval, jac=lambda x, h=h: h.eval(x, True)[1],
                     cone=h.cone)
    return h, np.array(x0)


N_TRANSIENT, N_QR = 50, 1000


def jacobians_along(h, x0, n_transient, n):
    """(j11, j12, j21, j22) at f^(n_transient + 1)(x0) ..
    f^(n_transient + n)(x0), the points an orbit keeps, at which the
    handle's lane takes its Jacobians."""
    path = _kernels.run_orbit(h, x0, 0, n_transient + n)
    pts = np.vstack([x0, path])[n_transient + 1:n_transient + n + 1]
    return h.eval(pts, True)[1].reshape(n, 4).T


def henon():
    """A 2-D user map with a constant det J = -0.3."""
    return user_map(lambda x: np.array([1.0 - 1.4 * x[0] ** 2 + x[1],
                                        0.3 * x[0]]),
                    jac=lambda x: np.array([[-2.8 * x[0], 1.0], [0.3, 0.0]]))


QR_CASES = {"gauss": lambda: gauss_rotation(4.4, GOLDEN_MEAN),
            "gauss_literal": lambda: gauss_rotation(2.7, GOLDEN_MEAN,
                                                    literal_eq=True),
            "pioneer_full": lambda: pioneer_climax_full(3.0, 3.0),
            "pioneer_mixed": lambda: pioneer_climax_mixed(3.0, 3.0),
            "henon": henon}


@pytest.mark.parametrize("name", QR_CASES)
def test_qr_spectrum_matches_householder_reference(name):
    # lambda1 comes from the carried first Gram-Schmidt column and lambda2
    # from mean log|det J| - lambda1; a Householder QR of the whole frame
    # along the same orbit gives both.  Where det J is exactly 0 (the
    # literal form) lambda2 is -inf, and Householder's r22 is rounding noise
    h = QR_CASES[name]()
    x0 = np.array([0.5, 0.5]) if h.cone else np.array([0.3, 0.1])
    n = 100
    vals, k_used, degenerate, _ = _kernels.run_qr(h, x0, N_TRANSIENT, n, 10)
    j11, j12, j21, j22 = jacobians_along(h, x0, N_TRANSIENT, n)
    q, sums = np.eye(2), np.zeros(2)
    for jac in np.stack([j11, j12, j21, j22], axis=1).reshape(n, 2, 2):
        q, r = np.linalg.qr(jac @ q)
        sums += np.log(np.abs(np.diag(r)))
    want = sums / n
    assert k_used == n
    assert vals[0] == pytest.approx(want[0], rel=1e-12, abs=1e-13)
    if name == "gauss_literal":
        assert (j11 * j22 - j12 * j21 == 0.0).all()
        assert list(degenerate) == [False, True] and vals[1] == -np.inf
    else:
        assert not degenerate.any()
        assert vals[1] == pytest.approx(want[1], rel=1e-12, abs=1e-13)


@pytest.mark.parametrize("generic", [False, True])
def test_literal_gauss_second_exponent_is_minus_inf(generic):
    # both components of the literal form share one formula, so det J = 0
    # at every step and lambda2 is the -inf sentinel
    h = gauss_rotation(2.7, GOLDEN_MEAN, literal_eq=True)
    if generic:
        h = user_map(h.eval, jac=lambda x, h=h: h.eval(x, True)[1])
    est = lyapunov_spectrum_qr(h, [0.3, 0.1], 2000, 100)
    assert est.degenerate
    assert np.isfinite(est.max_exponent)
    assert est.spectrum[1] == -np.inf
    assert _kernels.run_qr(h, np.array([0.3, 0.1]), 100, 2000, 100)[2][1]


@given(tangent_orbits())
@settings(deadline=None)  # the generic lane takes about 0.1 s a case
def test_norm_sum_bounds_every_qr_exponent(case):
    # ||J q|| <= ||J|| for any unit q, step by step, on the same orbit
    h, x0 = case
    ns = max_lyapunov_norm_sum(h, x0, N_QR, N_TRANSIENT)
    qr = lyapunov_spectrum_qr(h, x0, N_QR, N_TRANSIENT)
    assume(not qr.degenerate)
    assert ns.max_exponent >= qr.max_exponent - 1e-12
