
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attractorlab.maps import GOLDEN_MEAN, gauss_rotation, pioneer_climax_full, user_map
from attractorlab.dynamics import (Cycle, CycleSearchError, DivergenceError,
                                   PointCloud, _condition_number,
                                   detect_period, find_cycle, orbit)
from attractorlab.chaos import lyapunov_spectrum_qr, max_lyapunov_norm_sum


def linear_map(sx, sy):
    d = np.array([sx, sy])
    return user_map(lambda x: d * x, jac=lambda x: np.diag(d),
                    batch=lambda p: p * d)


def test_orbit_shape_and_meta():
    h = gauss_rotation(2.7, GOLDEN_MEAN)
    cloud = orbit(h, [0.3, 0.1], 100, 50)
    assert len(cloud) == 50
    assert cloud.points.shape == (50, 2)
    assert cloud.ordered
    assert np.all(np.isfinite(cloud.points))
    empty = orbit(h, [0.3, 0.1], 5, 0)
    assert empty.points.shape == (0, 2) and empty.ordered
    assert (empty.meta["n_transient"], empty.meta["n_keep"]) == (5, 0)
    np.testing.assert_array_equal(empty.meta["x0"], [0.3, 0.1])
    with pytest.raises(ValueError, match="nonnegative"):
        orbit(h, [0.3, 0.1], -1, 5)


def test_orbit_detects_divergence():
    h = user_map(lambda x: 2.0 * x, batch=lambda p: 2.0 * p)
    with pytest.raises(DivergenceError):
        orbit(h, [1.0, 1.0], 0, 5000)


@pytest.mark.parametrize("x0", [[0.3], [0.3, 0.1, 0.5], 0.3, [[0.3, 0.1]]])
def test_initial_point_must_have_the_map_dimension(x0):
    # a 3-vector used to lose its last coordinate on the scalar lane, and
    # a 1-vector raised IndexError; a Newton seed of the wrong shape
    # failed inside the unpacking or np.linalg.solve
    h = gauss_rotation(2.7, GOLDEN_MEAN)
    for run in (lambda: orbit(h, x0, 10, 300),
                lambda: max_lyapunov_norm_sum(h, x0, 200, 10),
                lambda: lyapunov_spectrum_qr(h, x0, 200, 10),
                lambda: find_cycle(h, 1, x0)):
        with pytest.raises(ValueError, match=r"shape \(2,\)"):
            run()


def test_point_cloud_immutable():
    cloud = PointCloud(np.zeros((4, 2)), ordered=True)
    with pytest.raises(Exception):
        cloud.points = np.ones((4, 2))


@pytest.mark.parametrize("shape", [(4,), (4, 1), (4, 3), (0,), (4, 2, 1)])
def test_point_cloud_is_planar(shape):
    with pytest.raises(ValueError, match=r"shape \(n, 2\)"):
        PointCloud(np.zeros(shape), ordered=True)
    with pytest.raises(ValueError, match=r"shape \(n, 2\)"):
        detect_period(np.zeros(shape))
    assert PointCloud(np.zeros((0, 2)), ordered=True).points.shape == (0, 2)


def test_find_cycle_fixed_point_origin():
    h = gauss_rotation(0.5, GOLDEN_MEAN)
    c = find_cycle(h, 1, [0.2, 0.1])
    assert c.period == 1
    np.testing.assert_allclose(c.points[0], [0.0, 0.0], atol=1e-12)
    assert c.stability == "sink"
    np.testing.assert_allclose(np.abs(c.multipliers), [0.5, 0.5], rtol=1e-12)


def test_find_cycle_interior_saddle_pioneer():
    h = pioneer_climax_full(3.0, 3.0)
    c = find_cycle(h, 1, [2.4, 5.1])
    np.testing.assert_allclose(c.points[0], [2.49825283, 5.00698866],
                               atol=1e-6)
    mods = np.sort(np.abs(c.multipliers))
    np.testing.assert_allclose(mods, [0.71987, 2.39524], atol=1e-4)
    assert c.stability == "saddle"


def test_find_cycle_reduces_to_minimal_period():
    # a fixed point found through f^4 must come back with period 1
    h = linear_map(0.5, 0.25)
    c = find_cycle(h, 4, [0.3, 0.4])
    assert c.period == 1
    np.testing.assert_allclose(c.points[0], [0.0, 0.0], atol=1e-10)


def test_find_cycle_genuine_two_cycle():
    # logistic factor at r = 3.2 carries an attracting 2-cycle
    r = 3.2
    h = user_map(lambda x: np.array([r * x[0] * (1 - x[0]), 0.5 * x[1]]))
    c = find_cycle(h, 2, [0.51, 0.2])
    assert c.period == 2
    lo = (r + 1 - np.sqrt((r + 1) * (r - 3))) / (2 * r)
    hi = (r + 1 + np.sqrt((r + 1) * (r - 3))) / (2 * r)
    got = np.sort(c.points[:, 0])
    np.testing.assert_allclose(got, [lo, hi], atol=1e-8)
    mods = np.sort(np.abs(c.multipliers))
    np.testing.assert_allclose(mods, [abs(4 + 2 * r - r * r), 0.25],
                               atol=1e-6)
    assert c.stability == "sink"


def test_find_cycle_singular_search_fails():
    h = user_map(lambda x: x + 1.0, jac=lambda x: np.eye(2),
                 batch=lambda p: p + 1.0)
    with pytest.raises(CycleSearchError):
        find_cycle(h, 1, [0.0, 0.0])
    with pytest.raises(ValueError, match="period"):
        find_cycle(h, 0, [0.0, 0.0])
    inf_jac = user_map(lambda x: 0.5 * x,
                       jac=lambda x: np.full((2, 2), np.inf))
    with pytest.raises(CycleSearchError,
                       match="Newton matrix has non-finite entries"):
        find_cycle(inf_jac, 1, [0.1, 0.2])


# the benchmark's tracer counts failed searches by these message prefixes
@pytest.mark.parametrize("prefix, fn, jac, seed", [
    ("iterate escaped", lambda x: np.exp(1000.0 * x), None, [1.0, 1.0]),
    ("Newton matrix has", lambda x: 0.5 * x,
     lambda x: np.full((2, 2), np.inf), [0.1, 0.2]),
    ("singular", lambda x: x + 1.0, lambda x: np.eye(2), [0.0, 0.0]),
    ("ill-conditioned",
     lambda x: np.array([2.0 * x[0] + 1.0, (1.0 + 1e-15) * x[1] + 1.0]),
     lambda x: np.diag([2.0, 1.0 + 1e-15]), [0.0, 0.0]),
    # Newton's step on x^3 - 2x + 2 cycles between 0 and 1
    ("no convergence", lambda x: np.array([x[0] ** 3 - x[0] + 2.0,
                                           0.5 * x[1]]),
     lambda x: np.diag([3.0 * x[0] ** 2 - 1.0, 0.5]), [0.0, 0.3]),
])
def test_find_cycle_failure_messages_keep_their_prefixes(prefix, fn, jac,
                                                        seed):
    with pytest.raises(CycleSearchError) as info:
        find_cycle(user_map(fn, jac=jac), 1, seed)
    assert str(info.value).startswith(prefix)


def test_find_cycle_minimal_period_reuses_the_converged_walk():
    # a period-2 search that lands on a fixed point in one Newton step:
    # two walks of two steps each, and the period-1 derivative is the
    # first product of the second walk, not a third walk
    calls = []
    d = np.array([0.5, 0.25])
    h = user_map(lambda x: calls.append(x) or d * x, jac=lambda x: np.diag(d))
    c = find_cycle(h, 2, [0.3, 0.4])
    assert c.period == 1 and len(calls) == 4
    np.testing.assert_array_equal(c.multipliers, d)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=8, max_size=8),
       st.integers(0, 20))
def test_closed_form_condition_number_matches_numpy(e, decade):
    # a rank-one matrix plus a perturbation 10**-decade times as large,
    # so that the examples run from well- to ill-conditioned; both forms
    # err by about eps * cond, so agreement is asked only where that is
    # small, and the Newton threshold 1e14 only away from it
    amat = np.outer(e[:2], e[2:4]) + 10.0 ** -decade * np.reshape(e[4:],
                                                                  (2, 2))
    ours, ref = _condition_number(amat), float(np.linalg.cond(amat))
    if ref < 1e8:
        assert ours == pytest.approx(ref, rel=1e-6)
    if not 1e12 <= ref <= 1e16:
        assert (ours > 1e14) == (ref > 1e14)


def test_find_cycle_saddle_vectors():
    h = linear_map(2.0, 0.5)
    c = find_cycle(h, 1, [1e-6, 1e-6])
    assert c.stability == "saddle"
    moduli = np.abs(c.multipliers)
    v = c.vectors[:, moduli > 1][:, 0].real
    assert abs(abs(v[0]) - 1.0) < 1e-12 and abs(v[1]) < 1e-12
    w = c.vectors[:, moduli < 1][:, 0].real
    assert abs(w[0]) < 1e-12 and abs(abs(w[1]) - 1.0) < 1e-12


def test_detect_period_exact_cycle():
    base = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    pts = np.tile(base, (80, 1))
    assert detect_period(PointCloud(pts, ordered=True)) == 3


def test_detect_period_aperiodic_and_tolerance():
    rng = np.random.default_rng(0)
    pts = rng.uniform(size=(300, 2))
    assert detect_period(PointCloud(pts, ordered=True)) == "aperiodic"
    # jitter below the detection tolerance still reads as periodic
    base = np.tile(np.array([[0.3, 0.4], [0.9, 0.1]]), (120, 1))
    base += rng.uniform(-1e-8, 1e-8, size=base.shape)
    assert detect_period(PointCloud(base, ordered=True)) == 2


def test_detect_period_needs_enough_points():
    with pytest.raises(ValueError):
        detect_period(PointCloud(np.zeros((10, 2)), ordered=True))
    with pytest.raises(ValueError, match="ordered"):
        detect_period(PointCloud(np.zeros((300, 2)), ordered=False))


def test_detect_period_on_gauss_sink():
    h = gauss_rotation(0.5, GOLDEN_MEAN)
    cloud = orbit(h, [0.3, 0.1], 500, 200)
    assert detect_period(cloud) == 1
