"""Agreement between the kernel lanes.

Built-in families run on the compiled lane when numba is present and on
the scalar Python lane otherwise (or under ``force_python=True``); user
maps run on the generic callable lane.  The compiled-vs-``force_python``
checks compare two different lanes only when numba is present; the
scalar-vs-generic checks always do, by wrapping a built-in handle's
callables as a user map.

The lanes evaluate the same recurrences but not bit for bit (the scalar
lane's orbit uses ``math.exp``, the generic lane's ``np.exp``), so a
positive Lyapunov exponent amplifies one-ulp differences
exponentially.  Parity is therefore asserted over short horizons for
chaotic parameters and over long horizons only where the dynamics do not
amplify rounding (contracting or neutral regimes).
"""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

from attractorlab import _kernels
from attractorlab.chaos import lyapunov_spectrum_qr, max_lyapunov_norm_sum
from attractorlab.dynamics import DivergenceError, PointCloud, orbit
from attractorlab.maps import (GOLDEN_MEAN, gauss_rotation,
                               pioneer_climax_full, pioneer_climax_mixed,
                               user_map)
from attractorlab.radial import radial_tent_map

X0 = np.array([0.3, 0.1])


def handles():
    return [gauss_rotation(4.4, GOLDEN_MEAN),
            gauss_rotation(2.7, GOLDEN_MEAN, literal_eq=True),
            pioneer_climax_full(3.0, 3.0),
            pioneer_climax_mixed(3.0, 3.0)]


def start_for(h):
    return np.array([0.5, 0.5]) if h.cone else X0


def generic_twin(h):
    """The same map as a user map, which runs on the generic lane."""
    return user_map(h.eval, jac=lambda x, h=h: h.eval(x, True)[1],
                     batch=h.eval, cone=h.cone)


# a lane runs kernel(handle, *args) on one lane
def default_lane(kernel, h, *args):
    return kernel(h, *args)


def scalar_lane(kernel, h, *args):
    return kernel(h, *args, force_python=True)


def generic_lane(kernel, h, *args):
    return kernel(generic_twin(h), *args)


def check_orbit_short_horizon(lane_a, lane_b):
    for h in handles():
        x0 = start_for(h)
        a = lane_a(_kernels.run_orbit, h, x0, 0, 40)
        b = lane_b(_kernels.run_orbit, h, x0, 0, 40)
        assert a.shape == b.shape == (40, 2)
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)


def check_orbit_long_horizon_nonchaotic(lane_a, lane_b):
    # contracting: both lanes end up pinned at the origin
    h = gauss_rotation(0.5, GOLDEN_MEAN)
    a = lane_a(_kernels.run_orbit, h, X0, 500, 50)
    b = lane_b(_kernels.run_orbit, h, X0, 500, 50)
    np.testing.assert_allclose(a, b, atol=1e-12)
    # neutral rotation regime: rounding differences grow at most linearly
    h = gauss_rotation(2.7, GOLDEN_MEAN)
    a = lane_a(_kernels.run_orbit, h, X0, 500, 200)
    b = lane_b(_kernels.run_orbit, h, X0, 500, 200)
    np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-10)


def check_norm_sum(lane_a, lane_b):
    for h in handles():
        x0 = start_for(h)
        a = lane_a(_kernels.run_norm_sum, h, x0, 0, 50, 10)
        b = lane_b(_kernels.run_norm_sum, h, x0, 0, 50, 10)
        assert a[0] == pytest.approx(b[0], rel=1e-8, abs=1e-10)
        assert a[1] == b[1]
    h = gauss_rotation(2.7, GOLDEN_MEAN)
    a = lane_a(_kernels.run_norm_sum, h, X0, 500, 2000, 100)
    b = lane_b(_kernels.run_norm_sum, h, X0, 500, 2000, 100)
    assert a[0] == pytest.approx(b[0], rel=1e-8, abs=1e-10)


def check_qr(lane_a, lane_b):
    for h in handles():
        x0 = start_for(h)
        a = lane_a(_kernels.run_qr, h, x0, 0, 60, 10)
        b = lane_b(_kernels.run_qr, h, x0, 0, 60, 10)
        if h.literal:
            # duplicated-component form has det J = 0 at every step: the
            # second QR exponent is the -inf sentinel on both lanes
            assert a[0][0] == pytest.approx(b[0][0], rel=1e-6)
            assert a[0][1] == b[0][1] == -np.inf
        else:
            np.testing.assert_allclose(a[0], b[0], rtol=1e-6, atol=1e-9)
    h = gauss_rotation(2.7, GOLDEN_MEAN)
    a = lane_a(_kernels.run_qr, h, X0, 500, 2000, 100)
    b = lane_b(_kernels.run_qr, h, X0, 500, 2000, 100)
    np.testing.assert_allclose(a[0], b[0], rtol=1e-8, atol=1e-10)


def test_orbit_lane_parity_short_horizon():
    check_orbit_short_horizon(default_lane, scalar_lane)


def test_orbit_lane_parity_long_horizon_nonchaotic():
    check_orbit_long_horizon_nonchaotic(default_lane, scalar_lane)


def test_norm_sum_lane_parity():
    check_norm_sum(default_lane, scalar_lane)


def test_qr_lane_parity():
    check_qr(default_lane, scalar_lane)


def test_orbit_scalar_vs_generic_short_horizon():
    check_orbit_short_horizon(scalar_lane, generic_lane)


def test_orbit_scalar_vs_generic_long_horizon_nonchaotic():
    check_orbit_long_horizon_nonchaotic(scalar_lane, generic_lane)


def test_norm_sum_scalar_vs_generic():
    check_norm_sum(scalar_lane, generic_lane)


def test_qr_scalar_vs_generic():
    check_qr(scalar_lane, generic_lane)


def test_builtin_kernels_never_call_handle_callables(monkeypatch):
    # a built-in's orbit runs the family's own loop; the estimators call
    # eval only for each block's Jacobians, once per block
    def refuse(x, with_jac=False):
        raise AssertionError("a built-in kernel called the handle's eval")

    monkeypatch.setattr(_kernels, "_BLOCK", 64)
    n = 3 * 64 + 5
    for h in handles():
        bare = dataclasses.replace(h, eval=refuse)
        x0 = start_for(h)
        calls = []

        def block_eval(x, with_jac=False, h=h):
            calls.append((np.shape(x), with_jac))
            return h.eval(x, with_jac)

        counted = dataclasses.replace(h, eval=block_eval)
        for force_python in (False, True):
            out = _kernels.run_orbit(bare, x0, 10, 20,
                                     force_python=force_python)
            assert out.shape == (20, 2)
            for kernel in (_kernels.run_norm_sum, _kernels.run_qr):
                calls.clear()
                assert kernel(counted, x0, 10, n, 10,
                              force_python=force_python)[1] == n
                # ceil(n / _BLOCK) calls, one per block
                assert calls == [((64, 2), True)] * 3 + [((5, 2), True)]


def test_generic_lane_makes_one_handle_call_per_step():
    # the walk's orbit takes one plain eval(x) per step, n_transient + n in
    # all, and each block's Jacobians one eval(block, True); the estimates
    # are those of the built-in's own evaluation
    h = gauss_rotation(4.4, GOLDEN_MEAN)
    twin = generic_twin(h)
    calls = []

    def counting_eval(x, with_jac=False):
        calls.append(with_jac)
        return twin.eval(x, with_jac)

    counted = dataclasses.replace(twin, eval=counting_eval)
    # without a family code the built-in runs the generic lane on its eval
    own = dataclasses.replace(h, family_code=-1)
    n_transient, n, stride = 30, 200, 10
    for kernel in (_kernels.run_norm_sum, _kernels.run_qr):
        calls.clear()
        got = kernel(counted, X0, n_transient, n, stride)
        assert calls == [False] * (n_transient + n) + [True]
        want = kernel(own, X0, n_transient, n, stride)
        for g, w in zip(got, want):
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes()
        assert got[1] == n


def test_tangent_loops_take_one_exp_per_factor_per_step(monkeypatch):
    # the Lyapunov walk advances with the orbit loop, one math.exp per exp
    # factor per step, and takes a block's Jacobians from one _np_tangent
    # call, one np.exp per factor over the block: one factor for the gauss
    # families, two for the pioneer ones
    scalar, blocks = [], []

    def counting_exp(v):
        scalar.append(v)
        return math.exp(v)

    def counting_np_exp(v):
        blocks.append(np.size(v))
        return np.exp(v)

    monkeypatch.setattr(_kernels, "_PY_LOOPS", {
        **_kernels._PY_LOOPS, "orbit": _kernels._family(counting_exp)[0]})
    monkeypatch.setattr(_kernels, "_np_tangent",
                        _kernels._family(counting_np_exp)[1])
    monkeypatch.setattr(_kernels, "_BLOCK", 64)
    n_transient, n, stride = 30, 200, 10
    for h in handles():
        per_step = 2 if h.cone else 1
        for kernel in (_kernels.run_norm_sum, _kernels.run_qr):
            scalar.clear()
            blocks.clear()
            res = kernel(h, start_for(h), n_transient, n, stride,
                         force_python=True)
            assert res[1] == n
            assert len(scalar) == per_step * (n_transient + n)
            assert blocks == [nb for nb in (64, 64, 64, 8)
                              for _ in range(per_step)]


def test_numpy_orbit_loop_runs_starts_in_lockstep():
    # over column arrays of starts the np.exp form of the orbit loop
    # advances each start as its own single-column run does, bit for bit,
    # for every family code; rows of out hold the columns of each step
    rng = np.random.default_rng(7)
    n_transient, n_keep = 25, 40
    for h in handles():
        starts = start_for(h) + rng.uniform(-0.2, 0.2, (5, 2))
        out = np.empty((n_keep, 2, len(starts)))
        last = _kernels._np_orbit(h.family_code, *h.packed, *starts.T,
                                  n_transient, n_keep, out)
        for j, (u, v) in enumerate(starts):
            one = np.empty((n_keep, 2, 1))
            end = _kernels._np_orbit(h.family_code, *h.packed,
                                     np.array([u]), np.array([v]),
                                     n_transient, n_keep, one)
            assert out[:, :, j].tobytes() == one[:, :, 0].tobytes()
            assert np.array(last)[:, j].tobytes() == \
                np.array(end)[:, 0].tobytes()


def test_lyapunov_walk_is_block_invariant(monkeypatch):
    # running sums are sequential and the points and Jacobians do not
    # depend on the block, so a walk over 5 blocks + 7 points gives the
    # bits of a walk one point at a time, on the scalar and generic lanes
    # (one and two exp factors; the other family codes differ only in
    # elementwise arithmetic)
    monkeypatch.setattr(_kernels, "_BLOCK", 64)
    n = 5 * _kernels._BLOCK + 7
    gauss, pioneer = handles()[0], handles()[2]
    cases = [(gauss, True), (pioneer, True), (generic_twin(gauss), False)]
    want = [[kernel(h, start_for(h), 30, n, 100, force_python=fp)
             for kernel in (_kernels.run_norm_sum, _kernels.run_qr)]
            for h, fp in cases]
    monkeypatch.setattr(_kernels, "_BLOCK", 1)
    for (h, fp), ref in zip(cases, want):
        for kernel, w in zip((_kernels.run_norm_sum, _kernels.run_qr), ref):
            got = kernel(h, start_for(h), 30, n, 100, force_python=fp)
            assert got[1] == n
            for g, v in zip(got, w):
                assert np.asarray(g).tobytes() == np.asarray(v).tobytes()


@pytest.mark.parametrize("cloud", [False, True])
def test_qr_memory_does_not_grow_with_n(monkeypatch, cloud):
    # the walk holds one block at a time, and so does the reduction over
    # an orbit's cloud made before tracing starts; only the trace grows
    # with n
    monkeypatch.setattr(_kernels, "_BLOCK", 128)
    h = gauss_rotation(4.4, GOLDEN_MEAN)
    peaks = []
    for n in (4_000, 40_000):
        points = _kernels.run_orbit(h, X0, 0, n) if cloud else None
        tracemalloc.start()
        try:
            _kernels.run_qr(h, X0, 0, n, 100, points=points)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2 * peaks[0]


ESTIMATORS = (_kernels.run_norm_sum, _kernels.run_qr)


def cloud_handles():
    """The built-in variants, the radial tent and a finite-difference
    user map."""
    henon = user_map(lambda x: np.array([1.0 - 1.4 * x[0] ** 2 + x[1],
                                         0.3 * x[0]]))
    return handles() + [radial_tent_map((1.5, 2.0), theta=GOLDEN_MEAN).handle,
                        henon]


@pytest.mark.parametrize("n_transient", [0, 30])
def test_estimates_over_the_orbit_cloud_are_the_walk_bit_for_bit(
        monkeypatch, n_transient):
    # the walk takes its Jacobians at the points run_orbit keeps, so given
    # those points an estimate runs no orbit loop and has the walk's bits;
    # a cloud shorter than n is walked from x0
    monkeypatch.setattr(_kernels, "_BLOCK", 64)
    n, stride = 5 * 64 + 7, 10
    cases = []
    for h in cloud_handles():
        x0 = start_for(h)
        want = [kernel(h, x0, n_transient, n, stride) for kernel in ESTIMATORS]
        clouds = [_kernels.run_orbit(h, x0, n_transient, n_keep)
                  for n_keep in (n - 1, n, n + 50)]
        short = [kernel(h, x0, n_transient, n, stride, points=clouds[0])
                 for kernel in ESTIMATORS]
        cases.append((h, x0, want, clouds[1:], short))

    def refuse(*args):
        raise AssertionError("walked although the cloud holds n points")

    monkeypatch.setattr(_kernels, "_orbit", refuse)
    for h, x0, want, clouds, short in cases:
        got = [short] + [[kernel(h, x0, n_transient, n, stride, points=c)
                          for kernel in ESTIMATORS] for c in clouds]
        for estimates in got:
            for g, w in zip(estimates, want):
                assert g[1] == n
                for a, b in zip(g, w):
                    assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_estimators_take_only_their_own_orbit_cloud():
    # a cloud is the one orbit(handle, x0, n_transient, n_keep) returned,
    # or one of a rebuilt identical map; one made with another map, start
    # or transient is a ValueError, also where the two maps share a spec:
    # the literal and rotation gauss forms, or user maps with equal params
    h = gauss_rotation(2.7, GOLDEN_MEAN)
    n, n_transient = 200, 30
    cloud = orbit(gauss_rotation(2.7, GOLDEN_MEAN), X0, n_transient, n)
    literal = gauss_rotation(2.7, GOLDEN_MEAN, literal_eq=True)
    squares = [user_map(lambda x, c=c: np.array([x[0] ** 2 - c, x[0] * x[1]]),
                        params={"c": 1.0}) for c in (0.5, 0.6)]
    assert literal.spec == h.spec and squares[0].spec == squares[1].spec
    foreign = [(h, X0 + 0.01, n_transient, cloud),
               (h, X0, n_transient + 1, cloud),
               (gauss_rotation(4.5, GOLDEN_MEAN), X0, n_transient, cloud),
               (h, X0, n_transient, orbit(literal, X0, n_transient, n)),
               (squares[1], X0, n_transient,
                orbit(squares[0], X0, n_transient, n)),
               (h, X0, n_transient, PointCloud(cloud.points, ordered=True))]
    for estimator in (max_lyapunov_norm_sum, lyapunov_spectrum_qr):
        got = estimator(h, X0, n, n_transient, orbit=cloud)
        want = estimator(h, X0, n, n_transient)
        for field in ("spectrum", "convergence_trace"):
            assert (getattr(got, field).tobytes()
                    == getattr(want, field).tobytes())
        for other, x0, t, other_cloud in foreign:
            with pytest.raises(ValueError, match="orbit cloud"):
                estimator(other, x0, n, t, orbit=other_cloud)


def test_builtin_overflow_reruns_on_generic_lane():
    # started outside the positivity cone the pioneer orbit blows up, and
    # math.exp raises OverflowError where np.exp gives inf
    h = pioneer_climax_full(3.0, 3.0)
    x0 = np.array([-1.0, 0.5])
    with pytest.raises(DivergenceError):
        orbit(h, x0, 0, 100)
    twin = generic_twin(h)
    for kernel in (_kernels.run_norm_sum, _kernels.run_qr):
        # stride 1: the scalar lane writes trace entries before it overflows
        got = kernel(h, x0, 0, 100, 1, force_python=True)
        want = kernel(twin, x0, 0, 100, 1)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        assert not np.isfinite(got[0]).all()


def test_walk_that_overflows_in_a_later_block_diverges(monkeypatch):
    # two points a block: the pioneer started outside its cone overflows
    # math.exp after the first block, and only that block reruns on the
    # generic lane; both estimates are non-finite, so both estimators raise
    monkeypatch.setattr(_kernels, "_BLOCK", 2)
    h = pioneer_climax_full(3.0, 3.0)
    x0 = np.array([-1.0, 0.5])
    first = np.empty((2, 2))
    _kernels._PY_LOOPS["orbit"](h.family_code, *h.packed, *x0, 0, 2, first)
    with pytest.raises(OverflowError):
        _kernels._PY_LOOPS["orbit"](h.family_code, *h.packed, *first[-1], 0,
                                    2, np.empty((2, 2)))
    for estimator in (max_lyapunov_norm_sum, lyapunov_spectrum_qr):
        with pytest.raises(DivergenceError):
            estimator(h, x0, 100)


def test_generic_lane_overflows_silently():
    # like the compiled and scalar lanes, the generic loops leave overflow
    # to the caller's finiteness check instead of warning
    twin = generic_twin(pioneer_climax_full(3.0, 3.0))
    x0 = np.array([-1.0, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for kernel in (_kernels.run_norm_sum, _kernels.run_qr):
            got = kernel(twin, x0, 0, 100, 1)
            assert not np.isfinite(got[0]).all()


def test_generic_lane_used_for_user_maps():
    # user maps have no family code; both lanes are the generic one
    h = user_map(lambda x: 0.5 * x, jac=lambda x: 0.5 * np.eye(2),
                 batch=lambda p: 0.5 * p)
    out = _kernels.run_orbit(h, np.array([1.0, 1.0]), 3, 4)
    np.testing.assert_allclose(out[0], [0.0625, 0.0625])


def test_warmup_idempotent():
    _kernels.warmup()
    _kernels.warmup()


def test_env_flag_reflects_module_state():
    # USE_NUMBA is resolved at import-time from the environment switch
    assert isinstance(_kernels.USE_NUMBA, bool)
    if _kernels.USE_NUMBA:
        assert _kernels.HAVE_NUMBA


# every float: signed zeros, subnormals, infinities, nan, and magnitudes
# whose squares overflow
_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True,
                       allow_subnormal=True)
_EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
          2.2e-308, 1e200, -1e200, 1.7976931348623157e308, 3.0, -4.0]


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64),
                               b[~nan].view(np.int64)))


@given(arrays(np.float64, st.tuples(st.integers(0, 40), st.just(2)),
              elements=_ANY_FLOAT))
@example(np.array([[x, y] for x in _EDGES for y in _EDGES]))
def test_row_norms_are_numpy_norms_bit_for_bit(v):
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        want = np.linalg.norm(v, axis=1)
        got = _kernels.row_norms(v)
        assert _same_bits(got, want)
        # a point gives a 0-d value, a stack of blocks one value per row;
        # np.linalg.norm(w) without an axis takes a dot product, which may
        # round differently
        for w in v[:3]:
            assert _same_bits(_kernels.row_norms(w),
                              np.linalg.norm(w, axis=-1))
        stack = np.concatenate([v, v[::-1]]).reshape(2, -1, 2)
        assert _same_bits(_kernels.row_norms(stack),
                          np.linalg.norm(stack, axis=-1))
