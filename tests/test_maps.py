import math
import pickle

import numpy as np
import pytest

from attractorlab import _kernels
from attractorlab.maps import (GOLDEN_MEAN, MapDefinitionError, MapSpec,
                               build_map, eval_map, finite_difference_jacobian,
                               gauss_rotation, jacobian, pioneer_climax_full,
                               pioneer_climax_mixed, user_map)


def rot(theta):
    c, s = math.cos(2 * math.pi * theta), math.sin(2 * math.pi * theta)
    return np.array([[c, -s], [s, c]])


def test_golden_mean_value():
    assert GOLDEN_MEAN == pytest.approx((1 + math.sqrt(5)) / 2, abs=0)


def test_gauss_rotation_formula():
    a, theta = 2.7, GOLDEN_MEAN
    h = gauss_rotation(a, theta)
    x = np.array([0.4, -0.3])
    expected = a * np.exp(-np.dot(x, x)) * rot(theta) @ x
    np.testing.assert_allclose(eval_map(h, x), expected, rtol=1e-14)
    # norm depends only on |x|
    r = np.linalg.norm(x)
    assert np.linalg.norm(h.eval(x)) == pytest.approx(
        a * r * math.exp(-r * r), rel=1e-13)


def test_gauss_literal_duplicates_components():
    h = gauss_rotation(3.0, 0.25, literal_eq=True)
    y = h.eval(np.array([0.5, 0.2]))
    assert y[0] == y[1]
    assert h.literal
    j = h.jac(np.array([0.5, 0.2]))
    np.testing.assert_array_equal(j[0], j[1])


def test_pioneer_full_formula():
    a = b = 3.0
    h = pioneer_climax_full(a, b)
    x = np.array([1.5, 2.0])
    y1 = 1.5 * math.exp(a - 0.8 * 1.5 - 0.2 * 2.0)
    y2 = 2.0 * (0.2 * 1.5 + 0.8 * 2.0) * math.exp(b - 0.2 * 1.5 - 0.8 * 2.0)
    np.testing.assert_allclose(h.eval(x), [y1, y2], rtol=1e-14)
    assert h.cone


def test_pioneer_mixed_first_component_decoupled():
    h = pioneer_climax_mixed(2.0, 3.0)
    x2a = h.eval(np.array([1.0, 0.5]))[0]
    x2b = h.eval(np.array([1.0, 2.5]))[0]
    assert x2a == pytest.approx(x2b, rel=1e-15)


def test_axes_invariant_for_pioneer():
    h = pioneer_climax_full(3.0, 3.0)
    on_x1 = h.eval(np.array([2.0, 0.0]))
    assert on_x1[1] == 0.0
    on_x2 = h.eval(np.array([0.0, 2.0]))
    assert on_x2[0] == 0.0


def test_eval_many_matches_eval():
    for h in (gauss_rotation(4.4, GOLDEN_MEAN), pioneer_climax_full(3, 3),
              pioneer_climax_mixed(2, 3)):
        pts = np.array([[0.3, 0.1], [1.0, 2.0], [0.0, 0.0], [-1.0, 0.5]])
        block = h.eval_many(pts)
        rows = np.array([h.eval(p) for p in pts])
        np.testing.assert_allclose(block, rows, rtol=1e-15)


def test_analytic_jacobian_matches_finite_difference():
    rng = np.random.default_rng(7)
    for h in (gauss_rotation(2.7, GOLDEN_MEAN),
              gauss_rotation(5.4, GOLDEN_MEAN, literal_eq=True),
              pioneer_climax_full(3, 3), pioneer_climax_mixed(2, 3)):
        for _ in range(25):
            x = rng.uniform(-3, 3, size=2)
            ja = jacobian(h, x)
            jf = finite_difference_jacobian(h.eval, x)
            scale = max(np.linalg.norm(ja), 1e-12)
            assert np.linalg.norm(ja - jf) / scale < 1e-6


def test_user_map_defaults():
    f = lambda x: np.array([x[0] ** 2 - x[1], 0.5 * x[1]])
    h = user_map(f, 2)
    assert h.jac_kind == "finite_difference"
    x = np.array([1.2, -0.7])
    expected_j = np.array([[2 * 1.2, -1.0], [0.0, 0.5]])
    np.testing.assert_allclose(h.jac(x), expected_j, atol=1e-7)
    # loop fallback for eval_many
    pts = np.array([[1.0, 2.0], [0.5, 0.5]])
    np.testing.assert_allclose(h.eval_many(pts), [f(p) for p in pts])


def test_user_map_dim_validation():
    with pytest.raises(MapDefinitionError):
        user_map(lambda x: x, 0)


def test_spec_validation_errors():
    with pytest.raises(MapDefinitionError):
        build_map(MapSpec("nope", {}))
    with pytest.raises(MapDefinitionError):
        build_map(MapSpec("gauss_rotation", {"a": 2.0}))
    with pytest.raises(MapDefinitionError):
        build_map(MapSpec("gauss_rotation", {"a": -1.0, "theta": 0.5}))
    with pytest.raises(MapDefinitionError):
        build_map(MapSpec("gauss_rotation",
                          {"a": 2.0, "theta": 0.5, "zz": 1.0}))
    with pytest.raises(MapDefinitionError):
        build_map(MapSpec("pioneer_climax_full",
                          {"a": float("nan"), "b": 1.0}))


def test_eval_map_input_checks():
    h = gauss_rotation(2.7, 0.3)
    with pytest.raises(ValueError):
        eval_map(h, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        eval_map(h, [float("inf"), 0.0])


def test_far_points_decay_toward_zero():
    h = gauss_rotation(4.4, GOLDEN_MEAN)
    y = h.eval(np.array([8.0, 0.0]))
    assert np.linalg.norm(y) < 1e-20
    hp = pioneer_climax_full(3.0, 3.0)
    y = hp.eval(np.array([60.0, 60.0]))
    assert np.linalg.norm(y) < 1e-9


def builtin_handles():
    return [gauss_rotation(4.4, GOLDEN_MEAN),
            gauss_rotation(2.7, 0.3, literal_eq=True),
            pioneer_climax_full(3.0, 2.5),
            pioneer_climax_mixed(2.0, 3.0)]


def grid_points():
    # every exponent stays far from math.exp's overflow threshold here
    g = np.linspace(-2.5, 6.0, 18)
    return np.array([(u, v) for u in g for v in g])


def test_builtin_handles_pickle():
    pts = grid_points()
    for h in builtin_handles():
        back = pickle.loads(pickle.dumps(h))
        assert (back.spec, back.family_code, back.packed, back.cone,
                back.literal) == (h.spec, h.family_code, h.packed, h.cone,
                                  h.literal)
        for p in pts:
            assert np.array_equal(back.eval(p), h.eval(p))
            assert np.array_equal(back.jac(p), h.jac(p))
        assert np.array_equal(back.eval_many(pts), h.eval_many(pts))


def scalar_form(step, jac, h, pts):
    """A definition evaluated one Python-float point at a time."""
    images = np.array([step(h.family_code, *h.packed, float(u), float(v))
                       for u, v in pts])
    jacs = np.array([jac(h.family_code, *h.packed, float(u), float(v))
                     for u, v in pts]).reshape(-1, 2, 2)
    return images, jacs


def test_handle_callables_are_the_kernel_definition():
    pts = grid_points()
    np_step, np_jac = _kernels._family(np.exp)
    for h in builtin_handles():
        ev = np.array([h.eval(p) for p in pts])
        ev_many = h.eval_many(pts)
        jc = np.array([h.jac(p) for p in pts])
        # over the same exponential, bit for bit the scalar definition
        images, jacs = scalar_form(np_step, np_jac, h, pts)
        assert np.array_equal(ev, images)
        assert np.array_equal(ev_many, images)
        assert np.array_equal(jc, jacs)
        # the kernel loops' _step/_jac use math.exp, which differs from
        # np.exp by one ulp on some arguments; exp is a factor of every
        # entry, so the gap stays within a few ulps
        images, jacs = scalar_form(_kernels._step, _kernels._jac, h, pts)
        np.testing.assert_allclose(ev, images, rtol=1e-15, atol=0)
        np.testing.assert_allclose(ev_many, images, rtol=1e-15, atol=0)
        np.testing.assert_allclose(jc, jacs, rtol=1e-15, atol=0)
