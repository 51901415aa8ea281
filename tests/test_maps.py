import inspect
import math
import pickle
import re
from pathlib import Path

import numpy as np
import pytest

from attractorlab import _kernels
from attractorlab.dynamics import initial_point
from attractorlab.horseshoe import HorseshoeRegion, model_horseshoe_map
from attractorlab.maps import (GOLDEN_MEAN, MapDefinitionError, MapSpec,
                               build_map, finite_difference_jacobian,
                               gauss_rotation, pioneer_climax_full,
                               pioneer_climax_mixed, user_map)
from attractorlab.radial import radial_tent_map


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
    np.testing.assert_allclose(h.eval(initial_point(x)), expected,
                               rtol=1e-14)
    # norm depends only on |x|
    r = np.linalg.norm(x)
    assert np.linalg.norm(h.eval(x)) == pytest.approx(
        a * r * math.exp(-r * r), rel=1e-13)


def test_gauss_literal_duplicates_components():
    h = gauss_rotation(3.0, 0.25, literal_eq=True)
    y = h.eval(np.array([0.5, 0.2]))
    assert y[0] == y[1]
    assert h.literal
    j = h.eval(np.array([0.5, 0.2]), True)[1]
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


def test_analytic_jacobian_matches_finite_difference():
    rng = np.random.default_rng(7)
    for h in (gauss_rotation(2.7, GOLDEN_MEAN),
              gauss_rotation(5.4, GOLDEN_MEAN, literal_eq=True),
              pioneer_climax_full(3, 3), pioneer_climax_mixed(2, 3)):
        for _ in range(25):
            x = rng.uniform(-3, 3, size=2)
            ja = h.eval(x, True)[1]
            jf = finite_difference_jacobian(h.eval, x)
            scale = max(np.linalg.norm(ja), 1e-12)
            assert np.linalg.norm(ja - jf) / scale < 1e-6


def test_user_map_defaults():
    f = lambda x: np.array([x[0] ** 2 - x[1], 0.5 * x[1]])
    h = user_map(f)
    x = np.array([1.2, -0.7])
    expected_j = np.array([[2 * 1.2, -1.0], [0.0, 0.5]])
    np.testing.assert_allclose(h.eval(x, True)[1], expected_j, atol=1e-7)
    # a block without batch loops over its rows
    pts = np.array([[1.0, 2.0], [0.5, 0.5]])
    np.testing.assert_allclose(h.eval(pts), [f(p) for p in pts])


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


def test_initial_point_input_checks():
    with pytest.raises(ValueError):
        initial_point([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        initial_point([float("inf"), 0.0])


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
            assert np.array_equal(back.eval(p, True)[1], h.eval(p, True)[1])
        assert np.array_equal(back.eval(pts), h.eval(pts))


def handle_cases():
    """Every kind of handle, each with a block of points in its domain."""
    pts = np.vstack([grid_points(),
                     [[0.3, 0.1], [1.0, 2.0], [0.0, 0.0], [-1.0, 0.5]]])
    # the grid spread over the model capsule, plus the model's band edges
    model_pts = np.vstack([pts * [1.0, 2.0] - [2.0, 3.0],
                           [[x1, x2] for x1 in (-5.0, 0.5)
                            for x2 in (-1.0, 3.0, 5.0, 9.0)]])
    framed = HorseshoeRegion([[0.7, -0.4], [0.2, 1.3]], [3.1, -2.2])
    f = lambda x: np.array([x[0] * x[0] - x[1], 0.5 * x[1] * x[0]])
    jac = lambda x: np.array([[2.0 * x[0], -1.0], [0.5 * x[1], 0.5 * x[0]]])
    batch = lambda p: np.column_stack([p[:, 0] * p[:, 0] - p[:, 1],
                                       0.5 * p[:, 1] * p[:, 0]])
    return [(h, pts) for h in builtin_handles()] + [
        (model_horseshoe_map(), model_pts),
        (model_horseshoe_map(region=framed), framed.to_world(model_pts)),
        (radial_tent_map((3.0, 2.5), theta=0.3).handle, pts / 4.0),
        (user_map(f), pts), (user_map(f, jac=jac, batch=batch), pts)]


def test_eval_many_matches_eval():
    # eval of an (n, m) block is its rows' point evaluations, bit for bit
    for h, block in handle_cases():
        images = h.eval(block)
        assert images.shape == block.shape
        assert images.tobytes() == np.array(
            [h.eval(p) for p in block]).tobytes()
        assert h.eval(block[:0]).shape == (0, 2)


def test_jac_many_and_tangent_are_the_point_callables_bit_for_bit():
    # eval(x, True) returns the image without the Jacobian, and on a block
    # the stacked point Jacobians, bit for bit
    for h, block in handle_cases():
        pairs = [h.eval(p, True) for p in block]
        for p, (image, _) in zip(block, pairs):
            assert image.tobytes() == h.eval(p).tobytes()
        got_images, got_jacs = h.eval(block, True)
        assert got_images.tobytes() == h.eval(block).tobytes()
        assert got_jacs.tobytes() == np.array(
            [j for _, j in pairs]).tobytes()
        assert [a.shape for a in h.eval(block[:0], True)] == [(0, 2),
                                                              (0, 2, 2)]
    pts = grid_points()
    for h in builtin_handles():
        back = pickle.loads(pickle.dumps(h))
        for x in (pts, pts[5]):
            for got, want in zip(back.eval(x, True), h.eval(x, True)):
                assert got.tobytes() == want.tobytes()


def test_user_map_empty_block_keeps_its_dimension():
    f = lambda x: 0.5 * x
    for h in (user_map(f), user_map(f, jac=lambda x: 0.5 * np.eye(2))):
        empty = np.empty((0, 2))
        assert h.eval(empty).shape == (0, 2)
        assert [a.shape for a in h.eval(empty, True)] == [(0, 2), (0, 2, 2)]


def test_readme_user_map_signature_matches_the_function():
    text = " ".join((Path(__file__).parents[1] / "README.md").read_text()
                    .split())
    want = ", ".join(p.name if p.default is p.empty else f"{p.name}={p.default}"
                     for p in inspect.signature(user_map).parameters.values())
    assert re.findall(r"`user_map\(([^`]*)\)`", text) == [want]


def scalar_form(orbit, tangent, h, pts):
    """A definition evaluated one Python-float point at a time; the image
    is one transient step of the orbit loop."""
    images = np.array([orbit(h.family_code, *h.packed, float(u), float(v),
                             1, 0, None)
                       for u, v in pts])
    jacs = np.array([tangent(h.family_code, *h.packed,
                             float(u), float(v))[2:]
                     for u, v in pts]).reshape(-1, 2, 2)
    return images, jacs


def test_handle_callables_are_the_kernel_definition():
    pts = grid_points()
    np_orbit, np_tangent = _kernels._family(np.exp)
    for h in builtin_handles():
        ev = np.array([h.eval(p) for p in pts])
        ev_many = h.eval(pts)
        jc = np.array([h.eval(p, True)[1] for p in pts])
        # over the same exponential, bit for bit the scalar definition
        images, jacs = scalar_form(np_orbit, np_tangent, h, pts)
        assert np.array_equal(ev, images)
        assert np.array_equal(ev_many, images)
        assert np.array_equal(jc, jacs)
        # the orbit loop's step uses math.exp, which differs from
        # np.exp by one ulp on some arguments; exp is a factor of every
        # entry, so the gap stays within a few ulps
        images, jacs = scalar_form(*_kernels._family(math.exp), h, pts)
        np.testing.assert_allclose(ev, images, rtol=1e-15, atol=0)
        np.testing.assert_allclose(ev_many, images, rtol=1e-15, atol=0)
        np.testing.assert_allclose(jc, jacs, rtol=1e-15, atol=0)


@pytest.mark.parametrize("exp", [math.exp, np.exp])
def test_tangent_image_is_the_step_bit_for_bit(exp):
    # eval(x, True) returns tangent's image and eval(x) one step of the
    # orbit loop's, so the two must agree exactly, for every built-in
    # variant (two per family code) and either exponential
    orbit, tangent = _kernels._family(exp)
    pts = grid_points()
    assert sorted(h.family_code for h in builtin_handles()) == [0, 0, 1, 1]
    for h in builtin_handles():
        for u, v in pts:
            args = (h.family_code, *h.packed, float(u), float(v))
            image = np.array(tangent(*args)[:2], dtype=float)
            assert image.tobytes() == \
                np.array(orbit(*args, 1, 0, None)).tobytes()
