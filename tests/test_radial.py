"""Shell partitions, symbolic coding, and the radial tent ground truth."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from attractorlab.maps import (GOLDEN_MEAN, finite_difference_jacobian,
                               gauss_rotation)
from attractorlab.radial import (RadialTent, ShellConstructionError,
                                 ShellSpec, SymbolCode, cantor_shells,
                                 estimate_radial_bounds, hausdorff_bounds,
                                 periodic_code, radial_derivative,
                                 radial_tent_map, shift_map, shift_metric)


def const(v):
    return lambda u: np.asarray(u, dtype=float) * 0.0 + v


def test_shellspec_validation():
    good = ShellSpec(const(0.3), const(0.7), const(1.0), 0.3, 0.7, 3.0, 3.0)
    good.validate()
    with pytest.raises(ValueError, match="alpha must be positive"):
        ShellSpec(const(0.0), const(0.7), const(1.0), 0.3, 0.7, 3.0, 3.0).validate()
    with pytest.raises(ValueError):
        ShellSpec(const(0.8), const(0.7), const(1.0), 0.3, 0.7, 3.0, 3.0).validate()
    with pytest.raises(ValueError):
        ShellSpec(const(0.3), const(1.2), const(1.0), 0.3, 0.7, 3.0, 3.0).validate()
    with pytest.raises(ValueError):
        # ratio m_big/m_small not below lam
        ShellSpec(const(0.3), const(0.7), const(1.0), 0.3, 0.7, 2.0, 3.0).validate()
    with pytest.raises(ValueError):
        ShellSpec(const(0.3), const(0.7), const(1.0), 0.3, 0.7, 3.0, 2.5).validate()
    sink = ShellSpec(const(0.3), const(0.7), const(1.0), 0.3, 0.7, 3.0, 3.0,
                     alpha0=const(0.1))
    sink.validate()
    np.testing.assert_array_equal(sink.inner_floor(np.zeros(3)), 0.1)
    np.testing.assert_array_equal(good.inner_floor(np.zeros(3)), 0.0)
    with pytest.raises(ValueError):
        ShellSpec(const(0.3), const(0.7), const(1.0), 0.3, 0.7, 3.0, 3.0,
                  alpha0=const(0.5)).validate()


def test_radial_derivative_on_tent():
    tent = radial_tent_map((3.0, 3.0))
    assert radial_derivative(tent.handle, [0.2, 0.1]) == pytest.approx(3.0)
    assert radial_derivative(tent.handle, [0.0, 0.8]) == pytest.approx(-3.0)
    with pytest.raises(ValueError):
        radial_derivative(tent.handle, [0.0, 0.0])
    with pytest.raises(ValueError):
        # compact support: f vanishes beyond the cutoff
        radial_derivative(tent.handle, [2.0, 0.0])


def _counting(handle):
    """The handle with an eval that records each call's with_jac flag."""
    calls = []

    def counting(x, with_jac=False):
        calls.append(with_jac)
        return handle.eval(x, with_jac)

    return dataclasses.replace(handle, eval=counting), calls


def _tent_case(slopes, **kw):
    tent = radial_tent_map(slopes, **kw)
    return tent.handle, tent.shells


def _gauss_case():
    return (gauss_rotation(2.7, GOLDEN_MEAN),
            ShellSpec(const(1.0), const(1.5), const(2.5), 1.0, 1.5, 2.0, 3.0))


def test_estimate_radial_bounds_exact_slopes():
    tent = radial_tent_map((2.5, 4.0))
    lam_hat, mu_hat, violations = estimate_radial_bounds(
        tent.handle, tent.shells, grid=64, n_angles=16)
    assert lam_hat == pytest.approx(2.5, abs=1e-12)
    assert mu_hat == pytest.approx(4.0, abs=1e-12)
    assert violations == []


def test_estimate_radial_bounds_flags_sign_violations():
    # |f| = a r exp(-r^2) turns over at r = 1/sqrt(2), inside this
    # deliberately oversized inner region
    h, spec = _gauss_case()
    _, _, violations = estimate_radial_bounds(h, spec, grid=32, n_angles=8)
    kinds = {v[1] for v in violations}
    assert "sign" in kinds


# lam_hat, mu_hat and violation kinds: a tent reads its slopes (with an
# alpha0 the inner grid starts one step above the alpha0 kink, so the
# r^2/alpha0 core is never sampled); the gauss row is pinned from a
# one-sample-at-a-time evaluation.
@pytest.mark.parametrize("make, grid, n_angles, lam, mu, kinds", [
    (lambda: _tent_case((2.5, 4.0), theta=0.15), 64, 16,
     2.4999999999999996, 4.000000000000003, []),
    (lambda: _tent_case((3.0, 5.0), alpha0=0.25, theta=0.3), 64, 16,
     3.0, 5.000000000000003, []),
    (lambda: _tent_case((6.0, 6.0), alpha0=0.25), 64, 16, 6.0, 6.0, []),
    (lambda: _tent_case((5.0, 5.0), alpha0=0.25), 64, 16, 5.0, 5.0, []),
    (_gauss_case, 32, 8, 0.06811872501445615, 2.692096278118891,
     ["sign"] * 80 + ["ratio_condition"]),
], ids=["tent_source", "tent_sink", "tent_sink_6_6", "tent_sink_5_5",
        "gauss"])
def test_estimate_radial_bounds_makes_one_eval_call(make, grid, n_angles,
                                                    lam, mu, kinds):
    handle, spec = make()
    spy, calls = _counting(handle)
    lam_hat, mu_hat, violations = estimate_radial_bounds(
        spy, spec, grid=grid, n_angles=n_angles)
    assert calls == [True]
    assert lam_hat == pytest.approx(lam, rel=1e-12)
    assert mu_hat == pytest.approx(mu, rel=1e-12)
    assert [v[1] for v in violations] == kinds


def test_radial_derivative_of_a_block_is_its_rows():
    tent = radial_tent_map((2.5, 4.0), theta=0.15)
    rng = np.random.default_rng(5)
    r = rng.uniform(0.05, 0.95, 40)
    phi = rng.uniform(0.0, 2 * np.pi, 40)
    block = np.column_stack([r * np.cos(phi), r * np.sin(phi)])
    d = radial_derivative(tent.handle, block)
    assert d.shape == (40,)
    np.testing.assert_allclose(
        d, [radial_derivative(tent.handle, p) for p in block], rtol=1e-15)
    for bad in ([0.0, 0.0], [2.0, 0.0]):
        with pytest.raises(ValueError):
            radial_derivative(tent.handle, np.vstack([block, bad]))


@given(st.floats(1.0, 6.0, exclude_min=True),
       st.floats(1.0, 6.0, exclude_min=True),
       st.floats(0.5, 3.0), st.floats(0.0, 1.0),
       st.booleans(), st.floats(0.05, 0.5),
       st.floats(0.0, 1.0), st.floats(0.0, 2 * np.pi))
def test_radial_tent_slope_matches_a_central_difference(
        s_in, s_out, zeta, theta, sink, a0_frac, r_frac, phi):
    a0 = a0_frac * zeta if sink else None
    try:
        tent = radial_tent_map((s_in, s_out), zeta, theta, a0)
    except ValueError:
        assume(False)
    lift = 0.0 if a0 is None else (s_in - 1.0) * a0
    apex = (s_out * zeta + lift) / (s_in + s_out)
    kinks = [0.0, apex, zeta] + ([] if a0 is None else [a0])
    r = r_frac * zeta
    assume(min(abs(r - k) for k in kinks) >= 1e-6)
    u = np.array([np.cos(phi), np.sin(phi)])
    h = 1e-7
    fd = (np.linalg.norm(tent.handle.eval((r + h) * u))
          - np.linalg.norm(tent.handle.eval((r - h) * u))) / (2 * h)
    assert radial_derivative(tent.handle, r * u) == pytest.approx(fd,
                                                                  abs=1e-6)
    c, s = np.cos(2 * np.pi * theta), np.sin(2 * np.pi * theta)
    lead = s_in if a0 is None else 0.0
    np.testing.assert_allclose(tent.handle.eval(np.zeros(2), True)[1],
                               lead * np.array([[c, -s], [s, c]]),
                               rtol=0, atol=1e-15)


def test_cantor_shells_middle_thirds_exact():
    tent = radial_tent_map((3.0, 3.0))
    part = cantor_shells(tent.return_map, tent.shells, depth=3)
    assert len(part.levels[0][0]) == 1
    part.validate()

    third = 1.0 / 3.0
    for addr, (lo, hi) in {
        "": (0.0, 1.0),
        "0": (0.0, third), "1": (2 * third, 1.0),
        "00": (0.0, 1 / 9), "01": (2 / 9, 3 / 9),
        "10": (6 / 9, 7 / 9), "11": (8 / 9, 1.0),
        "000": (0.0, 1 / 27), "011": (8 / 27, 9 / 27),
        "110": (24 / 27, 25 / 27), "101": (20 / 27, 21 / 27),
    }.items():
        clo, chi = part.cell(addr)
        assert clo.shape == (part.n_angles,)
        np.testing.assert_allclose(clo, lo, atol=1e-10)
        np.testing.assert_allclose(chi, hi, atol=1e-10)

    # leaf widths shrink by the slope factor per level
    lo, hi = part.leaves()
    np.testing.assert_allclose(hi - lo, 3.0 ** -3, atol=1e-9)

    # a level-0 band that leaves its cell, and level-1 cells that no
    # longer tile level 0
    (clo, chi), (blo, bhi) = part.levels[0], part.bands[0]
    loose = dataclasses.replace(part, bands=[(blo, chi + 0.1),
                                             *part.bands[1:]])
    with pytest.raises(AssertionError, match="band not strictly inside"):
        loose.validate()
    nlo, nhi = part.levels[1]
    gap = dataclasses.replace(part, levels=[part.levels[0], (nlo + 0.01, nhi),
                                            *part.levels[2:]])
    with pytest.raises(AssertionError, match="children do not tile"):
        gap.validate()


def test_cantor_shells_addresses_and_errors():
    tent = radial_tent_map((3.0, 3.0))
    part = cantor_shells(tent.return_map, tent.shells, depth=2)
    assert part.addresses(0) == [""]
    assert part.addresses(2) == ["00", "01", "10", "11"]
    with pytest.raises(ValueError):
        part.addresses(3)
    with pytest.raises(KeyError):
        part.cell("2")
    with pytest.raises(KeyError):
        part.cell("000")
    with pytest.raises(ValueError):
        cantor_shells(tent.return_map, tent.shells, depth=0)
    with pytest.raises(ValueError):
        cantor_shells(tent.return_map, tent.shells, depth=99)


def test_cantor_shells_rejects_broken_return_map():
    tent = radial_tent_map((3.0, 3.0))
    with pytest.raises(ShellConstructionError) as exc:
        cantor_shells(lambda r, angle=0.0: 0.5 + 0.0 * np.asarray(r),
                      tent.shells, depth=3)
    assert set(exc.value.address) <= {"0", "1"}
    assert isinstance(exc.value.angle, float)


def _zeta(u):
    return 1.0 + 0.1 * np.cos(np.asarray(u, dtype=float))


def _angle_dependent_case():
    # tent scaled per angle: every radial slice is a middle-thirds set
    # stretched by zeta(angle)
    def g(r, angle):
        z = _zeta(angle)
        return np.maximum(np.minimum(3.0 * r, 3.0 * (z - r)), 0.0)

    spec = ShellSpec(alpha=lambda u: _zeta(u) / 3.0,
                     beta=lambda u: 2.0 * _zeta(u) / 3.0,
                     zeta=_zeta, m_small=0.9 / 3.0, m_big=2.2 / 3.0,
                     lam=3.0, mu=3.0)
    return g, spec


def test_cantor_shells_angle_dependent_profiles():
    part = cantor_shells(*_angle_dependent_case(), depth=2, angle_grid=16)
    assert len(part.levels[0][0]) == part.n_angles
    part.validate()
    z = _zeta(part.angles)
    clo, chi = part.cell("00")
    np.testing.assert_allclose(clo, 0.0, atol=1e-10)
    np.testing.assert_allclose(chi, z / 9.0, atol=1e-9)
    clo, chi = part.cell("11")
    np.testing.assert_allclose(clo, 8.0 * z / 9.0, atol=1e-9)
    np.testing.assert_allclose(chi, z, atol=1e-10)


def test_cantor_shells_size_guard():
    with pytest.raises(ValueError):
        cantor_shells(*_angle_dependent_case(), depth=21, angle_grid=256)


def test_sample_cloud_hits_leaf_midpoints():
    tent = radial_tent_map((3.0, 3.0))
    part = cantor_shells(tent.return_map, tent.shells, depth=4)
    cloud = part.sample_cloud(max_points=5000, seed=7)
    assert len(cloud.points) == 5000
    r = np.linalg.norm(cloud.points, axis=1)
    lo, hi = part.levels[part.depth]
    mids = np.sort(0.5 * (lo + hi).ravel())
    snapped = mids[np.searchsorted(mids, r).clip(0, len(mids) - 1)]
    near = np.minimum(np.abs(snapped - r),
                      np.abs(mids[np.searchsorted(mids, r) - 1] - r))
    assert near.max() < 1e-9
    assert cloud.meta["depth"] == 4


def test_sample_cloud_reads_the_leaves_at_the_nearest_stored_angle():
    part = cantor_shells(*_angle_dependent_case(), depth=2, angle_grid=16)
    assert len(part.levels[0][0]) == part.n_angles
    cloud = part.sample_cloud(max_points=2000, seed=3)
    x, y = cloud.points.T
    r, phi = np.hypot(x, y), np.arctan2(y, x) % (2 * np.pi)
    col = np.rint(phi / (2 * np.pi / part.n_angles)).astype(int) \
        % part.n_angles
    assert len(set(col)) == part.n_angles
    lo, hi = part.leaves()
    # each radius is the midpoint of one leaf of its own column
    mids = 0.5 * (lo + hi)[col]
    assert np.abs(mids - r[:, None]).min(axis=1).max() < 1e-12


def test_sink_mode_partition_and_basin():
    tent = radial_tent_map((3.0, 3.0), alpha0=0.25)
    assert isinstance(tent, RadialTent)
    part = cantor_shells(tent.return_map, tent.shells, depth=3)
    part.validate()
    # root starts at the basin radius, not at 0
    rlo, rhi = part.cell("")
    np.testing.assert_allclose(rlo, 0.25, atol=1e-12)
    np.testing.assert_allclose(rhi, 1.0, atol=1e-12)
    # the deleted band at depth 1 maps onto the root band
    blo, bhi = part.bands[1]
    g = tent.return_map
    np.testing.assert_allclose(g(blo[0], 0.0), [0.5, 2 / 3], atol=1e-9)
    np.testing.assert_allclose(g(bhi[0], 0.0), [2 / 3, 0.5], atol=1e-9)
    # origin attracts everything below alpha0
    x = np.array([0.1, 0.05])
    for _ in range(8):
        x = tent.handle.eval(x)
    assert np.linalg.norm(x) < 1e-8


def test_radial_tent_validation():
    with pytest.raises(ValueError):
        radial_tent_map((1.0, 3.0))
    with pytest.raises(ValueError):
        radial_tent_map((3.0, 3.0), zeta=0.0)
    for alpha0 in (0.9, 0.0, -0.1):
        with pytest.raises(ValueError):
            radial_tent_map((3.0, 3.0), alpha0=alpha0)


def test_radial_tent_jacobian_matches_fd():
    tent = radial_tent_map((3.0, 3.0), theta=0.15)
    rng = np.random.default_rng(11)
    # stay away from the apex, cutoff, and origin kinks
    radii = np.concatenate([rng.uniform(0.1, 0.4, 20),
                            rng.uniform(0.6, 0.9, 20)])
    angles = rng.uniform(0, 2 * np.pi, 40)
    for r, ang in zip(radii, angles):
        x = np.array([r * np.cos(ang), r * np.sin(ang)])
        j_a = tent.handle.eval(x, True)[1]
        j_fd = finite_difference_jacobian(tent.handle.eval, x)
        assert np.abs(j_a - j_fd).max() < 1e-5


def test_hausdorff_bounds_formula_and_errors():
    # lam and mu are the radial slopes, as ShellSpec carries them
    lo, hi = hausdorff_bounds(3.0, 3.0)
    assert lo == pytest.approx(1 + math.log(2) / math.log(3), abs=1e-12)
    assert hi == lo
    lo, hi = hausdorff_bounds(2.5, 5.0)
    assert lo == pytest.approx(1 + math.log(2) / math.log(5), abs=1e-12)
    assert hi == pytest.approx(1 + math.log(2) / math.log(2.5), abs=1e-12)
    assert lo < hi
    for lam, mu in ((0.0, 2.0), (1.0, 2.0), (3.0, 2.0)):
        with pytest.raises(ValueError):
            hausdorff_bounds(lam, mu)


def test_symbol_code_canonical_forms():
    # period reduced to its primitive word
    assert SymbolCode((), (1, 0, 1, 0)).period == (1, 0)
    # preperiod absorbed into a rotation of the period
    assert SymbolCode((1,), (1,)) == SymbolCode((), (1,))
    # two spellings of the sequence 0,1,1,0,1,0,... canonicalize alike
    assert SymbolCode((0, 1, 1), (0, 1)) == SymbolCode((0, 1), (1, 0))
    s = SymbolCode("01", "10")
    assert s.preperiod == (0, 1) and s.period == (1, 0)
    assert str(periodic_code("10")) == ".(10)*"
    with pytest.raises(ValueError):
        SymbolCode((2,), (1,))
    with pytest.raises(ValueError):
        SymbolCode((), ())
    with pytest.raises(ValueError):
        periodic_code("")


binary_words = st.lists(st.integers(0, 1), max_size=6).map(tuple)


@given(binary_words, binary_words.filter(bool), st.integers(0, 8),
       st.integers(1, 4))
def test_symbol_code_canonical_form_properties(pre, per, k, r):
    code = SymbolCode(pre, per)
    n = len(per)
    # the same sequence spelled with k more preperiod digits, or with the
    # period word repeated r times
    unrolled = SymbolCode(pre + (per * (k // n + 1))[:k],
                          per[k % n:] + per[:k % n])
    repeated = SymbolCode(pre, per * r)
    length = len(pre) + k + 2 * n * r
    naive = (pre + per * length)[:length]
    for other in (unrolled, repeated):
        assert other == code
        assert (other.preperiod, other.period) == \
            (code.preperiod, code.period)
        assert other.prefix(length) == code.prefix(length) == naive
    # canonical: no shorter period word, no preperiod digit to absorb
    m = len(code.period)
    assert all(code.period != code.period[:d] * (m // d)
               for d in range(1, m) if m % d == 0)
    assert not code.preperiod or code.preperiod[-1] != code.period[-1]


def test_symbol_code_digits_and_prefix():
    s = periodic_code("10")
    assert [s.digit(n) for n in range(1, 6)] == [1, 0, 1, 0, 1]
    assert s.prefix(4) == (1, 0, 1, 0)
    with pytest.raises(ValueError):
        s.digit(0)
    t = SymbolCode("101")          # finite word, trailing zeros
    assert t.prefix(6) == (1, 0, 1, 0, 0, 0)


def test_shift_map():
    assert shift_map(periodic_code("10")) == periodic_code("01")
    s = SymbolCode("011", "10")
    assert shift_map(s) == SymbolCode("11", "10")
    assert shift_map(SymbolCode("1")) == SymbolCode()
    # shifting a fixed point of the shift returns itself
    assert shift_map(periodic_code("1")) == periodic_code("1")


def test_shift_metric_exact_values():
    one = periodic_code("1")
    zero = periodic_code("0")
    assert shift_metric(one, zero) == Fraction(1)
    assert shift_metric(one, one) == Fraction(0)
    assert shift_metric(SymbolCode("1"), zero) == Fraction(1, 2)
    # alternating vs zero: digits differ at odd positions
    assert shift_metric(periodic_code("10"), zero) == Fraction(2, 3)
    assert shift_metric(periodic_code("10"), periodic_code("01")) == Fraction(1)
    # 0^inf, 10^inf, 110^inf: 3/4 exceeds max(1/2, 1/4), so the metric is
    # not an ultrametric; the triangle inequality holds with equality
    one_zero, one_one_zero = SymbolCode("1"), SymbolCode("11")
    assert shift_metric(zero, one_zero) == Fraction(1, 2)
    assert shift_metric(one_zero, one_one_zero) == Fraction(1, 4)
    assert shift_metric(zero, one_one_zero) == Fraction(3, 4)


def test_shift_metric_axioms_sampled():
    rng = np.random.default_rng(5)

    def rand_code():
        pre = tuple(rng.integers(0, 2, rng.integers(0, 4)))
        per = tuple(rng.integers(0, 2, rng.integers(1, 4)))
        return SymbolCode(pre, per)

    for _ in range(200):
        s, t, u = rand_code(), rand_code(), rand_code()
        dst = shift_metric(s, t)
        assert dst == shift_metric(t, s)
        assert (dst == 0) == (s == t)
        assert dst <= shift_metric(s, u) + shift_metric(u, t)


def test_shared_prefix_density_bound():
    rng = np.random.default_rng(6)
    for _ in range(100):
        word = tuple(rng.integers(0, 2, 8))
        s = SymbolCode(word, (0, 1))
        t = SymbolCode(word, (1, 0))
        # first disagreement after position 8 at the earliest
        assert shift_metric(s, t) <= Fraction(1, 2 ** 7)
