"""Hypothesis-check battery: sup norm, decay, cutoff, contraction."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import attractorlab
from attractorlab import hypotheses
from attractorlab.horseshoe import (HorseshoeRegion, model_horseshoe_map,
                                    verify_ah)
from attractorlab.maps import (GOLDEN_MEAN, gauss_rotation,
                               pioneer_climax_full, user_map)
from attractorlab.hypotheses import (Check, SupNormBoundaryError,
                                     attracting_set_sample,
                                     az_decay_profile, estimate_sup_norm,
                                     ez_check, origin_contraction_check,
                                     run_hypothesis_report)
from attractorlab.radial import radial_tent_map

# |f(x)| = a r exp(-r^2) peaks at r = 1/sqrt(2), closed form below
GAUSS_M = 2.7 * math.exp(-0.5) / math.sqrt(2)

# frozen from a bounded quasi-Newton polish of |f|^2 over the quadrant
PIONEER_M = 13.60955505138087
PIONEER_R_M = 2.4231694426789963


def bump_map(scale=0.4):
    """Compactly supported contraction: f(x) = scale * x * max(0, 1-|x|^2)."""
    def step(x):
        r2 = float(x @ x)
        return scale * x * max(0.0, 1.0 - r2)

    def batch(p):
        w = np.maximum(0.0, 1.0 - (p * p).sum(axis=1))
        return scale * p * w[:, None]

    return user_map(step, batch=batch)


def test_sup_norm_gauss_closed_form():
    sup = estimate_sup_norm(gauss_rotation(2.7, GOLDEN_MEAN), 8.0)
    assert sup.m_sup == pytest.approx(GAUSS_M, rel=1e-9)
    assert sup.r_m == pytest.approx(1 / math.sqrt(2), rel=1e-6)
    assert np.linalg.norm(sup.argmax) == pytest.approx(1 / math.sqrt(2), rel=1e-6)


def test_sup_norm_pioneer_frozen_oracle():
    sup = estimate_sup_norm(pioneer_climax_full(3.0, 3.0), 32.0)
    assert sup.m_sup == pytest.approx(PIONEER_M, rel=1e-6)
    # r_m may exceed the argmax norm by the tie tolerance of the ridge top
    assert sup.r_m == pytest.approx(PIONEER_R_M, abs=1e-3)


def test_sup_norm_boundary_guard():
    # the second-component ridge near x2 = 2 decays only like exp(-0.2 x1),
    # so boxes of radius 16 still carry |f| above M/10 on the far edge
    for radius in (8.0, 16.0):
        with pytest.raises(SupNormBoundaryError):
            estimate_sup_norm(pioneer_climax_full(3.0, 3.0), radius)


def test_sup_norm_grid_that_sees_only_zeros_is_inconclusive():
    # a 2-point grid at radius 1e300 samples |f| only where gauss has
    # underflowed to 0; M = 0 would be a false pass (the true M is 1.2866).
    # From 2e307 the doubling search reaches a box whose span overflows,
    # and from 1e308 the first box's span does: that ends the search
    h = gauss_rotation(3.0, 0.3)
    for radius, last in ((1e300, "8e+300"), (2e307, "1.6e+308"),
                         (1e308, "1e+308")):
        if radius < 1e308:
            with pytest.raises(SupNormBoundaryError, match="grid max 0"):
                estimate_sup_norm(h, radius, grid=2)
        report = run_hypothesis_report(h, search_radius=radius, grid=2)
        assert report.check("sup_norm").status == "inconclusive"
        assert f"radius-{last} box" in report.check("sup_norm").witness
    with pytest.raises(SupNormBoundaryError, match="1e.308 box is too large"):
        estimate_sup_norm(h, 1e308, grid=2)
    # from about 1e155, x2 * (0.2 x1 + 0.8 x2) of the pioneer map overflows
    # to inf and meets an exp that underflowed to 0: |f| is nan on the grid
    p = pioneer_climax_full(3.0, 3.0)
    for grid in (2, 256):
        with pytest.raises(SupNormBoundaryError, match="not finite on the "
                           r"radius-1e\+160 grid"):
            estimate_sup_norm(p, 1e160, grid=grid)
        sup = run_hypothesis_report(p, search_radius=1e160,
                                    grid=grid).check("sup_norm")
        assert sup.status == "inconclusive"
        assert sup.witness == "|f| is not finite on the radius-8e+160 grid"


def test_decay_profile_gauss_passes():
    prof = az_decay_profile(gauss_rotation(2.7, GOLDEN_MEAN),
                            np.linspace(0.5, 12.0, 24))
    assert prof.status == "pass"
    assert prof.data["witness"] is None
    assert prof.data["values"][-1] < 1e-9


def test_decay_profile_rising_tail_fails_with_witness():
    # |f(r u)| = r (1.1 + sin r) dips after its peak and rises again
    def step(x):
        return (1.1 + math.sin(float(np.linalg.norm(x)))) * x

    def batch(p):
        r = np.linalg.norm(p, axis=1)
        return (1.1 + np.sin(r))[:, None] * p

    prof = az_decay_profile(user_map(step, batch=batch),
                            np.linspace(0.5, 12.0, 48))
    assert prof.status == "fail"
    assert prof.data["witness"] is not None and len(prof.data["witness"]) == 4
    r_lo, r_hi, v_lo, v_hi = prof.data["witness"]
    assert r_lo < r_hi and v_hi > v_lo


def test_decay_profile_slow_tail_fails_on_final_value():
    ident = user_map(lambda x: x, batch=lambda p: p)
    prof = az_decay_profile(ident, np.linspace(0.5, 12.0, 24))
    assert prof.status == "fail"
    assert len(prof.data["witness"]) == 2


def test_decay_profile_validates_radii():
    h = gauss_rotation(2.7, GOLDEN_MEAN)
    with pytest.raises(ValueError):
        az_decay_profile(h, [1.0])
    with pytest.raises(ValueError):
        az_decay_profile(h, [1.0, 1.0, 2.0])


def test_ez_check_gauss_numeric_not_strict():
    strict, numeric = ez_check(gauss_rotation(2.7, GOLDEN_MEAN),
                               [2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    assert strict.data["radius"] is None
    # a r exp(-r^2) first drops below 1e-12 past r = 6 on this ladder
    assert numeric.data["radius"] == 6.0


def test_ez_check_compact_support_is_strict():
    # at the exact support radius, |u| = 1 up to one ulp leaves crumbs of
    # order 1e-17 on the shell, so numeric detects r = 1 but strict needs
    # the first candidate with true zeros everywhere
    strict, numeric = ez_check(bump_map(), [0.5, 1.0, 2.0])
    assert strict.data["radius"] == 2.0
    assert numeric.data["radius"] == 1.0


def test_ez_check_validation():
    h = bump_map()
    with pytest.raises(ValueError):
        ez_check(h, [])
    with pytest.raises(ValueError):
        ez_check(h, [-1.0, 2.0])


def test_origin_contraction_pass_and_fail():
    ok = origin_contraction_check(gauss_rotation(0.5, GOLDEN_MEAN),
                                  1 / math.sqrt(2))
    assert ok.status == "pass"
    assert ok.data["max_ratio"] == pytest.approx(0.5, abs=1e-3)
    assert ok.data["point"] is None

    bad = origin_contraction_check(gauss_rotation(2.0, GOLDEN_MEAN),
                                   1 / math.sqrt(2))
    assert bad.status == "fail"
    # ratio a exp(-r^2) approaches a = 2 along the geometric descent
    assert bad.data["max_ratio"] == pytest.approx(2.0, abs=1e-6)
    assert bad.data["point"] is not None
    assert np.linalg.norm(bad.data["point"]) < math.sqrt(math.log(2.0))


def test_origin_contraction_requires_fixed_origin():
    shifted = user_map(lambda x: 0.5 * x + 1.0,
                       batch=lambda p: 0.5 * p + 1.0)
    check = origin_contraction_check(shifted, 1.0)
    assert check.status == "inconclusive"
    assert check.witness.startswith("origin is not fixed")
    with pytest.raises(ValueError):
        origin_contraction_check(gauss_rotation(0.5, GOLDEN_MEAN), 0.0)


def test_attracting_set_sample_contracting_case():
    cloud = attracting_set_sample(gauss_rotation(0.5, GOLDEN_MEAN), 40)
    assert len(cloud.points) > 1000
    assert np.linalg.norm(cloud.points, axis=1).max() < 1e-9
    assert cloud.meta["n_iterates"] == 40
    assert cloud.meta["m_sup"] == pytest.approx(0.5 * math.exp(-0.5) / math.sqrt(2),
                                                rel=1e-9)


def test_attracting_set_sample_stays_inside_ball():
    h = gauss_rotation(2.7, GOLDEN_MEAN)
    cloud = attracting_set_sample(h, 12)
    m = cloud.meta["m_sup"]
    assert np.linalg.norm(cloud.points, axis=1).max() <= m + 1e-12
    with pytest.raises(ValueError):
        attracting_set_sample(h, -1)


def test_report_bump_map_all_pass():
    rep = run_hypothesis_report(bump_map())
    assert rep.all_pass
    names = [c.name for c in rep.checks]
    assert names == ["sup_norm", "decay_to_zero", "cutoff_strict",
                     "cutoff_numeric", "origin_contraction"]


def test_report_gauss_text_and_verdicts():
    rep = run_hypothesis_report(gauss_rotation(2.7, GOLDEN_MEAN))
    by_name = {c.name: c.status for c in rep.checks}
    assert by_name["sup_norm"] == "pass"
    assert by_name["decay_to_zero"] == "pass"
    assert by_name["cutoff_strict"] == "fail"
    assert by_name["cutoff_numeric"] == "pass"
    # a = 2.7 expands near the origin, so no contraction to 0
    assert by_name["origin_contraction"] == "fail"
    assert not rep.all_pass
    text = rep.as_text()
    lines = text.splitlines()
    assert lines[0] == "check\tstatus\twitness\ttolerance"
    assert len(lines) == 6 and text.endswith("\n")


def test_report_pioneer_adaptive_decay():
    rep = run_hypothesis_report(pioneer_climax_full(3.0, 3.0))
    by_name = {c.name: c.status for c in rep.checks}
    assert by_name["sup_norm"] == "pass"
    # exp(-0.2 r) tails need the adaptive profile extension to clear 1e-9
    assert by_name["decay_to_zero"] == "pass"
    assert by_name["origin_contraction"] == "fail"


@pytest.mark.parametrize("handle", [
    gauss_rotation(2.7, GOLDEN_MEAN), pioneer_climax_full(3.0, 3.0),
    radial_tent_map((3.0, 3.0)).handle,
    radial_tent_map((3.0, 3.0), alpha0=0.2).handle,
    bump_map()])
def test_report_check_data_formats_to_its_witness(handle):
    rep = run_hypothesis_report(handle)
    sup = rep.check("sup_norm").data
    assert rep.check("sup_norm").witness == (
        f"M={sup['m_sup']:.9g} R_M={sup['r_m']:.9g}")
    assert np.linalg.norm(handle.eval(sup["argmax"])) == sup["m_sup"]
    decay = rep.check("decay_to_zero")
    assert decay.witness == ("profile ok" if decay.data["witness"] is None
                             else repr(decay.data["witness"]))
    assert (decay.data["reason"] is None) == (decay.status == "pass")
    for name in ("cutoff_strict", "cutoff_numeric"):
        cut = rep.check(name)
        radius = cut.data["radius"]
        assert cut.witness == ("not EZ" if radius is None else f"R={radius}")
    con = rep.check("origin_contraction")
    point = con.data["point"]
    assert con.witness == (f"max_ratio={con.data['max_ratio']:.9g} " + (
        "" if point is None else np.array2string(point, precision=6))).strip()


def test_report_origin_not_fixed_is_inconclusive():
    # a decaying bump centred off the origin: R_M exists, f(0) != 0
    c = np.array([0.5, 0.0])

    def batch(p):
        return np.exp(-((p - c) ** 2).sum(axis=1))[:, None] * (p - c + 1.0)

    rep = run_hypothesis_report(user_map(lambda x: batch(x[None])[0],
                                         batch=batch))
    assert rep.check("sup_norm").status == "pass"
    con = rep.check("origin_contraction")
    assert con.status == "inconclusive" and con.tolerance == 1e-9
    assert con.witness.startswith("origin is not fixed (|f(0)| = ")


def test_sup_norm_search_doubles_the_radius_three_times(monkeypatch):
    # both callers try the radius times 1, 2, 4 and 8, and give up with
    # the last boundary error
    calls = []

    def boundary(handle, radius, grid=512):
        calls.append((radius, grid))
        raise SupNormBoundaryError(f"radius {radius}")

    monkeypatch.setattr(hypotheses, "estimate_sup_norm", boundary)
    h = gauss_rotation(2.7, GOLDEN_MEAN)
    with pytest.raises(SupNormBoundaryError, match="radius 64.0"):
        attracting_set_sample(h, 1)
    assert calls == [(8.0, 256), (16.0, 256), (32.0, 256), (64.0, 256)]
    calls.clear()
    report = run_hypothesis_report(h, search_radius=3.0, grid=64)
    assert calls == [(3.0, 64), (6.0, 64), (12.0, 64), (24.0, 64)]
    assert report.checks[0] == Check("sup_norm", "inconclusive",
                                     "radius 24.0", tolerance=1e-6)


def test_checks_compare_field_by_field():
    # point witnesses and array-valued data (band_saddle's Cycle) compare
    # by value, so == answers instead of raising on an array's truth value
    def ah():
        return verify_ah(model_horseshoe_map(), HorseshoeRegion(), sampling=8)

    first, second = ah(), ah()
    assert first == second
    saddle = first.check("band_saddle")
    assert saddle == second.check("band_saddle")
    moved = saddle.witness + np.array([0.0, 1e-12])
    assert dataclasses.replace(saddle, witness=moved) != saddle
    cycle = saddle.data["saddle"]
    other = dataclasses.replace(cycle, points=cycle.points + 1e-12)
    assert dataclasses.replace(
        saddle, data={**saddle.data, "saddle": other}) != saddle
    assert saddle != first.check("foliation_rates")
    assert saddle != "band_saddle"
    assert run_hypothesis_report(bump_map()) == run_hypothesis_report(
        bump_map())


def test_battery_does_not_import_numpy_ma():
    # np.union1d (through np.unique) imports numpy.ma, about 15 ms of
    # every hypothesis run; a fresh interpreter shows what the battery
    # itself pulls in
    code = ("import sys\n"
            "from attractorlab.maps import pioneer_climax_full\n"
            "from attractorlab.hypotheses import run_hypothesis_report\n"
            "report = run_hypothesis_report(pioneer_climax_full(3.0, 3.0))\n"
            "assert report.check('origin_contraction').status\n"
            "print('numpy.ma' in sys.modules)\n")
    src = str(Path(attractorlab.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src},
                          check=True)
    assert done.stdout == "False\n"
