"""Hypothesis-check battery: sup norm, decay, cutoff, contraction."""

import math

import numpy as np
import pytest

from attractorlab import hypotheses
from attractorlab.maps import (GOLDEN_MEAN, gauss_rotation,
                               pioneer_climax_full, user_map)
from attractorlab.hypotheses import (Check, SupNormBoundaryError,
                                     attracting_set_sample,
                                     az_decay_profile, estimate_sup_norm,
                                     ez_check, origin_contraction_check,
                                     run_hypothesis_report)

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

    return user_map(step, 2, batch=batch)


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


def test_decay_profile_gauss_passes():
    prof = az_decay_profile(gauss_rotation(2.7, GOLDEN_MEAN),
                            np.linspace(0.5, 12.0, 24))
    assert prof.verdict == "pass"
    assert prof.witness is None
    assert prof.values[-1] < 1e-9


def test_decay_profile_rising_tail_fails_with_witness():
    # |f(r u)| = r (1.1 + sin r) dips after its peak and rises again
    def step(x):
        return (1.1 + math.sin(float(np.linalg.norm(x)))) * x

    def batch(p):
        r = np.linalg.norm(p, axis=1)
        return (1.1 + np.sin(r))[:, None] * p

    prof = az_decay_profile(user_map(step, 2, batch=batch),
                            np.linspace(0.5, 12.0, 48))
    assert prof.verdict == "fail"
    assert prof.witness is not None and len(prof.witness) == 4
    r_lo, r_hi, v_lo, v_hi = prof.witness
    assert r_lo < r_hi and v_hi > v_lo


def test_decay_profile_slow_tail_fails_on_final_value():
    ident = user_map(lambda x: x, 2, batch=lambda p: p)
    prof = az_decay_profile(ident, np.linspace(0.5, 12.0, 24))
    assert prof.verdict == "fail"
    assert len(prof.witness) == 2


def test_decay_profile_validates_radii():
    h = gauss_rotation(2.7, GOLDEN_MEAN)
    with pytest.raises(ValueError):
        az_decay_profile(h, [1.0])
    with pytest.raises(ValueError):
        az_decay_profile(h, [1.0, 1.0, 2.0])


def test_ez_check_gauss_numeric_not_strict():
    ez = ez_check(gauss_rotation(2.7, GOLDEN_MEAN),
                  [2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    assert ez.strict_radius is None
    # a r exp(-r^2) first drops below 1e-12 past r = 6 on this ladder
    assert ez.numeric_radius == 6.0


def test_ez_check_compact_support_is_strict():
    # at the exact support radius, |u| = 1 up to one ulp leaves crumbs of
    # order 1e-17 on the shell, so numeric detects r = 1 but strict needs
    # the first candidate with true zeros everywhere
    ez = ez_check(bump_map(), [0.5, 1.0, 2.0])
    assert ez.strict_radius == 2.0
    assert ez.numeric_radius == 1.0


def test_ez_check_validation():
    h = bump_map()
    with pytest.raises(ValueError):
        ez_check(h, [])
    with pytest.raises(ValueError):
        ez_check(h, [-1.0, 2.0])
    with pytest.raises(ValueError):
        ez_check(h, [1.0], tol=0.0)


def test_origin_contraction_pass_and_fail():
    ok = origin_contraction_check(gauss_rotation(0.5, GOLDEN_MEAN),
                                  1 / math.sqrt(2))
    assert ok.status == "pass"
    assert ok.max_ratio == pytest.approx(0.5, abs=1e-3)
    assert ok.witness is None

    bad = origin_contraction_check(gauss_rotation(2.0, GOLDEN_MEAN),
                                   1 / math.sqrt(2))
    assert bad.status == "fail"
    # ratio a exp(-r^2) approaches a = 2 along the geometric descent
    assert bad.max_ratio == pytest.approx(2.0, abs=1e-6)
    assert bad.witness is not None
    assert np.linalg.norm(bad.witness) < math.sqrt(math.log(2.0))


def test_origin_contraction_requires_fixed_origin():
    shifted = user_map(lambda x: 0.5 * x + 1.0, 2,
                       batch=lambda p: 0.5 * p + 1.0)
    with pytest.raises(ValueError):
        origin_contraction_check(shifted, 1.0)
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
    rep = run_hypothesis_report(bump_map(), ez_candidates=[0.5, 1.0, 2.0])
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
