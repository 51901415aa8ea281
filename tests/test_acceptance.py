"""Acceptance suite: regime reproduction, frozen oracles, reproducibility.

Each test states its tolerances inline.  The slow paths carry wall-clock
budgets; measured times sit several times under them on one core.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from attractorlab.chaos import (box_counting_dimension, lyapunov_spectrum_qr,
                                max_lyapunov_norm_sum)
from attractorlab.cli import main as cli_main
from attractorlab.dynamics import (CycleSearchError, detect_period,
                                   find_cycle, orbit)
from attractorlab.horseshoe import (HorseshoeRegion, find_saddles,
                                    leaf_component_count, model_horseshoe_map,
                                    trellis, verify_ah)
from attractorlab.hypotheses import (attracting_set_sample,
                                     estimate_sup_norm,
                                     origin_contraction_check)
from attractorlab.maps import (GOLDEN_MEAN, finite_difference_jacobian,
                               gauss_rotation, pioneer_climax_full,
                               pioneer_climax_mixed, user_map)
from attractorlab.radial import (SymbolCode, cantor_shells, hausdorff_bounds,
                                 periodic_code, radial_tent_map, shift_metric)


def test_gauss_rotation_regimes():
    t0 = time.perf_counter()
    results = {}
    for a in (2.7, 4.4, 4.8, 5.4):
        h = gauss_rotation(a, GOLDEN_MEAN)
        est = lyapunov_spectrum_qr(h, (0.3, 0.1), 100000, n_transient=10000)
        cloud = orbit(h, (0.3, 0.1), 10000, 100000)
        results[a] = (est.max_exponent, cloud)

    # invariant-curve regime: no expansion, curve-like cloud
    qr, cloud = results[2.7]
    assert qr <= 0.02
    bd = box_counting_dimension(cloud, n_scales=8)
    assert bd.dimension == pytest.approx(1.0, abs=0.1)

    # chaotic regime
    assert results[4.4][0] > 0.05

    # regular window: a short cycle or a non-expanding exponent
    qr, cloud = results[4.8]
    period = detect_period(cloud.points[:4096], max_period=64)
    assert (isinstance(period, int) and period <= 64) or qr <= 0.02

    # chaos with a fractal cloud
    qr, cloud = results[5.4]
    assert qr > 0.05
    bd = box_counting_dimension(cloud, n_scales=8)
    assert 1.0 < bd.dimension < 2.0

    assert time.perf_counter() - t0 < 60.0


def test_pioneer_climax_trellis():
    t0 = time.perf_counter()
    h = pioneer_climax_full(3.0, 3.0)
    cycles = find_saddles(h, [(0.0, 8.0), (0.0, 8.0)], k_max=1, n_seeds=12)
    saddles = [c for c in cycles
               if c.stability == "saddle" and np.all(c.points > 1e-6)
               and int(np.sum(np.abs(c.multipliers) > 1.0)) == 1]
    assert len(saddles) == 1
    np.testing.assert_allclose(saddles[0].points[0],
                               [2.49825283, 5.00698866], atol=1e-6)

    cloud = trellis(h, saddles[0], arc_budget=300.0, tol=2e-3)
    assert len(cloud.points) >= 100000

    est = lyapunov_spectrum_qr(h, (0.5, 0.5), 100000, n_transient=10000)
    assert est.max_exponent > 0.05

    bd = box_counting_dimension(cloud, n_scales=8)
    assert 1.0 < bd.dimension < 2.0
    assert time.perf_counter() - t0 < 120.0


def test_period_six_sink_scan():
    # the period-6 sink window sits on the b = a + 0.1 line; the a = b
    # diagonal runs through a plain period-doubling cascade (2, 4, 8, 16)
    # with no period-6 window at this step size
    found = []
    for a in np.arange(2.0, 2.4 + 1e-9, 0.005):
        h = pioneer_climax_full(float(a), float(a) + 0.1)
        cloud = orbit(h, (0.5, 0.5), 2000, 400)
        if detect_period(cloud.points, max_period=64) == 6:
            found.append(round(float(a), 3))
    assert found == [2.4]

    h = pioneer_climax_full(2.4, 2.5)
    seed = orbit(h, (0.5, 0.5), 4000, 1).points[-1]
    cycle = find_cycle(h, 6, seed)
    assert cycle.period == 6 and cycle.stability == "sink"
    moduli = np.abs(cycle.multipliers)
    assert np.all(moduli < 1.0)
    assert moduli.max() == pytest.approx(0.43121456, abs=1e-6)


def test_cantor_shell_dimension():
    t0 = time.perf_counter()
    tent = radial_tent_map((3.0, 3.0), zeta=1.0)
    part = cantor_shells(tent.return_map, tent.shells, depth=20)
    cloud = part.sample_cloud(800000, seed=0)
    bd = box_counting_dimension(cloud, n_scales=8)

    target = 1.0 + math.log(2.0) / math.log(3.0)
    assert bd.dimension == pytest.approx(target, abs=0.05)
    lo, hi = hausdorff_bounds(2.0, 2.0, 2)
    # lam == mu collapses the bounds to a point; the estimator tolerance
    # carries over to the interval comparison
    assert lo == pytest.approx(target, abs=1e-12)
    assert hi == pytest.approx(target, abs=1e-12)
    assert lo - 0.05 <= bd.dimension <= hi + 0.05
    assert time.perf_counter() - t0 < 30.0


def test_lyapunov_oracles():
    dmat = np.diag([2.0, 0.5])
    h = user_map(lambda x: dmat @ x, 2, jac=lambda x: dmat)
    expect = math.log(2.0)

    est = lyapunov_spectrum_qr(h, (0.0, 0.0), 10000)
    spectrum = np.sort(est.spectrum)[::-1]
    assert spectrum[0] == pytest.approx(expect, abs=1e-9)
    assert spectrum[1] == pytest.approx(-expect, abs=1e-9)
    est = max_lyapunov_norm_sum(h, (0.0, 0.0), 10000)
    assert est.max_exponent == pytest.approx(expect, abs=1e-9)

    g = gauss_rotation(0.5, GOLDEN_MEAN)
    target = math.log(0.5)
    est = lyapunov_spectrum_qr(g, (0.3, 0.1), 100000, n_transient=10000)
    np.testing.assert_allclose(est.spectrum, target, atol=1e-6)
    est = max_lyapunov_norm_sum(g, (0.3, 0.1), 100000, n_transient=10000)
    assert est.max_exponent == pytest.approx(target, abs=1e-6)


def test_jacobians_match_finite_differences():
    handles = [
        gauss_rotation(3.1, GOLDEN_MEAN),
        gauss_rotation(3.1, GOLDEN_MEAN, literal_eq=True),
        pioneer_climax_full(3.0, 3.0),
        pioneer_climax_mixed(3.0, 3.0),
    ]
    rng = np.random.default_rng(0)
    pts = rng.uniform(-5.0, 5.0, size=(1000, 2))
    for h in handles:
        worst = 0.0
        for x in pts:
            ja = h.eval(x, True)[1]
            jf = finite_difference_jacobian(h.eval, x)
            scale = max(float(np.abs(ja).max()), 1e-12)
            worst = max(worst, float(np.abs(ja - jf).max()) / scale)
        assert worst <= 1e-5, (h.spec.family, worst)


def _random_code(rng) -> SymbolCode:
    n_pre = int(rng.integers(0, 5))
    n_per = int(rng.integers(1, 6))
    return SymbolCode(tuple(rng.integers(0, 2, n_pre).tolist()),
                      tuple(rng.integers(0, 2, n_per).tolist()))


def test_shift_metric_suite():
    rng = np.random.default_rng(7)
    for _ in range(10000):
        x, y, z = (_random_code(rng) for _ in range(3))
        dxy = shift_metric(x, y)
        assert dxy == shift_metric(y, x)
        assert (dxy == 0) == (x == y)
        assert shift_metric(x, z) <= dxy + shift_metric(y, z)

    for _ in range(1000):
        s = _random_code(rng)
        for length in range(1, 21):
            d = shift_metric(s, periodic_code(s.prefix(length)))
            assert d <= Fraction(2) ** (1 - length)


def test_origin_contraction_and_cycle_containment():
    g = gauss_rotation(0.5, GOLDEN_MEAN)
    check = origin_contraction_check(g, estimate_sup_norm(g, 8.0).m_sup)
    assert check.status == "pass"

    rng = np.random.default_rng(3)
    for x0 in rng.uniform(-3.0, 3.0, size=(100, 2)):
        x = x0
        for _ in range(1000):
            x = g.eval(x)
            if float(np.linalg.norm(x)) < 1e-6:
                break
        assert float(np.linalg.norm(x)) < 1e-6

    bad = gauss_rotation(2.0, GOLDEN_MEAN)
    check = origin_contraction_check(bad, estimate_sup_norm(bad, 8.0).m_sup)
    assert check.status == "fail"
    assert check.witness is not None and check.max_ratio > 1.0

    # cycles of the swept families stay inside the trapping ball, and the
    # cycles a finite forward sample can resolve (sinks, plus the origin
    # fixed point that the sample grid carries explicitly) land within
    # 1e-3 of the sampled attracting set
    swept = [gauss_rotation(a, GOLDEN_MEAN) for a in (2.7, 4.4, 4.8, 5.4)]
    swept += [pioneer_climax_full(3.0, 3.0), pioneer_climax_full(2.4, 2.5)]
    n_found = n_resolved = 0
    with np.errstate(all="ignore"):
        for h in swept:
            sample = attracting_set_sample(h, 1000)
            ball = sample.meta["m_sup"] * (1.0 + 1e-6) + 1e-9
            seeds = sample.points[
                np.random.default_rng(1).integers(0, len(sample.points), 12)]
            for k in range(1, 9):
                for s in seeds:
                    try:
                        cycle = find_cycle(h, k, s)
                    except (CycleSearchError, np.linalg.LinAlgError):
                        continue
                    if h.cone and not np.all(cycle.points >= -1e-9):
                        # a root of the smooth extension outside the first
                        # quadrant is not an orbit of the cone-restricted map
                        continue
                    n_found += 1
                    norms = np.linalg.norm(cycle.points, axis=1)
                    assert norms.max() <= ball
                    at_origin = cycle.period == 1 and norms.max() <= 1e-6
                    if cycle.stability == "sink" or at_origin:
                        n_resolved += 1
                        dist = max(
                            float(np.linalg.norm(sample.points - p,
                                                 axis=1).min())
                            for p in cycle.points)
                        assert dist <= 1e-3
    assert n_found >= 100 and n_resolved >= 5


def test_attracting_horseshoe_fixture():
    report = verify_ah(model_horseshoe_map(), HorseshoeRegion())
    assert report.all_pass, report.as_text()
    rates = report.check("foliation_rates").data
    assert rates["lambda_contr"] == pytest.approx(0.2, abs=1e-6)
    assert rates["mu_exp"] == pytest.approx(4.0, abs=1e-6)

    for depth in range(0, 9):
        assert leaf_component_count(depth, n_samples=1 << 21) == 2 ** depth

    ident = user_map(lambda x: x, 2, jac=lambda x: np.eye(2),
                     batch=lambda p: p)
    region = HorseshoeRegion()
    report = verify_ah(ident, region)
    assert not report.all_pass
    entry = report.check("region_into_interior")
    assert entry.status == "fail" and entry.margin <= 0.0
    gap = region.inside_h(region.to_model(entry.witness[None, :]))[0]
    assert abs(gap) < 1e-9


SWEEP_TEMPLATE = """
map = gauss_rotation
theta = 1.6180339887498949
param = a
start = {start}
stop = {stop}
step = {step}
"""


def test_sweep_reproducibility(tmp_path):
    schedules = (("lo", 2.7, 4.4, 1.7), ("hi", 4.8, 5.4, 0.6))
    for tag, start, stop, step in schedules:
        cfg = tmp_path / f"{tag}.cfg"
        cfg.write_text(SWEEP_TEMPLATE.format(start=start, stop=stop,
                                             step=step))
        runs = []
        for label in ("r1", "r2"):
            out = tmp_path / f"{tag}_{label}"
            assert cli_main(["sweep", "--config", str(cfg),
                             "--out", str(out), "--jobs", "2"]) == 0
            runs.append(out)
        first, second = runs
        for idx in (0, 1):
            for suffix in ("csv", "pgm"):
                name = f"cloud_{idx:03d}.{suffix}"
                assert (first / name).read_bytes() == \
                    (second / name).read_bytes()
        # wall-clock seconds is the one intentionally volatile column
        trim = lambda path: [",".join(line.split(",")[:7]) for line in
                             (path / "summary.csv").read_text().splitlines()]
        assert trim(first) == trim(second)
        assert all(line.split(",")[6] == "ok" for line in
                   (first / "summary.csv").read_text().splitlines()[1:])
