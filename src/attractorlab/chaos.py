"""Lyapunov exponent estimation and box-counting dimension.

Two exponent estimators are provided: the norm-sum diagnostic
``(1/n) sum log ||f'(x_k)||_2`` (an upper-bound-style quantity, since
log of the spectral norm is submultiplicative) and the standard QR
tangent-space spectrum.  Exponents are per-iterate natural logs.  Given
the cloud ``dynamics.orbit`` returned (``orbit=``), both reduce over its
points instead of walking the trajectory again, with the same bits.
Both are one ``_estimate`` over their kernel, the two kernels differing
only in their per-step terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .maps import MapHandle
from .dynamics import (DivergenceError, PointCloud, initial_point, map_key,
                       planar_bounds, planar_points)

TRACE_STRIDE = 100
MIN_BOX_POINTS = 1000
# the longest box-count ladder: two finest box indices, each below
# 2^(n_scales + 2), interleave into one 63-bit Morton key
MAX_SCALES = 29
# (shift, mask) steps that spread the low 32 bits of a word to its even bits
_SPREAD = ((16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF),
           (4, 0x0F0F0F0F0F0F0F0F), (2, 0x3333333333333333),
           (1, 0x5555555555555555))


@dataclass(frozen=True)
class LyapunovEstimate:
    max_exponent: float
    spectrum: np.ndarray            # sorted descending
    n_used: int
    method: str                     # "norm_sum" | "qr_spectrum"
    convergence_trace: np.ndarray   # every 100th partial average (max exp.)
    degenerate: bool = False


@dataclass(frozen=True)
class BoxCountResult:
    scales: np.ndarray       # descending box sizes
    counts: np.ndarray       # occupied boxes per scale
    dimension: float
    r2: float
    scale_window: np.ndarray  # indices retained for the fit
    degenerate: bool = False


def max_lyapunov_norm_sum(handle: MapHandle, x0, n: int, n_transient: int = 0,
                          orbit: PointCloud | None = None) -> LyapunovEstimate:
    """Average log spectral norm of the Jacobian along an orbit.

    An orbit point with an exactly zero Jacobian norm makes the sum
    -inf; that case is reported with ``degenerate=True`` instead of
    raising.  A non-finite sum otherwise means the orbit diverged and
    raises :class:`DivergenceError`.
    """
    return _estimate(_kernels.run_norm_sum, "norm_sum", handle, x0, n,
                     n_transient, orbit)


def lyapunov_spectrum_qr(handle: MapHandle, x0, n: int, n_transient: int = 0,
                         orbit: PointCloud | None = None) -> LyapunovEstimate:
    """QR tangent-space spectrum: re-orthonormalize a frame every step.

    In the plane only the first frame vector is carried, and lambda2 is
    the mean of log|det J| minus lambda1; one step with det J = 0 makes
    lambda2 the -inf sentinel.  A step that maps the first frame vector
    to 0 marks every exponent it zeroes with -inf and stops the
    accumulation.  Any other non-finite exponent means the orbit diverged
    and raises :class:`DivergenceError`.
    """
    return _estimate(_kernels.run_qr, "qr_spectrum", handle, x0, n,
                     n_transient, orbit)


def _estimate(run, method, handle, x0, n: int, n_transient: int, orbit):
    """The estimate of kernel ``run``: a zero step term makes its exponent
    -inf and the estimate degenerate; any other non-finite exponent raises
    :class:`DivergenceError`.  The trace holds the largest exponent."""
    if n < 100:
        raise ValueError("need n >= 100 iterates for a Lyapunov estimate")
    if n_transient < 0:
        raise ValueError("n_transient must be nonnegative")
    x0 = initial_point(x0)
    if orbit is not None and not (
            orbit.meta.get("map") == map_key(handle)
            and orbit.meta.get("n_transient") == n_transient
            and np.array_equal(orbit.meta.get("x0"), x0)):
        raise ValueError("the orbit cloud was not made with this call's "
                         "map, x0 and n_transient")
    means, n_used, degenerate, trace = run(
        handle, x0, n_transient, n, TRACE_STRIDE,
        points=None if orbit is None else orbit.points)
    if not np.isfinite(means[~degenerate]).all():
        raise DivergenceError(f"orbit diverged: non-finite {method} estimate")
    means[degenerate] = -np.inf
    spectrum = means[np.argsort(means)[::-1]]
    return LyapunovEstimate(
        max_exponent=float(spectrum[0]),
        spectrum=spectrum,
        n_used=int(n_used),
        method=method,
        convergence_trace=trace.max(axis=1),
        degenerate=bool(degenerate.any()))


def box_counting_dimension(cloud, n_scales: int = 8) -> BoxCountResult:
    """Box-counting slope over a geometric scale ladder (ratio 2).

    The ladder starts at (bounding-box diagonal)/4 and stops before the
    saturated regime N(eps) > n_points/10.  The grid is anchored at the
    bounding-box corner, which makes counts deterministic and monotone
    across the ladder.  The rungs halve exactly, so rung i's box index is
    the finest one shifted right by n_scales-1-i; one sort of the finest
    indices' Morton key counts every rung.  The cloud is planar (n, 2)
    and finite, and n_scales runs from 5 to MAX_SCALES.
    """
    pts = planar_points(cloud)
    n_pts = len(pts)
    if n_pts < MIN_BOX_POINTS:
        raise ValueError(f"cloud too small for box counting: {n_pts} points")
    if not 5 <= n_scales <= MAX_SCALES:
        raise ValueError(f"n_scales must be in 5..{MAX_SCALES}, "
                         f"got {n_scales}")
    mins, maxs = planar_bounds(pts)
    if not np.isfinite([mins, maxs]).all():  # min and max carry any nan
        raise ValueError("points must be finite")
    diag = float(np.linalg.norm(maxs - mins))
    if diag == 0.0:
        return BoxCountResult(scales=np.empty(0), counts=np.empty(0, int),
                              dimension=0.0, r2=1.0,
                              scale_window=np.empty(0, int), degenerate=True)
    scales = diag / 4.0 / (2.0 ** np.arange(n_scales))
    counts = np.empty(n_scales, dtype=np.int64)
    key = np.sort(_morton_key(
        np.floor((pts - mins) / scales[-1]).astype(np.int64)))
    kept = []
    for i in range(n_scales):
        shift = 2 * (n_scales - 1 - i)
        counts[i] = 1 + np.count_nonzero(np.diff(key >> shift))
        if counts[i] > n_pts / 10:
            counts = counts[:i + 1]
            scales = scales[:i + 1]
            break
        kept.append(i)
    window = np.array(kept, dtype=int)
    logs_inv_eps = np.log(1.0 / scales[window])
    logs_n = np.log(counts[window].astype(float))
    slope, intercept = np.polyfit(logs_inv_eps, logs_n, 1)
    fitted = slope * logs_inv_eps + intercept
    ss_res = float(np.sum((logs_n - fitted) ** 2))
    ss_tot = float(np.sum((logs_n - logs_n.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    dimension = float(min(max(slope, 0.0), 2.0))
    return BoxCountResult(scales=scales, counts=counts, dimension=dimension,
                          r2=r2, scale_window=window)


def _morton_key(idx: np.ndarray) -> np.ndarray:
    """Interleave the two columns of an (n, 2) box index, each below 2^31.

    Five shift-and-mask steps spread each column's bits to every other
    bit; bit b of column j lands at bit 2b + j, so ``key >> 2k`` is the
    key of ``idx >> k`` and sorting by key groups every coarser box.
    """
    v = np.array(idx, dtype=np.int64)
    for shift, mask in _SPREAD:
        v |= v << shift
        v &= mask
    return v[:, 0] | v[:, 1] << 1
