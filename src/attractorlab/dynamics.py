"""Orbit generation, periodic-orbit search, and stability classification
for planar maps.

Orbits of built-in families run through the scalar kernels in
:mod:`attractorlab._kernels` (compiled when numba is present); everything
else goes through the generic callable lane.  Periodic orbits are
located with Newton's method on ``f^k - id`` using the chain-rule
Jacobian product, then reduced to their minimal period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _kernels
from .maps import MapHandle

# hyperbolicity margin for sink/source/saddle classification
HYPERBOLICITY_MARGIN = 1e-3

NEWTON_MAX_STEPS = 100
NEWTON_RESIDUAL = 1e-10
MINIMAL_PERIOD_TOL = 1e-9
PERIOD_DETECT_TOL = 1e-6
MAX_PERIOD = 64


class DivergenceError(ArithmeticError):
    """An iterate left the representable range (non-finite coordinates)."""

    def __init__(self, message: str, step: Optional[int] = None):
        super().__init__(message)
        self.step = step


class RefinementExplosion(RuntimeError):
    """Manifold refinement exceeded the point budget; .partial saved."""

    def __init__(self, message: str, partial: PointCloud):
        super().__init__(message)
        self.partial = partial


class CycleSearchError(RuntimeError):
    """Newton iteration for a cycle failed.

    ``condition`` carries a condition-number estimate of the last Newton
    matrix when the failure was a (near-)singular solve.
    """

    def __init__(self, message: str, condition: Optional[float] = None,
                 residual: Optional[float] = None):
        super().__init__(message)
        self.condition = condition
        self.residual = residual


def planar_points(cloud) -> np.ndarray:
    """The points of a PointCloud, or any array-like, as an (n, 2) float
    array; ValueError for any other shape."""
    pts = np.asarray(getattr(cloud, "points", cloud), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
    return pts


def planar_bounds(pts: np.ndarray) -> tuple:
    """(min, max) of each column of a nonempty (n, 2) array: as exact as
    the strided axis-0 reductions and about ten times faster."""
    return (np.array([pts[:, 0].min(), pts[:, 1].min()]),
            np.array([pts[:, 0].max(), pts[:, 1].max()]))


@dataclass(frozen=True)
class PointCloud:
    """A finite sample of the plane, (n, 2), optionally ordered along an
    orbit."""

    points: np.ndarray
    ordered: bool
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "points", planar_points(self.points))

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class Cycle:
    """A periodic orbit: k ordered points, its multipliers, and stability.

    ``multipliers`` are the eigenvalues of the derivative of the k-th
    iterate at ``points[0]``, and the columns of ``vectors`` their unit
    eigenvectors, in the same order (complex for a complex pair);
    ``stability`` is one of ``sink``, ``source``, ``saddle``,
    ``nonhyperbolic``.
    """

    points: np.ndarray
    period: int
    multipliers: np.ndarray
    stability: str
    vectors: np.ndarray


def _classify_multipliers(multipliers: np.ndarray) -> str:
    moduli = np.abs(multipliers)
    if np.all(moduli < 1.0 - HYPERBOLICITY_MARGIN):
        return "sink"
    if np.all(moduli > 1.0 + HYPERBOLICITY_MARGIN):
        return "source"
    if (np.any(moduli < 1.0 - HYPERBOLICITY_MARGIN)
            and np.any(moduli > 1.0 + HYPERBOLICITY_MARGIN)):
        return "saddle"
    return "nonhyperbolic"


def initial_point(x0) -> np.ndarray:
    """``x0`` as a float array; ValueError unless finite, of shape (2,)."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (2,):
        raise ValueError(f"initial point must have shape (2,), got {x0.shape}")
    if not np.all(np.isfinite(x0)):
        raise ValueError("initial point must be finite")
    return x0


def orbit(handle: MapHandle, x0, n_transient: int, n_keep: int) -> PointCloud:
    """Iterate the map and keep the n_keep points after the transient.

    Returns ``f^{n0+1}(x0) ... f^{n0+n}(x0)`` in order.  Raises
    :class:`DivergenceError` if an iterate becomes non-finite (possible
    for user maps and for cone-restricted built-ins started outside
    their positivity domain).
    """
    x0 = initial_point(x0)
    if n_transient < 0 or n_keep < 0:
        raise ValueError("iteration counts must be nonnegative")
    if n_keep == 0:
        return PointCloud(np.empty((0, 2)), ordered=True,
                          meta=_orbit_meta(handle, x0, n_transient, n_keep))
    pts = _kernels.run_orbit(handle, x0, n_transient, n_keep)
    if not np.all(np.isfinite(pts)):
        bad = int(np.flatnonzero(~np.isfinite(pts).all(axis=1))[0])
        raise DivergenceError(
            f"orbit diverged to non-finite values at kept step {bad}",
            step=bad)
    return PointCloud(pts, ordered=True,
                      meta=_orbit_meta(handle, x0, n_transient, n_keep))


def map_key(handle: MapHandle):
    """What tells two maps apart where their specs may not: a built-in's
    family code and packed parameters, else the handle's ``eval``."""
    return ((handle.family_code, handle.packed) if handle.family_code >= 0
            else handle.eval)


def _orbit_meta(handle: MapHandle, x0, n_transient: int, n_keep: int) -> dict:
    return {"spec": handle.spec, "map": map_key(handle),
            "x0": np.array(x0, dtype=float),
            "n_transient": int(n_transient), "n_keep": int(n_keep)}


def _iterate_with_product(handle: MapHandle, x: np.ndarray, k: int):
    """Return the iterates x, f(x), ..., f^k(x) as the k + 1 rows of an
    array, and the product of the Jacobians along the k steps."""
    pts = [np.array(x, dtype=float)]
    prod = np.eye(2)
    for _ in range(k):
        y, jac = handle.eval(pts[-1], True)
        prod = jac @ prod
        pts.append(y)
    return np.array(pts), prod


def _condition_number(amat: np.ndarray) -> float:
    """2-norm condition number of a 2x2 matrix, in closed form:
    (q + sqrt(q^2 - 4 det^2)) / (2 |det|), q the squared Frobenius norm,
    and inf when it is singular."""
    entries = amat.ravel().tolist()
    # the ratio is scale-free; dividing by the largest entry keeps q^2 finite
    scale = max(map(abs, entries))
    if scale == 0.0:
        return math.inf
    a, b, c, d = (e / scale for e in entries)
    det = abs(a * d - b * c)
    if det == 0.0:
        return math.inf
    q = a * a + b * b + c * c + d * d
    return (q + math.sqrt(max(q * q - 4.0 * det * det, 0.0))) / (2.0 * det)


def find_cycle(handle: MapHandle, period: int, seed) -> Cycle:
    """Newton search for a k-periodic point starting from ``seed``.

    The returned cycle carries its minimal period (a divisor of
    ``period`` when the root has one) and the eigenvalues and
    eigenvectors of the corresponding iterate's derivative.
    """
    if period < 1:
        raise ValueError("period must be >= 1")
    x = initial_point(seed)
    residual = np.inf
    # an escaping iterate, or a finite fval near 1e200, turns non-finite
    # quietly; each step checks what it uses
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(NEWTON_MAX_STEPS):
            pts, prod = _iterate_with_product(handle, x, period)
            if not np.isfinite(pts[-1]).all():
                raise CycleSearchError("iterate escaped to non-finite values "
                                       "during Newton search")
            fval = pts[-1] - x
            residual = float(np.linalg.norm(fval))
            if residual <= NEWTON_RESIDUAL:
                break
            amat = prod - np.eye(2)
            if not np.isfinite(amat).all():
                raise CycleSearchError("Newton matrix has non-finite entries")
            try:
                delta = np.linalg.solve(amat, -fval)
            except np.linalg.LinAlgError:
                raise CycleSearchError(
                    "singular Newton matrix",
                    condition=_condition_number(amat)) from None
            cond = _condition_number(amat)
            if not np.isfinite(delta).all() or cond > 1e14:
                raise CycleSearchError("ill-conditioned Newton matrix",
                                       condition=cond)
            x = x + delta
        else:
            raise CycleSearchError(
                f"no convergence within {NEWTON_MAX_STEPS} Newton steps "
                f"(residual {residual:.3e})", residual=residual)

    # minimal-period reduction: the smallest divisor j of k that already
    # closes.  The converged step holds f^j(x) for every j, and the
    # product of the k Jacobians; k itself closes, since residual <= tol.
    k_min = next((j for j in range(1, period) if period % j == 0 and
                  np.linalg.norm(pts[j] - x) <= MINIMAL_PERIOD_TOL), period)
    if k_min < period:
        _, prod = _iterate_with_product(handle, x, k_min)
    mult, vecs = np.linalg.eig(prod)
    return Cycle(points=pts[:k_min], period=k_min, multipliers=mult,
                 stability=_classify_multipliers(mult), vectors=vecs)


def detect_period(cloud):
    """Smallest k <= MAX_PERIOD closing the tail of an ordered cloud.

    Checks ``|x_{i+k} - x_i| <= 1e-6`` over the last 2*MAX_PERIOD index
    pairs; returns the string ``"aperiodic"`` when no k qualifies.
    """
    pts = planar_points(cloud)
    if getattr(cloud, "ordered", True) is False:
        raise ValueError("detect_period needs an ordered cloud")
    n = len(pts)
    if n < 3 * MAX_PERIOD:
        raise ValueError(
            f"cloud too short: {n} points, need >= {3 * MAX_PERIOD}")
    window = 2 * MAX_PERIOD
    for k in range(1, MAX_PERIOD + 1):
        tail = pts[n - (window + k):]
        gaps = _kernels.row_norms(tail[k:k + window] - tail[:window])
        if gaps.max() <= PERIOD_DETECT_TOL:
            return k
    return "aperiodic"
