"""Numerical verification of the toolkit's standing hypotheses.

Checks the decay-to-zero property, locates the sup norm M of |f| and
the outermost maximizer radius R_M, tests cutoff behavior (exact zero
beyond a radius versus numerical decay), tests contraction toward a
fixed origin, and samples the globally attracting set by pushing a grid
of the ball B_M(0) forward.

Maps flagged cone-restricted (``handle.cone``) are sampled on the
nonnegative quadrant only; their decay property holds on that cone,
not on the whole plane.

Every verdict here and in ``horseshoe.verify_ah`` is a :class:`Check`
collected in a :class:`Report`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import _kernels
from .maps import MapHandle
from .dynamics import DivergenceError, PointCloud

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_INCONCLUSIVE = "inconclusive"

_RATIO_TOL = 1e-9        # equality band for the contraction ratio
_ORIGIN_FIXED_TOL = 1e-12
_DECAY_TOL = 1e-9        # final profile value relative to the peak
_N_DIRECTIONS = 256      # sphere directions of the decay and EZ checks
_EZ_CANDIDATES = (2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0)
_EZ_TOL = 1e-12          # decay bound of the numeric cutoff check


def verdict(ok: bool) -> str:
    return STATUS_PASS if ok else STATUS_FAIL


@dataclass(frozen=True)
class Check:
    """One verdict with its evidence; witness is a point, a text or None."""
    name: str
    status: str
    witness: object = None
    margin: Optional[float] = None
    tolerance: Optional[float] = None
    data: dict = field(default_factory=dict)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return _same(self, other)


def _same(a, b) -> bool:
    """Field-wise equality: arrays by np.array_equal, recursing into
    dicts, tuples, lists and dataclasses (where == on an array field
    would raise or answer elementwise)."""
    if a is b:
        return True
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if type(a) is not type(b):
        return bool(a == b)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    if is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name))
                   for f in fields(a))
    return bool(a == b)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, np.ndarray):
        return np.array2string(value, precision=6)
    return f"{value:.9g}"


@dataclass(frozen=True)
class Report:
    """Checks in order; columns is the header row, and its entries after
    name and status name the Check fields that as_text prints."""
    columns: tuple
    checks: list

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def all_pass(self) -> bool:
        return all(c.status == STATUS_PASS for c in self.checks)

    def as_text(self) -> str:
        rows = [self.columns] + [
            (c.name, c.status, *(_cell(getattr(c, f))
                                  for f in self.columns[2:]))
            for c in self.checks]
        return "".join("\t".join(row) + "\n" for row in rows)


class SupNormBoundaryError(RuntimeError):
    """search_radius too small: |f| on the box boundary is not << M."""


class SupNorm(NamedTuple):
    m_sup: float
    argmax: np.ndarray
    r_m: float


def _directions(handle: MapHandle, n: int) -> np.ndarray:
    """Unit directions; restricted to the first quadrant for cone maps."""
    top = np.pi / 2 if handle.cone else 2 * np.pi
    ang = np.linspace(0.0, top, n, endpoint=handle.cone)
    return np.column_stack([np.cos(ang), np.sin(ang)])


def _shells(handle: MapHandle, radii: np.ndarray,
            n_directions: int) -> tuple[np.ndarray, np.ndarray]:
    """Points r u over radii x directions (flat), |f| there by radius."""
    dirs = _directions(handle, n_directions)
    pts = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, 2)
    vals = _kernels.row_norms(handle.eval(pts))
    return pts, vals.reshape(len(radii), -1)


def _grid_points(handle: MapHandle, radius: float, grid: int) -> np.ndarray:
    lo = 0.0 if handle.cone else -radius
    axis = np.linspace(lo, radius, grid)
    g1, g2 = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([g1.ravel(), g2.ravel()])


def _golden_polish(handle: MapHandle, x: np.ndarray, h: float) -> np.ndarray:
    """Coordinate-wise golden-section ascent of |f| around x: 3 sweeps
    of 48 section steps, the bracket shrinking fourfold per sweep."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    x = x.astype(float).copy()
    for _ in range(3):
        for i in range(x.size):
            lo, hi = x[i] - h, x[i] + h
            if handle.cone:
                # the sup is taken over the cone; stepping to negative
                # coordinates would ascend values outside the domain
                lo = max(lo, 0.0)
            c = hi - inv_phi * (hi - lo)
            d = lo + inv_phi * (hi - lo)
            xc, xd = x.copy(), x.copy()
            xc[i], xd[i] = c, d
            fc = np.linalg.norm(handle.eval(xc))
            fd = np.linalg.norm(handle.eval(xd))
            for _ in range(48):
                if fc > fd:
                    hi, d, fd = d, c, fc
                    c = hi - inv_phi * (hi - lo)
                    xc[i] = c
                    fc = np.linalg.norm(handle.eval(xc))
                else:
                    lo, c, fc = c, d, fd
                    d = lo + inv_phi * (hi - lo)
                    xd[i] = d
                    fd = np.linalg.norm(handle.eval(xd))
            x[i] = (lo + hi) / 2.0
        h *= 0.25
    return x


def estimate_sup_norm(handle: MapHandle, search_radius: float,
                      grid: int = 512) -> SupNorm:
    """Grid search plus golden-section polish for M = sup |f|.

    R_M is the largest norm among the polished maximizers (all points
    whose refined value ties M within 1e-7 relative).  Raises
    :class:`SupNormBoundaryError` when |f| on the search-box boundary
    is not below M/10, which means the box may not contain the peak; a
    grid that sees only |f| = 0, or a non-finite |f|, raises too, and so
    does a radius whose double overflows.
    """
    if not np.isfinite(2.0 * search_radius):
        raise SupNormBoundaryError(f"the radius-{search_radius} box is too "
                                   f"large: 2 * radius overflows")
    pts = _grid_points(handle, search_radius, grid)
    vals = _kernels.row_norms(handle.eval(pts))
    m_grid = float(vals.max())
    if not np.isfinite(m_grid):
        raise SupNormBoundaryError(f"|f| is not finite on the radius-"
                                   f"{search_radius} grid")
    edge = np.any(np.abs(pts) >= search_radius * (1 - 1e-12), axis=1)
    boundary_max = float(vals[edge].max())
    if boundary_max >= m_grid / 10.0:
        raise SupNormBoundaryError(
            f"|f| reaches {boundary_max:.6g} on the radius-{search_radius} "
            f"box boundary (grid max {m_grid:.6g}); enlarge search_radius")
    top = np.flatnonzero(vals >= (1.0 - 1e-3) * m_grid)
    if len(top) > 64:
        top = top[np.argsort(vals[top])[::-1][:64]]
    spacing = (pts[:, 0].max() - pts[:, 0].min()) / (grid - 1)
    polished = [_golden_polish(handle, pts[i], spacing) for i in top]
    pol_vals = np.array(
        [np.linalg.norm(handle.eval(p)) for p in polished])
    m_sup = float(pol_vals.max())
    argmax = polished[int(pol_vals.argmax())]
    ties = [p for p, v in zip(polished, pol_vals)
            if v >= m_sup * (1.0 - 1e-7)]
    r_m = float(max(np.linalg.norm(p) for p in ties))
    return SupNorm(m_sup, argmax, r_m)


def _sup_norm_search(handle: MapHandle, radius: float, grid: int) -> SupNorm:
    """estimate_sup_norm at radius, doubled until its box holds the peak,
    up to 8 * radius; a radius whose double overflows ends the search."""
    for scale in (1.0, 2.0, 4.0, 8.0):
        try:
            return estimate_sup_norm(handle, scale * radius, grid=grid)
        except SupNormBoundaryError:
            if scale == 8.0 or not np.isfinite(2.0 * scale * radius):
                raise


def az_decay_profile(handle: MapHandle, radii) -> Check:
    """Directional max of |f| over spheres of increasing radius.

    Passes when the profile is monotone nonincreasing past its peak and
    the last value has decayed below 1e-9 of the reference magnitude.
    ``data`` holds the radii, the profile values, the witness tuple and
    the failure reason: None, ``"rising"`` (the profile rises past its
    peak) or ``"final"`` (the last value has not decayed).
    """
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or len(radii) < 2 or np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be strictly increasing, length >= 2")
    profile = _shells(handle, radii, _N_DIRECTIONS)[1].max(axis=1)
    # reference magnitude: profile peak or an interior coarse-grid peak
    inner = _grid_points(handle, float(radii[0]), 64)
    m_ref = max(float(profile.max()),
                float(_kernels.row_norms(handle.eval(inner)).max()))
    peak = int(profile.argmax())
    rising = np.flatnonzero(np.diff(profile[peak:]) > 1e-12 * max(m_ref, 1.0))
    reason = witness = None
    if rising.size:
        i = peak + int(rising[0])
        reason, witness = "rising", (float(radii[i]), float(radii[i + 1]),
                                     float(profile[i]), float(profile[i + 1]))
    elif profile[-1] > _DECAY_TOL * m_ref:
        reason, witness = "final", (float(radii[-1]), float(profile[-1]))
    return Check("decay_to_zero", verdict(reason is None),
                 "profile ok" if witness is None else repr(witness),
                 tolerance=_DECAY_TOL,
                 data={"radii": radii, "values": profile, "witness": witness,
                       "reason": reason})


def ez_check(handle: MapHandle, r_candidates) -> tuple[Check, Check]:
    """Sampled sup of |f| on shells beyond each candidate radius.

    Returns the checks ``cutoff_strict``, which requires exact zeros
    (cutoff behavior), and ``cutoff_numeric``, which accepts decay below
    ``_EZ_TOL``, the tolerance it reports.  Each one's ``data["radius"]``
    is the smallest candidate that qualifies, or None when none does.
    """
    cands = sorted(float(r) for r in r_candidates)
    if not cands or cands[0] <= 0:
        raise ValueError("need positive candidate radii")
    r_out = cands[-1] + 4.0
    strict = numeric = None
    for r in cands:
        shells = _shells(handle, np.linspace(r, r_out, 33), _N_DIRECTIONS)
        sup = float(shells[1].max())
        if numeric is None and sup <= _EZ_TOL:
            numeric = r
        if strict is None and sup == 0.0:
            strict = r
        if strict is not None:
            break
    return tuple(Check(f"cutoff_{kind}", verdict(radius is not None),
                       "not EZ" if radius is None else f"R={radius}",
                       tolerance=t, data={"radius": radius})
                 for kind, radius, t in (("strict", strict, 0.0),
                                         ("numeric", numeric, _EZ_TOL)))


def origin_contraction_check(handle: MapHandle, r_m: float,
                             grid: int = 512) -> Check:
    """Check |f(x)| < |x| on 0 < |x| <= R_M by dense radial sampling.

    The radial ladder mixes a uniform grid with a geometric descent
    toward 0 so the limiting ratio at the origin is probed.  Ratios
    within 1e-9 of 1 give an inconclusive verdict rather than a forced
    pass or fail; so does an origin that is not fixed.  ``data`` holds
    the largest sampled ratio |f(x)|/|x| and, unless the check passes,
    the point where it occurs.
    """
    if r_m <= 0:
        raise ValueError("r_m must be positive")
    origin_image = np.linalg.norm(handle.eval(np.zeros(2)))
    if origin_image > _ORIGIN_FIXED_TOL:
        return Check("origin_contraction", STATUS_INCONCLUSIVE,
                     f"origin is not fixed (|f(0)| = {origin_image:.3e}); "
                     "contraction check not applicable",
                     tolerance=_RATIO_TOL)
    # not np.union1d, which imports numpy.ma; a repeated radius only
    # repeats its samples
    radii = np.sort(np.concatenate([np.linspace(r_m / grid, r_m, grid),
                                    r_m * 2.0 ** -np.arange(46, dtype=float)]))
    pts, vals = _shells(handle, radii, 128)
    ratios = vals.ravel() / _kernels.row_norms(pts)
    imax = int(ratios.argmax())
    max_ratio = float(ratios[imax])
    status = (STATUS_PASS if max_ratio < 1.0 - _RATIO_TOL else
              STATUS_FAIL if max_ratio > 1.0 + _RATIO_TOL else
              STATUS_INCONCLUSIVE)
    point = None if status == STATUS_PASS else pts[imax]
    return Check("origin_contraction", status,
                 f"max_ratio={max_ratio:.9g} {_cell(point)}".strip(),
                 tolerance=_RATIO_TOL,
                 data={"max_ratio": max_ratio, "point": point})


def attracting_set_sample(handle: MapHandle, n_iterates: int) -> PointCloud:
    """Push a 128 x 128 grid sample of B_M(0) forward n_iterates times.

    The returned cloud is a finite-sample outer approximation of the
    compact globally attracting set.  The origin is included in the
    grid explicitly (it is a fixed point for the built-in families).
    """
    if n_iterates < 0:
        raise ValueError("n_iterates must be nonnegative")
    m_sup = _sup_norm_search(handle, 8.0, grid=256).m_sup
    pts = _grid_points(handle, m_sup, 128)
    pts = pts[_kernels.row_norms(pts) <= m_sup]
    pts = np.vstack([pts, np.zeros(2)])
    for _ in range(n_iterates):
        pts = handle.eval(pts)
    if not np.all(np.isfinite(pts)):
        raise DivergenceError("attracting-set sample diverged")
    return PointCloud(pts, ordered=False,
                      meta={"spec": handle.spec, "m_sup": m_sup,
                            "n_iterates": int(n_iterates), "grid": 128})


def run_hypothesis_report(handle: MapHandle, search_radius: float = 8.0,
                          grid: int = 256) -> Report:
    """Assemble the standard battery of checks into one report."""
    try:
        sup = _sup_norm_search(handle, search_radius, grid=grid)
        checks = [Check("sup_norm", STATUS_PASS,
                        f"M={sup.m_sup:.9g} R_M={sup.r_m:.9g}",
                        tolerance=1e-6, data=sup._asdict())]
    except SupNormBoundaryError as exc:
        sup = None
        checks = [Check("sup_norm", STATUS_INCONCLUSIVE, str(exc),
                        tolerance=1e-6)]
    # slow directional decay (e.g. exp(-0.2 r)) needs a long profile;
    # extend while only the final-value condition fails
    end = 12.0
    while True:
        decay = az_decay_profile(
            handle, np.linspace(0.5, end, max(24, int(end * 2))))
        if decay.data["reason"] != "final" or end >= 400:
            break
        end *= 2
    checks.append(decay)
    checks.extend(ez_check(handle, _EZ_CANDIDATES))
    if sup is not None:
        checks.append(origin_contraction_check(handle, sup.r_m, grid=grid))
    return Report(("check", "status", "witness", "tolerance"), checks)
