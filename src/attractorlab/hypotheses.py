"""Numerical verification of the toolkit's standing hypotheses.

Checks the decay-to-zero property, locates the sup norm M of |f| and
the outermost maximizer radius R_M, tests cutoff behavior (exact zero
beyond a radius versus numerical decay), tests contraction toward a
fixed origin, and samples the globally attracting set by pushing a grid
of the ball B_M(0) forward.

Maps flagged cone-restricted (``handle.cone``) are sampled on the
nonnegative orthant only; their decay property holds on that cone, not
on all of R^m.

Every verdict here and in ``horseshoe.verify_ah`` is a :class:`Check`
collected in a :class:`Report`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .maps import MapHandle
from .dynamics import DivergenceError, PointCloud

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_INCONCLUSIVE = "inconclusive"

_RATIO_TOL = 1e-9        # equality band for the contraction ratio
_ORIGIN_FIXED_TOL = 1e-12


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
    if handle.dim == 2:
        top = np.pi / 2 if handle.cone else 2 * np.pi
        ang = np.linspace(0.0, top, n, endpoint=handle.cone)
        return np.column_stack([np.cos(ang), np.sin(ang)])
    rng = np.random.default_rng(0)
    u = rng.normal(size=(n, handle.dim))
    if handle.cone:
        u = np.abs(u)
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def _grid_points(handle: MapHandle, radius: float, grid: int) -> np.ndarray:
    lo = 0.0 if handle.cone else -radius
    axis = np.linspace(lo, radius, grid)
    if handle.dim != 2:
        raise ValueError("grid search implemented for 2-D maps only")
    g1, g2 = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([g1.ravel(), g2.ravel()])


def _golden_polish(handle: MapHandle, x: np.ndarray, h: float,
                   sweeps: int = 3, iters: int = 48) -> np.ndarray:
    """Coordinate-wise golden-section ascent of |f| around x."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    x = x.astype(float).copy()
    for _ in range(sweeps):
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
            for _ in range(iters):
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
    is not below M/10, which means the box may not contain the peak.
    """
    pts = _grid_points(handle, search_radius, grid)
    vals = np.linalg.norm(handle.eval(pts), axis=1)
    m_grid = float(vals.max())
    if m_grid == 0.0:
        return SupNorm(0.0, np.zeros(handle.dim), 0.0)
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
    """estimate_sup_norm at radius, doubled until its box holds the peak."""
    for scale in (1.0, 2.0, 4.0):
        try:
            return estimate_sup_norm(handle, scale * radius, grid=grid)
        except SupNormBoundaryError:
            pass
    return estimate_sup_norm(handle, 8.0 * radius, grid=grid)


@dataclass(frozen=True)
class DecayProfile:
    radii: np.ndarray
    values: np.ndarray          # max over directions of |f(r u)|
    verdict: str                # pass / fail
    witness: Optional[tuple] = None


def az_decay_profile(handle: MapHandle, radii,
                     n_directions: int = 256) -> DecayProfile:
    """Directional max of |f| over spheres of increasing radius.

    Passes when the profile is monotone nonincreasing past its peak and
    the last value has decayed below 1e-9 of the reference magnitude.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or len(radii) < 2 or np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be strictly increasing, length >= 2")
    dirs = _directions(handle, n_directions)
    pts = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, handle.dim)
    vals = np.linalg.norm(handle.eval(pts), axis=1)
    profile = vals.reshape(len(radii), -1).max(axis=1)
    # reference magnitude: profile peak or an interior coarse-grid peak
    inner = _grid_points(handle, float(radii[0]), 64)
    m_ref = max(float(profile.max()),
                float(np.linalg.norm(handle.eval(inner), axis=1).max()))
    peak = int(profile.argmax())
    rising = np.flatnonzero(np.diff(profile[peak:]) > 1e-12 * max(m_ref, 1.0))
    if rising.size:
        i = peak + int(rising[0])
        return DecayProfile(radii, profile, STATUS_FAIL,
                            witness=(float(radii[i]), float(radii[i + 1]),
                                     float(profile[i]), float(profile[i + 1])))
    if profile[-1] > 1e-9 * m_ref:
        return DecayProfile(radii, profile, STATUS_FAIL,
                            witness=(float(radii[-1]), float(profile[-1])))
    return DecayProfile(radii, profile, STATUS_PASS)


@dataclass(frozen=True)
class EZResult:
    strict_radius: Optional[float]   # smallest candidate with |f| == 0 beyond
    numeric_radius: Optional[float]  # smallest candidate with |f| <= tol
    tol: float


def ez_check(handle: MapHandle, r_candidates, tol: float = 1e-12) -> EZResult:
    """Sampled sup of |f| on shells beyond each candidate radius.

    ``strict_radius`` requires exact zeros (cutoff behavior);
    ``numeric_radius`` accepts decay below ``tol``.  Either is None when
    no candidate qualifies.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    cands = sorted(float(r) for r in r_candidates)
    if not cands or cands[0] <= 0:
        raise ValueError("need positive candidate radii")
    dirs = _directions(handle, 256)
    r_out = cands[-1] + 4.0
    strict = numeric = None
    for r in cands:
        shells = np.linspace(r, r_out, 33)
        pts = (shells[:, None, None] * dirs[None, :, :]).reshape(-1, handle.dim)
        sup = float(np.linalg.norm(handle.eval(pts), axis=1).max())
        if numeric is None and sup <= tol:
            numeric = r
        if strict is None and sup == 0.0:
            strict = r
        if strict is not None:
            break
    return EZResult(strict_radius=strict, numeric_radius=numeric, tol=tol)


@dataclass(frozen=True)
class ContractionCheck:
    status: str
    max_ratio: float
    witness: Optional[np.ndarray]
    tolerance: float = _RATIO_TOL


def origin_contraction_check(handle: MapHandle, r_m: float,
                             grid: int = 512) -> ContractionCheck:
    """Check |f(x)| < |x| on 0 < |x| <= R_M by dense radial sampling.

    The radial ladder mixes a uniform grid with a geometric descent
    toward 0 so the limiting ratio at the origin is probed.  Ratios
    within 1e-9 of 1 give an inconclusive verdict rather than a forced
    pass or fail.
    """
    if r_m <= 0:
        raise ValueError("r_m must be positive")
    origin_image = np.linalg.norm(handle.eval(np.zeros(handle.dim)))
    if origin_image > _ORIGIN_FIXED_TOL:
        raise ValueError(
            f"origin is not fixed (|f(0)| = {origin_image:.3e}); "
            "contraction check not applicable")
    radii = np.union1d(np.linspace(r_m / grid, r_m, grid),
                       r_m * 2.0 ** -np.arange(46, dtype=float))
    dirs = _directions(handle, 128)
    pts = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, handle.dim)
    norms = np.linalg.norm(pts, axis=1)
    ratios = np.linalg.norm(handle.eval(pts), axis=1) / norms
    imax = int(ratios.argmax())
    max_ratio = float(ratios[imax])
    if max_ratio < 1.0 - _RATIO_TOL:
        return ContractionCheck(STATUS_PASS, max_ratio, None)
    if max_ratio > 1.0 + _RATIO_TOL:
        return ContractionCheck(STATUS_FAIL, max_ratio, pts[imax])
    return ContractionCheck(STATUS_INCONCLUSIVE, max_ratio, pts[imax])


def attracting_set_sample(handle: MapHandle, n_iterates: int,
                          grid: int = 128) -> PointCloud:
    """Push a grid sample of the ball B_M(0) forward n_iterates times.

    The returned cloud is a finite-sample outer approximation of the
    compact globally attracting set.  The origin is included in the
    grid explicitly (it is a fixed point for the built-in families).
    """
    if n_iterates < 0:
        raise ValueError("n_iterates must be nonnegative")
    m_sup = _sup_norm_search(handle, 8.0, grid=256).m_sup
    pts = _grid_points(handle, m_sup, grid)
    pts = pts[np.linalg.norm(pts, axis=1) <= m_sup]
    pts = np.vstack([pts, np.zeros(handle.dim)])
    for _ in range(n_iterates):
        pts = handle.eval(pts)
    if not np.all(np.isfinite(pts)):
        raise DivergenceError("attracting-set sample diverged")
    return PointCloud(pts, ordered=False,
                      meta={"spec": handle.spec, "m_sup": m_sup,
                            "n_iterates": int(n_iterates), "grid": int(grid)})


def run_hypothesis_report(handle: MapHandle, search_radius: float = 8.0,
                          grid: int = 256, decay_radii=None,
                          ez_candidates=None, ez_tol: float = 1e-12,
                          ) -> Report:
    """Assemble the standard battery of checks into one report."""
    checks = []
    try:
        sup = _sup_norm_search(handle, search_radius, grid=grid)
        checks.append(Check("sup_norm", STATUS_PASS,
                            f"M={sup.m_sup:.9g} R_M={sup.r_m:.9g}",
                            tolerance=1e-6))
    except SupNormBoundaryError as exc:
        sup = None
        checks.append(Check("sup_norm", STATUS_INCONCLUSIVE, str(exc),
                            tolerance=1e-6))
    if decay_radii is not None:
        decay = az_decay_profile(handle, np.asarray(decay_radii, dtype=float))
    else:
        # slow directional decay (e.g. exp(-0.2 r)) needs a long profile;
        # extend while only the final-value condition fails
        end = 12.0
        while True:
            decay = az_decay_profile(
                handle, np.linspace(0.5, end, max(24, int(end * 2))))
            final_only = (decay.witness is not None
                          and len(decay.witness) == 2)
            if decay.verdict == STATUS_PASS or not final_only or end >= 400:
                break
            end *= 2
    checks.append(Check(
        "decay_to_zero", decay.verdict,
        "profile ok" if decay.witness is None else repr(decay.witness),
        tolerance=1e-9))
    cands = (list(ez_candidates) if ez_candidates is not None
             else [2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    ez = ez_check(handle, cands, tol=ez_tol)
    for kind, radius, tol in (("strict", ez.strict_radius, 0.0),
                              ("numeric", ez.numeric_radius, ez_tol)):
        checks.append(Check(f"cutoff_{kind}", verdict(radius is not None),
                            "not EZ" if radius is None else f"R={radius}",
                            tolerance=tol))
    if sup is not None:
        try:
            con = origin_contraction_check(handle, sup.r_m, grid=grid)
            checks.append(Check(
                "origin_contraction", con.status,
                f"max_ratio={con.max_ratio:.9g} {_cell(con.witness)}".strip(),
                tolerance=con.tolerance))
        except ValueError as exc:
            checks.append(Check("origin_contraction", STATUS_INCONCLUSIVE,
                                str(exc), tolerance=_RATIO_TOL))
    return Report(("check", "status", "witness", "tolerance"), checks)
