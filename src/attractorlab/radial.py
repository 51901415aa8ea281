"""Radial shell machinery for planar maps with ring-shaped trapping zones.

A map whose modulus behaves like a tent in the radius (expanding inner
branch, folding outer branch, dead zone past a cutoff) deletes a middle
band of radii at every iteration.  What survives is a Cantor set of
circles.  This module estimates the radial derivative bounds, builds
the nested shell partition with binary addresses by bisection against
the 1-D radius return map, evaluates the dimension bound formula, and
implements the binary shift space with its exact metric.

A synthetic "radial tent" family with prescribed slopes serves as the
constructed ground truth for all of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import _kernels
from .maps import MapHandle, MapSpec
from .dynamics import PointCloud

_BISECT_TOL = 1e-12
MAX_DEPTH = 30


class ShellConstructionError(RuntimeError):
    """Bisection bracket failed: the return map broke the shell hypotheses."""

    def __init__(self, message: str, angle: float, address: str):
        super().__init__(message)
        self.angle = angle
        self.address = address


def _const_profile(value: float) -> Callable:
    def profile(u):
        return np.asarray(u, dtype=float) * 0.0 + value
    return profile


@dataclass(frozen=True)
class ShellSpec:
    """Radial shell geometry: profiles are functions of the angle.

    alpha/beta bound the deleted band S* (the preimage of the dead
    zone), zeta is the outer cutoff, alpha0, if set, is the basin
    radius of an attracting origin (else the origin repels).  lam/mu
    are the radial expansion bounds; sampled validation accepts lam ==
    mu since the equal-slope tent construction is the primary oracle.
    """
    alpha: Callable
    beta: Callable
    zeta: Callable
    m_small: float
    m_big: float
    lam: float
    mu: float
    alpha0: Optional[Callable] = None

    def validate(self, n_angles: int = 64) -> None:
        """Check the shell inequalities on a sampled angle grid."""
        u = np.linspace(0.0, 2 * np.pi, n_angles, endpoint=False)
        a, b, z = self.alpha(u), self.beta(u), self.zeta(u)
        if not np.all(0 < a):
            raise ValueError("alpha must be positive")
        if not np.all(a < b):
            raise ValueError("need alpha < beta at every angle")
        if not np.all(b < z):
            raise ValueError("need beta < zeta at every angle")
        if not np.all(b - a < z):
            raise ValueError("band width must stay below zeta")
        if not self.m_big / self.m_small < self.lam:
            raise ValueError("need m_big/m_small < lam")
        if not self.lam <= self.mu:
            raise ValueError("need lam <= mu")
        if self.alpha0 is not None:
            a0 = self.alpha0(u)
            if not np.all((0 < a0) & (a0 < a)):
                raise ValueError("need 0 < alpha0 < alpha at every angle")

    def inner_floor(self, u):
        """Inner boundary of the shell region: alpha0 if set, else 0."""
        if self.alpha0 is not None:
            return self.alpha0(u)
        return np.asarray(u, dtype=float) * 0.0


def radial_derivative(handle: MapHandle,
                      x: np.ndarray) -> float | np.ndarray:
    """Derivative of |f| along the outward radial direction.

    ``x`` is a point, giving a float, or an (n, 2) block, giving an
    (n,) array from one ``eval(x, True)`` call.  Undefined where x = 0
    or f(x) = 0; either anywhere in the block raises ValueError.
    """
    x = np.asarray(x, dtype=float)
    r = _kernels.row_norms(x)[..., None]
    if np.any(r == 0.0):
        raise ValueError("radial derivative undefined at the origin")
    fx, jac = handle.eval(x, True)
    nf = _kernels.row_norms(fx)[..., None]
    if np.any(nf == 0.0):
        raise ValueError("radial derivative undefined where f vanishes")
    d = np.einsum("...i,...ij,...j->...", fx / nf, jac, x / r)
    return float(d) if x.ndim == 1 else d


def estimate_radial_bounds(handle: MapHandle, shells: ShellSpec,
                           grid: int = 256, n_angles: int = 64):
    """Sample d|f|/dr over the inner and outer shell regions.

    Returns (lam_hat, mu_hat, violations) where lam_hat/mu_hat are the
    min/max of |d_r| over both regions and violations collects sample
    points with the wrong sign (inner must be positive, outer negative)
    plus a ratio entry when m_big/m_small >= lam_hat.  Violations are
    data, not errors.  Each region's grid leaves out its inner end (the
    origin, or the alpha0 kink of a sink origin).  All 2 * grid * n_angles
    samples, angle by angle with the inner radii first, go through one
    radial_derivative call.
    """
    shells.validate(n_angles)
    angles = np.linspace(0.0, 2 * np.pi, n_angles, endpoint=False)
    lo, a, b, z = (fn(angles) for fn in (shells.inner_floor, shells.alpha,
                                         shells.beta, shells.zeta))
    inner = np.linspace(lo, a, grid + 1, axis=1)[:, 1:]
    outer = np.linspace(b, z, grid, endpoint=False, axis=1)
    radii = np.concatenate([inner, outer], axis=1)
    u = np.column_stack([np.cos(angles), np.sin(angles)])
    pts = (radii[:, :, None] * u[:, None, :]).reshape(-1, 2)
    d = radial_derivative(handle, pts)
    wrong = d * np.tile(np.repeat([1.0, -1.0], grid), n_angles) <= 0.0
    violations = [(p, "sign", float(v)) for p, v in zip(pts[wrong], d[wrong])]
    lam_hat = float(np.min(np.abs(d[~wrong]), initial=np.inf))
    mu_hat = float(np.max(np.abs(d[~wrong]), initial=0.0))
    if lam_hat <= shells.m_big / shells.m_small:
        violations.append((None, "ratio_condition", lam_hat))
    return lam_hat, mu_hat, violations


def _bisect_many(g, lo, hi, target, angles):
    """Vectorized bisection of g(r, angle) = target on brackets [lo, hi]."""
    flo = g(lo, angles) - target
    fhi = g(hi, angles) - target
    bad = flo * fhi > 0.0
    if np.any(bad):
        return None, bad
    a, b = lo.copy(), hi.copy()
    fa = flo
    for _ in range(100):
        mid = 0.5 * (a + b)
        fm = g(mid, angles) - target
        right = fa * fm > 0.0
        a = np.where(right, mid, a)
        fa = np.where(right, fm, fa)
        b = np.where(right, b, mid)
        if float(np.max(b - a)) < _BISECT_TOL:
            break
    return 0.5 * (a + b), None


@dataclass
class ShellPartition:
    """Nested radial cells addressed by binary words, per sampled angle.

    Address bit 0 picks the inner child, bit 1 the outer one, so cell i
    at level d carries the d-bit binary address of i in radial order.
    Children share their outward endpoints with the parent cell, like
    the middle-thirds construction; strict nesting lives in the deleted
    band: cell.lo < band.lo < band.hi < cell.hi everywhere.  n_store
    is 1 for an angle-independent map and n_angles otherwise.
    """
    depth: int
    angles: np.ndarray          # full angle grid
    levels: list                # levels[j] = (lo, hi), shape (n_store, 2^j)
    bands: list                 # bands[j] = (lo, hi), j < depth

    @property
    def n_angles(self) -> int:
        return len(self.angles)

    def _expand(self, level: int) -> tuple:
        """A level's (lo, hi) over the full angle grid, as read-only views."""
        return tuple(np.broadcast_to(a, (self.n_angles, a.shape[1]))
                     for a in self.levels[level])

    def cell(self, address: str):
        """(inner, outer) radius arrays over the angle grid."""
        if len(address) > self.depth or any(c not in "01" for c in address):
            raise KeyError(address)
        lo, hi = self._expand(len(address))
        idx = int(address, 2) if address else 0
        return lo[:, idx].copy(), hi[:, idx].copy()

    def addresses(self, level: int):
        if not 0 <= level <= self.depth:
            raise ValueError("level out of range")
        return [format(i, f"0{level}b") if level else ""
                for i in range(2 ** level)]

    def leaves(self):
        return self._expand(self.depth)

    def validate(self) -> None:
        """Nesting and disjointness at every stored angle and level."""
        for j in range(self.depth):
            clo, chi = self.levels[j]
            blo, bhi = self.bands[j]
            ok = (clo < blo) & (blo < bhi) & (bhi < chi)
            if not np.all(ok):
                bad = np.argwhere(~ok)[0]
                raise AssertionError(
                    f"band not strictly inside cell at level {j}, "
                    f"angle index {bad[0]}, cell index {bad[1]}")
            nlo, nhi = self.levels[j + 1]
            if not (np.all(nlo[:, ::2] == clo) and np.all(nhi[:, ::2] == blo)
                    and np.all(nlo[:, 1::2] == bhi)
                    and np.all(nhi[:, 1::2] == chi)):
                raise AssertionError(f"children do not tile level {j}")

    def sample_cloud(self, max_points: int = 200_000,
                     seed: int = 0) -> PointCloud:
        """Random (leaf, angle) sample of the partition as a 2-D cloud.

        Radii are leaf midpoints at the nearest stored angle; angles
        are uniform on the circle, so the cloud approximates the
        product of the circle with the radial Cantor set.
        """
        rng = np.random.default_rng(seed)
        lo, hi = self.levels[self.depth]
        n_store, n_leaves = lo.shape
        leaf = rng.integers(0, n_leaves, size=max_points)
        phi = rng.uniform(0.0, 2 * np.pi, size=max_points)
        col = np.rint(phi / (2 * np.pi / n_store)).astype(int) % n_store
        r = 0.5 * (lo[col, leaf] + hi[col, leaf])
        pts = np.column_stack([r * np.cos(phi), r * np.sin(phi)])
        return PointCloud(pts, ordered=False,
                          meta={"depth": self.depth, "seed": seed})


def cantor_shells(return_map: Callable, shells: ShellSpec, depth: int,
                  angle_grid: int = 256) -> ShellPartition:
    """Build the nested shell partition to the requested depth.

    ``return_map(r, angle)`` is the 1-D radius map, evaluated on arrays
    of radii and angles of one shape; it must be monotone increasing on
    the inner branch and decreasing on the outer one.  Preimages of the
    deleted band are found by bisection (vectorized over angles and
    cells).  Angle-independent maps are detected and stored with a
    single angle column.
    """
    if not 1 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must be in [1, {MAX_DEPTH}]")
    shells.validate(max(angle_grid, 8))
    angles = np.linspace(0.0, 2 * np.pi, angle_grid, endpoint=False)

    probe_r = np.linspace(0.05, 0.95, 8)[:, None] * shells.zeta(angles)[None, :]
    probe = return_map(probe_r, np.broadcast_to(angles, probe_r.shape))
    angle_free = bool(np.all(np.ptp(probe, axis=1) == 0.0))
    for fn in (shells.alpha, shells.beta, shells.zeta, shells.alpha0):
        if fn is not None:
            angle_free &= bool(np.ptp(np.asarray(fn(angles))) == 0.0)

    store = angles[:1] if angle_free else angles
    n_store = len(store)
    if n_store * (2 ** depth) > 2 ** 28:
        raise ValueError("partition too large; reduce depth or angle_grid")

    def prof(fn):
        return np.asarray(fn(store), dtype=float)

    levels = [(prof(shells.inner_floor)[:, None], prof(shells.zeta)[:, None])]
    bands = [(prof(shells.alpha)[:, None], prof(shells.beta)[:, None])]

    for j in range(depth):
        clo, chi = levels[j]
        blo, bhi = bands[j]
        n_par = 2 ** j
        nlo = np.empty((n_store, 2 * n_par))
        nhi = np.empty_like(nlo)
        nlo[:, ::2], nhi[:, ::2] = clo, blo
        nlo[:, 1::2], nhi[:, 1::2] = bhi, chi
        levels.append((nlo, nhi))
        if j + 1 == depth:
            break
        n_cells = 2 * n_par
        # g maps cell i onto cell min(i, n_cells - 1 - i) one level up:
        # radial order reverses on the outer (decreasing) branch
        cell = np.arange(n_cells)
        img = np.minimum(cell, n_cells - 1 - cell)
        t_lo, t_hi = blo[:, img], bhi[:, img]
        lo2 = np.concatenate([nlo, nlo], axis=1)
        hi2 = np.concatenate([nhi, nhi], axis=1)
        targets = np.concatenate([t_lo, t_hi], axis=1)
        ang2 = np.broadcast_to(store[:, None], lo2.shape)
        roots, bad = _bisect_many(return_map, lo2, hi2, targets, ang2)
        if roots is None:
            ia, ic = np.argwhere(bad)[0]
            addr = format(int(ic) % n_cells, f"0{j + 1}b")
            raise ShellConstructionError(
                f"no sign change bracketing the band preimage at level "
                f"{j + 1}", float(store[ia]), addr)
        r_lo, r_hi = roots[:, :n_cells], roots[:, n_cells:]
        inc_child = cell < n_par
        new_blo = np.where(inc_child, r_lo, r_hi)
        new_bhi = np.where(inc_child, r_hi, r_lo)
        bands.append((new_blo, new_bhi))

    return ShellPartition(depth=depth, angles=angles, levels=levels,
                          bands=bands)


def hausdorff_bounds(lam: float, mu: float):
    """Dimension bound pair (1 + log2/log(mu), 1 + log2/log(lam)).

    ``lam`` and ``mu`` are the least and greatest radial slopes |d_r|, as
    ``ShellSpec.lam``/``.mu`` and ``estimate_radial_bounds`` give them;
    the planar set of circles over a radial Cantor set has dimension
    between the two.  Needs 1 < lam <= mu.
    """
    if lam <= 1:
        raise ValueError("lam must exceed 1")
    if mu < lam:
        raise ValueError("need lam <= mu")
    return 1 + math.log(2) / math.log(mu), 1 + math.log(2) / math.log(lam)


# binary shift space with exact metric


def _digits_tuple(word) -> tuple:
    if isinstance(word, str):
        word = [int(c) for c in word]
    digits = tuple(int(d) for d in word)
    if any(d not in (0, 1) for d in digits):
        raise ValueError("digits must be 0 or 1")
    return digits


@dataclass(frozen=True)
class SymbolCode:
    """Eventually-periodic binary sequence, canonical representation.

    The stored form has minimal period and minimal preperiod, so two
    codes are equal as sequences iff their fields are equal.  Finite
    words are represented with a trailing period of (0,).
    """
    preperiod: tuple = ()
    period: tuple = (0,)

    def __post_init__(self):
        pre = _digits_tuple(self.preperiod)
        per = _digits_tuple(self.period)
        if not per:
            raise ValueError("period must be nonempty")
        n = len(per)
        for d in range(1, n + 1):
            if n % d == 0 and per[:d] * (n // d) == per:
                per = per[:d]
                break
        while pre and pre[-1] == per[-1]:
            per = per[-1:] + per[:-1]
            pre = pre[:-1]
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)

    def digit(self, n: int) -> int:
        """n-th digit, 1-based."""
        if n < 1:
            raise ValueError("positions are 1-based")
        if n <= len(self.preperiod):
            return self.preperiod[n - 1]
        return self.period[(n - 1 - len(self.preperiod)) % len(self.period)]

    def prefix(self, length: int) -> tuple:
        return tuple(self.digit(n) for n in range(1, length + 1))

    def __str__(self):
        pre = "".join(map(str, self.preperiod))
        per = "".join(map(str, self.period))
        return f".{pre}({per})*"


def shift_map(s: SymbolCode) -> SymbolCode:
    """Drop the first digit."""
    if s.preperiod:
        return SymbolCode(s.preperiod[1:], s.period)
    return SymbolCode((), s.period[1:] + s.period[:1])


def periodic_code(prefix) -> SymbolCode:
    """The periodic sequence repeating the given finite word."""
    digits = _digits_tuple(prefix)
    if not digits:
        raise ValueError("prefix must be nonempty")
    return SymbolCode((), digits)


def shift_metric(s: SymbolCode, t: SymbolCode) -> Fraction:
    """Exact sum of 2^{-n} |s(n) - t(n)| as a Fraction."""
    head = max(len(s.preperiod), len(t.preperiod))
    p = math.lcm(len(s.period), len(t.period))
    total = Fraction(0)
    for n in range(1, head + 1):
        if s.digit(n) != t.digit(n):
            total += Fraction(1, 2 ** n)
    acc = 0
    for k in range(1, p + 1):
        if s.digit(head + k) != t.digit(head + k):
            acc += 2 ** (p - k)
    total += Fraction(acc, (2 ** p - 1) * 2 ** head)
    return total


# synthetic ground-truth family


@dataclass(frozen=True)
class RadialTent:
    handle: MapHandle
    shells: ShellSpec
    return_map: Callable


def radial_tent_map(slopes=(3.0, 3.0), zeta: float = 1.0, theta: float = 0.0,
                    alpha0: Optional[float] = None) -> RadialTent:
    """Planar map with a piecewise-linear tent as its radius return map.

    |f(x)| = g(|x|) with g rising at slope ``slopes[0]`` and falling at
    slope ``slopes[1]`` to hit zero at the cutoff ``zeta`` (exactly
    zero beyond, so the map has compact support).  The image direction
    is the input direction rotated by 2*pi*theta.  Given ``alpha0``,
    r^2/alpha0 replaces the linear rise below it, making the origin
    attracting with basin radius alpha0; else the origin repels.

    All shell hypotheses hold by construction; returns the handle, the
    matching ShellSpec, and the return map g(r, angle).
    """
    s_in, s_out = float(slopes[0]), float(slopes[1])
    if s_in <= 1 or s_out <= 1:
        raise ValueError("slopes must exceed 1")
    if zeta <= 0:
        raise ValueError("zeta must be positive")
    if alpha0 is None:
        a0, alpha = None, zeta / s_in
    else:
        a0 = float(alpha0)
        alpha = a0 + (zeta - a0) / s_in
        apex = (s_out * zeta + (s_in - 1.0) * a0) / (s_in + s_out)
        if not 0 < a0 < alpha < apex:
            raise ValueError("alpha0 must be positive and small enough for "
                             "these slopes")
    beta = zeta * (1.0 - 1.0 / s_out)

    def g(r, angle=0.0, slope=False):
        """Radius map, or its r-derivative (same branch) with ``slope``."""
        r = np.asarray(r, dtype=float)
        if a0 is None:
            rise, d_rise = s_in * r, s_in
        else:
            core = r < a0
            rise = np.where(core, r * r / a0, a0 + s_in * (r - a0))
            d_rise = np.where(core, 2 * r / a0, s_in)
        fall = s_out * (zeta - r)
        up = rise <= fall
        out = (np.where(fall > 0.0, np.where(up, d_rise, -s_out), 0.0)
               if slope else np.maximum(np.where(up, rise, fall), 0.0))
        return out + np.asarray(angle) * 0.0

    c, s = np.cos(2 * np.pi * theta), np.sin(2 * np.pi * theta)
    rot = np.array([[c, -s], [s, c]])

    def tent(x, with_jac=False):
        """Image of a point or an (n, 2) block [and Jacobian(s)]."""
        x = np.asarray(x, dtype=float)
        pts = x.reshape(-1, 2)
        r = _kernels.row_norms(pts)
        scale = np.zeros_like(r)
        nz = r > 0
        scale[nz] = g(r[nz]) / r[nz]
        v1, v2 = scale * pts[:, 0], scale * pts[:, 1]
        img = np.column_stack([c * v1 - s * v2,
                               s * v1 + c * v2]).reshape(x.shape)
        if not with_jac:
            return img
        # J = rot (g(r)/r (I - u u^T) + g'(r) u u^T), u = x/r; at r = 0,
        # where u = 0, the tangential factor takes g'(0) in place of g/r
        d_r = g(r, slope=True)
        u = pts / np.where(nz, r, 1.0)[:, None]
        uu = u[:, :, None] * u[:, None, :]
        tangential = np.where(nz, scale, d_r)[:, None, None]
        radial = tangential * (np.eye(2) - uu) + d_r[:, None, None] * uu
        return img, (rot @ radial).reshape(x.shape + (2,))

    params = {"s_in": s_in, "s_out": s_out, "zeta": zeta, "theta": theta,
              "alpha0": a0 if a0 is not None else np.nan}
    handle = MapHandle(spec=MapSpec("user_table", params), eval=tent)
    m_small, m_big = alpha, beta
    spec = ShellSpec(alpha=_const_profile(alpha), beta=_const_profile(beta),
                     zeta=_const_profile(zeta), m_small=m_small,
                     m_big=m_big, lam=min(s_in, s_out), mu=max(s_in, s_out),
                     alpha0=None if a0 is None else _const_profile(a0))
    return RadialTent(handle=handle, shells=spec,
                      return_map=g)
