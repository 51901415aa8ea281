"""Attracting-horseshoe verification, saddle search, and manifold tracing.

The model region H* is a radius-4 capsule around the segment from
(-2, -1) to (-2, 9): a rectangular core Z* (two expansion bands S0*,
S1* around a fold band S1/2*) with half-disk caps C0* below and C1*
above.  An affine frame carries the model into the plane.  verify_ah
samples the defining conditions of an attracting horseshoe on that
geometry: the region maps into its own interior, both caps and the
fold band land in the proper caps, pushed-forward vertical leaves stay
transverse to horizontal ones inside the core, the lower cap is a
contracting sink region, a saddle with vertical unstable direction
sits in the lower band, and the foliation contraction/expansion rates
bracket 1.

The built-in model map realizes all of it with exact rates (0.2, 4);
its fold sends the middle band onto a family of nested ellipse arcs
inside the top cap, which keeps the map injective through the fold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .maps import MapHandle, MapSpec
from .dynamics import (Cycle, DivergenceError, CycleSearchError, PointCloud,
                       find_cycle, classify_cycle, _iterate_with_product)
from .hypotheses import (STATUS_FAIL, STATUS_INCONCLUSIVE, STATUS_PASS, Check,
                         Report, verdict)

TRANSVERSALITY_MIN_ANGLE = 1e-2     # radians
FOLIATION_STEP = 1e-5               # first-difference step, model coords
POINT_CAP = 10_000_000

_CAP0 = np.array([-2.0, -1.0])
_CAP1 = np.array([-2.0, 9.0])
_RADIUS = 4.0
_BANDS = (-1.0, 3.0, 5.0, 9.0)      # S0 / fold / S1 limits in x2


class RefinementExplosion(RuntimeError):
    """Manifold refinement exceeded the point budget; .partial saved."""

    def __init__(self, message: str, partial: PointCloud):
        super().__init__(message)
        self.partial = partial


def _affine(m: np.ndarray, pts) -> np.ndarray:
    """``pts @ m.T`` for a (2,) point or an (n, 2) block, in elementwise
    arithmetic: a BLAS matmul rounds differently by block length, and a
    point must map as its row in any block does."""
    p = np.asarray(pts, dtype=float)
    out = np.empty_like(p)
    for i in (0, 1):
        out[..., i] = p[..., 0] * m[i, 0] + p[..., 1] * m[i, 1]
    return out


@dataclass(frozen=True)
class HorseshoeRegion:
    """Affine frame carrying the model capsule H* into the plane."""
    matrix: np.ndarray = None
    offset: np.ndarray = None
    inverse: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.eye(2) if self.matrix is None else \
            np.asarray(self.matrix, dtype=float).reshape(2, 2)
        b = np.zeros(2) if self.offset is None else \
            np.asarray(self.offset, dtype=float).reshape(2)
        if abs(np.linalg.det(m)) < 1e-9:
            raise ValueError("frame matrix is singular")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "offset", b)
        object.__setattr__(self, "inverse", np.linalg.inv(m))

    def to_world(self, pts: np.ndarray) -> np.ndarray:
        return _affine(self.matrix, pts) + self.offset

    def to_model(self, pts: np.ndarray) -> np.ndarray:
        return _affine(self.inverse, pts - self.offset)

    # signed interior distances in model coordinates (positive inside)

    @staticmethod
    def inside_h(q: np.ndarray) -> np.ndarray:
        q = np.atleast_2d(q)
        x2 = np.clip(q[:, 1], _CAP0[1], _CAP1[1])
        seg = np.column_stack([np.full(len(q), -2.0), x2])
        return _RADIUS - np.linalg.norm(q - seg, axis=1)

    @staticmethod
    def inside_z(q: np.ndarray, lo: float = _BANDS[0],
                 hi: float = _BANDS[3]) -> np.ndarray:
        """Distance inside the core Z, or inside its band lo <= x2 <= hi."""
        q = np.atleast_2d(q)
        return np.minimum.reduce([_RADIUS - np.abs(q[:, 0] + 2.0),
                                  q[:, 1] - lo, hi - q[:, 1]])

    @staticmethod
    def _inside_cap(q, center, below: bool) -> np.ndarray:
        q = np.atleast_2d(q)
        ball = _RADIUS - np.linalg.norm(q - center, axis=1)
        side = center[1] - q[:, 1] if below else q[:, 1] - center[1]
        return np.minimum(ball, side)

    def inside_c0(self, q):
        return self._inside_cap(q, _CAP0, below=True)

    def inside_c1(self, q):
        return self._inside_cap(q, _CAP1, below=False)

    def inside_s0(self, q):
        return self.inside_z(q, _BANDS[0], _BANDS[1])

    def inside_s_half(self, q):
        return self.inside_z(q, _BANDS[1], _BANDS[2])

    def inside_s1(self, q):
        return self.inside_z(q, _BANDS[2], _BANDS[3])

    def sample(self, piece: str, n: int, boundary: bool = False):
        """Model-coordinate grid sample of one piece of H*.

        boundary=True appends points on the capsule boundary (only
        meaningful for piece='h').
        """
        tests = {"h": self.inside_h, "z": self.inside_z,
                 "c0": self.inside_c0, "c1": self.inside_c1,
                 "s0": self.inside_s0, "s_half": self.inside_s_half,
                 "s1": self.inside_s1}
        boxes = {"h": (-6, 2, -5, 13), "z": (-6, 2, -1, 9),
                 "c0": (-6, 2, -5, -1), "c1": (-6, 2, 9, 13),
                 "s0": (-6, 2, -1, 3), "s_half": (-6, 2, 3, 5),
                 "s1": (-6, 2, 5, 9)}
        if piece not in tests:
            raise ValueError(f"unknown piece {piece!r}")
        x0, x1, y0, y1 = boxes[piece]
        gx = np.linspace(x0, x1, n)
        gy = np.linspace(y0, y1, n)
        g1, g2 = np.meshgrid(gx, gy, indexing="ij")
        pts = np.column_stack([g1.ravel(), g2.ravel()])
        pts = pts[tests[piece](pts) >= 0.0]
        if boundary:
            t = np.linspace(0.0, 1.0, 4 * n)
            ang = np.pi * t
            bottom = _CAP0 + _RADIUS * np.column_stack([np.cos(ang + np.pi),
                                                        -np.sin(ang)])
            top = _CAP1 + _RADIUS * np.column_stack([np.cos(ang),
                                                     np.sin(ang)])
            wall_y = _BANDS[0] + (_BANDS[3] - _BANDS[0]) * t
            left = np.column_stack([np.full_like(wall_y, -6.0), wall_y])
            right = np.column_stack([np.full_like(wall_y, 2.0), wall_y])
            pts = np.vstack([pts, bottom, top, left, right])
        return pts


def _model_jacobians(handle: MapHandle, region: HorseshoeRegion,
                     q: np.ndarray) -> np.ndarray:
    return region.inverse @ handle.eval(region.to_world(q), True)[1] @ \
        region.matrix


def _map_model(handle: MapHandle, region: HorseshoeRegion,
               q: np.ndarray) -> np.ndarray:
    return region.to_model(handle.eval(region.to_world(q)))


def verify_ah(handle: MapHandle, region: HorseshoeRegion,
              sampling: int = 48) -> Report:
    """Sampled check of the attracting-horseshoe conditions.

    Every condition reports pass/fail/inconclusive with a margin and a
    worst-case witness (world coordinates); nothing raises.  Foliation
    rates are sampled on band interiors (a first difference straddling
    a band boundary would measure the seam, not a leaf rate), and
    transversality is only enforced at samples whose image lands back
    in the core Z, where the horizontal foliation lives.
    """
    checks = []
    h_pts = region.sample("h", sampling, boundary=True)
    h_img = _map_model(handle, region, h_pts)

    # injectivity: identical images from separated preimages
    order = np.lexsort((h_img[:, 1], h_img[:, 0]))
    si, sp = h_img[order], h_pts[order]
    img_close = np.linalg.norm(np.diff(si, axis=0), axis=1) < 1e-7
    pre_far = np.linalg.norm(np.diff(sp, axis=0), axis=1) > 1e-4
    bad = img_close & pre_far
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        checks.append(Check("injectivity", STATUS_FAIL,
                            region.to_world(sp[i]), 0.0,
                            data={"collides_with": region.to_world(sp[i + 1])}))
    else:
        img_gap = np.linalg.norm(np.diff(si, axis=0), axis=1)
        sep = float(np.min(img_gap[pre_far])) if np.any(pre_far) else \
            float("inf")
        checks.append(Check("injectivity", STATUS_PASS, None, sep))

    def lands_inside(name, pts, depth):
        """Pass when every image lies strictly inside its target piece;
        depth is each image's signed distance inside it."""
        i = int(np.argmin(depth))
        checks.append(Check(name, verdict(depth[i] > 0),
                            region.to_world(pts[i]), float(depth[i])))

    # f(H) inside the open region, both caps into the open lower cap and
    # the fold band into the open upper cap
    lands_inside("region_into_interior", h_pts, region.inside_h(h_img))
    cap_pts = np.vstack([region.sample("c0", sampling),
                         region.sample("c1", sampling)])
    lands_inside("caps_into_sink_cap", cap_pts,
                 region.inside_c0(_map_model(handle, region, cap_pts)))
    fold_pts = region.sample("s_half", sampling)
    lands_inside("fold_band_into_top_cap", fold_pts,
                 region.inside_c1(_map_model(handle, region, fold_pts)))

    # transversality of pushed vertical leaves, where images stay in Z
    z_pts = region.sample("z", sampling)
    z_img = _map_model(handle, region, z_pts)
    active = region.inside_z(z_img) >= 0.0
    if not np.any(active):
        checks.append(Check("vertical_transversality", STATUS_INCONCLUSIVE,
                            None, 0.0,
                            data={"note": "no sample maps back into Z"}))
    else:
        q = z_pts[active]
        # the images v of e2; where v = 0 the angle is 0
        v = _model_jacobians(handle, region, q)[:, :, 1]
        nv = np.linalg.norm(v, axis=1)
        ang = np.arcsin(np.minimum(1.0, np.abs(v[:, 1]) /
                                   np.where(nv == 0.0, 1.0, nv)))
        i = int(np.argmin(ang))
        worst = float(ang[i])
        checks.append(Check(
            "vertical_transversality",
            verdict(worst > TRANSVERSALITY_MIN_ANGLE), region.to_world(q[i]),
            worst - TRANSVERSALITY_MIN_ANGLE, data={"min_angle": worst}))

    # lower cap contracts onto an interior sink; the Lipschitz bound is
    # sampled strictly inside the cap so a world-coordinate roundtrip
    # cannot flip a seam sample onto the neighbouring band's derivative
    c0_pts = region.sample("c0", sampling)
    c0_in = c0_pts[region.inside_c0(c0_pts) > 1e-9]
    # largest singular value of each Jacobian, in closed form
    j = _model_jacobians(handle, region, c0_in)
    q, d = np.sum(j * j, axis=(1, 2)), np.linalg.det(j)
    lip = float(np.max(np.sqrt(0.5 * (q + np.sqrt(np.maximum(
        q * q - 4.0 * d * d, 0.0))))))
    try:
        fp = find_cycle(handle, 1, region.to_world(_CAP0 + [0.0, -2.0]))
        q_model = region.to_model(fp.points)[0]
        sink_ok = (lip < 1.0 and fp.stability == "sink"
                   and float(region.inside_c0(q_model)[0]) > 0)
        orbit_pts = region.to_world(c0_pts)
        for _ in range(300):
            orbit_pts = handle.eval(orbit_pts)
        basin_err = float(np.max(np.linalg.norm(
            orbit_pts - fp.points[0], axis=1)))
        checks.append(Check(
            "sink_cap_contraction", verdict(sink_ok and basin_err < 1e-8),
            fp.points[0], 1.0 - lip,
            data={"fixed_point": fp.points[0], "lipschitz": lip,
                  "basin_residual": basin_err}))
    except (CycleSearchError, DivergenceError) as exc:
        checks.append(Check("sink_cap_contraction", STATUS_FAIL, None,
                            1.0 - lip, data={"error": str(exc)}))

    # saddle in the lower band with vertical unstable direction
    saddle_check = None
    seeds = region.sample("s0", 7)
    for seed in region.to_world(seeds):
        try:
            cyc = find_cycle(handle, 1, seed)
        except (CycleSearchError, DivergenceError):
            continue
        if cyc.stability != "saddle":
            continue
        qm = region.to_model(cyc.points)[0]
        if float(region.inside_s0(qm)[0]) < -1e-9:
            continue
        info = classify_cycle(handle, cyc)
        if info.unstable_vectors is None or \
                info.unstable_vectors.shape[1] != 1:
            continue
        w = region.inverse @ info.unstable_vectors[:, 0]
        ang = math.asin(min(1.0, abs(w[0]) / np.linalg.norm(w)))
        saddle_check = Check(
            "band_saddle", verdict(ang < TRANSVERSALITY_MIN_ANGLE),
            cyc.points[0], float(region.inside_s0(qm)[0]),
            data={"saddle": cyc, "unstable_angle_from_vertical": ang})
        if saddle_check.status == STATUS_PASS:
            break
    checks.append(saddle_check or Check(
        "band_saddle", STATUS_FAIL, None, 0.0,
        data={"note": "no saddle found in lower band"}))

    # contraction along horizontal leaves, expansion along vertical ones
    eps = FOLIATION_STEP
    z_in = z_pts[(region.inside_z(z_pts) > 2 * eps)]
    dh = _map_model(handle, region, z_in + [eps, 0.0]) - \
        _map_model(handle, region, z_in)
    lam_contr = float(np.max(np.linalg.norm(dh, axis=1))) / eps
    band_pts = np.vstack([region.sample("s0", sampling),
                          region.sample("s1", sampling)])
    keep = (region.inside_s0(band_pts) > 2 * eps) | \
        (region.inside_s1(band_pts) > 2 * eps)
    band_in = band_pts[keep]
    dv = _map_model(handle, region, band_in + [0.0, eps]) - \
        _map_model(handle, region, band_in)
    mu_exp = float(np.min(np.linalg.norm(dv, axis=1))) / eps
    checks.append(Check(
        "foliation_rates", verdict(0.0 < lam_contr < 1.0 < mu_exp), None,
        min(1.0 - lam_contr, mu_exp - 1.0),
        data={"lambda_contr": lam_contr, "mu_exp": mu_exp}))

    return Report(("condition", "status", "margin", "witness"), checks)


def find_saddles(handle: MapHandle, search_box, k_max: int = 1,
                 n_seeds: int = 12) -> list:
    """Multi-start Newton cycle search over a box; deduplicated cycles.

    Returns every cycle found (any stability class) whose orbit touches
    the box, sorted by period then position.  Eigen-directions come
    from dynamics.classify_cycle on the returned cycles.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    box = np.asarray(search_box, dtype=float).reshape(-1, 2)
    axes = [np.linspace(lo, hi, n_seeds) for lo, hi in box]
    grids = np.meshgrid(*axes, indexing="ij")
    seeds = np.column_stack([g.ravel() for g in grids])
    found = {}
    for k in range(1, k_max + 1):
        for seed in seeds:
            try:
                cyc = find_cycle(handle, k, seed)
            except (CycleSearchError, DivergenceError):
                continue
            pts = cyc.points
            touches = np.any(np.all((pts >= box[:, 0] - 1e-9) &
                                    (pts <= box[:, 1] + 1e-9), axis=1))
            if not touches:
                continue
            anchor = pts[np.lexsort(pts.T[::-1])][0]
            key = (cyc.period, tuple(np.round(anchor, 6)))
            found.setdefault(key, cyc)
    return [found[k] for k in sorted(found)]


def _power_eval(handle: MapHandle, pts: np.ndarray, k: int) -> np.ndarray:
    for _ in range(k):
        pts = handle.eval(pts)
    return pts


def _refine_segment(handle: MapHandle, k: int, pre: np.ndarray,
                    img: np.ndarray, tol: float, cap: int):
    """Insert preimage midpoints until image gaps are below tol."""
    for _ in range(60):
        gaps = np.linalg.norm(np.diff(img, axis=0), axis=1)
        big = np.flatnonzero(gaps > tol)
        if big.size == 0:
            return pre, img
        if len(pre) + big.size > cap:
            raise _CapReached(pre, img)
        mid_pre = 0.5 * (pre[big] + pre[big + 1])
        mid_img = _power_eval(handle, mid_pre, k)
        if not np.all(np.isfinite(mid_img)):
            raise DivergenceError("manifold refinement diverged")
        insert_at = big + 1
        pre = np.insert(pre, insert_at, mid_pre, axis=0)
        img = np.insert(img, insert_at, mid_img, axis=0)
    raise _CapReached(pre, img)


class _CapReached(Exception):
    def __init__(self, pre, img):
        self.pre = pre
        self.img = img


def unstable_manifold(handle: MapHandle, saddle: Cycle,
                      arc_budget: float = 10.0,
                      tol: float = 1e-3) -> PointCloud:
    """Trace the 1-D unstable manifold of a saddle as an ordered polyline.

    A fundamental segment of length 1e-6 along the unstable eigenvector
    is iterated under f^k (k the saddle period), inserting preimage
    midpoints wherever consecutive image points separate by more than
    tol.  Each branch stops for one of these reasons:

    * ``"arc_budget"``: it has accumulated arc_budget/2 of arclength;
      the last image is cut at its first point that reaches it, so the
      branch ends within one gap (at most tol) past arc_budget/2;
    * ``"stalled"``: the arclength added by the latest iterate is below
      tol and below what the iterate before it added, so the branch is
      collapsing onto an attractor below the refinement resolution (a
      growing branch is exempt however short, since its gain rises by
      |mu| per iterate);
    * more than 10^7 points in all raises RefinementExplosion carrying
      the partial cloud, a backstop for unbounded folding.

    meta["stop_reasons"], meta["branch_arclength"] and
    meta["branch_iterations"] are (minus, plus) pairs ordered like
    meta["branch_sizes"].
    """
    mults = np.asarray(saddle.multipliers)
    unstable_idx = np.flatnonzero(np.abs(mults) > 1.0)
    if unstable_idx.size != 1:
        raise ValueError("saddle must have exactly one unstable multiplier")
    k = saddle.period
    p = saddle.points[0]
    _, jac_prod = _iterate_with_product(handle, p, k)
    vals, vecs = np.linalg.eig(jac_prod)
    iu = int(np.argmax(np.abs(vals)))
    mu = vals[iu]
    if abs(mu.imag) > 1e-9:
        raise ValueError("unstable multiplier must be real")
    mu = float(mu.real)
    v = np.real(vecs[:, iu])
    v = v / np.linalg.norm(v)

    a = 1e-6 / (abs(mu) - 1.0)
    seg = np.linspace(a, a * abs(mu), 33)
    half = arc_budget / 2.0
    branches, stops = [], []
    total = 0
    for sign in (1.0, -1.0):
        pre = p + sign * seg[:, None] * v
        chunks = [pre.copy()]
        arc = prev_gain = 0.0
        reason = "arc_budget"
        try:
            while arc < half:
                if total + len(pre) > POINT_CAP:
                    raise _CapReached(pre, pre[:0])
                img = _power_eval(handle, pre, k)
                if not np.all(np.isfinite(img)):
                    raise DivergenceError("unstable manifold diverged")
                _, img = _refine_segment(handle, k, pre, img, tol,
                                         POINT_CAP - total)
                gaps = np.linalg.norm(np.diff(img, axis=0), axis=1)
                gain = float(np.sum(gaps))
                if arc + gain < half:
                    arc += gain
                else:  # cut the image where the branch reaches its budget
                    reach = arc + np.cumsum(gaps)
                    cut = min(int(reach.searchsorted(half)), len(gaps) - 1)
                    img, arc = img[:cut + 2], float(reach[cut])
                # img[0] duplicates the previous chunk's endpoint (both are
                # f^k of the fundamental segment's matched ends); drop it
                chunks.append(img[1:])
                total += len(img) - 1
                pre = img
                if arc < half and gain < tol and gain < prev_gain:
                    reason = "stalled"
                    break
                prev_gain = gain
        except _CapReached as cap:
            chunks.append(cap.img)
            pieces = branches + [np.vstack(chunks)]
            partial = PointCloud(np.vstack(pieces), ordered=True,
                                 meta={"saddle": p})
            raise RefinementExplosion(
                "manifold refinement exceeded the point budget", partial)
        branches.append(np.vstack(chunks))
        stops.append((reason, arc, len(chunks) - 1))
    reasons, arcs, iterations = zip(*stops[::-1])
    minus = branches[1][::-1]
    plus = branches[0]
    pts = np.vstack([minus, p[None, :], plus])
    return PointCloud(pts, ordered=True,
                      meta={"saddle": p, "multiplier": mu, "period": k,
                            "branch_sizes": (len(minus), len(plus)),
                            "stop_reasons": reasons,
                            "branch_arclength": arcs,
                            "branch_iterations": iterations,
                            "tol": tol, "arc_budget": arc_budget})


def trellis(handle: MapHandle, saddle_cycle: Cycle,
            arc_budget: float = 10.0, tol: float = 1e-3) -> PointCloud:
    """Unstable manifold of f^k at one cycle point plus its k-1 images.

    Component i is the forward image of component i-1 under f, refined
    to the same tolerance; meta["component_slices"] delimits them, and
    the manifold's branch stop telemetry is carried over.
    """
    k = saddle_cycle.period
    base = unstable_manifold(handle, saddle_cycle, arc_budget, tol)
    comps = [base.points]
    cur = base.points
    for _ in range(k - 1):
        img = handle.eval(cur)
        if not np.all(np.isfinite(img)):
            raise DivergenceError("trellis image diverged")
        try:
            cur, img = _refine_segment(handle, 1, cur, img, tol,
                                       POINT_CAP - sum(map(len, comps)))
        except _CapReached as cap:
            partial = PointCloud(np.vstack(comps + [cap.img]), ordered=True,
                                 meta={"saddle": base.meta["saddle"]})
            raise RefinementExplosion(
                "trellis refinement exceeded the point budget", partial)
        comps.append(img)
        cur = img
    slices = []
    start = 0
    for c in comps:
        slices.append((start, start + len(c)))
        start += len(c)
    pts = np.vstack(comps)
    meta = dict(base.meta)
    meta["component_slices"] = slices
    return PointCloud(pts, ordered=True, meta=meta)


# model fixture


def model_horseshoe_map(region: Optional[HorseshoeRegion] = None,
                        contraction: float = 0.2,
                        expansion: float = 4.0) -> MapHandle:
    """Piecewise map realizing the horseshoe geometry on the capsule.

    Both bands are affine (horizontal rate = contraction, vertical
    rate = expansion); the fold band maps onto nested ellipse arcs in
    the open upper cap, so the whole map is injective on H*; both caps
    land strictly inside the lower cap, which contracts onto the sink
    q = (0, -79/19).  The saddle at the origin has multipliers exactly
    (contraction, expansion).  A non-identity region conjugates the
    model by its affine frame.  Images and Jacobians come from one
    function, which evaluates a point as a block of one row.
    """
    lam, mu = float(contraction), float(expansion)
    if not 0.0 < lam < 1.0 < mu:
        raise ValueError("need 0 < contraction < 1 < expansion")
    frame = region if region is not None else HorseshoeRegion()

    bot, s0_top, fold_top, top = _BANDS
    span = fold_top - s0_top
    # band 0..4 (C0, S0, fold, S1, C1) counts the cuts below x2; the fold
    # and C1 hold their lower edge, so their cuts sit one ulp below it and
    # the bands are x2 <= bot < x2 < s0_top <= x2 <= fold_top < x2 < top <= x2
    cuts = np.array([bot, np.nextafter(s0_top, -np.inf), fold_top,
                     np.nextafter(top, -np.inf)])
    # an affine band maps q to scale * (q - origin) + const, one row per
    # band; the fold band's rows are placeholders
    scale = np.array([[lam, 0.05], [lam, mu], [0.0, 0.0], [-lam, -mu],
                      [-lam, -0.05]])
    origin = np.array([[0.0, bot], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0],
                       [0.0, top]])
    const = np.array([[0.0, -4.0], [0.0, 0.0], [0.0, 0.0], [-3.2, 32.0],
                      [-3.2, -4.0]])

    def model(x, with_jac=False):
        """World image of a point or an (n, 2) block [and Jacobian(s)]."""
        x = np.asarray(x, dtype=float)
        q = frame.to_model(np.atleast_2d(x))
        band = cuts.searchsorted(q[:, 1])
        rate = scale.take(band, axis=0)
        out = rate * (q - origin.take(band, axis=0)) + const.take(band, axis=0)
        fold = band == 2
        if any_fold := fold.any():
            x1 = q[fold, 0]
            t = (q[fold, 1] - s0_top) / span
            r_ell, h_ell = lam * x1 + 1.6, 0.2 + 0.025 * (x1 + 6.0)
            c, s = np.cos(np.pi * t), np.sin(np.pi * t)
            out[fold] = np.column_stack([-1.6 + r_ell * c,
                                         12.0 + h_ell * s])
        img = frame.to_world(out).reshape(x.shape)
        if not with_jac:
            return img
        j = np.zeros((len(q), 2, 2))
        # the diagonal; 0 * q makes an entry nan where q is not finite
        j.reshape(-1, 4)[:, ::3] = rate + 0.0 * q
        if any_fold:
            j[fold] = np.column_stack([
                lam * c, -r_ell * np.pi * s / span,
                0.025 * s, h_ell * np.pi * c / span]).reshape(-1, 2, 2)
        return img, (frame.matrix @ j @ frame.inverse).reshape(x.shape + (2,))

    params = {"contraction": lam, "expansion": mu}
    return MapHandle(spec=MapSpec("user_table", params), eval=model)


def model_strip_branches(contraction: float = 0.2):
    """Horizontal actions of the model's two expansion bands."""
    lam = float(contraction)
    return (lambda x: lam * np.asarray(x, dtype=float),
            lambda x: -lam * np.asarray(x, dtype=float) - 3.2)


def leaf_strip_intervals(depth: int, contraction: float = 0.2) -> np.ndarray:
    """x1 footprints of the 2^depth vertical strips of the iterated model.

    Every binary word is admissible because each band's image spans the
    full height of the core, so the intervals are the images of the
    core's x1 span under all depth-fold branch compositions.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    branches = model_strip_branches(contraction)
    intervals = np.array([[-6.0, 2.0]])
    for _ in range(depth):
        images = []
        for br in branches:
            img = br(intervals)
            images.append(np.sort(img, axis=1))
        intervals = np.vstack(images)
    return intervals[np.argsort(intervals[:, 0])]


def count_components(member: np.ndarray) -> int:
    """Number of runs of consecutive True entries."""
    member = np.asarray(member, dtype=bool)
    if member.size == 0:
        return 0
    starts = member & ~np.concatenate([[False], member[:-1]])
    return int(np.sum(starts))


def leaf_component_count(depth: int, x2_level: float = 1.0,
                         n_samples: int = 1 << 21,
                         contraction: float = 0.2) -> int:
    """Components of the model's depth-n region cut by a horizontal leaf.

    Samples the leaf densely across the core and counts runs of samples
    inside the iterated strip footprint.  Valid for leaf levels strictly
    inside the core's vertical extent.
    """
    if not _BANDS[0] < x2_level < _BANDS[3]:
        raise ValueError("leaf level must lie inside the core")
    intervals = leaf_strip_intervals(depth, contraction)
    xs = np.linspace(-6.0, 2.0, n_samples)
    edges = intervals.ravel()
    if np.any(np.diff(edges) < 0):
        raise RuntimeError("strip intervals overlap; cannot count")
    idx = np.searchsorted(edges, xs)
    member = (idx % 2) == 1
    return count_components(member)
