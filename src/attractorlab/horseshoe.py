"""Attracting-horseshoe verification, saddle search, and manifold tracing.

The model region H* is a radius-4 capsule around the segment from
(-2, -1) to (-2, 9): a rectangular core Z* (two expansion bands S0*,
S1* around a fold band S1/2*) with half-disk caps C0* below and C1*
above, each piece's box written once in one table.  An affine frame
carries the model into the plane.  verify_ah samples the defining
conditions of an attracting horseshoe on that geometry: the region
maps into its own interior, both caps and the fold band land in the
proper caps, pushed-forward vertical leaves stay transverse to
horizontal ones inside the core, the lower cap is a contracting sink
region, a saddle with vertical unstable direction sits in the lower
band, and the foliation contraction/expansion rates bracket 1.  Every
rate it checks is read from the map's Jacobian.

The built-in model map realizes all of it with exact rates (0.2, 4);
its fold sends the middle band onto a family of nested ellipse arcs
inside the top cap, which keeps the map injective through the fold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _kernels
from .maps import MapHandle, MapSpec
from .dynamics import (Cycle, DivergenceError, CycleSearchError, PointCloud,
                       RefinementExplosion, find_cycle)
from .hypotheses import (STATUS_FAIL, STATUS_INCONCLUSIVE, STATUS_PASS, Check,
                         Report, verdict)

TRANSVERSALITY_MIN_ANGLE = 1e-2     # radians
POINT_CAP = 10_000_000
_IMAGE_BLOCK = 4096                # rows imaged per call in manifold growth

_CAP0 = np.array([-2.0, -1.0])
_CAP1 = np.array([-2.0, 9.0])
_RADIUS = 4.0
_BANDS = (-1.0, 3.0, 5.0, 9.0)      # S0 / fold / S1 limits in x2

# the x1 span every piece of H* shares, and each piece's x2 span
_X1 = (_CAP0[0] - _RADIUS, _CAP0[0] + _RADIUS)
_PIECES = {"h": (_CAP0[1] - _RADIUS, _CAP1[1] + _RADIUS), "z": _BANDS[::3],
           "c0": (_CAP0[1] - _RADIUS, _CAP0[1]),
           "c1": (_CAP1[1], _CAP1[1] + _RADIUS),
           "s0": _BANDS[0:2], "s_half": _BANDS[1:3], "s1": _BANDS[2:4]}


def _span(piece: str) -> tuple:
    if piece not in _PIECES:
        raise ValueError(f"unknown piece {piece!r}")
    return _PIECES[piece]


def _affine(m: np.ndarray, pts) -> np.ndarray:
    """``pts @ m.T`` for a (2,) point or an (n, 2) block, in elementwise
    arithmetic: a BLAS matmul rounds differently by block length, and a
    point must map as its row in any block does."""
    p = np.asarray(pts, dtype=float)
    return p[..., :1] * m[:, 0] + p[..., 1:] * m[:, 1]


@dataclass(frozen=True)
class HorseshoeRegion:
    """Affine frame carrying H* and its pieces into the plane."""
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

    def inside(self, piece: str, q) -> np.ndarray:
        """Signed distance of model points q inside a piece of H*: "h",
        "z" (Z*), the caps "c0", "c1" or the bands "s0", "s_half", "s1"."""
        lo, hi = _span(piece)
        q = np.atleast_2d(q)
        if piece == "h":
            axis = np.column_stack([np.full(len(q), _CAP0[0]),
                                    np.clip(q[:, 1], _CAP0[1], _CAP1[1])])
            return _RADIUS - _kernels.row_norms(q - axis)
        if piece == "c0":
            return np.minimum(_RADIUS - _kernels.row_norms(q - _CAP0),
                              hi - q[:, 1])
        if piece == "c1":
            return np.minimum(_RADIUS - _kernels.row_norms(q - _CAP1),
                              q[:, 1] - lo)
        return np.minimum.reduce([_RADIUS - np.abs(q[:, 0] - _CAP0[0]),
                                  q[:, 1] - lo, hi - q[:, 1]])

    def sample(self, piece: str, n: int, boundary: bool = False):
        """Model-coordinate grid sample of one piece of H*, on its box.

        boundary=True appends points on the capsule boundary (only
        meaningful for piece='h').
        """
        lo, hi = _span(piece)
        g1, g2 = np.meshgrid(np.linspace(*_X1, n), np.linspace(lo, hi, n),
                             indexing="ij")
        pts = np.column_stack([g1.ravel(), g2.ravel()])
        pts = pts[self.inside(piece, pts) >= 0.0]
        if boundary:
            t = np.linspace(0.0, 1.0, 4 * n)
            ang = np.pi * t
            bottom = _CAP0 + _RADIUS * np.column_stack([np.cos(ang + np.pi),
                                                        -np.sin(ang)])
            top = _CAP1 + _RADIUS * np.column_stack([np.cos(ang),
                                                     np.sin(ang)])
            wall_y = _BANDS[0] + (_BANDS[3] - _BANDS[0]) * t
            walls = [np.column_stack([np.full_like(wall_y, x), wall_y])
                     for x in _X1]
            pts = np.vstack([pts, bottom, top, *walls])
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
    worst-case witness (world coordinates); nothing raises.  Every rate
    comes from the handle's Jacobian: the sink cap's Lipschitz bound and
    the foliation rates at samples strictly inside their piece, and
    transversality at samples whose image lands back in the core Z, where
    the horizontal foliation lives; with no such sample it is inconclusive.
    """
    checks = []
    h_pts = region.sample("h", sampling, boundary=True)
    h_img = _map_model(handle, region, h_pts)

    # injectivity: identical images from separated preimages
    order = np.lexsort((h_img[:, 1], h_img[:, 0]))
    si, sp = h_img[order], h_pts[order]
    img_gap = _kernels.row_norms(np.diff(si, axis=0))
    pre_far = _kernels.row_norms(np.diff(sp, axis=0)) > 1e-4
    bad = (img_gap < 1e-7) & pre_far
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        checks.append(Check("injectivity", STATUS_FAIL,
                            region.to_world(sp[i]), 0.0,
                            data={"collides_with": region.to_world(sp[i + 1])}))
    else:
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
    lands_inside("region_into_interior", h_pts, region.inside("h", h_img))
    cap_pts = np.vstack([region.sample("c0", sampling),
                         region.sample("c1", sampling)])
    lands_inside("caps_into_sink_cap", cap_pts,
                 region.inside("c0", _map_model(handle, region, cap_pts)))
    fold_pts = region.sample("s_half", sampling)
    lands_inside("fold_band_into_top_cap", fold_pts,
                 region.inside("c1", _map_model(handle, region, fold_pts)))

    # transversality of pushed vertical leaves, where images stay in Z
    z_pts = region.sample("z", sampling)
    z_img = _map_model(handle, region, z_pts)
    active = region.inside("z", z_img) >= 0.0
    if not np.any(active):
        checks.append(Check("vertical_transversality", STATUS_INCONCLUSIVE,
                            None, 0.0,
                            data={"note": "no sample maps back into Z"}))
    else:
        q = z_pts[active]
        # the images v of e2; where v = 0 the angle is 0
        v = _model_jacobians(handle, region, q)[:, :, 1]
        nv = _kernels.row_norms(v)
        ang = np.arcsin(np.minimum(1.0, np.abs(v[:, 1]) /
                                   np.where(nv == 0.0, 1.0, nv)))
        i = int(np.argmin(ang))
        worst = float(ang[i])
        checks.append(Check(
            "vertical_transversality",
            verdict(worst > TRANSVERSALITY_MIN_ANGLE), region.to_world(q[i]),
            worst - TRANSVERSALITY_MIN_ANGLE, data={"min_angle": worst}))

    # lower cap contracts onto an interior sink; the Lipschitz bound is
    # sampled strictly inside the cap, off the seam with the lower band
    c0_pts = region.sample("c0", sampling)
    c0_in = c0_pts[region.inside("c0", c0_pts) > 1e-9]
    if len(c0_in) == 0:
        checks.append(Check(
            "sink_cap_contraction", STATUS_INCONCLUSIVE, None, 0.0,
            data={"note": "no sample strictly inside C0"}))
    else:
        lip = float(np.max(_kernels.spectral_norm2(
            _model_jacobians(handle, region, c0_in))))
        try:
            fp = find_cycle(handle, 1, region.to_world(_CAP0 + [0.0, -2.0]))
            sink_ok = (lip < 1.0 and fp.stability == "sink" and float(
                region.inside("c0", region.to_model(fp.points))[0]) > 0)
            # push the cap samples until all are within 1e-8 of the sink,
            # or 300 steps; escaping samples overflow quietly to inf or nan
            orbit_pts = region.to_world(c0_pts)
            with np.errstate(over="ignore", invalid="ignore"):
                for _ in range(300):
                    orbit_pts = handle.eval(orbit_pts)
                    basin_err = float(np.max(_kernels.row_norms(
                        orbit_pts - fp.points[0])))
                    if basin_err < 1e-8:
                        break
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
    for seed in region.to_world(region.sample("s0", 7)):
        try:
            cyc = find_cycle(handle, 1, seed)
        except (CycleSearchError, DivergenceError):
            continue
        if cyc.stability != "saddle":
            continue
        qm = region.to_model(cyc.points)[0]
        if float(region.inside("s0", qm)[0]) < -1e-9:
            continue
        # a saddle of the plane has one real unstable multiplier
        w = region.inverse @ cyc.vectors[:, np.abs(cyc.multipliers) > 1][:, 0]
        ang = math.asin(min(1.0, abs(w[0]) / np.linalg.norm(w)))
        saddle_check = Check(
            "band_saddle", verdict(ang < TRANSVERSALITY_MIN_ANGLE),
            cyc.points[0], float(region.inside("s0", qm)[0]),
            data={"saddle": cyc, "unstable_angle_from_vertical": ang})
        if saddle_check.status == STATUS_PASS:
            break
    checks.append(saddle_check or Check(
        "band_saddle", STATUS_FAIL, None, 0.0,
        data={"note": "no saddle found in lower band"}))

    # contraction along horizontal leaves, expansion along vertical ones
    z_in = z_pts[region.inside("z", z_pts) > 0.0]
    band_pts = np.vstack([region.sample("s0", sampling),
                          region.sample("s1", sampling)])
    band_in = band_pts[(region.inside("s0", band_pts) > 0.0) |
                       (region.inside("s1", band_pts) > 0.0)]
    if len(z_in) == 0 or len(band_in) == 0:
        checks.append(Check(
            "foliation_rates", STATUS_INCONCLUSIVE, None, 0.0,
            data={"note": "no sample strictly inside Z or a band"}))
    else:
        lam_contr = float(np.max(_kernels.row_norms(
            _model_jacobians(handle, region, z_in)[:, :, 0])))
        mu_exp = float(np.min(_kernels.row_norms(
            _model_jacobians(handle, region, band_in)[:, :, 1])))
        checks.append(Check(
            "foliation_rates", verdict(0.0 < lam_contr < 1.0 < mu_exp), None,
            min(1.0 - lam_contr, mu_exp - 1.0),
            data={"lambda_contr": lam_contr, "mu_exp": mu_exp}))

    return Report(("condition", "status", "margin", "witness"), checks)


def find_saddles(handle: MapHandle, search_box, k_max: int = 1,
                 n_seeds: int = 12) -> list:
    """Multi-start Newton cycle search over a box; deduplicated cycles.

    Returns every cycle found (any stability class) whose orbit touches
    the box, sorted by period then position, each with its
    eigen-directions in ``Cycle.vectors``.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    box = np.asarray(search_box, dtype=float)
    if box.shape != (2, 2):
        raise ValueError(f"search box must have shape (2, 2), got {box.shape}")
    g1, g2 = np.meshgrid(*np.linspace(box[:, 0], box[:, 1], n_seeds).T,
                         indexing="ij")
    seeds = np.column_stack([g1.ravel(), g2.ravel()])
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
            # one key for last-bit copies of an orbit; + 0.0 folds -0 into 0
            pts = np.round(pts, 6) + 0.0
            key = (cyc.period, tuple(pts[np.lexsort(pts.T[::-1])][0]))
            found.setdefault(key, cyc)
    return [found[k] for k in sorted(found)]


def _power_eval(handle: MapHandle, pts: np.ndarray, k: int) -> np.ndarray:
    for _ in range(k):
        pts = handle.eval(pts)
    return pts


def _rows(a: np.ndarray) -> np.ndarray:
    """An (n, 2) float array as n complex128 rows, so that a gather or a
    scatter moves whole rows; a view of a C-contiguous array."""
    return np.ascontiguousarray(a, dtype=float).view(np.complex128).ravel()


def _merge_rows(old, at_old, new, at_new) -> np.ndarray:
    """A fresh array with old's rows at rows at_old and new's at at_new."""
    out = np.empty((len(old) + len(new), 2))
    _rows(out)[at_old] = _rows(old)
    _rows(out)[at_new] = _rows(new)
    return out


def _refine_segment(handle: MapHandle, k: int, pre: np.ndarray,
                    img: np.ndarray, gaps: np.ndarray, tol: float,
                    kept: int):
    """Cut each image gap above tol (gaps, as given) into ceil(gap / tol)
    equal preimage steps, round by round, until no image gap is above tol;
    returns the refined image and its gaps.  The one count against
    POINT_CAP: with kept points already in the curve, an image that would
    pass POINT_CAP - kept rows raises _CapReached, cut to those rows."""
    room = POINT_CAP - kept
    for _ in range(60):
        big = np.flatnonzero(gaps > tol)
        parts = np.ceil(gaps[big] / tol)
        if len(img) + np.sum(parts - 1.0) > room:
            break
        if big.size == 0:
            return img, gaps
        pre, img = _cut_gaps(handle, k, pre, img, big, parts)
        gaps = _kernels.row_norms(np.diff(img, axis=0))
    raise _CapReached(img[:room])


def _cut_gaps(handle: MapHandle, k: int, pre: np.ndarray, img: np.ndarray,
              big: np.ndarray, parts: np.ndarray):
    """One round: parts - 1 new points in each gap big, at j / parts of
    its preimage gap, j = 1 .. parts - 1.  Each row is placed once: new
    point i goes after row at[i], behind the i new points before it, and
    old row r moves down by the new points of the gaps before it; one
    scatter of whole rows each fills the fresh arrays."""
    new = parts.astype(np.int64) - 1
    at = np.repeat(big, new)
    dest = np.arange(1, len(at) + 1)
    t = (dest - np.repeat(np.cumsum(new) - new, new)) / np.repeat(parts, new)
    dest += at
    lo, cut = (_rows(pre)[j].view(float).reshape(-1, 2) for j in (at, at + 1))
    cut -= lo  # lo + t * (hi - lo), in place
    cut *= t[:, None]
    cut += lo
    del lo, at, t  # the largest temporaries go before the arrays grow
    cut_img = _power_eval(handle, cut, k)
    if not np.all(np.isfinite(cut_img)):
        raise DivergenceError("manifold refinement diverged")
    place = np.zeros(len(pre), dtype=np.int64)
    place[big + 1] = new
    place = np.cumsum(place, out=place) + np.arange(len(pre))
    pre = _merge_rows(pre, place, cut, dest)
    del cut
    return pre, _merge_rows(img, place, cut_img, dest)


class _CapReached(Exception):
    def __init__(self, img):
        self.img = img


def _image_to_budget(handle: MapHandle, m: int, pre: np.ndarray, arc: float,
                     half: float):
    """f^m of pre, imaged _IMAGE_BLOCK rows at a time, only until the
    running arclength arc + the sum of the image's gaps reaches half, and
    one gap past it: a refined gap is never shorter than its chord, and
    each gap refines on its own.  Returns that image and its gaps.  The
    sum is one cumsum seeded block by block, so its bits are those of a
    cumsum over the whole image."""
    img = np.empty_like(pre)
    gaps = []  # each block's, before the seeded sum
    run = 0.0
    for s in range(0, len(pre), _IMAGE_BLOCK):
        block = img[s:s + _IMAGE_BLOCK]
        block[:] = _power_eval(handle, pre[s:s + _IMAGE_BLOCK], m)
        if not np.all(np.isfinite(block)):
            raise DivergenceError("unstable manifold diverged")
        first = max(s - 1, 0)  # the gap into the block, after the first
        gaps.append(_kernels.row_norms(np.diff(img[first:s + len(block)],
                                               axis=0)))
        g = gaps[-1].copy()
        g[0] += run
        reach = arc + np.cumsum(g, out=g)
        run = g[-1]
        if reach[-1] >= half:
            end = first + int(reach.searchsorted(half)) + 1
            return img[:end + 1], np.concatenate(gaps)[:end]
    return img, np.concatenate(gaps)


def _polyline(minus: list, p: np.ndarray, plus: list) -> np.ndarray:
    """The branches' chunks, each from the saddle outward, as one polyline
    in one copy: the minus branch reversed, the saddle, the plus branch."""
    return np.concatenate([c[::-1] for c in minus[::-1]] + [p[None, :]] +
                          plus)


def unstable_manifold(handle: MapHandle, saddle: Cycle,
                      arc_budget: float = 10.0,
                      tol: float = 1e-3) -> PointCloud:
    """Trace the 1-D unstable manifold of a saddle as an ordered polyline.

    A fundamental segment, from a point on the unstable eigenvector to
    its image, about 1e-6 long, is iterated under f^k (k the saddle
    period), or under f^2k when the unstable multiplier mu is negative,
    since each f^k image lands on the other side of the saddle; each
    image starts where the one before it ends.  Wherever consecutive
    image points separate by more than tol, the preimage gap is cut into
    equal steps.  Only the part of an iterate that the arc budget keeps
    is imaged and refined.  Each branch stops for one of these reasons:

    * ``"arc_budget"``: it has accumulated arc_budget/2 of arclength;
      the last image is cut at its first point that reaches it, so the
      branch ends within one gap (at most tol) past arc_budget/2;
    * ``"stalled"``: the arclength added by the latest iterate is below
      tol and below what the iterate before it added, so the branch is
      collapsing onto an attractor below the refinement resolution (a
      growing branch is exempt however short, since its gain rises by
      |mu| per iterate);
    * more than POINT_CAP = 10^7 points in all, the saddle and the
      fundamental segments included, raises RefinementExplosion, a
      backstop for unbounded folding.  Its partial cloud holds at most
      POINT_CAP points, laid out like the polyline (minus reversed,
      saddle, plus); the capped branch ends in its last iterate as far as
      refinement got, whose gaps may still exceed tol.

    meta["stop_reasons"], meta["branch_arclength"] and
    meta["branch_iterations"] (iterations of f^k, or of f^2k when
    mu < 0) are (minus, plus) pairs ordered like meta["branch_sizes"];
    meta["period"] and meta["multiplier"] are the saddle's k and mu.
    """
    mults = np.asarray(saddle.multipliers)
    unstable_idx = np.flatnonzero(np.abs(mults) > 1.0)
    if unstable_idx.size != 1:
        raise ValueError("saddle must have exactly one unstable multiplier")
    k = saddle.period
    p = saddle.points[0]
    mu = mults[unstable_idx[0]]
    if abs(mu.imag) > 1e-9:
        raise ValueError("unstable multiplier must be real")
    mu = float(mu.real)
    v = np.real(saddle.vectors[:, unstable_idx[0]])
    v = v / np.linalg.norm(v)

    # the branch grows under f^m, whose multiplier lam is positive
    m, lam = (k, mu) if mu > 0.0 else (2 * k, mu * mu)
    a = 1e-6 / (lam - 1.0)
    half = arc_budget / 2.0
    # each branch is a list of chunks, the saddle's side first
    plus, minus, stops = [], [], []
    total = 1  # the points of the polyline so far, the saddle first
    for sign, chunks in ((1.0, plus), (-1.0, minus)):
        # the fundamental segment ends at f^m of its start, so each image
        # starts exactly where the image before it ends
        start = (p + sign * a * v)[None, :]
        pre = np.linspace(start[0], _power_eval(handle, start, m)[0], 33)
        chunks.append(pre)
        total += len(pre)
        arc = prev_gain = 0.0
        reason = "arc_budget"
        try:
            while arc < half:
                img, gaps = _image_to_budget(handle, m, pre, arc, half)
                # img[0] is the previous chunk's endpoint, counted already
                img, gaps = _refine_segment(handle, m, pre[:len(img)], img,
                                            gaps, tol, total - 1)
                gain = float(np.sum(gaps))
                if arc + gain < half:
                    arc += gain
                else:  # cut the image where the branch reaches its budget
                    reach = arc + np.cumsum(gaps)
                    cut = min(int(reach.searchsorted(half)), len(gaps) - 1)
                    img, arc = img[:cut + 2], float(reach[cut])
                # img[0] is the previous chunk's endpoint; drop it
                chunks.append(img[1:])
                total += len(img) - 1
                pre = img
                if arc < half and gain < tol and gain < prev_gain:
                    reason = "stalled"
                    break
                prev_gain = gain
        except _CapReached as cap:
            chunks.append(cap.img[1:])
            partial = PointCloud(_polyline(minus, p, plus), ordered=True,
                                 meta={"saddle": p})
            raise RefinementExplosion(
                "manifold refinement exceeded the point budget", partial)
        stops.append((reason, arc, len(chunks) - 1))
    reasons, arcs, iterations = zip(*stops[::-1])
    return PointCloud(_polyline(minus, p, plus), ordered=True,
                      meta={"saddle": p, "multiplier": mu, "period": k,
                            "branch_sizes": (sum(map(len, minus)),
                                             sum(map(len, plus))),
                            "stop_reasons": reasons,
                            "branch_arclength": arcs,
                            "branch_iterations": iterations,
                            "tol": tol, "arc_budget": arc_budget})


def trellis(handle: MapHandle, saddle_cycle: Cycle,
            arc_budget: float = 10.0, tol: float = 1e-3) -> PointCloud:
    """Unstable manifold of f^k at one cycle point plus its k-1 images.

    Component i is the forward image of component i-1 under f, refined
    to the same tolerance; meta["component_slices"] delimits them, and
    the manifold's branch stop telemetry is carried over.  At k = 1 the
    points are the manifold's own array.
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
            cur, _ = _refine_segment(
                handle, 1, cur, img, _kernels.row_norms(np.diff(img, axis=0)),
                tol, sum(map(len, comps)))
        except _CapReached as cap:
            partial = PointCloud(np.vstack(comps + [cap.img]), ordered=True,
                                 meta={"saddle": base.meta["saddle"]})
            raise RefinementExplosion(
                "trellis refinement exceeded the point budget", partial)
        comps.append(cur)
    ends = np.cumsum([len(c) for c in comps]).tolist()
    meta = dict(base.meta, component_slices=list(zip([0] + ends, ends)))
    return PointCloud(np.concatenate(comps) if k > 1 else base.points,
                      ordered=True, meta=meta)


# model fixture


def model_horseshoe_map(region: Optional[HorseshoeRegion] = None,
                        contraction: float = 0.2,
                        expansion: float = 4.0) -> MapHandle:
    """Piecewise map realizing the horseshoe geometry on the capsule.

    Both bands are affine (horizontal rate = contraction, vertical
    rate = expansion); the fold band maps onto nested ellipse arcs in
    the open upper cap.  The bands' images, x1 in c·[-6, 2] and in
    -3.2 + c·[-2, 6] for contraction c, are disjoint as c < 4/15 is
    required, so the whole map is injective on H*; both caps land
    strictly inside the lower cap, which contracts onto the sink
    q = (0, -79/19).  The saddle at the origin has multipliers exactly
    (contraction, expansion).  A non-identity region conjugates the
    model by its affine frame.  Images and Jacobians come from one
    function, which evaluates a point as a block of one row.
    """
    lam, mu = float(contraction), float(expansion)
    if not (0.0 < lam < 4 / 15 and mu > 1.0):
        raise ValueError("need 0 < contraction < 4/15 and expansion > 1")
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
