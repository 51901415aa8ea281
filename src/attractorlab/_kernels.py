"""Hot iteration kernels: orbit, norm-sum Lyapunov and QR Lyapunov.

Each built-in planar family is defined once, by the orbit loop and the
tangent (image plus analytic Jacobian, sharing each exponential) in
``_family`` below, which takes the exponential as an argument.  Its two
formulas cover the four built-in maps: the literal gauss form packs the
rotation's first row twice, and pioneer-mixed a climax coupling of 0.
The loop branches on the family inside its body, so each formula is
written once and a step costs no Python call.  Built over ``math.exp``
the loop is the scalar lane's orbit; built over ``np.exp`` it is the
NumPy form ``_np_orbit``/``_np_tangent``, which also takes column arrays
and so runs many starts in lockstep.  ``builtin_eval`` wraps the NumPy
form (the loop run for one transient step) as a built-in handle's one
``eval(x, with_jac)``, over a point or a block.

Both Lyapunov estimators take their Jacobians at the points ``run_orbit``
keeps, x_{T+1} .. x_{T+n} after T transient steps, in blocks of ``_BLOCK``:
slices of those points when given n of them (``points=``), else runs of
the lane's orbit loop, each from the last point of the one before.  One
``eval(block, True)`` gives a block's Jacobians, and one NumPy reduction
per block gives its per-step log terms, summed by a ``cumsum`` seeded with
the running total, so value and trace are those of a sequential sum.
Both estimators are one ``_estimate`` over their per-step terms: the
log of the closed-form 2x2 spectral norm for norm-sum; for QR log r11 of
the carried first Gram-Schmidt column (the ``qr1`` loop) and log|det J|,
whose mean is lambda1 + lambda2.  Three lanes run the loops:

* compiled: the ``math.exp`` orbit loop and ``qr1``, ``njit``-ed; used
  for built-in families when numba is importable and not disabled.
* scalar Python: the same two loops run by the interpreter, ``qr1`` over
  Python lists; a block's Jacobians come from one ``_np_tangent`` call.
  Used for built-in families whenever the compiled lane is not taken.
* generic: the orbit over a handle's ``eval``, one call per step, the
  only lane for user maps (``user_map``, the radial tent, the model
  horseshoe), which have no family code.

Built-ins run on the scalar Python lane without numba or under
``ATTRACTORLAB_NO_NUMBA=1`` (or ``true``/``yes``).  ``force_python=True``
on a dispatch helper selects it for one call, so both lanes can be timed
in one process.

``math.exp`` raises ``OverflowError`` where NumPy and numba return
``inf`` (a pioneer orbit started outside its positivity cone).  A scalar
orbit-loop run (an orbit, or a walk's block) that overflows is rerun from
its start, in one call with the same arguments, by ``_np_orbit``, the
same loop over ``np.exp``, so divergence shows up as non-finite values on
every lane and a built-in never takes the generic lane.
"""

from __future__ import annotations

import math
import os

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAVE_NUMBA = False


_DISABLED = os.environ.get("ATTRACTORLAB_NO_NUMBA", "").strip().lower() in (
    "1",
    "true",
    "yes",
)
USE_NUMBA = HAVE_NUMBA and not _DISABLED

# family codes of the built-in families, dispatched on inside _family
FAM_GAUSS = 0
FAM_PIONEER = 1


def _family(exp):
    """The built-in families' orbit loop and tangent over ``exp``.

    ``orbit(fam, pa, pb, pc, pd, pe, x1, x2, n_transient, n_keep, out)``
    runs steps ``-n_transient .. n_keep - 1`` from (x1, x2), writes step
    ``i >= 0`` to row ``i`` of ``out`` and returns the final point; run
    for one transient step it is the one-step image.  ``tangent`` returns
    the image and the Jacobian entries (y1, y2, j11, j12, j21, j22), bit
    for bit the same image as a step of ``orbit``.  With ``math.exp`` they
    are the scalar definition run by the kernel loops; with ``np.exp`` the
    same code also takes column arrays for x1/x2 (and rows of ``out`` of
    their shape) and returns ``inf`` where ``math.exp`` raises
    ``OverflowError``.
    """

    def orbit(fam, pa, pb, pc, pd, pe, x1, x2, n_transient, n_keep, out):
        # packing: gauss -> (a, M by rows), the image a * exp(-|x|^2) * M x;
        # pioneer -> (a, b, c, 0, 0), c the climax coupling of the first exp
        if n_keep > 0:  # the one-step form makes no views
            col1, col2 = out[:, 0], out[:, 1]
        for i in range(-n_transient, n_keep):
            if fam == FAM_GAUSS:
                w = pa * exp(-(x1 * x1 + x2 * x2))
                x1, x2 = w * (x1 * pb + x2 * pc), w * (x1 * pd + x2 * pe)
            else:
                x1, x2 = (x1 * exp(pa - 0.8 * x1 - pc * x2),
                          x2 * (0.2 * x1 + 0.8 * x2)
                          * exp(pb - 0.2 * x1 - 0.8 * x2))
            if i >= 0:
                col1[i] = x1
                col2[i] = x2
        return x1, x2

    def tangent(fam, pa, pb, pc, pd, pe, x1, x2):
        # one exp per factor serves both the image and the Jacobian; the
        # image is computed by the same operations as a step of ``orbit``
        if fam == FAM_GAUSS:
            # J = w * (M - 2 u x^T), u = M x
            w = pa * exp(-(x1 * x1 + x2 * x2))
            u1 = x1 * pb + x2 * pc
            u2 = x1 * pd + x2 * pe
            return (w * u1, w * u2,
                    w * (pb - 2.0 * u1 * x1), w * (pc - 2.0 * u1 * x2),
                    w * (pd - 2.0 * u2 * x1), w * (pe - 2.0 * u2 * x2))
        e1 = exp(pa - 0.8 * x1 - pc * x2)
        p = 0.2 * x1 + 0.8 * x2
        e2 = exp(pb - 0.2 * x1 - 0.8 * x2)
        return (x1 * e1, x2 * p * e2,
                e1 * (1.0 - 0.8 * x1), -pc * x1 * e1,
                0.2 * x2 * e2 * (1.0 - p), e2 * (p + 0.8 * x2 * (1.0 - p)))

    return orbit, tangent


# the handle callables use np.exp: inf instead of OverflowError, so Newton
# steps that wander far out degrade gracefully, without RuntimeWarnings
_np_orbit, _np_tangent = map(np.errstate(over="ignore", invalid="ignore"),
                             _family(np.exp))


def builtin_eval(fam, packed, x, with_jac=False):
    """Image of a (2,) point or an (n, 2) block under family ``fam``, and
    with ``with_jac`` the Jacobian(s) too, from the same evaluation."""
    x = np.asarray(x)
    if x.ndim == 1:
        # Python floats: a point costs no per-entry array operation, and
        # float arithmetic rounds as NumPy's does
        x1, x2 = x.tolist()
        if not with_jac:
            return np.array(_np_orbit(fam, *packed, x1, x2, 1, 0, None))
        y1, y2, j11, j12, j21, j22 = _np_tangent(fam, *packed, x1, x2)
        return np.array([y1, y2]), np.array([[j11, j12], [j21, j22]])
    if not with_jac:
        return np.column_stack(_np_orbit(fam, *packed, x[:, 0], x[:, 1], 1, 0,
                                         None))
    y1, y2, *entries = _np_tangent(fam, *packed, x[:, 0], x[:, 1])
    jac = np.empty((len(x), 2, 2))
    jac[:, 0, 0], jac[:, 0, 1], jac[:, 1, 0], jac[:, 1, 1] = entries
    return np.column_stack([y1, y2]), jac


# points per block of the Lyapunov walk: memory stays O(_BLOCK) at any n
_BLOCK = 2048


def _qr1(j11, j12, j21, j22, q1, q2, r):
    # the first Gram-Schmidt column (q1, q2) carried over a block of
    # Jacobians: r[k] = |J_k q|, q <- J_k q / r[k]; stops at r[k] == 0
    for k in range(len(r)):
        v1 = j11[k] * q1 + j12[k] * q2
        v2 = j21[k] * q1 + j22[k] * q2
        rk = math.sqrt(v1 * v1 + v2 * v2)
        r[k] = rk
        if rk == 0.0:
            break
        q1 = v1 / rk
        q2 = v2 / rk
    return q1, q2


_PY_LOOPS = {"orbit": _family(math.exp)[0], "qr1": _qr1}

if HAVE_NUMBA:
    _NB_LOOPS = {name: njit(cache=True)(loop)
                 for name, loop in _PY_LOOPS.items()}


def warmup():
    """Trigger JIT compilation of the compiled lane (no-op without numba)."""
    if not HAVE_NUMBA:
        return
    # the walk's layouts: a C array and the entry rows of a (n, 2, 2)
    _NB_LOOPS["orbit"](FAM_GAUSS, 1.0, 1.0, 0.0, 0.0, 1.0, 0.1, 0.1, 1, 1,
                       np.empty((1, 2)))
    _NB_LOOPS["qr1"](*np.zeros((1, 2, 2)).reshape(-1, 4).T, 1.0, 0.0,
                     np.zeros(1))


def row_norms(v):
    """Euclidean length of each row of an (..., 2) array, sqrt(x*x + y*y):
    the operations of ``np.linalg.norm(v, axis=-1)``, so the same bits,
    without its general reduction."""
    x, y = v[..., 0], v[..., 1]
    return np.sqrt(x * x + y * y)


def spectral_norm2(jac):
    """Largest singular value of each matrix of an (n, 2, 2) block, in
    closed form from its squared Frobenius norm q and determinant d."""
    j11, j12, j21, j22 = jac.reshape(-1, 4).T
    q = j11 * j11 + j12 * j12 + j21 * j21 + j22 * j22
    d = j11 * j22 - j12 * j21
    return np.sqrt(0.5 * (q + np.sqrt(np.maximum(q * q - 4.0 * d * d, 0.0))))


# per-step terms: for each block, (log terms, zero flags), both (nb, c);
# the walk stops before the first step whose column-0 flag is set


def _norm_terms(blocks, loops):
    for jac in blocks:
        nrm = spectral_norm2(jac)
        yield np.log(nrm)[:, None], (nrm <= 0.0)[:, None]


def _qr_terms(blocks, loops):
    # log r11 from the carried first column, and log|det J|, whose
    # running mean is lambda1 + lambda2 (r11 * r22 = |det J|); det == 0
    # makes lambda2 -inf
    q1, q2 = 1.0, 0.0
    # the scalar loop runs fastest over Python floats
    feed = np.ndarray.tolist if loops is _PY_LOOPS else np.asarray
    for jac in blocks:
        j = jac.reshape(-1, 4).T
        r = feed(np.zeros(len(jac)))
        q1, q2 = loops["qr1"](*feed(j), q1, q2, r)
        terms = np.column_stack([r, np.abs(j[0] * j[3] - j[1] * j[2])])
        yield np.log(terms), terms == 0.0


def _accumulate(terms, stride, trace):
    """Sequential running sums of the walk's terms.

    Writes every ``stride``-th running mean into ``trace`` and returns the
    sums, the number of steps used and the per-column flags of the used
    steps and the stopping one.
    """
    sums = np.zeros(trace.shape[1])
    degenerate = np.zeros(trace.shape[1], dtype=bool)
    k_used = 0
    for logs, zero in terms:
        stop = np.flatnonzero(zero[:, 0])
        nb = stop[0] if stop.size else len(logs)
        degenerate |= zero[:nb + 1].any(axis=0)
        if nb:
            logs = logs[:nb]
            logs[0] += sums
            np.cumsum(logs, axis=0, out=logs)
            rows = np.arange(-(k_used + 1) % stride, nb, stride)
            ks = k_used + 1 + rows
            trace[ks // stride - 1] = logs[rows] / ks[:, None]
            sums = logs[-1]
            k_used += int(nb)
        if stop.size:
            break
    return sums, k_used, degenerate


# ---------------------------------------------------------------------------
# dispatch helpers; a handle is anything exposing family_code/packed/eval


def _builtin(handle):
    return getattr(handle, "family_code", -1) >= 0


def _lane(handle, force_python):
    """True when a call on ``handle`` runs on the compiled lane."""
    return not force_python and USE_NUMBA and _builtin(handle)


def _loops(handle, force_python):
    return _NB_LOOPS if _lane(handle, force_python) else _PY_LOOPS


def _orbit(handle, x0, n_transient, n_keep, force_python):
    out = np.empty((n_keep, 2))
    if _builtin(handle):
        args = (handle.family_code, *handle.packed, float(x0[0]),
                float(x0[1]), n_transient, n_keep, out)
        try:
            _loops(handle, force_python)["orbit"](*args)
        except OverflowError:
            _np_orbit(*args)  # math.exp overflowed; np.exp yields inf
        return out
    x = np.array(x0, dtype=float)
    # overflow en route to a caught divergence is expected; the compiled
    # lane never warns, so keep the lanes observably identical
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_transient):
            x = handle.eval(x)
        for i in range(n_keep):
            x = out[i] = handle.eval(x)
    return out


def run_orbit(handle, x0, n_transient, n_keep, force_python=False):
    return _orbit(handle, x0, n_transient, n_keep, force_python)


def _estimate(terms, width, handle, x0, n_transient, n, stride, force_python,
              points):
    # the means of the walk's width log terms, the steps used, the
    # per-column zero flags and the (k_used // stride, width) trace
    cloud = points[:n] if points is not None and len(points) >= n else None

    def blocks(x):
        # Jacobians at x_{T+1} .. x_{T+n}: slices of the orbit's cloud, or
        # orbit-loop runs, each from the last point of the one before
        for k in range(0, n, _BLOCK):
            if cloud is None:
                block = _orbit(handle, x, 0 if k else n_transient,
                               min(_BLOCK, n - k), force_python)
                x = block[-1]
            else:
                block = cloud[k:k + _BLOCK]
            yield handle.eval(block, True)[1]

    trace = np.full((max(n // stride, 1), width), np.nan)
    # silent on overflow and log(0) like every lane; callers test the result
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sums, k_used, degenerate = _accumulate(
            terms(blocks(x0), _loops(handle, force_python)), stride, trace)
        means = sums / k_used if k_used > 0 else np.zeros(width)
    return means, k_used, degenerate, trace[:k_used // stride]


def run_norm_sum(handle, x0, n_transient, n, stride, force_python=False,
                 points=None):
    return _estimate(_norm_terms, 1, handle, x0, n_transient, n, stride,
                     force_python, points)


def run_qr(handle, x0, n_transient, n, stride, force_python=False,
           points=None):
    means, k_used, degenerate, trace = _estimate(
        _qr_terms, 2, handle, x0, n_transient, n, stride, force_python,
        points)
    # the det column holds lambda1 + lambda2
    means[1] -= means[0]
    trace[:, 1] -= trace[:, 0]
    return means, k_used, degenerate, trace
