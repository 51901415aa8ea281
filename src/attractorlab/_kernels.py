"""Hot iteration kernels: orbit, norm-sum Lyapunov and QR Lyapunov.

Each built-in planar family is defined once, by the step and analytic
Jacobian in ``_family`` below, which takes the exponential as an
argument.  Built over ``math.exp`` it is the scalar definition
``_step``/``_jac``; built over ``np.exp`` it is the NumPy form
``_np_step``/``_np_jac``, which also takes column arrays.
``_make_loops`` turns the scalar definition into the three kernel loops,
and ``eval_point``/``eval_block``/``jac_point`` wrap the NumPy form as a
built-in handle's ``eval``/``eval_many``/``jac``.  Three lanes run the
kernels:

* compiled: the loops ``njit``-ed over ``njit`` versions of ``_step``
  and ``_jac``; used for built-in families when numba is importable and
  not disabled.
* scalar Python: the same loops over the plain functions, run by the
  interpreter.  Closed-form 2x2 arithmetic on floats, with no array or
  LAPACK call per step; used for built-in families whenever the
  compiled lane is not taken.
* generic: loops over a handle's NumPy callables (``eval``/``jac``),
  the only lane for user maps (``user_map``, the radial tent, the model
  horseshoe), which have no family code.

Lane selection for built-in families:

* ``ATTRACTORLAB_NO_NUMBA=1`` (or ``true``/``yes``) switches the
  compiled lane off, so built-ins run on the scalar Python lane.
* Without numba the same happens automatically.
* ``force_python=True`` on a dispatch helper selects the scalar Python
  lane for that call, so both lanes can be timed in one process (see
  ``benchmarks/bench_kernels.py``).

``math.exp`` raises ``OverflowError`` where NumPy and numba return
``inf`` (a pioneer orbit started outside its positivity cone).  A scalar
Python call that overflows is rerun on the generic lane, which for a
built-in family runs the NumPy form of the same definition, so
divergence shows up as non-finite values on every lane.
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

# family codes of the built-in families, dispatched on inside _step/_jac
FAM_GAUSS_LITERAL = 0
FAM_GAUSS = 1
FAM_PIONEER_FULL = 2
FAM_PIONEER_MIXED = 3


def _family(exp):
    """The built-in families' step and analytic Jacobian over ``exp``.

    ``step(fam, pa, pb, pc, x1, x2)`` returns the image (y1, y2) and
    ``jac`` the Jacobian entries (j11, j12, j21, j22).  With ``math.exp``
    they are the scalar definition run by the kernel loops; with
    ``np.exp`` the same code also takes column arrays for x1/x2 and
    returns ``inf`` where ``math.exp`` raises ``OverflowError``.
    """

    def step(fam, pa, pb, pc, x1, x2):
        # pa/pb/pc packing: gauss -> (a, cos(2*pi*theta), sin(2*pi*theta)),
        # pioneer -> (a, b, unused)
        if fam == FAM_GAUSS:
            w = pa * exp(-(x1 * x1 + x2 * x2))
            return w * (x1 * pb - x2 * pc), w * (x1 * pc + x2 * pb)
        if fam == FAM_GAUSS_LITERAL:
            # degenerate variant: both components share the first formula
            w = pa * exp(-(x1 * x1 + x2 * x2))
            t = x1 * pb - x2 * pc
            return w * t, w * t
        if fam == FAM_PIONEER_FULL:
            y1 = x1 * exp(pa - 0.8 * x1 - 0.2 * x2)
            y2 = x2 * (0.2 * x1 + 0.8 * x2) * exp(pb - 0.2 * x1 - 0.8 * x2)
            return y1, y2
        # FAM_PIONEER_MIXED
        y1 = x1 * exp(pa - 0.8 * x1)
        y2 = x2 * (0.2 * x1 + 0.8 * x2) * exp(pb - 0.2 * x1 - 0.8 * x2)
        return y1, y2

    def jac(fam, pa, pb, pc, x1, x2):
        if fam == FAM_GAUSS:
            w = pa * exp(-(x1 * x1 + x2 * x2))
            u1 = x1 * pb - x2 * pc
            u2 = x1 * pc + x2 * pb
            return (
                w * (pb - 2.0 * u1 * x1),
                w * (-pc - 2.0 * u1 * x2),
                w * (pc - 2.0 * u2 * x1),
                w * (pb - 2.0 * u2 * x2),
            )
        if fam == FAM_GAUSS_LITERAL:
            w = pa * exp(-(x1 * x1 + x2 * x2))
            t = x1 * pb - x2 * pc
            j11 = w * (pb - 2.0 * t * x1)
            j12 = w * (-pc - 2.0 * t * x2)
            return j11, j12, j11, j12
        if fam == FAM_PIONEER_FULL:
            e1 = exp(pa - 0.8 * x1 - 0.2 * x2)
            j11 = e1 * (1.0 - 0.8 * x1)
            j12 = -0.2 * x1 * e1
            p = 0.2 * x1 + 0.8 * x2
            e2 = exp(pb - 0.2 * x1 - 0.8 * x2)
            j21 = 0.2 * x2 * e2 * (1.0 - p)
            j22 = e2 * (p + 0.8 * x2 * (1.0 - p))
            return j11, j12, j21, j22
        # FAM_PIONEER_MIXED
        e1 = exp(pa - 0.8 * x1)
        j11 = e1 * (1.0 - 0.8 * x1)
        p = 0.2 * x1 + 0.8 * x2
        e2 = exp(pb - 0.2 * x1 - 0.8 * x2)
        j21 = 0.2 * x2 * e2 * (1.0 - p)
        j22 = e2 * (p + 0.8 * x2 * (1.0 - p))
        return j11, 0.0, j21, j22

    return step, jac


_step, _jac = _family(math.exp)
# the handle callables use np.exp: inf instead of OverflowError, so Newton
# steps that wander far out degrade gracefully
_np_step, _np_jac = _family(np.exp)


def eval_point(fam, packed, x):
    """Image of one point x, shape (2,), under built-in family ``fam``."""
    return np.array(_np_step(fam, *packed, x[0], x[1]))


def eval_block(fam, packed, pts):
    """Images of an (n, 2) block of points under built-in family ``fam``."""
    pts = np.asarray(pts, dtype=float)
    return np.column_stack(_np_step(fam, *packed, pts[:, 0], pts[:, 1]))


def jac_point(fam, packed, x):
    """Analytic (2, 2) Jacobian of built-in family ``fam`` at x."""
    j11, j12, j21, j22 = _np_jac(fam, *packed, x[0], x[1])
    return np.array([[j11, j12], [j21, j22]])


def _make_loops(step, jac):
    """The orbit, norm-sum and QR loops over one step/Jacobian definition.

    Called with the scalar ``_step``/``_jac`` for the scalar Python lane
    and with their ``njit`` versions for the compiled lane.
    """

    def orbit(fam, pa, pb, pc, x1, x2, n_transient, n_keep, out):
        for _ in range(n_transient):
            x1, x2 = step(fam, pa, pb, pc, x1, x2)
        for i in range(n_keep):
            x1, x2 = step(fam, pa, pb, pc, x1, x2)
            out[i, 0] = x1
            out[i, 1] = x2
        return out

    def norm_sum(fam, pa, pb, pc, x1, x2, n_transient, n, stride, trace):
        for _ in range(n_transient):
            x1, x2 = step(fam, pa, pb, pc, x1, x2)
        total = 0.0
        degenerate = False
        k_used = 0
        for k in range(n):
            j11, j12, j21, j22 = jac(fam, pa, pb, pc, x1, x2)
            # spectral norm (largest singular value), closed form
            q = j11 * j11 + j12 * j12 + j21 * j21 + j22 * j22
            d = j11 * j22 - j12 * j21
            nrm = math.sqrt(0.5 * (q + math.sqrt(max(q * q - 4.0 * d * d,
                                                     0.0))))
            if nrm <= 0.0:
                degenerate = True
                break
            total += math.log(nrm)
            k_used = k + 1
            if k_used % stride == 0:
                trace[k_used // stride - 1] = total / k_used
            x1, x2 = step(fam, pa, pb, pc, x1, x2)
        value = total / k_used if k_used > 0 else 0.0
        return value, k_used, degenerate

    def qr(fam, pa, pb, pc, x1, x2, n_transient, n, stride, trace):
        for _ in range(n_transient):
            x1, x2 = step(fam, pa, pb, pc, x1, x2)
        # orthonormal frame carried along the orbit, re-orthonormalized
        # each step by closed-form 2x2 Gram-Schmidt
        q11, q21 = 1.0, 0.0
        q12, q22 = 0.0, 1.0
        s1 = 0.0
        s2 = 0.0
        deg1 = False
        deg2 = False
        k_used = 0
        for k in range(n):
            j11, j12, j21, j22 = jac(fam, pa, pb, pc, x1, x2)
            v11 = j11 * q11 + j12 * q21
            v21 = j21 * q11 + j22 * q21
            v12 = j11 * q12 + j12 * q22
            v22 = j21 * q12 + j22 * q22
            r11 = math.sqrt(v11 * v11 + v21 * v21)
            if r11 == 0.0:
                deg1 = True
                deg2 = True
                break
            q11 = v11 / r11
            q21 = v21 / r11
            r12 = q11 * v12 + q21 * v22
            w1 = v12 - r12 * q11
            w2 = v22 - r12 * q21
            r22 = math.sqrt(w1 * w1 + w2 * w2)
            if r22 == 0.0:
                deg2 = True
                break
            q12 = w1 / r22
            q22 = w2 / r22
            s1 += math.log(r11)
            s2 += math.log(r22)
            k_used = k + 1
            if k_used % stride == 0:
                trace[k_used // stride - 1, 0] = s1 / k_used
                trace[k_used // stride - 1, 1] = s2 / k_used
            x1, x2 = step(fam, pa, pb, pc, x1, x2)
        e1 = s1 / k_used if k_used > 0 else 0.0
        e2 = s2 / k_used if k_used > 0 else 0.0
        return e1, e2, k_used, deg1, deg2

    return {"orbit": orbit, "norm_sum": norm_sum, "qr": qr}


_PY_LOOPS = _make_loops(_step, _jac)

if HAVE_NUMBA:
    _NB_LOOPS = {
        name: njit(cache=True)(loop)
        for name, loop in _make_loops(
            njit(cache=True)(_step), njit(cache=True)(_jac)
        ).items()
    }


def warmup():
    """Trigger JIT compilation of the compiled lane (no-op without numba)."""
    if not HAVE_NUMBA:
        return
    args = (FAM_GAUSS, 1.0, 1.0, 0.0, 0.1, 0.1, 1)
    _NB_LOOPS["orbit"](*args, 1, np.empty((1, 2)))
    _NB_LOOPS["norm_sum"](*args, 1, 1, np.empty(1))
    _NB_LOOPS["qr"](*args, 1, 1, np.empty((1, 2)))


# ---------------------------------------------------------------------------
# generic callable-based loops: the lane for user maps, and the rerun of a
# scalar Python call that overflowed


def _orbit_generic(step_fn, x0, n_transient, n_keep):
    x = np.array(x0, dtype=float)
    # overflow en route to a caught divergence is expected; the compiled
    # lane never warns, so keep the lanes observably identical
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_transient):
            x = step_fn(x)
        out = np.empty((n_keep, x.size))
        for i in range(n_keep):
            x = step_fn(x)
            out[i] = x
    return out


def _norm_sum_generic(step_fn, jac_fn, x0, n_transient, n, stride, trace):
    x = np.array(x0, dtype=float)
    total = 0.0
    degenerate = False
    k_used = 0
    # silent on overflow like _orbit_generic; callers test the result
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_transient):
            x = step_fn(x)
        for k in range(n):
            try:
                nrm = np.linalg.norm(jac_fn(x), 2)
            except np.linalg.LinAlgError:
                # the SVD rejects a non-finite Jacobian; the closed-form
                # norm of the scalar lanes gives nan there
                nrm = math.nan
            if nrm <= 0.0:
                degenerate = True
                break
            total += math.log(nrm)
            k_used = k + 1
            if k_used % stride == 0:
                trace[k_used // stride - 1] = total / k_used
            x = step_fn(x)
    value = total / k_used if k_used > 0 else 0.0
    return value, k_used, degenerate


def _qr_generic(step_fn, jac_fn, x0, n_transient, n, stride, trace):
    x = np.array(x0, dtype=float)
    m = x.size
    q = np.eye(m)
    sums = np.zeros(m)
    degenerate = np.zeros(m, dtype=bool)
    k_used = 0
    # silent on overflow like _orbit_generic; callers test the result
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_transient):
            x = step_fn(x)
        for k in range(n):
            z = jac_fn(x) @ q
            q, r = np.linalg.qr(z)
            diag = np.abs(np.diag(r))
            if np.any(diag == 0.0):
                degenerate |= diag == 0.0
                break
            sums += np.log(diag)
            k_used = k + 1
            if k_used % stride == 0:
                trace[k_used // stride - 1] = sums / k_used
            x = step_fn(x)
    vals = sums / k_used if k_used > 0 else np.zeros(m)
    return vals, k_used, degenerate


# ---------------------------------------------------------------------------
# dispatch helpers; a handle is anything exposing family_code/packed/eval/jac


def _builtin(handle):
    return getattr(handle, "family_code", -1) >= 0 and handle.spec.dim == 2


def _lane(handle, force_python):
    """True when a call on ``handle`` runs on the compiled lane."""
    return not force_python and USE_NUMBA and _builtin(handle)


def _run_scalar(kernel, handle, x0, force_python, *args):
    """Run a scalar-lane loop; None when the generic lane must run instead."""
    if not _builtin(handle):
        return None
    loops = _NB_LOOPS if _lane(handle, force_python) else _PY_LOOPS
    try:
        return loops[kernel](handle.family_code, *handle.packed,
                             float(x0[0]), float(x0[1]), *args)
    except OverflowError:
        return None  # math.exp overflowed; the generic lane yields inf


def run_orbit(handle, x0, n_transient, n_keep, force_python=False):
    out = _run_scalar("orbit", handle, x0, force_python,
                      n_transient, n_keep, np.empty((n_keep, 2)))
    if out is None:
        out = _orbit_generic(handle.eval, x0, n_transient, n_keep)
    return out


def run_norm_sum(handle, x0, n_transient, n, stride, force_python=False):
    trace = np.full(max(n // stride, 1), np.nan)
    res = _run_scalar("norm_sum", handle, x0, force_python,
                      n_transient, n, stride, trace)
    if res is None:
        trace.fill(np.nan)
        res = _norm_sum_generic(
            handle.eval, handle.jac, x0, n_transient, n, stride, trace
        )
    value, k_used, degenerate = res
    return value, k_used, degenerate, trace[: max(k_used // stride, 0)]


def run_qr(handle, x0, n_transient, n, stride, force_python=False):
    m = handle.spec.dim
    trace = np.full((max(n // stride, 1), m), np.nan)
    res = _run_scalar("qr", handle, x0, force_python,
                      n_transient, n, stride, trace)
    if res is None:
        trace.fill(np.nan)
        vals, k_used, degenerate = _qr_generic(
            handle.eval, handle.jac, x0, n_transient, n, stride, trace
        )
    else:
        e1, e2, k_used, d1, d2 = res
        vals = np.array([e1, e2])
        degenerate = np.array([d1, d2])
    return vals, k_used, degenerate, trace[: max(k_used // stride, 0)]
