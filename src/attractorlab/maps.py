"""Planar map families and their derivatives.

The toolkit studies discrete dynamical systems x_{k+1} = f(x_k) generated by
maps whose norm decays to zero far from the origin, so that a bounded ball
absorbs every orbit after one step.  Three closed-form families are built in:

``gauss_rotation``
    f(x) = a * exp(-x1^2 - x2^2) * R(2*pi*theta) x with R a standard rotation
    matrix.  Radially symmetric: |f(x)| = a * |x| * exp(-|x|^2).

``pioneer_climax_full``
    f(x) = (x1 * e^(a - 0.8 x1 - 0.2 x2),
            x2 * (0.2 x1 + 0.8 x2) * e^(b - 0.2 x1 - 0.8 x2)).
    An ecological two-species model; both axes are invariant and the map is
    decaying on the nonnegative quadrant, its natural domain.

``pioneer_climax_mixed``
    Same second component, first component decoupled:
    f1 = x1 * e^(a - 0.8 x1).

A built-in map is made by calling its constructor, which raises
:class:`MapDefinitionError` for an invalid parameter.  Each built-in
formula and its analytic Jacobian are written once, in
``_kernels._family``, where the literal gauss form and pioneer-mixed are
packed parameters; a built-in handle evaluates the NumPy form of that
definition, which the kernel lanes run in scalar form.  Arbitrary maps of
the plane enter through :func:`user_map`; their Jacobians default to
central finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import _kernels

GOLDEN_MEAN = (1.0 + math.sqrt(5.0)) / 2.0


class MapDefinitionError(ValueError):
    """Raised by a built-in constructor for a parameter that is not a
    finite int or float, or for gauss_rotation's a <= 0."""


@dataclass(frozen=True)
class MapHandle:
    """A built map: its one evaluation function.

    ``eval(x)`` maps a (2,) point or an (n, 2) block to its image(s) of
    the same shape; ``eval(x, True)`` also returns the (2, 2) or
    (n, 2, 2) Jacobians, from the same evaluation and with the same
    images.  A built-in's ``eval`` is a partial of
    ``_kernels.builtin_eval`` over ``family_code`` and ``packed``, so it
    pickles and is safe to share across worker processes; a user map's
    holds the callables it was given, and pickles only if they do.
    """

    eval: Callable[..., np.ndarray | tuple]
    family_code: int = -1
    packed: tuple = ()
    cone: bool = False  # natural domain restricted to the nonnegative orthant


def _require_finite(**params):
    for name, v in params.items():
        if not (isinstance(v, (int, float)) and math.isfinite(v)):
            raise MapDefinitionError(f"parameter {name!r} must be finite, got {v!r}")


def build_map(code: int, packed: tuple) -> MapHandle:
    """The handle of built-in family ``code`` at its ``packed`` parameters;
    the pioneer family's natural domain is the nonnegative quadrant."""
    return MapHandle(eval=partial(_kernels.builtin_eval, code, packed),
                     family_code=code, packed=packed,
                     cone=code == _kernels.FAM_PIONEER)


def gauss_rotation(a: float, theta: float, *, literal_eq: bool = False) -> MapHandle:
    """The gauss map with rotation angle 2*pi*theta.

    ``literal_eq`` selects the degenerate duplicated-component form
    (both output components equal), kept for comparison with the
    corrected rotation form.
    """
    _require_finite(a=a, theta=theta)
    if not a > 0:
        raise MapDefinitionError("gauss_rotation needs a > 0")
    t = 2.0 * math.pi * float(theta)
    # the rotation matrix by rows; the literal form repeats the first
    row1 = (math.cos(t), -math.sin(t))
    return build_map(_kernels.FAM_GAUSS, (
        float(a), *row1, *(row1 if literal_eq else (math.sin(t), math.cos(t)))))


def _pioneer(a: float, b: float, coupling: float) -> MapHandle:
    _require_finite(a=a, b=b)
    return build_map(_kernels.FAM_PIONEER,
                     (float(a), float(b), coupling, 0.0, 0.0))


def pioneer_climax_full(a: float, b: float) -> MapHandle:
    return _pioneer(a, b, 0.2)


def pioneer_climax_mixed(a: float, b: float) -> MapHandle:
    return _pioneer(a, b, 0.0)


def finite_difference_jacobian(fn, x) -> np.ndarray:
    """Central-difference Jacobian of a planar map at a (2,) point, with
    step h = 1e-6 * max(1, |x|) along each axis."""
    x = np.asarray(x, dtype=float)
    h = 1e-6 * max(1.0, float(np.linalg.norm(x)))
    dx, dy = ((np.asarray(fn(x + e), dtype=float)
               - np.asarray(fn(x - e), dtype=float)) / (2.0 * h)
              for e in ((h, 0.0), (0.0, h)))
    return np.column_stack((dx, dy))


def user_map(
    fn: Callable[[np.ndarray], np.ndarray],
    jac: Callable[[np.ndarray], np.ndarray] | None = None,
    batch: Callable[[np.ndarray], np.ndarray] | None = None,
    cone: bool = False,
) -> MapHandle:
    """Wrap a map of the plane as a MapHandle.

    A (2,) point goes to ``fn`` and ``jac`` (central differences of ``fn``
    by default); an (n, 2) block goes to ``batch`` for its images when
    given, and row by row to ``fn`` and ``jac`` otherwise.
    """
    jc = jac or partial(finite_difference_jacobian, fn)

    def ev(x, with_jac=False):
        x = np.asarray(x, dtype=float)
        point = x.ndim == 1
        y = fn(x) if point else batch(x) if batch else [fn(p) for p in x]
        y = np.asarray(y, dtype=float).reshape(x.shape)
        if not with_jac:
            return y
        j = jc(x) if point else [jc(p) for p in x]
        return y, np.asarray(j, dtype=float).reshape(x.shape + (2,))

    return MapHandle(eval=ev, cone=cone)
