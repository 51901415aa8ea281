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

Each built-in formula and its analytic Jacobian are written once, in
``_kernels._family``; a built-in handle evaluates the NumPy form of that
definition, which the kernel lanes run in scalar form.  Arbitrary maps of
R^m enter through :func:`user_map`; their Jacobians default to central
finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping

import numpy as np

from . import _kernels

GOLDEN_MEAN = (1.0 + math.sqrt(5.0)) / 2.0

_FAMILY_PARAMS = {
    "gauss_rotation": ("a", "theta"),
    "pioneer_climax_full": ("a", "b"),
    "pioneer_climax_mixed": ("a", "b"),
    "user_table": None,
}


class MapDefinitionError(ValueError):
    """Raised for unknown families or missing/invalid parameters."""


@dataclass(frozen=True)
class MapSpec:
    """Declarative description of a map: family name, parameters, dimension."""

    family: str
    params: Mapping[str, float]
    dim: int = 2


@dataclass(frozen=True)
class MapHandle:
    """A built map: spec plus evaluation/Jacobian callables.

    ``eval`` maps an (m,) point to an (m,) image; ``eval_many`` maps an
    (n, m) block of points at once.  ``jac`` returns the (m, m) Jacobian.
    For a built-in family they are partials of the module functions
    ``_kernels.eval_point``/``eval_block``/``jac_point`` over
    ``family_code`` and ``packed``, so built-in handles pickle and are safe
    to share across worker processes.  A user map's handle holds the
    callables it was given, and pickles only if they do.
    """

    spec: MapSpec
    eval: Callable[[np.ndarray], np.ndarray]
    eval_many: Callable[[np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray], np.ndarray]
    jac_kind: str = "analytic"
    family_code: int = -1
    packed: tuple = ()
    cone: bool = False  # natural domain restricted to the nonnegative orthant

    @property
    def dim(self) -> int:
        return self.spec.dim

    @property
    def literal(self) -> bool:
        """True for the degenerate duplicated-component gauss form."""
        return self.family_code == _kernels.FAM_GAUSS_LITERAL


def _require_finite_params(params, names):
    for name in names:
        if name not in params:
            raise MapDefinitionError(f"missing parameter {name!r}")
        v = params[name]
        if not (isinstance(v, (int, float)) and math.isfinite(v)):
            raise MapDefinitionError(f"parameter {name!r} must be finite, got {v!r}")
    extra = set(params) - set(names)
    if extra:
        raise MapDefinitionError(f"unexpected parameters: {sorted(extra)}")


def validate_spec(spec: MapSpec) -> None:
    if spec.family not in _FAMILY_PARAMS:
        raise MapDefinitionError(
            f"unknown family {spec.family!r}; known: {sorted(_FAMILY_PARAMS)}"
        )
    if spec.family == "user_table":
        if spec.dim < 1:
            raise MapDefinitionError("user_table maps need dim >= 1")
        return
    if spec.dim != 2:
        raise MapDefinitionError(f"{spec.family} is two-dimensional")
    _require_finite_params(spec.params, _FAMILY_PARAMS[spec.family])
    if spec.family == "gauss_rotation" and not spec.params["a"] > 0:
        raise MapDefinitionError("gauss_rotation needs a > 0")


def build_map(spec: MapSpec, *, literal_eq: bool = False) -> MapHandle:
    """Construct a MapHandle from a spec.

    ``literal_eq`` selects the degenerate duplicated-component form of
    gauss_rotation (both output components equal), kept for comparison with
    the corrected rotation form.  It has no effect on the other families.
    """
    validate_spec(spec)
    fam = spec.family
    if fam == "gauss_rotation":
        theta = float(spec.params["theta"])
        code = _kernels.FAM_GAUSS_LITERAL if literal_eq else _kernels.FAM_GAUSS
        packed = (float(spec.params["a"]), math.cos(2.0 * math.pi * theta),
                  math.sin(2.0 * math.pi * theta))
        cone = False
    elif fam in ("pioneer_climax_full", "pioneer_climax_mixed"):
        code = (_kernels.FAM_PIONEER_MIXED if fam == "pioneer_climax_mixed"
                else _kernels.FAM_PIONEER_FULL)
        packed = (float(spec.params["a"]), float(spec.params["b"]), 0.0)
        cone = True
    else:
        raise MapDefinitionError("use user_map() to build user_table handles")
    return MapHandle(
        spec=spec,
        eval=partial(_kernels.eval_point, code, packed),
        eval_many=partial(_kernels.eval_block, code, packed),
        jac=partial(_kernels.jac_point, code, packed),
        jac_kind="analytic", family_code=code, packed=packed, cone=cone,
    )


def gauss_rotation(a: float, theta: float, *, literal_eq: bool = False) -> MapHandle:
    return build_map(
        MapSpec("gauss_rotation", {"a": a, "theta": theta}), literal_eq=literal_eq
    )


def pioneer_climax_full(a: float, b: float) -> MapHandle:
    return build_map(MapSpec("pioneer_climax_full", {"a": a, "b": b}))


def pioneer_climax_mixed(a: float, b: float) -> MapHandle:
    return build_map(MapSpec("pioneer_climax_mixed", {"a": a, "b": b}))


def finite_difference_jacobian(fn, x, h_scale: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian with step h = max(1e-6, 1e-6 * |x|)."""
    x = np.asarray(x, dtype=float)
    h = max(h_scale, h_scale * float(np.linalg.norm(x)))
    m = x.size
    cols = []
    for j in range(m):
        e = np.zeros(m)
        e[j] = h
        cols.append((np.asarray(fn(x + e), dtype=float) - np.asarray(fn(x - e), dtype=float)) / (2.0 * h))
    return np.column_stack(cols)


def user_map(
    fn: Callable[[np.ndarray], np.ndarray],
    dim: int,
    jac: Callable[[np.ndarray], np.ndarray] | None = None,
    batch: Callable[[np.ndarray], np.ndarray] | None = None,
    params: Mapping[str, float] | None = None,
    cone: bool = False,
) -> MapHandle:
    """Wrap an arbitrary callable as a MapHandle (family ``user_table``)."""
    spec = MapSpec("user_table", dict(params or {}), dim=dim)
    validate_spec(spec)

    def ev(x):
        return np.asarray(fn(np.asarray(x, dtype=float)), dtype=float)

    if batch is None:
        def ev_many(pts):
            pts = np.asarray(pts, dtype=float)
            return np.array([fn(p) for p in pts], dtype=float)
    else:
        ev_many = batch

    if jac is None:
        def jc(x):
            return finite_difference_jacobian(fn, x)

        kind = "finite_difference"
    else:
        jc = jac
        kind = "analytic"
    return MapHandle(
        spec=spec, eval=ev, eval_many=ev_many, jac=jc, jac_kind=kind, cone=cone
    )


def eval_map(handle: MapHandle, x) -> np.ndarray:
    """Evaluate f(x) with input validation."""
    x = np.asarray(x, dtype=float)
    if x.shape != (handle.dim,):
        raise ValueError(f"expected shape ({handle.dim},), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite input point")
    return handle.eval(x)


def jacobian(handle: MapHandle, x) -> np.ndarray:
    """Jacobian f'(x): analytic for built-ins, finite differences otherwise."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite input point")
    return np.asarray(handle.jac(x), dtype=float)
