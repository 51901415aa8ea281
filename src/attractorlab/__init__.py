"""attractorlab: numerics for discrete dynamical systems with decaying maps.

Orbit iteration, cycle finding, Lyapunov exponents, box-counting dimension,
radial Cantor-shell constructions with symbolic coding, horseshoe region
verification and unstable-manifold tracing, plus a CLI for parameter sweeps.
"""

from types import ModuleType as _ModuleType

from .maps import (
    GOLDEN_MEAN,
    MapDefinitionError,
    MapHandle,
    MapSpec,
    build_map,
    finite_difference_jacobian,
    gauss_rotation,
    pioneer_climax_full,
    pioneer_climax_mixed,
    user_map,
)
from .dynamics import (
    Cycle,
    CycleSearchError,
    DivergenceError,
    PointCloud,
    detect_period,
    find_cycle,
    orbit,
)
from .chaos import (
    BoxCountResult,
    LyapunovEstimate,
    box_counting_dimension,
    lyapunov_spectrum_qr,
    max_lyapunov_norm_sum,
)
from .hypotheses import (
    Check,
    Report,
    SupNorm,
    attracting_set_sample,
    az_decay_profile,
    estimate_sup_norm,
    ez_check,
    origin_contraction_check,
    run_hypothesis_report,
)
from .radial import (
    MODE_SINK,
    MODE_SOURCE,
    RadialTent,
    ShellConstructionError,
    ShellPartition,
    ShellSpec,
    SymbolCode,
    cantor_shells,
    estimate_radial_bounds,
    hausdorff_bounds,
    periodic_code,
    radial_derivative,
    radial_tent_map,
    shift_map,
    shift_metric,
)
from .horseshoe import (
    HorseshoeRegion,
    RefinementExplosion,
    find_saddles,
    leaf_component_count,
    model_horseshoe_map,
    trellis,
    unstable_manifold,
    verify_ah,
)

__version__ = "0.1.0"

# the public names are exactly the names imported above
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__all__.append("__version__")
del _ModuleType
