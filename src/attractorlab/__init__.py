"""attractorlab: numerics for discrete dynamical systems with decaying maps.

Orbit iteration, cycle finding, Lyapunov exponents, box-counting dimension,
radial Cantor-shell constructions with symbolic coding, horseshoe region
verification and unstable-manifold tracing, plus a CLI for parameter sweeps.

Importing the package runs none of its modules: each public name is
looked up in its module on first access (PEP 562).
"""

from importlib import import_module as _import_module

# the public names by the module that defines or re-exports them
_NAMES = {
    "maps": "GOLDEN_MEAN MapDefinitionError MapHandle MapSpec build_map "
            "finite_difference_jacobian gauss_rotation pioneer_climax_full "
            "pioneer_climax_mixed user_map",
    "dynamics": "Cycle CycleSearchError DivergenceError PointCloud "
                "detect_period find_cycle orbit",
    "chaos": "BoxCountResult LyapunovEstimate box_counting_dimension "
             "lyapunov_spectrum_qr max_lyapunov_norm_sum",
    "hypotheses": "Check Report SupNorm attracting_set_sample "
                  "az_decay_profile estimate_sup_norm ez_check "
                  "origin_contraction_check run_hypothesis_report",
    "radial": "RadialTent ShellConstructionError ShellPartition ShellSpec "
              "SymbolCode cantor_shells estimate_radial_bounds "
              "hausdorff_bounds periodic_code radial_derivative "
              "radial_tent_map shift_map shift_metric",
    "horseshoe": "HorseshoeRegion RefinementExplosion find_saddles "
                 "model_horseshoe_map trellis unstable_manifold verify_ah",
}
_HOME = {name: module for module, names in _NAMES.items()
         for name in names.split()}

__version__ = "0.1.0"
__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
