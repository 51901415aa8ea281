"""What importing the package and the CLI runs: a module only when used."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import attractorlab
from attractorlab import dynamics, horseshoe, maps, radial

SRC = str(Path(attractorlab.__file__).resolve().parents[1])

# attractorlab.__all__ as it stood when the package imported every module,
# less the radial origin modes that alpha0 alone now sets, the leaf
# component oracle, which lives with the tests, and the map spec layer
# (MapSpec, build_map), which the constructors replace
PUBLIC = [
    "GOLDEN_MEAN", "MapDefinitionError", "MapHandle",
    "finite_difference_jacobian", "gauss_rotation", "pioneer_climax_full",
    "pioneer_climax_mixed", "user_map", "Cycle", "CycleSearchError",
    "DivergenceError", "PointCloud", "detect_period", "find_cycle", "orbit",
    "BoxCountResult", "LyapunovEstimate", "box_counting_dimension",
    "lyapunov_spectrum_qr", "max_lyapunov_norm_sum", "Check", "Report",
    "SupNorm", "attracting_set_sample", "az_decay_profile",
    "estimate_sup_norm", "ez_check", "origin_contraction_check",
    "run_hypothesis_report", "RadialTent", "ShellConstructionError",
    "ShellPartition", "ShellSpec", "SymbolCode", "cantor_shells",
    "estimate_radial_bounds", "hausdorff_bounds", "periodic_code",
    "radial_derivative", "radial_tent_map", "shift_map", "shift_metric",
    "HorseshoeRegion", "RefinementExplosion", "find_saddles",
    "model_horseshoe_map", "trellis", "unstable_manifold", "verify_ah",
    "__version__"]
# the public constants, by the module that defines them; every other
# public name's home is its __module__
CONSTANTS = {"GOLDEN_MEAN": maps}
# the modules import attractorlab.cli runs; the CLI's schema needs them
CLI_CORE = ["attractorlab", "attractorlab._kernels", "attractorlab.chaos",
            "attractorlab.cli", "attractorlab.dynamics", "attractorlab.maps"]
# lists the modules a fresh interpreter has run of attractorlab and of the
# standard modules that only the deferred paths need; a LazyLoader module
# that has not run yet is not a plain ModuleType
RAN = """
import sys, types
def ran():
    return sorted(name for name, m in sys.modules.items()
                  if type(m) is types.ModuleType and name.split(".")[0]
                  in ("attractorlab", "fractions", "difflib"))
"""
BIFURCATION = ("map = gauss_rotation\ntheta = 0.5\nparam = a\nstart = 2.0\n"
               "stop = 2.99\nstep = 0.01\nbif_transient = 10\nbif_keep = 2\n")
SWEEP = ("map = gauss_rotation\ntheta = 0.5\nparam = a\nstart = 2.7\n"
         "stop = 3.6\nstep = 0.9\nn_transient = 10\nn_keep = 1000\n"
         "lyap_n = 200\nresolution = 8\n")


def fresh_python(code: str, *args: str) -> str:
    done = subprocess.run([sys.executable, "-c", RAN + code, *args],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": SRC})
    return done.stdout


def test_importing_the_package_runs_no_submodule():
    assert fresh_python("import attractorlab\nprint(ran())\n") == \
        "['attractorlab']\n"


def test_cli_runs_hypotheses_radial_and_horseshoe_only_when_used(tmp_path):
    configs = []
    for command, text in (("bifurcation", BIFURCATION), ("sweep", SWEEP)):
        (tmp_path / f"{command}.cfg").write_text(text)
        configs += [command, str(tmp_path / f"{command}.cfg")]
    code = """
from attractorlab import cli
print(ran())
args = iter(sys.argv[1:])
for command, cfg in zip(args, args):
    out = cfg[:-len(".cfg")]
    assert cli.main([command, "--config", cfg, "--out", out,
                     "--jobs", "1"]) == 0
print(ran())
print(sorted(name for name in sys.modules if name.startswith("attractorlab")))
"""
    lines = fresh_python(code, *configs).splitlines()
    assert lines[0] == lines[1] == str(CLI_CORE)
    # the deferred modules are loaded, not run
    assert lines[2] == str(sorted(CLI_CORE + [
        "attractorlab.horseshoe", "attractorlab.hypotheses",
        "attractorlab.radial"]))
    assert (tmp_path / "bifurcation" / "bifurcation.csv").is_file()
    assert (tmp_path / "sweep" / "summary.csv").is_file()


def test_public_names_resolve_to_the_objects_their_modules_define():
    assert attractorlab.__all__ == PUBLIC
    listed = dir(attractorlab)
    for name in PUBLIC[:-1]:
        value = getattr(attractorlab, name)
        home = CONSTANTS.get(name) or sys.modules[value.__module__]
        assert getattr(home, name) is value, name
        assert name in listed, name
    assert attractorlab.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no_such_name"):
        attractorlab.no_such_name


def test_moved_names_keep_one_definition():
    assert horseshoe.RefinementExplosion is dynamics.RefinementExplosion
    for name in ("MODE_SINK", "MODE_SOURCE"):  # alpha0 alone sets a sink
        assert not hasattr(maps, name) and not hasattr(radial, name)
