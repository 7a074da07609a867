"""Conventions of the runtime itself, checked on the imported package."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import infoenergy

PACKAGE = Path(infoenergy.__file__).parent

# The package's exports: the six submodules, then what they define.
EXPORTS = sorted("""
capacity channel linksim mac_region metrics multihop
Alphabet AlphabetMismatchError AwgnSpec CapacityResult ChannelFormatError Codebook CostFn
DmChannel DmMacSampler DmPointToPointSampler EnergyFn FixedPowerGaussianRelay
GaussianMacSampler GaussianMacSolution GaussianPhasePolicy InfeasibleError MacBoundaryResult
MacProblem MhcProblem MhcSolution Pmf RateEnergyTriple ScalingGaussianRelay SimReport
TimeSharingPolicy awgn_capacity brute_force_mac_oracle check_energy_markov_bound
cutset_joint_oracle dm_capacity_with_cost entropy example_problem expected_cost
expected_received_energy gaussian_mac_sweep gaussian_mac_timeshare
gaussian_unconstrained_sum_rate generate_codebook generate_mac_codebooks load_channel_file
mac_boundary_point mac_mutual_informations mac_output_pmf mac_region_sweep
max_received_energy mhc_capacity mhc_example_capacity mutual_information relay_snr_sweep
save_channel_file simplex_grid simulate_decode simulate_mac_energy simulate_mhc_harvest
symmetric_input_entropy
""".split())


def python(*args) -> str:
    """stdout of a fresh interpreter that imports the package from this tree."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}).stdout


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test-only extra: importing it costs about 0.8 s and 50 MiB.
    assert python("-c", "import sys, infoenergy.cli; print('scipy' in sys.modules)") == "False\n"


def test_cli_import_leaves_process_pools_unloaded():
    # The Monte Carlo simulators fork their own workers; importing a pool module
    # would add to every subcommand's start-up time.
    code = ("import sys, infoenergy.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    assert python("-c", code) == "[]\n"


@pytest.mark.parametrize("module", ["infoenergy", "infoenergy.cli"])
def test_import_leaves_numpy_unloaded(module):
    # numpy costs about 0.15 s of start-up; the package loads it with the first name that needs it.
    assert python("-c", f"import sys, {module}; print('numpy' in sys.modules)") == "False\n"


@pytest.mark.parametrize("argv", [["gaussian-mac", "--P", "1", "--steps", "5"],
                                  ["mhc-example", "--steps", "3"]])
def test_closed_form_subcommands_run_without_numpy(argv):
    code = ("import atexit, runpy, sys; "
            "atexit.register(lambda: print('numpy loaded:', 'numpy' in sys.modules)); "
            "runpy.run_module('infoenergy', run_name='__main__', alter_sys=True)")
    out = python("-c", code, *argv)
    assert out.endswith("numpy loaded: False\n") and out.count("\n") == int(argv[-1]) + 2


def test_loading_a_channel_file_leaves_numpy_ma_unloaded(tmp_path):
    # numpy.unique imports numpy.ma on its first call: about 13 ms and 1.2 MiB.
    path = tmp_path / "bsc.json"
    path.write_text('{"input_alphabets": [[0, 1]], "output_alphabet": [0, 1], '
                    '"transition": [[0.9, 0.1], [0.1, 0.9]], "cost": [[0, 1]], "energy": [0, 1]}')
    code = f"import sys, infoenergy as ie; ie.load_channel_file({str(path)!r}); " \
           "print('numpy.ma' in sys.modules)"
    assert python("-c", code) == "False\n"


def test_exports_are_the_objects_their_modules_define():
    assert sorted(infoenergy.__all__) == EXPORTS and len(EXPORTS) == 61
    star = {}
    exec("from infoenergy import *", star)
    for name in EXPORTS:
        value = getattr(infoenergy, name)
        if isinstance(value, type(infoenergy)):
            assert value is importlib.import_module(f"infoenergy.{name}"), name
        else:
            assert getattr(sys.modules[value.__module__], name) is value, name
        assert star[name] is value and name in dir(infoenergy), name


def test_moved_definitions_are_re_exported_not_copied():
    from infoenergy import capacity, channel, closedform, mac_region, multihop
    for module, names in [
            (channel, "AlphabetMismatchError ChannelFormatError InfeasibleError"),
            (capacity, "AlphabetMismatchError BUDGET_TOL"),
            (mac_region, "GaussianMacSolution GaussianSweepRow gaussian_mac_sweep "
                         "gaussian_unconstrained_sum_rate"),
            (multihop, "EXAMPLE_LEVELS SnrSweepRow mhc_example_capacity relay_snr_sweep")]:
        for name in names.split():
            assert getattr(module, name) is getattr(closedform, name), (module.__name__, name)


def test_no_assert_statements_in_package():
    # Invariants must hold under `python -O`, which strips asserts.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, found
