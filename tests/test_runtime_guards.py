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
    for module, home, names in [
            (channel, closedform, "AlphabetMismatchError ChannelFormatError InfeasibleError"),
            (capacity, closedform, "AlphabetMismatchError BUDGET_TOL"),
            (mac_region, closedform, "GaussianMacSolution GaussianSweepRow gaussian_mac_sweep "
                                     "gaussian_unconstrained_sum_rate"),
            (mac_region, channel, "simplex_grid"),
            (multihop, closedform, "EXAMPLE_LEVELS SnrSweepRow mhc_example_capacity "
                                   "relay_snr_sweep")]:
        for name in names.split():
            assert getattr(module, name) is getattr(home, name), (module.__name__, name)


def _parsed_modules() -> dict:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _defined(tree) -> set:
    """Names a module binds at top level by a def, a class or an assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
    return names


def test_internal_imports_name_the_defining_module():
    # `from .m import name` reads `name` where it is defined, never through a re-export.
    modules = _parsed_modules()
    found = [f"{module}:{node.lineno} {alias.name} from .{node.module}"
             for module, tree in modules.items() for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level == 1
             for alias in node.names if alias.name not in _defined(modules[node.module])]
    assert not found, found


@pytest.mark.parametrize("module, unreached", [
    ("multihop", {"mac_region"}),
    ("linksim", {"capacity", "mac_region", "multihop"}),
])
def test_module_level_imports_keep_the_layers_apart(module, unreached):
    # The relay solver does not load the MAC solver, nor the Monte Carlo layer any solver.
    edges = {name: {node.module for node in tree.body
                    if isinstance(node, ast.ImportFrom) and node.level == 1}
             for name, tree in _parsed_modules().items()}
    reached, todo = set(), [module]
    while todo:
        for dep in edges[todo.pop()] - reached:
            reached.add(dep)
            todo.append(dep)
    assert not reached & unreached, sorted(reached)


def test_mhc_leaves_the_mac_solver_unloaded(tmp_path):
    paths = []
    for k, crossover in enumerate((0.11, 0.2)):
        paths += ["--channel", str(tmp_path / f"hop{k + 1}.json")]
        (tmp_path / f"hop{k + 1}.json").write_text(
            '{"input_alphabets": [[0, 1]], "output_alphabet": [0, 1], "transition": '
            f'[[{1 - crossover}, {crossover}], [{crossover}, {1 - crossover}]], '
            '"cost": [[0, 1]], "energy": [0, 1]}')
    code = ("import atexit, runpy, sys; "
            "atexit.register(lambda: print('mac_region loaded:', "
            "'infoenergy.mac_region' in sys.modules)); "
            "runpy.run_module('infoenergy', run_name='__main__', alter_sys=True)")
    out = python("-c", code, "mhc", "--P1", "0.5", "--P2", "0.1", *paths)
    assert '"capacity_bits"' in out and out.endswith("mac_region loaded: False\n")


def test_no_assert_statements_in_package():
    # Invariants must hold under `python -O`, which strips asserts.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, found
