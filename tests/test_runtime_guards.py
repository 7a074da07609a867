"""Conventions of the runtime itself, checked on the imported package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import infoenergy

PACKAGE = Path(infoenergy.__file__).parent


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test-only extra: importing it costs about 0.8 s and 50 MiB.
    code = "import sys, infoenergy.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_process_pools_unloaded():
    # The Monte Carlo simulators fork their own workers; importing a pool module
    # would add to every subcommand's start-up time.
    code = ("import sys, infoenergy.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert out.stdout.strip() == "[]"


def test_no_assert_statements_in_package():
    # Invariants must hold under `python -O`, which strips asserts.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, found
