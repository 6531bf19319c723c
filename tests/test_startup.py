"""Start-up cost: importing matchain and running its CLI leave numpy alone."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import matchain
from matchain import Property, random_instance

from helpers import child_env

PROBLEM = """\
matrix A 10 10 lower_triangular
matrix B 10 10
matrix C 10 10
compute C = A^-1 * B
"""

#: Runs ``python -m matchain`` with every later ``import numpy`` failing.
RUN_WITHOUT_NUMPY = (
    "import runpy, sys; sys.modules['numpy'] = None; "
    "sys.argv = ['matchain'] + sys.argv[1:]; "
    "runpy.run_module('matchain', run_name='__main__')"
)


def python(*args):
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=child_env()
    )


def test_import_does_not_load_numpy():
    code = "import matchain, matchain.cli, sys; assert 'numpy' not in sys.modules"
    result = python("-c", code)
    assert result.returncode == 0, result.stderr


def test_cli_runs_with_numpy_blocked(tmp_path):
    problem = tmp_path / "problem.mc"
    problem.write_text(PROBLEM)
    result = python("-c", RUN_WITHOUT_NUMPY, str(problem), "--naive")
    assert result.returncode == 0, result.stderr
    assert "C := trsm(A, B)   # C := A^-1 * B flops=1000" in result.stdout
    assert "# total_flops=1000" in result.stdout


def test_numeric_helpers_still_use_numpy():
    rng = np.random.default_rng(0)
    m = random_instance(frozenset({Property.LOWER_TRIANGULAR}), 4, 4, rng)
    assert isinstance(m, np.ndarray) and m.shape == (4, 4)
    assert matchain.structural_residual(m, frozenset({Property.LOWER_TRIANGULAR})) == 0.0


def test_numpy_is_only_a_test_dependency():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    assert "numpy" not in project["dependencies"]
    assert "numpy" in project["optional-dependencies"]["test"]
