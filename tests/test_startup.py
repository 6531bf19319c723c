"""Start-up cost: importing matchain loads no submodule until a name is
used, its CLI loads the oracle only under ``--verify``, and neither loads
numpy. Each check runs in a fresh interpreter."""

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


#: Runs ``python -m matchain`` and prints the matchain modules it loaded.
RUN_AND_LIST_MODULES = """\
import runpy, sys
sys.argv = ['matchain'] + sys.argv[1:]
try:
    runpy.run_module('matchain', run_name='__main__')
finally:
    print(sorted(m for m in sys.modules if m.startswith('matchain')), file=sys.stderr)
"""

#: Imports matchain and prints the matchain modules loaded.
LIST_MODULES = "print(sorted(m for m in sys.modules if m.startswith('matchain')))"


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


def test_import_loads_no_submodule():
    result = python("-c", "import sys, matchain; " + LIST_MODULES)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "['matchain']\n"


@pytest.mark.parametrize(
    "flags",
    [[], ["--naive"], ["--format", "records"], ["--naive", "--format", "records"]],
)
def test_cli_without_verify_never_loads_the_oracle(tmp_path, flags):
    problem = tmp_path / "problem.mc"
    problem.write_text(PROBLEM)
    result = python("-c", RUN_AND_LIST_MODULES, str(problem), *flags)
    assert result.returncode == 0, result.stderr
    assert "trsm" in result.stdout
    loaded = result.stderr.splitlines()[-1]
    assert "'matchain.cli'" in loaded and "'matchain.oracle'" not in loaded


@pytest.mark.parametrize(
    "flags, line",
    [([], "# oracle=agree"), (["--format", "records"], "verify oracle=agree oracle_total=1000.0")],
)
def test_cli_with_verify_loads_the_oracle(tmp_path, flags, line):
    problem = tmp_path / "problem.mc"
    problem.write_text(PROBLEM)
    result = python("-c", RUN_AND_LIST_MODULES, str(problem), "--verify", *flags)
    assert result.returncode == 0, result.stderr
    assert line in result.stdout.splitlines()
    assert "'matchain.oracle'" in result.stderr.splitlines()[-1]


def test_every_public_name_is_its_home_modules_object():
    code = """\
import importlib, matchain
for name in matchain.__all__:
    home = importlib.import_module("matchain." + matchain._HOME[name])
    want = home if name == matchain._HOME[name] else getattr(home, name)
    assert getattr(matchain, name) is want, name
    assert vars(matchain)[name] is want, name  # kept: later reads skip __getattr__
assert matchain.errors is importlib.import_module("matchain.errors")
assert dir(matchain) == sorted(matchain.__all__)
"""
    result = python("-c", code)
    assert result.returncode == 0, result.stderr


def test_star_import_binds_all_public_names():
    code = """\
import matchain
names = {}
exec("from matchain import *", names)
missing = set(matchain.__all__) - set(names)
assert not missing, missing
"""
    result = python("-c", code)
    assert result.returncode == 0, result.stderr


def test_unknown_name_is_an_attribute_error():
    code = "import sys, matchain; assert not hasattr(matchain, 'nope'); " + LIST_MODULES
    result = python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "['matchain']\n"
