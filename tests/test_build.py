"""The compiled site step is a build artifact: the first import builds it from
`_step.c` and deletes the artifacts of other sources, later imports load it,
and without a compiler the import fails with an error that says so.  Each
test imports a copy of the package in a fresh interpreter."""

import hashlib
import os
import shutil
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "halfline"

#: imports the copy and steps the rank-one Jost function at zeta = -i
PROBE = ("from halfline import _kernels; import numpy as np; "
         "print(_kernels.jost_function_values([0.75], np.array([-1j]))[0])")


@pytest.fixture
def copy(tmp_path):
    """A copy of the package sources, with no build artifact."""
    shutil.copytree(PACKAGE, tmp_path / "halfline", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def run(root, path=None):
    env = dict(os.environ, PYTHONPATH=str(root), PYTHONDONTWRITEBYTECODE="1")
    if path is not None:
        env["PATH"] = str(path)
    return subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=120)


def artifacts(root):
    return sorted((root / "halfline" / "__pycache__").glob("_step-*"))


def current_artifact(root):
    """The artifact name of the copy's source and flags."""
    from halfline._kernels import CFLAGS
    source = (root / "halfline" / "_step.c").read_bytes()
    return f"_step-{hashlib.sha256(source + ' '.join(CFLAGS).encode()).hexdigest()[:16]}.so"


def test_first_import_builds_and_second_runs_no_compiler(copy, tmp_path_factory):
    first = run(copy)
    assert first.returncode == 0, first.stderr
    assert complex(first.stdout) == 1.0 + 1.5j          # 1 - 2 v0 zeta
    built = artifacts(copy)
    assert len(built) == 1 and built[0].suffix == ".so"
    mtime = built[0].stat().st_mtime_ns
    # with no compiler on PATH, the second import can only load the artifact
    second = run(copy, path=tmp_path_factory.mktemp("empty"))
    assert second.returncode == 0, second.stderr
    assert second.stdout == first.stdout
    assert artifacts(copy) == built and built[0].stat().st_mtime_ns == mtime


def test_build_deletes_stale_artifacts_only(copy):
    # an artifact of an older source, and a temporary file that a concurrent
    # build (tempfile.mkstemp: 8 random characters) is still writing
    cache = copy / "halfline" / "__pycache__"
    cache.mkdir()
    stale, in_flight = cache / "_step-0123456789abcdef.so", cache / "_step-tmpxxxxx.so"
    stale.write_bytes(b"stale")
    in_flight.write_bytes(b"in flight")
    result = run(copy)
    assert result.returncode == 0, result.stderr
    assert not stale.exists() and in_flight.read_bytes() == b"in flight"
    assert [path.name for path in artifacts(copy)] == sorted([current_artifact(copy),
                                                              in_flight.name])


def test_missing_compiler_is_an_import_error(copy, tmp_path_factory):
    result = run(copy, path=tmp_path_factory.mktemp("empty"))
    assert result.returncode != 0
    last = result.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError") and "gcc" in last and "_step.c" in last
    assert artifacts(copy) == []


def test_loading_imports_no_build_module():
    # with the artifact present, as importing it here leaves it,
    # importing the command line needs no subprocess
    from halfline import _kernels       # builds the artifact if it is missing
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    result = subprocess.run([sys.executable, "-c", "import halfline.cli, sys; "
                             "print('subprocess' in sys.modules)"], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_source_ships_as_package_data():
    with open(PACKAGE.parent.parent / "pyproject.toml", "rb") as f:
        config = tomllib.load(f)
    assert "_step.c" in config["tool"]["setuptools"]["package-data"]["halfline"]


def test_source_compiles_without_warnings():
    # with the build's flags, to assembly and not only -fsyntax-only, which
    # stops before gcc reports a static function left unused
    from halfline._kernels import CFLAGS
    result = subprocess.run(["gcc", *CFLAGS, "-Wall", "-Wextra", "-Werror", "-S", "-o",
                             os.devnull, str(PACKAGE / "_step.c")],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_build_fuses_only_explicit_fma():
    # every fused operation of the step is written as an explicit fma, which
    # rounds as the tests' models do; gcc's vectorizer can still turn complex
    # products of scalar code into fused add-subtracts despite
    # -ffp-contract=off, which moves Omega by an ulp
    objdump = shutil.which("objdump")
    if objdump is None:
        pytest.skip("no objdump on PATH")
    from halfline import _kernels
    result = subprocess.run([objdump, "-d", _kernels._LIB._name], capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "<lanes>:" in result.stdout
    fused = [line for line in result.stdout.splitlines()
             if "vfmaddsub" in line or "vfmsubadd" in line]
    assert fused == []


def test_library_exports_only_bound_entries():
    # the library defines exactly the entries that _kernels binds, so that
    # no dead entry outlives a change of the step's interface
    nm = shutil.which("nm")
    if nm is None:
        pytest.skip("no nm on PATH")
    from halfline import _kernels
    result = subprocess.run([nm, "-D", "--defined-only", _kernels._LIB._name],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    names = {line.split()[-1] for line in result.stdout.splitlines() if line.strip()}
    assert names == {"block_lanes", "lanes", "sturm"}
