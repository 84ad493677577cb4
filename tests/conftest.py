import os
import shutil
import sys
from pathlib import Path

import pytest

from util import make_petersen

try:
    import tomllib
except ImportError:  # Python 3.10
    tomllib = None


@pytest.fixture
def petersen():
    return make_petersen()


@pytest.fixture(scope="session", autouse=True)
def strongmatch_on_path(tmp_path_factory):
    """Put a ``strongmatch`` launcher first on PATH when none is installed.

    The launcher is the one pip writes for the ``[project.scripts]`` entry
    of pyproject.toml, so the console-script tests still run the declared
    entry point and fail when it is wrong.  It imports the package the way
    the tests do, from PYTHONPATH.  PATH is restored afterwards.
    """
    if shutil.which("strongmatch") is not None or tomllib is None:
        yield
        return
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as f:
        module, _, attr = tomllib.load(f)["project"]["scripts"]["strongmatch"].partition(":")
    bindir = tmp_path_factory.mktemp("bin")
    script = bindir / "strongmatch"
    script.write_text(
        f"#!{sys.executable}\nimport sys\nfrom {module} import {attr}\nsys.exit({attr}())\n"
    )
    script.chmod(0o755)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PATH", f"{bindir}{os.pathsep}{os.environ.get('PATH', '')}")
        yield
