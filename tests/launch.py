"""How the tests start the command line in a child process.

``LAUNCHERS`` names the three ways in: ``python -m bvpseries`` ("module"),
``sys.exit(cli.main())``, the entry point as it was ("sys_exit"), and the
``bvpseries`` console script that pip installs beside the interpreter
(``[project.scripts]``; "script"). ``command`` builds a child's argv for
one of them, and ``param`` a pytest parameter whose cases through the
script skip where the package is not installed. Only the two Python
launchers can patch a module constant before the command line runs.
``peak_kib`` reads the peak resident memory of one command.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = shutil.which("bvpseries", path=os.path.dirname(sys.executable))

LAUNCHERS = ("module", "sys_exit", "script")

# launcher -> what a ``python -c`` child runs after the patches
_RUN = {"module": "import runpy\n"
                  "runpy.run_module('bvpseries', run_name='__main__', alter_sys=True)",
        "sys_exit": "import sys\nfrom bvpseries.cli import main\nsys.exit(main())"}

# A bare launcher: an interpreter that imports no numpy runs one child and
# prints the largest resident set of its children, in KiB on Linux.
_PEAK = ("import resource, subprocess, sys\n"
         "subprocess.run([sys.executable, '-m', 'bvpseries', *sys.argv[1:]], check=True)\n"
         "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")

_SRC = Path(__file__).resolve().parents[1] / "src"

_NEEDS_SCRIPT = pytest.mark.skipif(SCRIPT is None,
                                   reason="no bvpseries script beside sys.executable")


def param(*values, launcher, id=None):
    """``pytest.param(*values, launcher)``, skipped through the script where
    it is not installed."""
    return pytest.param(*values, launcher, id=id,
                        marks=[_NEEDS_SCRIPT] if launcher == "script" else [])


def command(launcher, argv, patches=None):
    """The argv of a child that runs ``bvpseries ARGV`` through the
    launcher, with the patches, {module: {constant: value}}, applied first."""
    if launcher == "script":
        assert not patches, "the script cannot apply patches"
        return [SCRIPT, *argv]
    if launcher == "module" and not patches:
        return [sys.executable, "-m", "bvpseries", *argv]
    patch = "".join(f"import bvpseries.{module}\nbvpseries.{module}.{constant} = {value!r}\n"
                    for module, constants in (patches or {}).items()
                    for constant, value in constants.items())
    return [sys.executable, "-c", patch + _RUN[launcher], *argv]


def peak_kib(argv):
    """The peak resident memory, in KiB, of one ``python -m bvpseries ARGV``
    of this checkout, which must exit 0, as the bare launcher reads it from
    ``RUSAGE_CHILDREN`` once the child has exited (Linux only)."""
    path = os.pathsep.join(filter(None, [str(_SRC), os.environ.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, "-c", _PEAK, *argv], capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": path}, timeout=600)
    assert r.returncode == 0, r.stderr
    return int(r.stdout)
