"""Importing the package and its command line loads no scipy, and the
package root alone loads nothing.

scipy is a test-only dependency: the closed forms are algebraic and the
simulator needs only numpy.  Importing ``scipy.special`` alone once added
about half a second to a fresh interpreter's start on a 2-core machine,
and every ``nomalink`` command pays its start.  Each public name is
imported from the module that defines it, so the package root holds only
``__version__``.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _fresh(probe: str) -> str:
    """What ``probe`` prints in a fresh interpreter that imports from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_importing_the_package_and_cli_loads_no_scipy():
    assert _fresh("import sys, nomalink, nomalink.cli; "
                  "print(sorted(m for m in sys.modules "
                  "if m == 'scipy' or m.startswith('scipy.')))") == "[]"


def test_the_package_root_loads_no_numpy_and_holds_only_its_version():
    """``import nomalink`` re-exports nothing, so it loads no submodule and
    no numpy, and its one public name is ``__version__``."""
    assert _fresh("import sys, nomalink; "
                  "print('numpy' in sys.modules, "
                  "sorted(n for n in vars(nomalink) if not n.startswith('_') or n == '__version__'))"
                  ) == "False ['__version__']"
