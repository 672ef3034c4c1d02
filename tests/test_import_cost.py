"""Importing the package and its command line loads no scipy.

scipy is a test-only dependency: the closed forms are algebraic and the
simulator needs only numpy.  Importing ``scipy.special`` alone once added
about half a second to a fresh interpreter's start on a 2-core machine,
and every ``nomalink`` command pays its start.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_importing_the_package_and_cli_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    probe = ("import sys, nomalink, nomalink.cli; "
             "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
