"""Importing the package and its command line loads no scipy, the
package root alone loads nothing, and no module reaches into another's
private names.

scipy is a test-only dependency: the closed forms are algebraic and the
simulator needs only numpy.  Importing ``scipy.special`` alone once added
about half a second to a fresh interpreter's start on a 2-core machine,
and every ``nomalink`` command pays its start.  Each public name is
imported from the module that defines it, so the package root holds only
``__version__``.
"""

import ast
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


def _private_names_of_other_modules(path):
    """Every ``(module, name)`` that a source file of the package imports,
    or reads as ``module._name``, where ``name`` is private (one leading
    underscore) and ``module`` is another nomalink module; relative imports
    and import aliases are resolved."""
    own = f"nomalink.{path.stem}"
    modules, found = {}, set()  # modules: local name -> nomalink module
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:  # ``import nomalink.x`` binds ``nomalink``
                if a.name.split(".")[0] == "nomalink":
                    modules[a.asname or "nomalink"] = a.name if a.asname else "nomalink"
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = ".".join(filter(None, ("nomalink", module)))
            if module.split(".")[0] != "nomalink":
                continue
            for a in node.names:
                found.add((module, a.name))
                if module == "nomalink":  # ``from . import x`` binds a module
                    modules[a.asname or a.name] = f"nomalink.{a.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            parts, value = [], node.value
            while isinstance(value, ast.Attribute):
                parts.insert(0, value.attr)
                value = value.value
            if isinstance(value, ast.Name) and value.id in modules:
                found.add((".".join([modules[value.id], *parts]), node.attr))
    return {(module, name) for module, name in found if module != own
            and name.startswith("_") and not name.startswith("__")}


def test_no_module_reaches_into_another_modules_private_names():
    """What a module keeps private (a leading underscore) is read only by
    that module: the others go through its public names."""
    sources = sorted((ROOT / "src" / "nomalink").glob("*.py"))
    assert len(sources) > 1
    assert {path.name: _private_names_of_other_modules(path) for path in sources} == {
        path.name: set() for path in sources}
