"""Every script in ``demos/`` and every ``python`` block of ``README.md``
runs to completion against this checkout."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                           re.MULTILINE | re.DOTALL)


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_cleanly(demo):
    _run([str(demo)])


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_block_exits_cleanly(block):
    _run(["-c", block])
