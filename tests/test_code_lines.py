"""The code-line counter that sizes each module (``tools/code_lines.py``)."""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def _load():
    spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_docstrings_comments_and_blanks():
    count = _load().count
    source = '''"""Module docstring,
over two lines."""

# a comment
import os  # a trailing comment keeps its line


class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring,
        over two lines."""
        return os.path.join(
            "a",
            "b")


async def run():
    """One line."""
    text = """a string literal
that is not a docstring"""
    return text
'''
    # import, class, def, the three-line return, async def, the two-line
    # literal, and the last return
    assert count(source) == 1 + 1 + 1 + 3 + 1 + 2 + 1
    assert count("") == 0
    assert count("x = 1\n\n\n# done\n") == 1
