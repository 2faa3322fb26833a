"""tools/code_lines.py counts code lines by tokenize and reads __all__.

A synthetic module pins the count: docstrings, comments and blank lines
do not count, each line of a continued statement and of a string that
is code does.  The tool's own run reads this package's __all__.
"""

import importlib.util
import os
import subprocess
import sys

import jacobiscatter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "code_lines.py")

SOURCE = '''"""A module docstring,
over two lines."""

import math  # a comment after code

# a comment line


def area(r):
    """A function docstring."""
    # a comment in a body
    return (math.pi
            * r ** 2)


class Shape:
    """A class docstring
    over two lines.
    """

    text = """a string
that is code"""
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_docstrings_and_comments():
    # import, def, the two lines of the return, class, the two lines of text
    assert load_tool().code_lines(SOURCE) == 7


def test_tool_reads_the_package():
    proc = subprocess.run([sys.executable, "-B", TOOL], capture_output=True, text=True,
                          timeout=60, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == f"__all__: {len(jacobiscatter.__all__)} names"
    assert lines[-2].split()[0] == "total"
