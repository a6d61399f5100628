"""The counting rules of ``tools/code_size.py``, the size metric of the
ROADMAP, on a small synthetic package."""

import importlib.util
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "code_size", Path(__file__).resolve().parent.parent / "tools" / "code_size.py")
code_size = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_size)

# 10 code lines, each marked "# code"; every other line is blank, a comment
# or a docstring
MODULE = '''"""Module docstring,
over two lines."""

# a comment-only line
    # an indented comment-only line
import os  # code


def total(a,  # code
          b):  # code
    """Function docstring."""
    out = (a +  # code
           b)  # code
    return out  # code


async def wait():  # code
    """Async function docstring,

    with a blank line inside."""
    return os.sep  # code


class Box:  # code
    """Class docstring."""

    # a comment between the docstring and the body
    size = 1  # code
'''

# a string that is not a docstring is code, one line per physical line
TEXT = '''x = 1
TEXT = """one
two"""
'''

INIT = '''"""Package docstring."""

import os
from .mod import total, wait as _wait, _hidden
from .mod import Box as Crate
from . import mod as _mod
'''


@pytest.fixture
def package(tmp_path):
    root = tmp_path / "netsteer"
    root.mkdir()
    (root / "mod.py").write_text(MODULE)
    (root / "text.py").write_text(TEXT)
    (root / "__init__.py").write_text(INIT)
    return root


def test_skips_blank_comment_and_docstring_lines(package):
    assert code_size.code_lines(package / "mod.py") == MODULE.count("# code") == 10


def test_counts_every_line_of_a_string_that_is_no_docstring(package):
    assert code_size.code_lines(package / "text.py") == 3


def test_counts_each_line_of_a_continued_statement(tmp_path):
    path = tmp_path / "continued.py"
    path.write_text("value = [1,\n         2,\n\n         3]\nother = 1 + \\\n    2\n")
    # the blank line inside the brackets is no code line
    assert code_size.code_lines(path) == 5


def test_exports_skip_underscore_names_and_plain_imports(package):
    # total and Crate; not _wait, _hidden, _mod, nor the plain import of os
    assert code_size.exports(package / "__init__.py") == 2


def test_main_prints_each_module_the_total_and_exports(package, capsys):
    assert code_size.main([str(package.parent)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["__init__.py", "4"], ["mod.py", "10"], ["text.py", "3"],
                    ["total", "17"], ["exports", "2"]]


def test_main_refuses_a_directory_without_modules(tmp_path, capsys):
    assert code_size.main([str(tmp_path)]) == 2
    assert "no modules" in capsys.readouterr().err
