"""The counting rules of ``tools/code_size.py``, the size metric of the
ROADMAP, on a small synthetic package, and the report of
``tools/bench_pairs.py`` on synthetic run records."""

import importlib.util
from pathlib import Path

import pytest


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parent.parent / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_size = _load_tool("code_size")
bench_pairs = _load_tool("bench_pairs")

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


def _record(items_per_s, cpu_items_per_s):
    """A run record of the fields ``bench_pairs.report`` reads."""
    return {"metrics": {"items_per_s": {"value": items_per_s}},
            "detail": {"cpu": {"items_per_s": cpu_items_per_s}},
            "failed_ratio": 0.0}


def test_bench_pairs_prints_each_runs_calibration_ratio(capsys):
    # the two calibration levels: cpu / scaled items_per_s of 1.53 and 1.9
    records = {"parent": [_record(7400.0, 11322.0)], "change": [_record(6100.0, 11590.0)]}
    bench_pairs.report([{"name": "items_per_s", "better": "higher"}], records)
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["calibration parent: 1.53", "calibration change: 1.9"]
    assert lines[1].split()[:2] == ["items_per_s", "7400"]
    assert lines[2].split()[:2] == ["cpu.items_per_s", "11322"]
