"""tools/code_lines.py: the code-line count that size targets are stated in.

The tool is a script, not a package module, so it is loaded by path.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SAMPLE = '''"""Module docstring
over two lines."""

# a comment
import os  # a trailing comment is on a code line


def f(x):
    """Function docstring."""

    text = """a multi-line string
that is code
"""
    return x, text


class C:
    """Class docstring
    on two lines."""

    y = os.sep
'''

# import, def, the three lines of the string, return, class, y
SAMPLE_CODE_LINES = 8


@pytest.fixture(scope="module")
def code_lines():
    spec = importlib.util.spec_from_file_location("code_lines_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_only_code_lines(code_lines, tmp_path, capsys):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE, encoding="utf-8")
    assert code_lines.code_lines(path) == SAMPLE_CODE_LINES
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [f"{SAMPLE_CODE_LINES:6d}  {path}", f"{SAMPLE_CODE_LINES:6d}  total"]


@pytest.mark.parametrize("args", [[], ["no-such-dir"]])
def test_no_path_or_a_missing_one_is_a_usage_error(code_lines, tmp_path, capsys, args):
    paths = [str(tmp_path / a) for a in args]
    assert code_lines.main(paths) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err
