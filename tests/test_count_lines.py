import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "count_lines.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("count_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docstrings_comments_and_blank_lines_do_not_count(tool):
    source = '''"""Module docstring,
over two lines."""
# a comment

import os  # a trailing comment is on a code line


class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring,

        over three lines."""
        # another comment
        return os.sep
'''
    # import, class, def and return
    assert tool.code_lines(source) == 4


def test_a_string_that_is_not_a_docstring_counts_each_line(tool):
    source = 'def f():\n    x = 1\n    """Not first in the body."""\n    return """a\nb\nc"""\n'
    # def, x = 1, the bare string, and the three lines of the returned string
    assert tool.code_lines(source) == 6


def test_a_statement_split_over_brackets_counts_each_line(tool):
    source = "total = sum(\n    [\n        1,\n\n        2,\n    ]\n)\n"
    # seven lines, one of them blank inside the brackets
    assert tool.code_lines(source) == 6
