"""The code-line counter of tools/code_lines.py."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Code lines are marked "# code"; blank lines, comments and the module, class
# and function docstrings are not code. A string that is not the first
# statement of its scope is code, on every line it spans.
SOURCE = '''"""Module docstring,
over two lines."""

import os  # code

# a comment


class Box:  # code
    """Class docstring."""

    size = (  # code
        1,  # code
    )  # code

    def grow(self):  # code
        """Method
        docstring."""
        async def inner():  # code
            """Nested docstring."""
            return 1  # code
        text = """a string,  # code
        not a docstring"""  # code
        """a bare string after the first statement"""  # code
        return text  # code
'''


def test_counts_code_lines_without_blanks_comments_or_docstrings():
    assert code_lines.code_lines(SOURCE) == SOURCE.count("# code") == 12
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n') == 0


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# note\ny = 2\n")
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.split("\n")
    assert [line.split() for line in out if line] == [["a.py", "12"], ["b.py", "2"], ["total", "14"]]
