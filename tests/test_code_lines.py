"""The line counter of tools/code_lines.py on a small fixture."""

import importlib.util
import pathlib

_TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

FIXTURE = '''"""Module docstring,
on two lines."""

import os  # a comment beside code counts as code


# a comment line
class Box:
    """Class docstring."""

    def size(self, x):
        """Function docstring,

        on three lines."""
        text = """a string
        that is no docstring"""
        return (len(text) +
                x)
'''


def _code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docstrings_comments_and_blank_lines_are_not_code():
    """18 lines, of which 7 hold code: the import, the class and def lines,
    both lines of the string that is not a docstring and both of the
    bracketed return."""
    assert _code_lines().count_lines(FIXTURE) == (18, 7)


def test_prints_a_row_a_file_and_the_total(tmp_path, capsys):
    paths = []
    for name in ("a.py", "b.py"):
        paths.append(tmp_path / name)
        paths[-1].write_text(FIXTURE, encoding="utf-8")
    assert _code_lines().main([str(path) for path in paths]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["18", "7", str(paths[0])], ["18", "7", str(paths[1])],
                    ["36", "14", "total"]]
