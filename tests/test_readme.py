"""The README's Quick start runs as written and prints what its comments
say, and every line of its Command line block parses."""

import pathlib
import re
import shlex
import sys

from trigzeros.cli import build_parser

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_prints_its_comments():
    """Each one-line print(...) with a trailing `# value` comment prints
    exactly that value; the block is run whole, in order, as a reader would."""
    code = _quick_start()
    printed = {}

    def record(*args):
        printed[sys._getframe(1).f_lineno] = " ".join(map(str, args))

    exec(compile(code, str(README), "exec"), {"print": record})
    expected = {
        number: line.split("#", 1)[1].strip()
        for number, line in enumerate(code.splitlines(), 1)
        if line.startswith("print(") and "#" in line
    }
    assert len(expected) >= 3
    for number, want in expected.items():
        assert printed[number] == want, f"README Quick start line {number}"


def test_command_lines_parse():
    """Every `trigzeros ...` line of the Command line block is accepted by
    the parser as written (parsed, not run)."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("trigzeros ")]
    assert len(lines) >= 5
    parser = build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert args.command == line.split()[1]
