"""The README's Quick start runs as written and prints what its comments say."""

import pathlib
import re
import sys

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
