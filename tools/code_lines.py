"""Count the lines of Python source files: all of them, and code alone.

Code alone leaves out blank lines, comment lines and docstrings (those of
modules, classes and functions, found with ast); tokenize finds the lines
that hold a token of code, so a line with code and a comment counts as
code, and every line of a multi-line string or bracket that is not a
docstring counts too.  Prints one row a file and a total row:

    python tools/code_lines.py src/trigzeros/*.py
"""

import ast
import io
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one Python source text."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - _docstring_lines(ast.parse(source)))


def main(paths) -> int:
    if not paths:
        print("usage: python tools/code_lines.py FILE.py ...", file=sys.stderr)
        return 1
    total = code = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            lines, own = count_lines(fh.read())
        print(f"{lines:7d} {own:7d}  {path}")
        total, code = total + lines, code + own
    print(f"{total:7d} {code:7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
