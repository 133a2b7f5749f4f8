"""Count the code lines of the Python files under a directory.

A code line is a physical line that carries a token of code: blank lines,
comment lines and the lines of docstrings (the string that opens a module,
class or function body) are left out. Every line of a statement or
expression that spans several lines counts, and so does every line of a
string that is not a docstring.

    python tests/code_lines.py src/bvpseries

prints each file's count, then the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(tree: ast.AST) -> set:
    """(line, column) of the first token of every docstring in ``tree``."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE and token.start not in docstrings:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(directory: str) -> int:
    total = 0
    for path in sorted(Path(directory).rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
