"""Count the lines of the package: total lines and code lines.

    python3 scripts/count_lines.py [FILE ...]

With no argument it counts ``src/splitmin/*.py``.  Total lines are what
``wc -l`` counts.  Code lines are the lines left once blank lines, comment
lines and docstrings are taken out: a comment line holds nothing but a
comment (found by ``tokenize``), and a docstring is a string standing as the
first statement of a module, class or function (found by ``ast``), every
line it spans.  A string anywhere else, a continuation line included, is code.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SKIPPED:
            code.update(range(token.start[0], token.end[0] + 1))
    return source.count("\n"), len(code - docstrings)


def main(argv=None) -> int:
    paths = [Path(p) for p in (argv or [])] or sorted((ROOT / "src" / "splitmin").glob("*.py"))
    total = code = 0
    for path in paths:
        lines, code_lines = count(path.read_text())
        total, code = total + lines, code + code_lines
    print(f"{total} total lines, {code} code lines in {len(paths)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
