"""Count code-only lines of Python files: no blanks, comments or docstrings.

Usage::

    python tools/code_lines.py src/    # per-file counts, then the total

A line counts when a token other than a comment, a line break or an
indent change starts on it or spans it.  Docstrings (the leading string
statement of a module, class or function) do not count; any other string
literal, however many lines it spans, does.  Exits 1 if a file cannot be
tokenized or parsed.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

#: Tokens that never make a line code.
_TRIVIA = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """Code-only lines of one module's source text."""
    docstrings = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _TRIVIA:
            continue
        code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstrings)


def python_files(path: Path) -> list[Path]:
    return sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path", type=Path)
    path = parser.parse_args(argv).path
    if not path.exists():
        parser.error(f"no such path: {path}")
    total = 0
    for file in python_files(path):
        try:
            n = count_code_lines(file.read_text(encoding="utf-8"))
        except (SyntaxError, tokenize.TokenError, UnicodeDecodeError) as error:
            print(f"{file}: cannot count: {error}", file=sys.stderr)
            return 1
        total += n
        print(f"{n:7d}  {file}")
    print(f"{total:7d}  {path} (total)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
