"""Count the lines of the package source.

Prints two totals over ``src/**/*.py``:

- ``wc -l``: every line, as ``wc -l`` counts them (newline characters);
- code lines: lines that hold a token other than a comment, newline,
  indent or dedent (found with ``tokenize``), minus the lines of docstrings,
  the first string statement of each module, class and function (found with
  ``ast``).  Blank lines and comment-only lines are not code lines.

Usage: ``python3 tools/count_lines.py [ROOT]`` (default: the repository root),
``--per-file`` adds one row per file.
"""
from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

NON_CODE_TOKENS = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers covered by the docstring of the module and of each class and function."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = node.body
        if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            if isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """Lines holding a token other than a comment, newline or indent, outside docstrings."""
    token_lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NON_CODE_TOKENS:
            token_lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(token_lines - docstring_lines(ast.parse(text)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", default=Path(__file__).resolve().parent.parent, type=Path)
    parser.add_argument("--per-file", action="store_true", help="print one row per file")
    args = parser.parse_args(argv)
    files = sorted((args.root / "src").rglob("*.py"))
    total_wc = total_code = 0
    for path in files:
        text = path.read_text(encoding="utf-8")
        wc, code = text.count("\n"), code_lines(text)
        total_wc += wc
        total_code += code
        if args.per_file:
            print(f"{wc:6d} {code:6d}  {path.relative_to(args.root)}")
    print(f"src wc -l: {total_wc}")
    print(f"src code lines: {total_code}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
