#!/usr/bin/env python3
"""Code lines of each module of the ``stefansim`` package, and their total.

A line counts when it holds a token of code.  Blank lines, lines that
hold only a comment and the lines of a module's, class's or function's
docstring do not count; a line of code with a trailing comment does.
Run from the repository root:

    python scripts/code_lines.py [package directory]

It prints one ``<module> <lines>`` row per module, sorted by name, and a
last row ``total <lines>``.
"""
import argparse
import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "stefansim"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers of every docstring in the module ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in the Python text ``source``."""
    lines = set()
    for token in tokenize.tokenize(io.BytesIO(source.encode()).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("package", nargs="?", type=Path, default=PACKAGE)
    args = p.parse_args()
    counts = {path.stem: code_lines(path.read_text())
              for path in sorted(args.package.glob("*.py"))}
    for name, count in counts.items():
        print(f"{name} {count}")
    print(f"total {sum(counts.values())}")


if __name__ == "__main__":
    main()
