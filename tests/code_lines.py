"""Code lines per module of a Python source directory, then their total.

A code line is a physical line that holds a token other than a comment,
less the lines of module, class and function docstrings: blanks, comments
and docstrings do not count.  Run from the repository root:

    python tests/code_lines.py                # src/cotesroot
    python tests/code_lines.py DIR            # another source directory
    python tests/code_lines.py OLD_DIR NEW_DIR

Given two directories (say, a ``git archive`` of the parent commit and the
working tree), it prints old -> new for every module and the total.  It only
prints; it checks nothing.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                docstring = node.body[0]
                lines.difference_update(range(docstring.lineno, docstring.end_lineno + 1))
    return len(lines)


def count(directory) -> dict[str, int]:
    """Code lines per module of ``directory``, most first."""
    counts = {path.stem: code_lines(path.read_text()) for path in Path(directory).glob("*.py")}
    return dict(sorted(counts.items(), key=lambda item: (-item[1], item[0])))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", nargs="*", default=["src/cotesroot"], metavar="DIR",
                        help="one source directory, or the old and the new one")
    args = parser.parse_args(argv)
    if len(args.dirs) == 1:
        counts = count(args.dirs[0])
        for name, lines in counts.items():
            print(f"{name} {lines}")
        print(f"total {sum(counts.values())}")
    elif len(args.dirs) == 2:
        old, new = count(args.dirs[0]), count(args.dirs[1])
        for name in {**new, **old}:
            print(f"{name} {old.get(name, 0)} -> {new.get(name, 0)}")
        print(f"total {sum(old.values())} -> {sum(new.values())}")
    else:
        parser.error("give one source directory, or the old and the new one")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
