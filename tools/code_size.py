"""Count the code lines of each ``netsteer`` module and the package's exports.

    python3 tools/code_size.py [SRC]

For every ``SRC/netsteer/*.py`` (``SRC`` defaults to the repository's
``src``) prints the number of code lines, then their total and the number
of names that ``netsteer/__init__.py`` exports.  A code line is a line
that holds at least one token other than a comment, and that is not part of
a docstring (the string that opens a module, class or function body).
Blank lines, comment lines and docstrings are not counted, so the total
moves with the code and not with its commentary.  Nothing is imported from
the package.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Lines of ``path`` holding a token other than a comment, docstrings excluded."""
    with open(path, "rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    lines = set()
    for tok in tokens:
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(path.read_bytes())))


def exports(init: Path) -> int:
    """Public names bound by the ``from ... import`` statements of ``init``."""
    tree = ast.parse(init.read_bytes())
    return sum(not (alias.asname or alias.name).startswith("_")
               for node in tree.body if isinstance(node, ast.ImportFrom)
               for alias in node.names)


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: code_size.py [SRC]", file=sys.stderr)
        return 2
    package = Path(argv[0] if argv else REPO / "src") / "netsteer"
    modules = sorted(package.glob("*.py"))
    if not modules:
        print(f"error: no modules in {package}", file=sys.stderr)
        return 2
    counts = {m.name: code_lines(m) for m in modules}
    width = max(map(len, counts))
    for name, n in counts.items():
        print(f"{name:<{width}}  {n:>5}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5}")
    print(f"{'exports':<{width}}  {exports(package / '__init__.py'):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
