"""Count the code lines of the iqnlab package.

A code line is a source line that is not blank, not a comment-only line and
not part of a module, class or function docstring. Prints one count per
module of ``src/iqnlab`` and the total:

    python tools/code_lines.py [package directory]
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "iqnlab"


def docstring_lines(tree):
    """The line numbers that module, class and function docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in one module's source text."""
    skip = docstring_lines(ast.parse(source))
    return sum(1 for no, line in enumerate(source.splitlines(), start=1)
               if no not in skip and line.strip() and not line.strip().startswith("#"))


def main(argv):
    package = Path(argv[0]) if argv else PACKAGE
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:<16} {count:>5}")
    print(f"{'total':<16} {total:>5}")


if __name__ == "__main__":
    main(sys.argv[1:])
