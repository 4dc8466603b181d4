"""Count the code, docstring, comment and blank lines of Python modules.

Usage: python tools/loc.py [DIR_OR_FILE ...]   (default: src/umbra)

A line is a docstring line when it lies within the string that opens a module,
class or function body, as `ast` finds it; otherwise it is blank when it holds only
whitespace, a comment line when it starts with '#', and a code line else.  So the
four counts of a module add up to its `wc -l`.  One row is printed per module, then
the total.
"""

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def count(source: str) -> dict:
    """The number of lines of each kind in one module's source."""
    lines = source.splitlines()
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstring.update(range(first.lineno, first.end_lineno + 1))
    tally = dict.fromkeys(KINDS, 0)
    for i, line in enumerate(lines, 1):
        text = line.strip()
        kind = ("docstring" if i in docstring else "blank" if not text
                else "comment" if text.startswith("#") else "code")
        tally[kind] += 1
    return tally


def main(argv=None) -> int:
    targets = [Path(p) for p in (argv if argv is not None else sys.argv[1:]) or ["src/umbra"]]
    files = sorted(f for t in targets for f in (t.rglob("*.py") if t.is_dir() else [t]))
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<32}" + "".join(f"{k:>10}" for k in KINDS))
    for f in files:
        tally = count(f.read_text())
        for k in KINDS:
            total[k] += tally[k]
        print(f"{str(f):<32}" + "".join(f"{tally[k]:>10}" for k in KINDS))
    print(f"{'total':<32}" + "".join(f"{total[k]:>10}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
