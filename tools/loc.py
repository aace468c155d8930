"""Count the lines of each module of a package: total, docstring and code.

    python3 tools/loc.py SRC [SRC2]

SRC is a package directory, such as src/orbitfold; each of its *.py files
is one module. For every module one line gives its total lines, the lines
its docstrings span and the rest (code, comments and blank lines). A
docstring is the first statement of a module, class or function when that
statement is a string; it is found with `ast`, and each one counts every
line from its first to its last. Given SRC2 too, each line gives both
trees' counts and the change from SRC to SRC2, and a module present in
only one tree counts 0 lines in the other:

    python3 tools/loc.py ../parent/src/orbitfold src/orbitfold
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

COLUMNS = ("total", "doc", "code")


def docstring_lines(source: str) -> int:
    """Lines spanned by the docstrings of a module's source text."""
    lines = 0
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        if ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines += first.end_lineno - first.lineno + 1
    return lines


def count(source: str) -> tuple[int, int, int]:
    """(total, docstring, code) lines of one module's source text."""
    total = len(source.splitlines())
    doc = docstring_lines(source)
    return total, doc, total - doc


def count_tree(src: Path) -> dict[str, tuple[int, int, int]]:
    """The counts of every module of a package directory, by file name."""
    return {path.name: count(path.read_text()) for path in sorted(src.glob("*.py"))}


def _total(counts: dict[str, tuple[int, int, int]]) -> tuple[int, ...]:
    return tuple(sum(c[k] for c in counts.values()) for k in range(len(COLUMNS)))


def report(a: dict[str, tuple[int, int, int]],
           b: dict[str, tuple[int, int, int]] | None = None) -> str:
    """The table loc.py prints: one row per module and a total row."""
    names = sorted(set(a) | set(b or {}))
    width = max([len(name) for name in names] + [len("total")])
    if b is None:
        rows = [(name, a[name]) for name in names] + [("total", _total(a))]
        header = COLUMNS
    else:
        zero = (0, 0, 0)
        pairs = [(name, a.get(name, zero), b.get(name, zero)) for name in names]
        pairs.append(("total", _total(a), _total(b)))
        rows = [(name, tuple(v for k in range(len(COLUMNS))
                             for v in (x[k], y[k], y[k] - x[k])))
                for name, x, y in pairs]
        header = tuple(f"{col}{tag}" for col in COLUMNS for tag in ("_a", "_b", "_change"))
    cells = [max(len(h), 5) + 2 for h in header]
    lines = [f"{'module':<{width}}" + "".join(f"{h:>{c}}" for h, c in zip(header, cells))]
    for name, values in rows:
        lines.append(f"{name:<{width}}" + "".join(f"{v:>{c}}" for v, c in zip(values, cells)))
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path, help="package directory")
    parser.add_argument("src2", type=Path, nargs="?", help="a second one to compare")
    args = parser.parse_args(argv)
    trees = [args.src] + ([args.src2] if args.src2 else [])
    for tree in trees:
        if not tree.is_dir():
            parser.error(f"not a directory: {tree}")
    sys.stdout.write(report(*[count_tree(tree) for tree in trees]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
