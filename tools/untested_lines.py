#!/usr/bin/env python3
"""List the statements of src/cfraj that tier-1 never executes.

    python3 tools/untested_lines.py [PYTEST_ARGS...]

Runs tier-1, the ROADMAP's verify command `python -m pytest -q
--continue-on-collection-errors` (pytest's cache plugin off), in this
process, from the root of this checkout with its `src` first on sys.path,
under a line tracer installed with sys.settrace and threading.settrace
before cfraj is first imported. Only frames whose file lies under
src/cfraj are traced. Extra arguments replace the test selection, for
example a single test file. The standard library's tracing stands in for
a coverage package.

Then every statement of every module is read with ast, and each one no
line of which ran is printed as `path:line: source line`, outermost
first: an unexecuted function is one entry, not one per statement in it.
Docstrings and global or nonlocal declarations, which run no code, are
skipped. The CLI tests that start the CLI in a subprocess are not traced,
so code that only they reach is listed. Tracing slows the suite 2.5 to
4 times.
"""

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cfraj"
TIER1 = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]


def trace_tests(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code, and the lines run of each file of cfraj."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hits.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def _runs_code(node: ast.stmt) -> bool:
    if isinstance(node, (ast.Global, ast.Nonlocal)):
        return False
    return not (isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str))


def unexecuted(tree: ast.Module, ran: set[int]) -> list[ast.stmt]:
    """The outermost statements of tree none of whose lines is in ran."""
    missed = []

    def visit(body):
        for node in body:
            if not isinstance(node, ast.stmt) or not _runs_code(node):
                continue
            first = min([node.lineno] + [d.lineno for d in getattr(
                node, "decorator_list", ())])
            if ran.isdisjoint(range(first, node.end_lineno + 1)):
                missed.append(node)
                continue
            for field in ("body", "orelse", "finalbody", "handlers",
                          "cases"):
                for child in getattr(node, field, ()):
                    # except handlers and match cases hold statements
                    visit(child.body if not isinstance(child, ast.stmt)
                          else [child])

    visit(tree.body)
    return missed


def main() -> int:
    code, hits = trace_tests(sys.argv[1:] or TIER1)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for node in unexecuted(ast.parse(source), hits.get(str(path), set())):
            total += 1
            print(f"{path.relative_to(ROOT)}:{node.lineno}: "
                  f"{lines[node.lineno - 1].strip()}")
    print(f"{total} statements never executed (pytest exit code {code})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
