"""Every definition in the package has a caller outside the tests.

A function, method or class of src/cfraj (dunder methods aside) counts
as called when a package module, a non-test file of perfbench/ or a
script of tools/ names it, as a Name, an Attribute or an imported name,
outside its own body. Names are matched bare, so a definition sharing
its name with another's caller passes; the check catches code that
nothing names at all.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Each half of a serialisation pair stays for the round trip: a format
# the package writes is one it can read back, and the reverse.
ROUND_TRIP = {"serialize", "parse", "to_json", "from_json",
              "to_json_doc", "from_json_doc"}


def _parsed(paths):
    return {path: ast.parse(path.read_text()) for path in paths}


def _references(trees) -> dict[str, list[tuple[Path, int]]]:
    """Each name to the (file, line) places that name it."""
    refs: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rsplit(".", 1)[-1]
            else:
                continue
            refs.setdefault(name, []).append((path, node.lineno))
    return refs


def uncalled(root: Path = ROOT) -> list[str]:
    package = _parsed(sorted((root / "src" / "cfraj").glob("*.py")))
    callers = _parsed(
        [p for p in sorted((root / "perfbench").glob("*.py"))
         if not p.name.startswith("test_")]
        + sorted((root / "tools").glob("*.py")))
    refs = _references({**package, **callers})
    found = []
    for path, tree in package.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__") \
                    or name in ROUND_TRIP:
                continue
            body = range(node.lineno, node.end_lineno + 1)
            if all(where == path and line in body
                   for where, line in refs.get(name, [])):
                found.append(f"{path.relative_to(root)}:{node.lineno} {name}")
    return found


def test_every_package_definition_has_a_caller():
    assert uncalled() == []
