"""Tooling guard on the package's public surface: every public top-level
name has a caller outside the tests, and the package exports exactly the
names the README's "Library" section imports."""

import ast
import re
from pathlib import Path

import ikann

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ikann"

# Readers of the program's own files, for users to load a report or a grid
# back; nothing in the package needs to read what it has just written.
ALLOWED_UNUSED = {"load_report", "import_dataset"}


def public_definitions(path):
    """(name, first line, last line) of each public top-level function,
    class and assignment of a module."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, node.lineno, node.end_lineno)
                    for name in names if not name.startswith("_"))


def unused_public_names():
    """Public names that occur as a whole word nowhere in the package or the
    benchmark outside their own definition."""
    sources = {p: p.read_text().splitlines()
               for p in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, first, last in public_definitions(path):
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(line)
                       for p, lines in sources.items()
                       for i, line in enumerate(lines, start=1)
                       if p != path or not first <= i <= last):
                unused.append(name)
    return unused


def test_public_names_have_callers_outside_tests():
    assert sorted(unused_public_names()) == sorted(ALLOWED_UNUSED)


def readme_library_names():
    text = (ROOT / "README.md").read_text()
    block = text.split("## Library", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    (names,) = [[a.name for a in node.names] for node in ast.parse(block).body
                if isinstance(node, ast.ImportFrom) and node.module == "ikann"]
    return names


def test_star_import_is_the_readme_library():
    namespace = {}
    exec("from ikann import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(readme_library_names()) == sorted(ikann.__all__)
