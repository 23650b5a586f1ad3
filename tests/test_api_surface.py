"""Tooling guard on the package's public surface: every public top-level
name has a caller in code outside the tests, and the package exports exactly
the names the README's "Library" section imports."""

import ast
from pathlib import Path

import ikann

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "ikann").glob("*.py"))
# The acceptance gate is fixed, so what it calls is kept.
CALLERS = [*PACKAGE, *sorted((ROOT / "perfbench").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]

# Readers of the program's own files, for users to load a report or a grid
# back; nothing in the package needs to read what it has just written.
ALLOWED_UNUSED = {"load_report", "import_dataset"}


def public_definitions(tree):
    """(name, first line, last line) of each public top-level function,
    class and assignment of a module."""
    for node in tree.body:
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


def name_uses(tree):
    """(name, line) of each name the code of a module uses: variables,
    attributes and imported names. Docstrings, comments and string text are
    not code; the expressions inside an f-string are."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            for part in node.name.split("."):
                yield part, node.lineno


def unused_public_names(package=PACKAGE, callers=CALLERS):
    """Public names of the ``package`` modules that the code of ``callers``
    uses nowhere outside their own definition."""
    trees = {p: ast.parse(p.read_text()) for p in {*package, *callers}}
    uses = {p: list(name_uses(trees[p])) for p in callers}
    unused = []
    for path in package:
        for name, first, last in public_definitions(trees[path]):
            if not any(used == name and (p != path or not first <= line <= last)
                       for p, found in uses.items() for used, line in found):
                unused.append(name)
    return unused


def test_public_names_have_callers_outside_tests():
    assert sorted(unused_public_names()) == sorted(ALLOWED_UNUSED)


def test_guard_counts_code_not_prose(tmp_path):
    # a mutant package with a public function that prose, comments and
    # string text name but no code calls
    mutant = tmp_path / "mutant.py"
    mutant.write_text(
        'def orphan():\n'
        '    """Return nothing."""\n'
        '\n'
        '\n'
        'def caller():\n'
        '    """Unlike :func:`orphan`, which nothing calls."""\n'
        '    # orphan() would go here\n'
        '    return f"orphan {caller.__name__}"\n')
    assert "orphan" in unused_public_names(PACKAGE + [mutant], CALLERS + [mutant])
    mutant.write_text(mutant.read_text() + '\n\nVALUE = f"{orphan()}"\n')
    assert "orphan" not in unused_public_names(PACKAGE + [mutant], CALLERS + [mutant])


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
