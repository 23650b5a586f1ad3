"""Tooling guard on the package's surface: every public top-level name has
a caller in code outside the tests, every private top-level name has one in
the package, and the package exports exactly the names the README's
"Library" section imports."""

import ast
from pathlib import Path

import ikann

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "ikann").glob("*.py"))
# The acceptance gate is fixed, so what it calls is kept.
CALLERS = [*PACKAGE, *sorted((ROOT / "perfbench").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]


def top_level_definitions(tree):
    """(name, first line, last line) of each top-level function, class and
    assignment of a module; dunder names such as ``__all__`` are Python's."""
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
                    for name in names if not (name.startswith("__") and name.endswith("__")))


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


def unused_names(package=PACKAGE, callers=CALLERS):
    """Top-level names of the ``package`` modules that no code uses outside
    their own definition: for a public name, the code of ``callers``; for a
    private one, the code of ``package``. The imports of an ``__init__.py``
    are re-exports, which call nothing, so they count as no use."""
    trees = {p: ast.parse(p.read_text()) for p in {*package, *callers}}
    uses = {p: [] if p.name == "__init__.py" else list(name_uses(tree))
            for p, tree in trees.items()}
    unused = []
    for path in package:
        for name, first, last in top_level_definitions(trees[path]):
            users = package if name.startswith("_") else callers
            if not any(used == name and (p != path or not first <= line <= last)
                       for p in users for used, line in uses[p]):
                unused.append(name)
    return unused


def test_public_names_have_callers_outside_tests():
    assert [name for name in unused_names() if not name.startswith("_")] == []


def test_private_names_have_callers_in_the_package():
    assert [name for name in unused_names() if name.startswith("_")] == []


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
    assert "orphan" in unused_names(PACKAGE + [mutant], CALLERS + [mutant])
    mutant.write_text(mutant.read_text() + '\n\nVALUE = f"{orphan()}"\n')
    assert "orphan" not in unused_names(PACKAGE + [mutant], CALLERS + [mutant])


def test_guard_counts_private_names(tmp_path):
    # a mutant package module with a private constant that only a caller
    # outside the package and its own definition use
    mutant, bench = tmp_path / "mutant.py", tmp_path / "bench.py"
    mutant.write_text('_TOL = 1e-12\n')
    bench.write_text('from mutant import _TOL\n')
    assert "_TOL" in unused_names(PACKAGE + [mutant], CALLERS + [mutant, bench])
    mutant.write_text(mutant.read_text() + '\n\nLIMIT = 2 * _TOL\n')
    assert "_TOL" not in unused_names(PACKAGE + [mutant], CALLERS + [mutant, bench])


def test_guard_counts_no_re_export(tmp_path):
    # a mutant package module with a public function that only the mutant
    # package's __init__.py imports, as a re-export
    mutant, init = tmp_path / "mutant.py", tmp_path / "__init__.py"
    mutant.write_text('def orphan():\n    return None\n')
    init.write_text('from .mutant import orphan\n\n__all__ = ["orphan"]\n')
    assert "orphan" in unused_names(PACKAGE + [mutant, init], CALLERS + [mutant, init])
    mutant.write_text(mutant.read_text() + '\n\nVALUE = orphan()\n')
    assert "orphan" not in unused_names(PACKAGE + [mutant, init], CALLERS + [mutant, init])


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
