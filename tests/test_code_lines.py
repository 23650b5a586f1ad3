"""tools/code_lines.py's count of code lines."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)


def test_docstring_and_comments_count_nothing():
    source = '"""A module.\n\nOf two paragraphs.\n"""\n\n# a comment\n    # an indented one\n'
    assert code_lines.code_lines(source) == 0


def test_function_with_a_docstring_counts_its_def_and_body():
    source = 'def f():\n    """Return\n    nothing."""\n    x = 1  # a trailing comment\n'
    assert code_lines.code_lines(source) == 2
