"""A lint on src/tensorcat: only the ``eval`` command (cli.py) and the public
exports (__init__.py) import from diagram_eval.  Every library check and
solver reads F and R directly; no library path evaluates a diagram."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tensorcat"

ALLOWED = {"cli.py", "__init__.py"}


def _diagram_eval_imports(text):
    """Line of each import of diagram_eval in text, at any depth."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        if any(name.split(".")[-1] == "diagram_eval" for name in names):
            found.append(node.lineno)
    return found


def test_only_cli_and_init_import_diagram_eval():
    stray = {path.name: found for path in sorted(SRC.glob("*.py"))
             if path.name not in ALLOWED and (found := _diagram_eval_imports(path.read_text()))}
    assert not stray, f"diagram_eval imported outside cli.py and __init__.py: {stray}"


def test_lint_flags_a_diagram_eval_import():
    text = ('from .diagram_eval import insert\n'
            'def solve(cd):\n'
            '    from .diagram_eval import compose_values\n'
            '    from . import diagram_eval\n'
            '    import tensorcat.diagram_eval as de\n'
            '    from .category_data import CategoryData\n')
    assert _diagram_eval_imports(text) == [1, 3, 4, 5]
