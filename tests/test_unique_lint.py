"""A lint on src/tensorcat: no np.unique, nor any of numpy's unique_*
functions.  With numpy 2.4 the first call imports numpy.ma, about 15 ms
warm and more in a fresh process, and every CLI request is a fresh
process.  Sort and compare neighbours, or count with bincount, instead."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tensorcat"


def _unique_uses(text):
    """Line of each np.unique* / numpy.unique* attribute in text, and of
    each ``from numpy import unique*``."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("unique")
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            found.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "numpy"
              and any(alias.name.startswith("unique") for alias in node.names)):
            found.append(node.lineno)
    return sorted(found)


def test_no_np_unique_in_the_library():
    stray = {path.name: found for path in sorted(SRC.glob("*.py"))
             if (found := _unique_uses(path.read_text()))}
    assert not stray, f"np.unique in src/tensorcat (imports numpy.ma on first call): {stray}"


def test_lint_flags_np_unique():
    text = ('import numpy as np\n'
            'a = np.unique(x)\n'
            'b = np.sort(x)\n'
            'c = numpy.unique_counts(x)\n'
            'from numpy import unique\n'
            'd = self.unique(x)\n'
            'f = np.unique\n')
    assert _unique_uses(text) == [2, 4, 5, 7]
