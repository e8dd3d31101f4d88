"""A lint on src/tensorcat: ``.entries`` of a symbol set is read only by the
symbol-set classes, file I/O, validation and reverse_braiding.  Everything
else reads F and R through ``value`` (cd.fval, cd.rval) or ``lookup``: for a
computed F, ``entries`` evaluates every admissible tuple."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tensorcat"

ALLOWED = {"_SymbolSet", "FSymbolSet", "_ComputedF", "RSymbolSet", "save_category",
           "validate_category", "load_category", "_inadmissible_entries",
           "reverse_braiding"}


def _entries_reads(text):
    """(line, enclosing scope) of each ``<expr>.entries`` in text outside the
    allowed classes and functions."""
    found = []

    def visit(node, scopes):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes = scopes + (node.name,)
        if (isinstance(node, ast.Attribute) and node.attr == "entries"
                and not ALLOWED.intersection(scopes)):
            found.append((node.lineno, ".".join(scopes) or "<module>"))
        for child in ast.iter_child_nodes(node):
            visit(child, scopes)

    visit(ast.parse(text), ())
    return found


def test_entries_is_read_only_where_allowed():
    stray = {path.name: found for path in sorted(SRC.glob("*.py"))
             if (found := _entries_reads(path.read_text()))}
    assert not stray, f".entries read outside the symbol sets, I/O and validation: {stray}"


def test_lint_flags_an_entries_read_elsewhere():
    text = ('def verify(cd):\n'
            '    return len(cd.F.entries)\n'
            'def save_category(cd, path):\n'
            '    return sorted(cd.F.entries.items())\n'
            'class FSymbolSet:\n'
            '    def f(self):\n'
            '        return self.entries\n'
            'x = cd.R.entries\n')
    assert _entries_reads(text) == [(2, "verify"), (8, "<module>")]
