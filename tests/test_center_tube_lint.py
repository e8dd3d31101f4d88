"""A lint on src/tensorcat/center_tube.py: F is read only by ``lookup``,
never one key at a time by ``fval`` or ``F.value``.  The tube build, its
star and the half-braiding readout and check join their label tuples and
read F in columns; a per-key read in a loop is what they replaced."""

import ast
from pathlib import Path

CENTER_TUBE = Path(__file__).resolve().parents[1] / "src" / "tensorcat" / "center_tube.py"


def _per_key_reads(text):
    """Line of each ``<expr>.fval`` and ``<expr>.F.value`` in text, called
    or bound to a name."""
    return sorted(node.lineno for node in ast.walk(ast.parse(text))
                  if isinstance(node, ast.Attribute)
                  and (node.attr == "fval" or (node.attr == "value"
                                               and isinstance(node.value, ast.Attribute)
                                               and node.value.attr == "F")))


def test_center_tube_reads_f_only_by_lookup():
    stray = _per_key_reads(CENTER_TUBE.read_text())
    assert not stray, f"per-key F reads in center_tube.py at lines {stray}"


def test_lint_flags_a_per_key_read():
    text = ('def build(cd):\n'
            '    v = cd.fval(1, 1, 1, 1, 0, 0)\n'
            '    w = cd.F.lookup(cols)\n'
            '    u = cd.F.value(1, 1, 1, 1, 0, 0)\n'
            '    r = cd.R.value(1, 1, 0)\n'
            '    fval = cd.fval\n'
            '    return [fval(*k) for k in keys], tube.cd.fval(*key)\n')
    assert _per_key_reads(text) == [2, 4, 6, 7]
