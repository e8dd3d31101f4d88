"""A lint on the joins of src/tensorcat: every ``_ChannelJoin.tuples`` call
in category_data.py and center_tube.py runs inside a ``for`` loop over
``_blocks(...)``, the one walker that sizes a join's blocks by the rows
counted from N.  The per-label walk and its second sizing,
``_leading_blocks``, are gone."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tensorcat"


def _unwalked_joins(text):
    """Line of each ``.tuples(`` call that is not in the body of a
    ``for ... in _blocks(...)`` loop."""
    tree = ast.parse(text)
    walked = {id(node) for loop in ast.walk(tree)
              if isinstance(loop, ast.For) and isinstance(loop.iter, ast.Call)
              and isinstance(loop.iter.func, ast.Name) and loop.iter.func.id == "_blocks"
              for stmt in loop.body for node in ast.walk(stmt)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "tuples" and id(node) not in walked)


def test_every_join_walks_the_row_budget():
    for name in ("category_data.py", "center_tube.py"):
        stray = _unwalked_joins((SRC / name).read_text())
        assert not stray, f"joins outside a _blocks loop in {name} at lines {stray}"


def test_the_leading_label_walker_is_gone():
    for path in sorted(SRC.glob("*.py")):
        assert "_leading_blocks" not in path.read_text(), path.name


def test_lint_flags_a_join_outside_the_walker():
    text = ('def check(join, rank, counts):\n'
            '    basis = join.tuples("axe yae", x=xs)\n'
            '    for a, b in _blocks(counts):\n'
            '        inst = join.tuples("abe ecd", a=a, b=b)\n'
            '        more = [join.tuples(s, **inst) for s in specs]\n'
            '    for a in range(rank):\n'
            '        join.tuples("abe ecd", a=np.array([a]))\n'
            '    for lead in _leading_blocks(rank, 1):\n'
            '        join.tuples("abe", a=lead)\n')
    assert _unwalked_joins(text) == [2, 7, 9]
