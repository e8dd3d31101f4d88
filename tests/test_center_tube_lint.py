"""Lints on src/tensorcat/center_tube.py.  F is read only by ``lookup``,
never one key at a time by ``fval`` or ``F.value``: the tube build, its
star and the half-braiding readout and check join their label tuples and
read F in columns; a per-key read in a loop is what they replaced.  And
decompose_center and _corner_simples walk no ``range(... rank ...)``: the
corners are split at once and their modules built in batches across
corners; a loop over the corners is what those replaced.  Nor do they or
_half_braiding_readout build a shape that names rank three or more times:
the traces are held on the admissible triples and the readout scale per
tube basis vector, where dense (rank, rank, rank) tables were mostly
zeros."""

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


def _rank_names(node):
    """How many times node names rank, as a name or an attribute."""
    return sum(isinstance(n, ast.Name) and n.id == "rank"
               or isinstance(n, ast.Attribute) and n.attr == "rank" for n in ast.walk(node))


def _rank_loops(text, names=("decompose_center", "_corner_simples")):
    """Line of each for loop or comprehension, in the functions named, over
    a range(...) whose arguments mention rank."""
    return sorted(loop.iter.lineno
                  for fn in ast.walk(ast.parse(text))
                  if isinstance(fn, ast.FunctionDef) and fn.name in names
                  for loop in ast.walk(fn) if isinstance(loop, (ast.For, ast.comprehension))
                  and isinstance(loop.iter, ast.Call) and isinstance(loop.iter.func, ast.Name)
                  and loop.iter.func.id == "range" and _rank_names(loop.iter))


def test_decompose_center_walks_no_corner_loop():
    stray = _rank_loops(CENTER_TUBE.read_text())
    assert not stray, f"loops over range(rank) in decompose_center or _corner_simples at {stray}"


def test_lint_flags_a_corner_loop():
    text = ('def decompose_center(tube):\n'
            '    for x in range(rank):\n'
            '        pass\n'
            '    S = sum(f(c) for c in range(tube.cd.ring.rank))\n'
            '    for lo in range(0, len(D), step):\n'
            '        pass\n'
            'def _corner_simples(tube):\n'
            '    return [x for x in range(1, rank + 1)], list(range(rank))\n'
            'def _corner_modules(tube):\n'
            '    for y in range(rank):\n'
            '        pass\n')
    assert _rank_loops(text) == [2, 4, 8]


def _rank_cubed_shapes(text, names=("decompose_center", "_corner_simples",
                                    "_half_braiding_readout")):
    """Line of each shape, in the functions named, that names rank three or
    more times: a tuple literal, ``(rank,) * k`` or ``rank ** k`` with
    k >= 3."""
    def cubed(node):
        if isinstance(node, ast.Tuple):
            return _rank_names(node) >= 3
        return (isinstance(node, ast.BinOp) and isinstance(node.right, ast.Constant)
                and type(node.right.value) is int
                and (isinstance(node.op, ast.Pow)
                     or isinstance(node.op, ast.Mult) and isinstance(node.left, ast.Tuple))
                and _rank_names(node.left) * node.right.value >= 3)

    return sorted({node.lineno
                   for fn in ast.walk(ast.parse(text))
                   if isinstance(fn, ast.FunctionDef) and fn.name in names
                   for node in ast.walk(fn) if cubed(node)})


def test_center_holds_no_rank_cubed_table():
    stray = _rank_cubed_shapes(CENTER_TUBE.read_text())
    assert not stray, f"shapes naming rank three times in center_tube.py at lines {stray}"


def test_lint_flags_a_rank_cubed_table():
    text = ('def _corner_simples(tube):\n'
            '    D = np.zeros((len(Q), rank, rank, rank), dtype=complex)\n'
            '    E = np.zeros((len(Q), rank, rank))\n'
            'def decompose_center(tube):\n'
            '    step = max(1, _ENTRIES // rank ** 3)\n'
            '    w = part.reshape((-1,) + (rank,) * 3)\n'
            '    v = part.reshape((-1,) + (rank,) * 2, rank ** 2)\n'
            'def _half_braiding_readout(tube):\n'
            '    scale = np.zeros((rank * rank, cd.ring.rank, rank))\n'
            'def _corner_modules(tube):\n'
            '    H = np.zeros((len(Q), rank, rank, rank))\n')
    assert _rank_cubed_shapes(text) == [2, 5, 6, 9]
