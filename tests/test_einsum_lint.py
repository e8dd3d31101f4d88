"""A lint on src/tensorcat: every np.einsum call with three or more operands
passes optimize.  Without it numpy evaluates the whole contraction as one
plain loop over every index, which at tube scale cost seconds where two
BLAS products take milliseconds."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tensorcat"


def _unoptimized_einsums(text):
    """(line, operand count) of each np.einsum(...) call in text with three or
    more operands, or a starred argument, and no optimize keyword."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "einsum" and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("np", "numpy")):
            continue
        operands = node.args[1:]
        starred = any(isinstance(a, ast.Starred) for a in operands)
        if (len(operands) >= 3 or starred) and not any(k.arg == "optimize"
                                                       for k in node.keywords):
            found.append((node.lineno, len(operands)))
    return found


def test_multi_operand_einsums_pass_optimize():
    stray = {path.name: found for path in sorted(SRC.glob("*.py"))
             if (found := _unoptimized_einsums(path.read_text()))}
    assert not stray, f"np.einsum with three or more operands and no optimize: {stray}"


def test_lint_flags_a_plain_three_operand_einsum():
    text = ('import numpy as np\n'
            'a = np.einsum("ij,jk,kl->il", A, B, C)\n'
            'b = np.einsum("ij,jk,kl->il", A, B, C, optimize=True)\n'
            'c = np.einsum("ij,jk->ik", A, B)\n'
            'd = np.einsum("ij,jk->ik", *ops)\n')
    assert _unoptimized_einsums(text) == [(2, 3), (5, 1)]
