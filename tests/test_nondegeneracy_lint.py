"""A lint on how src/tensorcat decides nondegeneracy: the braided data by a
trivial Muger center, in ``braided_analysis``, and the center by the
unitarity of S / D.  No module calls an SVD, and only ``braided_analysis``
and the ``centralizer`` command of ``cli.py`` call ``muger_centralizer``;
everything else asks ``is_nondegenerate``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tensorcat"
CENTRALIZER_CALLERS = ("braided_analysis.py", "cli.py")


def _nondegeneracy_faults(texts):
    """(file, line, callee) of every svd call, and of every muger_centralizer
    call outside CENTRALIZER_CALLERS."""
    faults = []
    for name, text in texts.items():
        for node in ast.walk(ast.parse(text)):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, (ast.Name, ast.Attribute))):
                continue
            callee = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            if callee == "svd" or (callee == "muger_centralizer"
                                   and name not in CENTRALIZER_CALLERS):
                faults.append((name, node.lineno, callee))
    return sorted(faults)


def test_no_svd_and_one_centralizer_rule():
    texts = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _nondegeneracy_faults(texts) == []


def test_lint_flags_an_svd_and_a_stray_centralizer():
    texts = {
        "planted.py": ('import numpy as np\n'
                       'def nondegenerate(cd, S):\n'
                       '    smin = np.linalg.svd(S, compute_uv=False)[-1]\n'
                       '    return muger_centralizer(cd, range(cd.ring.rank)) == (0,)\n'),
        "cli.py": 'cent = muger_centralizer(cd, sub)\n',
        "other.py": 'from numpy.linalg import svd\nu, s, vh = svd(a)\n',
    }
    assert _nondegeneracy_faults(texts) == [
        ("other.py", 2, "svd"),
        ("planted.py", 3, "svd"),
        ("planted.py", 4, "muger_centralizer")]
