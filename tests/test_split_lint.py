"""A lint on the seeded spectral split of src/tensorcat: the corner split of
the tube algebra and the split of x (x) A both go through
``category_data.seeded_split``.  ``np.linalg.eigh`` is called once, there;
the seeded streams are made only in ``decompose_center`` and
``free_module_decomposition``; and no loop re-runs a split, so the attempts
of both are the one retry loop inside ``seeded_split``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tensorcat"
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _calls(text):
    """(callee, top-level function or class, in a loop of its function) of
    every call in text to a name or an attribute."""
    found = []

    def visit(node, owner, looped):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            callee = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            found.append((callee, owner, looped))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef, ast.Lambda)):
                visit(child, getattr(child, "name", owner) if owner is None else owner, False)
            else:
                visit(child, owner, looped or isinstance(node, LOOPS))

    visit(ast.parse(text), None, False)
    return found


def _split_faults(texts):
    """Each call that breaks the one split: eigh outside seeded_split, a
    SeededDraws stream outside the two splits' entry points, and a split
    re-run by a loop."""
    faults = []
    for name, text in texts.items():
        for callee, owner, looped in _calls(text):
            if callee == "eigh" and owner != "seeded_split":
                faults.append((name, owner, "eigh"))
            if callee == "SeededDraws" and owner not in ("decompose_center",
                                                         "free_module_decomposition"):
                faults.append((name, owner, "SeededDraws"))
            if callee in ("seeded_split", "_corner_projections") and looped:
                faults.append((name, owner, f"{callee} in a loop"))
    return faults


def test_one_eigh_one_stream_per_split_one_retry_loop():
    texts = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _split_faults(texts) == []
    eighs = [(name, owner) for name, text in texts.items()
             for callee, owner, _looped in _calls(text) if callee == "eigh"]
    assert eighs == [("category_data.py", "seeded_split")]


def test_lint_flags_a_second_split():
    text = ('def seeded_split(what, sizes, rng, hermitian, accept):\n'
            '    for _ in range(4):\n'
            '        w, V = np.linalg.eigh(mats)\n'
            'def decompose_center(tube, seed=0):\n'
            '    rng = SeededDraws((seed, 1))\n'
            '    for _ in range(4):\n'
            '        _corner_projections(tube, xs, weights, rng)\n'
            'def other(cd, h):\n'
            '    lam, U = np.linalg.eigh(h + h.conj().T)\n'
            '    rng = SeededDraws((0, 2))\n'
            '    return [seeded_split("x", s, rng, f, g) for s in sizes]\n')
    assert _split_faults({"planted.py": text}) == [
        ("planted.py", "decompose_center", "_corner_projections in a loop"),
        ("planted.py", "other", "eigh"),
        ("planted.py", "other", "SeededDraws"),
        ("planted.py", "other", "seeded_split in a loop")]
