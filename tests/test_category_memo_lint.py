"""A lint on src/tensorcat: a CategoryData carries no state filled in by its
readers.  No module assigns to ``cd.<attr>`` or ``cd.<attr>[k]`` (plain,
augmented or annotated), and the CategoryData class declares no
``cached_property``: caches belong to the symbol sets and rings that own
the data, or to one call."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tensorcat"


def _stores(node):
    """The targets an assignment statement stores to, tuples unpacked."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    while any(isinstance(t, (ast.Tuple, ast.List)) for t in targets):
        targets = [e for t in targets
                   for e in (t.elts if isinstance(t, (ast.Tuple, ast.List)) else [t])]
    return targets


def _category_writes(text):
    """(line, what) of each store to cd.<attr> or cd.<attr>[k], and of each
    cached_property declared in a class CategoryData."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            for t in _stores(node):
                t = t.value if isinstance(t, ast.Subscript) else t
                if (isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                        and t.value.id == "cd"):
                    found.append((node.lineno, f"cd.{t.attr}"))
        if isinstance(node, ast.ClassDef) and node.name == "CategoryData":
            for item in node.body:
                for dec in getattr(item, "decorator_list", []):
                    name = dec.attr if isinstance(dec, ast.Attribute) else getattr(dec, "id", "")
                    if name == "cached_property":
                        found.append((item.lineno, f"cached_property {item.name}"))
    return sorted(found)


def test_no_state_is_written_into_a_category():
    stray = {path.name: found for path in sorted(SRC.glob("*.py"))
             if (found := _category_writes(path.read_text()))}
    assert not stray, f"state written into a CategoryData: {stray}"


def test_lint_flags_a_category_memo():
    text = ('def f_moves(cd, key):\n'
            '    if key not in cd.cache:\n'
            '        cd.cache[key] = 1\n'
            '    cd.count += 1\n'
            '    cd.F, other = 0, 1\n'
            '    ring.cache[key] = 2\n'
            '    return cd.cache[key]\n'
            'class CategoryData:\n'
            '    @functools.cached_property\n'
            '    def memo(self):\n'
            '        return {}\n'
            'class FusionRing:\n'
            '    @cached_property\n'
            '    def table(self):\n'
            '        return {}\n')
    assert _category_writes(text) == [(3, "cd.cache"), (4, "cd.count"), (5, "cd.F"),
                                      (10, "cached_property memo")]
