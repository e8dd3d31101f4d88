"""The tolerance policy: one input check, and every threshold from cd.tolerance.

CategoryData.tolerance bounds the coherence residuals of the input data;
residual_tolerance, identity_tolerance and noise_floor derive from it, and
split_resolution, which conditions the seeded splits, is fixed.  The lint
below keeps new literal thresholds out of src/tensorcat, the other tests
check that the tolerance is validated once, reaches the checks, and leaves
the splits working at a loose value.
"""

import ast
import io
import json
import tokenize
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tensorcat import catalog
from tensorcat.algebra import group_algebra
from tensorcat.category_data import (CategoryData, check_tolerance, load_category,
                                     save_category)
from tensorcat.center_tube import (build_tube_algebra, center_global_checks,
                                   center_presentation, decompose_center,
                                   half_braiding_check, theorem_c_shadow)
from tensorcat.cli import main
from tensorcat.errors import StructuralError, TensorcatError
from tensorcat.local_modules import (ModuleObject, enumerate_local_modules,
                                     local_fusion)

SRC = Path(__file__).resolve().parents[1] / "src" / "tensorcat"

# Scopes whose float literals below 1e-3 are not thresholds on derived data.
ALLOWED = {
    ("category_data.py", "CategoryData"),                     # default, split_resolution
    ("category_data.py", "CategoryData.residual_tolerance"),
    ("category_data.py", "CategoryData.identity_tolerance"),
    ("category_data.py", "CategoryData.noise_floor"),
    ("category_data.py", "QuadraticForm.validate"),           # exact phases of a form
    ("algebra.py", "solve_support_algebra"),                  # solver stopping rules
    ("fusion_ring.py", "fp_dimensions"),                      # convergence, FP identity
}

BAD_TOLERANCES = ["nan", "inf", "0", "-1", "abc"]


def _scopes(tree):
    """(first line, last line, dotted name) of every class and function."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.append((child.lineno, child.end_lineno, prefix + child.name))
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def _small_float_literals():
    """(file, innermost scope, line, literal) of each float literal in (0, 1e-3)."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        scopes = _scopes(ast.parse(text))
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type != tokenize.NUMBER:
                continue
            value = ast.literal_eval(tok.string)
            if isinstance(value, float) and 0 < value < 1e-3:
                line = tok.start[0]
                inner = [name for lo, hi, name in scopes if lo <= line <= hi]
                found.append((path.name, inner[-1] if inner else "<module>", line,
                              tok.string))
    return found


def test_no_literal_threshold_outside_the_policy():
    stray = [f for f in _small_float_literals() if f[:2] not in ALLOWED]
    assert not stray, f"literal thresholds outside the tolerance policy: {stray}"


def test_policy_lint_sees_every_allowlisted_scope():
    seen = {f[:2] for f in _small_float_literals()}
    assert ALLOWED <= seen, f"stale allowlist entries: {ALLOWED - seen}"


def test_default_tolerance_and_derived_names():
    cd = catalog.fibonacci()
    assert cd.tolerance == CategoryData.tolerance == 1e-9
    assert (cd.residual_tolerance, cd.identity_tolerance, cd.noise_floor) == \
        pytest.approx((1e-7, 1e-6, 1e-10), rel=1e-12)
    loose = replace(cd, tolerance=1e-7)
    assert (loose.residual_tolerance, loose.identity_tolerance, loose.noise_floor) == \
        pytest.approx((1e-5, 1e-4, 1e-8), rel=1e-12)
    looser = replace(cd, tolerance=1e-3)
    assert looser.identity_tolerance == 1e-3    # capped, not 1000 * 1e-3
    assert looser.split_resolution == cd.split_resolution == 1e-6


@pytest.mark.parametrize("build", [catalog.fibonacci, catalog.ising,
                                   lambda: catalog.vec_zn(6, 1)],
                         ids=["fibonacci", "ising", "vec_z6"])
def test_center_at_loose_tolerance(build):
    """The seeded splits do not follow tolerance: at 1e-3 the center is the
    one found at the default."""
    cd = build()
    ref = decompose_center(build_tube_algebra(cd))
    loose = decompose_center(build_tube_algebra(replace(cd, tolerance=1e-3)))
    assert [z.dim for z in loose.simples] == pytest.approx([z.dim for z in ref.simples])
    assert [z.twist for z in loose.simples] == pytest.approx([z.twist for z in ref.simples])
    np.testing.assert_allclose(loose.S, ref.S, atol=1e-12)
    assert center_global_checks(loose)["dims_identity"]


def test_local_modules_at_loose_tolerance():
    cd = catalog.toric_code()
    for c in (cd, replace(cd, tolerance=1e-3)):
        cond = enumerate_local_modules(c, group_algebra(c, ("1", "e")))
        assert [m.support for m in cond.simples] == [(0, 1)]
    pres, _support = center_presentation(catalog.vec_zn(6, 0), None)
    found = [enumerate_local_modules(c, group_algebra(c, ("0.0", "0.2", "0.4")))
             for c in (pres, replace(pres, tolerance=1e-3))]
    assert [m.support for m in found[1].simples] == [m.support for m in found[0].simples]
    assert len(found[0].simples) == 4
    assert theorem_c_shadow(replace(catalog.fibonacci(), tolerance=1e-3))["passed"]


@pytest.mark.parametrize("value", BAD_TOLERANCES)
def test_check_tolerance_rejects(value):
    with pytest.raises(StructuralError, match="tolerance must be a finite number > 0"):
        check_tolerance(value)
    with pytest.raises(StructuralError, match="tolerance must be a finite number > 0"):
        replace(catalog.fibonacci(), tolerance=value)


@pytest.mark.parametrize("value", BAD_TOLERANCES)
def test_cli_tol_flag_rejects(capsys, value):
    code = main(["validate", "--catalog", "fibonacci", "--tol", value])
    doc = json.loads(capsys.readouterr().out)
    assert code == 3
    assert "tolerance must be a finite number > 0" in doc["error"]


@pytest.mark.parametrize("value", BAD_TOLERANCES)
def test_cli_env_tolerance_rejects(capsys, monkeypatch, value):
    monkeypatch.setenv("TENSORCAT_TOL", value)
    code = main(["dims", "--catalog", "fibonacci"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 3
    assert "tolerance must be a finite number > 0" in doc["error"]


@pytest.mark.parametrize("value", BAD_TOLERANCES)
def test_category_file_tolerance_rejects(tmp_path, value):
    path = tmp_path / "fib.json"
    save_category(catalog.fibonacci(), path)
    doc = json.loads(path.read_text())
    try:
        doc["tolerance"] = float(value)
    except ValueError:
        doc["tolerance"] = value
    path.write_text(json.dumps(doc))     # nan and inf as NaN and Infinity
    with pytest.raises(StructuralError, match="tolerance must be a finite number > 0"):
        load_category(path)


def test_category_file_tolerance_is_read(tmp_path):
    path = tmp_path / "fib.json"
    save_category(replace(catalog.fibonacci(), tolerance=1e-7), path)
    assert load_category(path).tolerance == 1e-7
    doc = json.loads(path.read_text())
    del doc["tolerance"]
    path.write_text(json.dumps(doc))
    assert load_category(path).tolerance == CategoryData.tolerance


@pytest.mark.parametrize("build, branch", [
    (lambda: catalog.vec_zn(6, 0), "double(vec_z6)"),
    (catalog.fibonacci, "fibonacci(x)rev(fibonacci)"),
], ids=["pointed", "product"])
def test_center_presentation_carries_tolerance(build, branch):
    pres, _support = center_presentation(replace(build(), tolerance=1e-6), None)
    assert pres.name == branch
    assert pres.tolerance == 1e-6


EPS = 1e-5     # above identity_tolerance at the default, below it at 1e-7


def _dims_identity():
    cd = catalog.vec_zn(2, 0)
    center = decompose_center(build_tube_algebra(cd))
    bumped = replace(center, simples=[replace(z, dim=z.dim + EPS) if i == 1 else z
                                      for i, z in enumerate(center.simples)])
    return cd, lambda c: center_global_checks(replace(bumped, cd=c))["dims_identity"]


def _unitary_s():
    cd = catalog.vec_zn(2, 0)
    center = decompose_center(build_tube_algebra(cd))
    S = center.S.copy()
    S[1, 2] += EPS
    bumped = replace(center, S=S)
    return cd, lambda c: center_global_checks(replace(bumped, cd=c))["nondegenerate"]


def _half_braiding():
    cd = catalog.vec_zn(2, 0)
    z = decompose_center(build_tube_algebra(cd)).simples[1]
    half = z.half_braiding.copy()
    c, u, v = np.argwhere(half[1] != 0)[0]     # the first admissible entry of sigma_1
    half[1, c, u, v] += EPS
    bumped = replace(z, half_braiding=half)
    return cd, lambda c: not half_braiding_check(c, bumped)


def _local_fusion_identification():
    """A simple local with one rho entry off by EPS: local_fusion must find
    it unitarily equivalent to the simple, which holds within
    identity_tolerance at 1e-7 and not at the default."""
    cd = catalog.toric_code()
    A = group_algebra(cd, ("1", "e"))
    condensed = enumerate_local_modules(cd, A)
    X = condensed.simples[0]
    key = next(k for k in sorted(X.rho) if k[1] != 0)
    bumped = ModuleObject(support=X.support, rho={**X.rho, key: X.rho[key] + EPS})
    return cd, lambda c: local_fusion(c, A, bumped, bumped, condensed=condensed)


@pytest.mark.parametrize("build", [_dims_identity, _unitary_s, _half_braiding,
                                   _local_fusion_identification],
                         ids=["dims_identity", "unitary_s", "half_braiding_check",
                              "local_fusion_idempotency"])
def test_tolerance_reaches_the_check(build):
    cd, check = build()

    def passes(c):
        try:
            return bool(check(c))
        except TensorcatError:
            return False

    assert not passes(cd)
    assert passes(replace(cd, tolerance=1e-7))
