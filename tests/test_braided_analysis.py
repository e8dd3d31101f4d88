import itertools
import json
import re

import numpy as np
import pytest

from tensorcat.braided_analysis import (SubcategoryRestriction, _sub_nondegenerate,
                                        check_label_subset, find_centralizing_object,
                                        gamma_characters, is_nondegenerate,
                                        muger_centralizer, restriction_hom,
                                        s_matrix, twists,
                                        verify_hypergroup_hom)
from tensorcat.catalog import catalog_category, catalog_names, vec_zn
from tensorcat.category_data import deligne_product_data, reverse_braiding
from tensorcat.errors import PreconditionError, StructuralError

from oracles import (PHI, hypergroup_hom_by_loops, label_subset_error_by_loops,
                     nondegenerate_by_svd, restriction_hom_by_loops, twists_by_loops)


def test_twists_fibonacci(fib):
    th = twists(fib).theta
    assert th[0] == pytest.approx(1.0)
    assert th[1] == pytest.approx(np.exp(4j * np.pi / 5), abs=1e-12)


def test_twists_semion(semion_cat):
    assert twists(semion_cat).theta[1] == pytest.approx(1j)


def test_twists_unimodular_and_dual_symmetric(cats):
    for name, cd in cats.items():
        th = twists(cd).theta
        assert th[0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(np.abs(th) - 1.0)) < 1e-9
        for a in range(cd.ring.rank):
            assert th[a] == pytest.approx(th[cd.ring.dual[a]], abs=1e-9)


def test_s_matrix_fibonacci(fib):
    s = s_matrix(fib).s
    assert np.allclose(s, [[1, PHI], [PHI, -1]], atol=1e-9)


def test_s_matrix_first_row_is_dims(cats):
    for name, cd in cats.items():
        s = s_matrix(cd).s
        assert np.allclose(s[:, 0], cd.dims.dims, atol=1e-9)
        assert np.allclose(s[0, :], cd.dims.dims, atol=1e-9)
        assert np.allclose(s, s.T, atol=1e-9)
        for a in range(cd.ring.rank):
            assert np.allclose(s[a], np.conj(s[cd.ring.dual[a]]), atol=1e-9)


def test_s_matrix_toric(toric):
    s = s_matrix(toric).s.real
    want = np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]])
    assert np.allclose(s, want, atol=1e-9)
    assert abs(np.linalg.det(s)) > 1


def test_gamma_normalization(cats):
    for name, cd in cats.items():
        g = gamma_characters(cd).gamma
        assert np.max(np.abs(g[:, 0] - 1.0)) < 1e-12
        assert np.max(np.abs(g[0, :] - cd.dims.dims)) < 1e-12


def test_gamma_fibonacci_value(fib):
    g = gamma_characters(fib).gamma
    assert g[1, 1] == pytest.approx(-1.0 / PHI, abs=1e-9)


def test_gamma_ising_value(ising_cat):
    g = gamma_characters(ising_cat).gamma
    assert g[1, 2] == pytest.approx(-1.0, abs=1e-9)  # gamma_s(p) = -sqrt2/sqrt2


def test_character_law(cats):
    for name, cd in cats.items():
        g = gamma_characters(cd).gamma
        N = cd.ring.N
        r = cd.ring.rank
        for a in range(r):
            lhs = np.outer(g[a], g[a])
            rhs = np.einsum("bcd,d->bc", N, g[a])
            assert np.max(np.abs(lhs - rhs)) < 1e-9, name


def test_product_expansion(cats):
    for name, cd in cats.items():
        g = gamma_characters(cd).gamma
        d = cd.dims.dims
        N = cd.ring.N
        r = cd.ring.rank
        for a in range(r):
            for b in range(r):
                for c in range(r):
                    lhs = g[a, c] * g[b, c] / d[c]
                    rhs = sum((d[e] / (d[a] * d[b])) * N[a, b, e] * g[e, c]
                              for e in range(r))
                    assert abs(lhs - rhs) < 1e-9, (name, a, b, c)


def test_nondegeneracy_catalog(cats):
    assert is_nondegenerate(cats["fibonacci"])
    assert is_nondegenerate(cats["toric_code"])
    assert not is_nondegenerate(cats["vec_z2"])


def test_centralizer_of_unit_is_everything(cats):
    for name, cd in cats.items():
        assert muger_centralizer(cd, (0,)) == tuple(range(cd.ring.rank))


def test_centralizer_ising_pointed_part(ising_cat):
    assert muger_centralizer(ising_cat, (0, 2)) == (0, 2)


def test_centralizer_factor_in_product(fib, semion_cat):
    prod = deligne_product_data(fib, semion_cat)
    fib_factor = (0, 2)     # (0,0) and (t,0)
    assert muger_centralizer(prod, fib_factor) == (0, 1)  # the semion factor


def test_label_subset_errors_name_the_first_offence(cats, fib, ising_cat):
    """Every subset containing the unit, on small categories and a product:
    the array check accepts exactly the closed ones and names the offence
    the loop over a, its dual, then (b, c) meets first."""
    cases = [ising_cat, cats["vec_z4"], cats["toric_code"],
             deligne_product_data(fib, ising_cat)]
    for cd in cases:
        r = cd.ring.rank
        for mask in range(2 ** (r - 1)):
            idx = [0] + [a for a in range(1, r) if mask >> (a - 1) & 1]
            want = label_subset_error_by_loops(cd.ring, idx)
            if want is None:
                assert check_label_subset(cd, reversed(idx)) == tuple(idx)
            else:
                with pytest.raises(PreconditionError) as err:
                    check_label_subset(cd, reversed(idx))
                assert str(err.value) == want, (cd.name, idx)
    with pytest.raises(PreconditionError, match="fusion-closed: 1 x 1 contains 2"):
        check_label_subset(ising_cat, (0, 1))
    with pytest.raises(PreconditionError, match="dual-closed at 1"):
        check_label_subset(cats["vec_z3"], (0, 1))
    with pytest.raises(PreconditionError, match="must contain the unit"):
        check_label_subset(ising_cat, (1, 2))


def test_centralizer_in_the_double_of_z6():
    """D(Z6) on labels g.h: (g, h) centralizes (0, h') iff g h' = 0 mod 6.
    So the Lagrangian {0.h} is its own centralizer, the Z/3 {0.0, 0.2, 0.4}
    is centralized by g in {0, 3}, and the whole category by the unit only."""
    from tensorcat.catalog import vec_zn
    from tensorcat.center_tube import center_presentation
    cd, lagrangian = center_presentation(vec_zn(6, 0), None)
    g_of = [int(label.split(".")[0]) for label in cd.ring.labels]
    assert muger_centralizer(cd, lagrangian) == lagrangian == tuple(
        a for a, g in enumerate(g_of) if g == 0)
    z3 = ("0.0", "0.2", "0.4")
    assert muger_centralizer(cd, z3) == tuple(a for a, g in enumerate(g_of) if 2 * g % 6 == 0)
    assert muger_centralizer(cd, range(cd.ring.rank)) == (0,)


def test_restriction_hom_identity_on_sub(fib, semion_cat):
    prod = deligne_product_data(fib, semion_cat)
    sr = restriction_hom(prod, (0, 2))
    assert all(sr.f[x] == x for x in sr.sub)
    assert sr.f[3] == 2     # (t, s) restricts like (t, 0)
    assert sr.f[1] == 0


def test_restriction_hom_degenerate_sub(toric):
    with pytest.raises(PreconditionError):
        restriction_hom(toric, (0, 3))  # {1, f} is symmetric


def test_hypergroup_hom_product(fib, semion_cat):
    prod = deligne_product_data(fib, semion_cat)
    sr = restriction_hom(prod, (0, 2))
    assert verify_hypergroup_hom(prod, sr) == []


def test_hypergroup_hom_identity_map(fib):
    sr = restriction_hom(fib, (0, 1))
    assert sr.f == (0, 1)
    assert verify_hypergroup_hom(fib, sr) == []


def test_hypergroup_hom_detects_corruption(fib, semion_cat):
    prod = deligne_product_data(fib, semion_cat)
    sr = restriction_hom(prod, (0, 2))
    from tensorcat.braided_analysis import SubcategoryRestriction
    assert sr.f == (0, 0, 2, 2)
    bad = SubcategoryRestriction(sub=sr.sub, f=(0, 2, 2, 0))  # two values swapped
    report = verify_hypergroup_hom(prod, bad)
    assert report and "(a,b,y)=" in report[0]


def test_find_centralizing_object_product(fib, semion_cat):
    prod = deligne_product_data(fib, semion_cat)
    assert find_centralizing_object(prod, (0, 2)) == 1


def test_find_centralizing_object_unit_sub(toric):
    assert find_centralizing_object(toric, (0,)) == 1


def test_find_centralizing_object_full_sub_rejected(ising_cat):
    with pytest.raises(PreconditionError):
        find_centralizing_object(ising_cat, (0, 1, 2))


def test_existcentral_property(cats):
    """Every proper nondegenerately braided factor admits a centralizing
    object outside it; this must never return None."""
    names = [n for n in cats if is_nondegenerate(cats[n])]
    for n1 in names:
        for n2 in cats:
            if cats[n2].ring.rank == 1:
                continue
            prod = deligne_product_data(cats[n1], cats[n2])
            sub = tuple(i * cats[n2].ring.rank for i in range(cats[n1].ring.rank))
            found = find_centralizing_object(prod, sub)
            assert found is not None, (n1, n2)


def test_s_matrix_cross_check_against_diagrams(cats):
    from tensorcat.diagram_eval import categorical_trace, evaluate
    for name, cd in cats.items():
        s = s_matrix(cd).s
        r = cd.ring.rank
        for a in range(r):
            for b in range(r):
                la, lb = cd.ring.labels[a], cd.ring.labels[b]
                tr = categorical_trace(
                    cd, evaluate(f"braid[{lb},{la}] . braid[{la},{lb}]", cd))
                assert abs(tr - s[a, b]) < 1e-9, (name, a, b)


def _differential_categories():
    """The catalog, the products of pairs of five of its categories, every
    valid vec_zn(n, t) for n <= 6, the doubles of Z/3, Z/4 and Z/6, and
    fib (x) reverse(fib)."""
    from tensorcat.center_tube import center_presentation
    cds = [catalog_category(n) for n in catalog_names()]
    five = [catalog_category(n) for n in ("fibonacci", "ising", "semion", "toric_code", "vec_z3")]
    cds += [deligne_product_data(c1, c2)
            for c1, c2 in itertools.combinations_with_replacement(five, 2)]
    for n in range(1, 7):
        for t in range(2 * n):
            try:
                cds.append(vec_zn(n, t))
            except StructuralError:     # t names no quadratic form on Z/n
                pass
    cds += [center_presentation(vec_zn(n, 0), None)[0] for n in (3, 4, 6)]
    fib = catalog_category("fibonacci")
    return cds + [deligne_product_data(fib, reverse_braiding(fib))]


def _closed_subsets(ring, size):
    """Every dual- and fusion-closed label tuple of at most size labels,
    ascending, 0 first."""
    fused = [[sum(1 << c for c in ring.channels(a, b)) for b in range(ring.rank)]
             for a in range(ring.rank)]
    for k in range(size):
        for rest in itertools.combinations(range(1, ring.rank), k):
            sub = (0, *rest)
            bits = sum(1 << a for a in sub)
            if all(bits >> ring.dual[a] & 1 and not any(fused[a][b] & ~bits for b in sub)
                   for a in sub):
                yield sub


def _report_entries(report):
    """(a, b, y, lhs, rhs) of each verify_hypergroup_hom line."""
    pattern = r"hypergroup hom fails at \(a,b,y\)=\((\d+),(\d+),(\d+)\): (\S+) != (\S+)"
    return [tuple(int(v) for v in m.groups()[:3]) + tuple(float(v) for v in m.groups()[3:])
            for m in (re.fullmatch(pattern, line) for line in report)]


def test_nondegeneracy_restriction_and_twists_match_the_loop_rules(monkeypatch):
    """On 62 braided categories and every closed label set of at most four
    labels: the trivial Muger center of the braiding on sub decides as the
    singular values of s~ on sub did; restriction_hom gives the loops' f or
    their error text, also on the degenerate sets once both nondegeneracy
    tests are bypassed; verify_hypergroup_hom reports the loops' (a, b, y),
    with values within 1e-12, for f and for f moved one step along sub;
    and twists is bit-identical to the sum over channels one label at a time."""
    import oracles
    from tensorcat import braided_analysis
    cds = _differential_categories()
    assert len(cds) == 62
    degenerate = []
    for cd in cds:
        r = cd.ring.rank
        assert np.array_equal(twists(cd).theta, twists_by_loops(cd)), cd.name
        assert is_nondegenerate(cd) == nondegenerate_by_svd(cd, list(range(r))), cd.name
        for sub in _closed_subsets(cd.ring, 4):
            assert _sub_nondegenerate(cd, sub, s_matrix(cd).s) == \
                nondegenerate_by_svd(cd, list(sub)), (cd.name, sub)
            want = restriction_hom_by_loops(cd, sub)
            try:
                got = restriction_hom(cd, sub).f
            except PreconditionError as err:
                got = str(err)
            assert got == want, (cd.name, sub)
            if isinstance(want, str):
                degenerate.append((cd, sub))
                continue
            moved = tuple(sub[(sub.index(y) + 1) % len(sub)] for y in want)
            for f in (want, moved):
                report = _report_entries(verify_hypergroup_hom(cd, SubcategoryRestriction(sub, f)))
                oracle = hypergroup_hom_by_loops(cd, sub, f)
                assert [e[:3] for e in report] == [e[:3] for e in oracle], (cd.name, sub, f)
                assert all(abs(x - y) < 1e-12 for e, o in zip(report, oracle)
                           for x, y in zip(e[3:], o[3:])), (cd.name, sub, f)
    monkeypatch.setattr(braided_analysis, "_sub_nondegenerate", lambda cd, sub, s: True)
    monkeypatch.setattr(oracles, "nondegenerate_by_svd", lambda cd, sub: True)
    for cd, sub in degenerate:
        with pytest.raises(PreconditionError) as err:
            restriction_hom(cd, sub)
        assert str(err.value) == restriction_hom_by_loops(cd, sub), (cd.name, sub)


def test_s_matrix_is_computed_once_per_call_chain(toric, monkeypatch, capsys):
    """is_nondegenerate, muger_centralizer, restriction_hom and
    find_centralizing_object each compute s~ once, and the CLI's
    find-central, which calls restriction_hom and then
    find_centralizing_object, twice."""
    from tensorcat import braided_analysis
    from tensorcat.cli import main
    calls, real = [], braided_analysis.s_matrix
    monkeypatch.setattr(braided_analysis, "s_matrix", lambda cd: calls.append(cd) or real(cd))
    for call in (lambda: is_nondegenerate(toric), lambda: muger_centralizer(toric, (0, 1)),
                 lambda: restriction_hom(toric, (0,)),
                 lambda: find_centralizing_object(toric, (0,))):
        calls.clear()
        call()
        assert len(calls) == 1
    calls.clear()
    assert main(["find-central", "--catalog", "toric_code", "--sub", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["centralizing_object"] == "e"
    assert len(calls) == 2
