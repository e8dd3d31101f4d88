import numpy as np
import pytest

from tensorcat.algebra import (AlgebraObject, algebra_dim, canonical_algebra,
                               group_algebra, is_commutative, is_connected,
                               load_algebra, save_algebra, solve_support_algebra,
                               symmetric_enveloping, trivial_algebra,
                               verify_qsystem)
from tensorcat.braided_analysis import is_nondegenerate, twists
from tensorcat.catalog import vec_zn
from tensorcat.category_data import reverse_braiding
from tensorcat.errors import StructuralError
from tensorcat.local_modules import is_local, regular_module

from oracles import (PHI, algebras_gauge_equivalent, canonical_algebra_by_diagrams,
                     psu2_category, vertex_gauge)


def test_trivial_algebra_passes(fib):
    rep = verify_qsystem(fib, trivial_algebra())
    assert rep.passed
    assert algebra_dim(fib, trivial_algebra()) == pytest.approx(1.0)


def test_canonical_fibonacci(fib):
    A = canonical_algebra(fib, "t")
    assert A.support == (0, 1)
    rep = verify_qsystem(fib, A)
    assert rep.passed, rep.residuals
    assert algebra_dim(fib, A) == pytest.approx(PHI ** 2, abs=1e-9)
    # stored-gauge magnitudes forced by separability
    assert abs(A.mu[(1, 1, 0)]) == pytest.approx(np.sqrt(PHI), abs=1e-9)
    assert abs(A.mu[(1, 1, 1)]) == pytest.approx(1 / np.sqrt(PHI), abs=1e-9)


def test_canonical_wrong_scale_fails_separability(fib):
    A = canonical_algebra(fib, "t")
    A.mu[(1, 1, 1)] = 1.0
    rep = verify_qsystem(fib, A)
    assert rep.separability > 0.01
    assert not rep.passed


def test_canonical_unit_label_is_trivial(cats):
    for name, cd in cats.items():
        A = canonical_algebra(cd, 0)
        assert A.support == (0,)
        assert verify_qsystem(cd, A).passed


def test_canonical_ising_sigma_is_group_algebra(ising_cat):
    A = canonical_algebra(ising_cat, "s")
    assert A.support == (0, 2)
    for v in A.mu.values():
        assert abs(v) == pytest.approx(1.0, abs=1e-9)
    assert verify_qsystem(ising_cat, A).passed


def test_canonical_all_simples_all_catalog(cats):
    for name, cd in cats.items():
        for x in range(cd.ring.rank):
            A = canonical_algebra(cd, x)
            rep = verify_qsystem(cd, A)
            assert rep.passed, (name, x, rep.residuals)
            dx = cd.dims.dims[x]
            assert algebra_dim(cd, A) == pytest.approx(dx * dx, abs=1e-9)


@pytest.mark.parametrize("name", ["catalog", "fib*ising", "PSU(2)_6", "ising:gauged",
                                  "fibonacci:gauged"])
def test_canonical_algebra_matches_the_cap_diagram(cats, name):
    """mu read from two F entries equals mu read off the evaluated diagram
    id_x (x) cap (x) id to 1e-12, for every x, in the stored gauge and in
    random vertex gauges."""
    from tensorcat.category_data import deligne_product_data
    base, gauged = name.partition(":")[::2]
    if base == "catalog":
        cases = list(cats.values())
    elif gauged:
        cases = [vertex_gauge(cats[base], seed) for seed in (1, 2, 3)]
    else:
        cases = [deligne_product_data(cats["fibonacci"], cats["ising"])
                 if base == "fib*ising" else psu2_category(6)]
    for cd in cases:
        for x in range(cd.ring.rank):
            A, B = canonical_algebra(cd, x), canonical_algebra_by_diagrams(cd, x)
            assert A.support == B.support and set(A.mu) == set(B.mu), (cd.name, x)
            assert max(abs(A.mu[k] - B.mu[k]) for k in A.mu) < 1e-12, (cd.name, x)


def test_connectedness():
    assert is_connected(trivial_algebra())
    A = AlgebraObject(support=(0, 1), mu={(0, 0, 0): 1, (0, 1, 1): 1,
                                          (1, 0, 1): 1, (1, 1, 0): 1})
    assert is_connected(A)


def test_commutative_toric_electric(toric):
    A = group_algebra(toric, ("1", "e"))
    ok, resid = is_commutative(toric, A)
    assert ok and resid < 1e-12


def test_commutative_trivial(fib):
    assert is_commutative(fib, trivial_algebra())[0]


def test_fibonacci_canonical_not_commutative(fib):
    A = canonical_algebra(fib, "t")
    ok, resid = is_commutative(fib, A)
    assert not ok
    assert resid > 0.1


def test_noncommutativity_from_twist(cats):
    """canonical_algebra(x) is never commutative when theta_x != 1 in a
    nondegenerate catalog category."""
    for name, cd in cats.items():
        if not is_nondegenerate(cd):
            continue
        th = twists(cd).theta
        for x in range(cd.ring.rank):
            A = canonical_algebra(cd, x)
            if A.support == (0,):
                continue
            if abs(th[x] - 1.0) > 1e-9:
                assert not is_commutative(cd, A)[0], (name, x)


def test_symmetric_enveloping_dimension(cats):
    for name in ("vec_z2", "fibonacci", "ising", "semion", "toric_code", "vec_z4"):
        cd = cats[name]
        prod, S = symmetric_enveloping(cd)
        r = cd.ring.rank
        assert S.support == tuple(c * r + c for c in range(r))
        assert algebra_dim(prod, S) == pytest.approx(cd.dims.global_dim, abs=1e-9)
        rep = verify_qsystem(prod, S)
        assert rep.passed, (name, rep.residuals)


def test_symmetric_enveloping_fibonacci_value(fib):
    prod, S = symmetric_enveloping(fib)
    assert algebra_dim(prod, S) == pytest.approx(1 + PHI ** 2, abs=1e-9)


def test_commutative_implies_regular_module_local(cats):
    """One direction always holds; the converse fails exactly on the
    transparent-fermion algebras (support twists -1, self-monodromy +1)."""
    violations = []
    for name, cd in cats.items():
        for flip in (False, True):
            c = reverse_braiding(cd) if flip else cd
            algebras = [(f"canonical:{x}", canonical_algebra(c, x))
                        for x in range(c.ring.rank)]
            if name == "toric_code":
                algebras += [(f"group:{s}", group_algebra(c, s))
                             for s in (("1", "e"), ("1", "m"), ("1", "f"))]
            for tag, A in algebras:
                comm, _ = is_commutative(c, A)
                loc, _ = is_local(c, A, regular_module(A))
                if comm:
                    assert loc, (name, flip, tag)
                if comm != loc:
                    violations.append((name, tag))
    # the documented counterexamples: 1+psi in Ising, 1+f in toric code
    assert set(violations) == {("ising", "canonical:1"),
                               ("toric_code", "group:('1', 'f')")}


def test_dagger_consistency_under_reverse_braiding(cats):
    """Conjugating mu matches the reversed braiding: separability residual
    is unchanged."""
    for name in ("fibonacci", "ising"):
        cd = cats[name]
        A = canonical_algebra(cd, 1)
        rev = reverse_braiding(cd)
        B = AlgebraObject(support=A.support,
                          mu={k: np.conj(v) for k, v in A.mu.items()})
        ra = verify_qsystem(cd, A)
        rb = verify_qsystem(rev, B)
        assert ra.separability == pytest.approx(rb.separability, abs=1e-12)
        assert rb.passed


def test_admissibility_errors(fib):
    A = canonical_algebra(fib, "t")
    A.mu[(1, 1, 1)] = A.mu[(1, 1, 1)]
    bad = AlgebraObject(support=A.support, mu={**A.mu, (0, 0, 1): 1.0})
    with pytest.raises(StructuralError):
        verify_qsystem(fib, bad)
    missing = dict(A.mu)
    del missing[(1, 1, 0)]
    with pytest.raises(StructuralError):
        verify_qsystem(fib, AlgebraObject(support=A.support, mu=missing))


def test_unit_required_in_support():
    with pytest.raises(StructuralError):
        AlgebraObject(support=(1,), mu={})


def test_algebra_file_round_trip(tmp_path, toric):
    A = group_algebra(toric, ("1", "e"))
    path = tmp_path / "alg.json"
    save_algebra(toric, A, path)
    B = load_algebra(toric, path)
    assert B.support == A.support
    for k, v in A.mu.items():
        assert B.mu[k] == pytest.approx(v)


def test_solve_support_algebra_failure_reports_attempts(toric):
    # f is a fermion (R^{ff}_1 = -1), so no commutative algebra lives on 1 + f
    with pytest.raises(StructuralError,
                       match=r"after 2 attempts \(best residual \d\.\d+e[-+]\d+, "
                             r"\d+ residual evaluations\)"):
        solve_support_algebra(toric, (0, 3), commutative=True, max_restarts=2)


def test_solver_gauge_on_toric_code_is_pinned(toric):
    """The solve lands on one point of a flat gauge direction, and the exact
    point depends on the residual vector's values and order.  This mirrors
    the solved toric-code Lagrangian printed by the `cli` entries of
    perfbench/reference.json; it goes when ROADMAP item 2c makes that entry
    gauge-invariant."""
    A = solve_support_algebra(toric, (0, "e"), commutative=True)
    assert A.mu[(1, 1, 0)] == 0.8416520131766395 + 0.5400202669490377j


def test_solver_evaluates_no_diagram(cats, monkeypatch):
    """The solver's residuals are verify_qsystem's F-contraction terms: a
    non-pointed solve calls neither insert nor compose_values."""
    from oracles import record_diagram_calls
    prod, S = symmetric_enveloping(cats["fibonacci"])
    calls = record_diagram_calls(monkeypatch)
    solved = solve_support_algebra(prod, S.support)
    assert not calls
    assert verify_qsystem(prod, solved).passed


@pytest.mark.parametrize("name", ["fibonacci", "ising", "semion", "toric_code", "vec_z3"])
def test_symmetric_enveloping_matches_solver_up_to_gauge(cats, name):
    prod, S = symmetric_enveloping(cats[name])
    solved = solve_support_algebra(prod, S.support)
    assert algebras_gauge_equivalent(S, solved), name


@pytest.mark.parametrize("name", ["fibonacci", "vec_z6"])
def test_symmetric_enveloping_does_not_solve(cats, name, monkeypatch):
    import tensorcat.algebra

    def no_solve(*args, **kwargs):
        raise AssertionError("the enveloping algebra has a closed form")

    monkeypatch.setattr(tensorcat.algebra, "solve_support_algebra", no_solve)
    cd = cats[name]
    prod, S = symmetric_enveloping(cd)
    assert algebra_dim(prod, S) == pytest.approx(cd.dims.global_dim, abs=1e-9)
    assert verify_qsystem(prod, S).passed
    assert all(S.mu[k] == 1.0 for k in S.mu if k[0] == 0 or k[1] == 0)


def test_symmetric_enveloping_needs_evaluated_phases():
    """Positive-real mu of the closed-form modulus is not a Q-system on
    op(vec_zn(6, 1)) (x) vec_zn(6, 1): the phases carry F-symbol data."""
    prod, S = symmetric_enveloping(vec_zn(6, 1))
    assert any(abs(v - abs(v)) > 0.5 for v in S.mu.values())
    real = AlgebraObject(support=S.support, mu={k: abs(v) for k, v in S.mu.items()})
    assert not verify_qsystem(prod, real).passed


def test_gauge_equivalence_helper(cats):
    prod, S = symmetric_enveloping(cats["ising"])
    rng = np.random.default_rng(3)
    u = {c: np.exp(2j * np.pi * rng.uniform()) for c in S.support}
    u[0] = 1.0
    moved = AlgebraObject(support=S.support, mu={
        (a, b, c): u[a] * u[b] * v / u[c] for (a, b, c), v in S.mu.items()})
    assert algebras_gauge_equivalent(S, moved)
    assert algebras_gauge_equivalent(moved, S)
    # one flipped sign on sigma sigma -> psi is no gauge: it breaks associativity
    key = (4, 4, 8)
    flipped = AlgebraObject(support=S.support, mu={
        k: -v if k == key else v for k, v in S.mu.items()})
    assert not verify_qsystem(prod, flipped).passed
    assert not algebras_gauge_equivalent(S, flipped)
    scaled = AlgebraObject(support=S.support, mu={
        k: 2 * v if k == key else v for k, v in S.mu.items()})
    assert not algebras_gauge_equivalent(S, scaled)


QSYSTEM_CASES = ["fib:lagrangian", "vec_z2:lagrangian", "vec_z6_t1:lagrangian",
                 "vec_z6_t0:lagrangian", "fib:enveloping", "D(Z6):Z3",
                 "toric*toric:1+e*1"]


def _random_mu(A, seed):
    """Random complex mu on A's admissible triples, the unit channels pinned to 1."""
    rng = np.random.default_rng(seed)
    return AlgebraObject(A.support, {
        k: 1.0 if k[0] == 0 or k[1] == 0 else complex(*rng.standard_normal(2))
        for k in sorted(A.mu)})


@pytest.mark.parametrize("case", QSYSTEM_CASES)
def test_qsystem_residuals_match_diagram_oracle(case, qsystem_case):
    """The F-contractions of verify_qsystem equal the diagram route in the
    stored gauge and in a random vertex gauge, for the Q-system and for a
    random mu with unit channels 1.  Away from the stored Q-system the
    residuals are far from 0, so the formulas are tested, not just the zeros."""
    from tensorcat.algebra import _associativity_terms, _frobenius_terms, _max_abs

    from oracles import qsystem_residuals_by_diagrams, vertex_gauge
    cd, A = qsystem_case(case)
    largest = 0.0
    for gauged in (cd, vertex_gauge(cd, 11)):
        for B in (A, _random_mu(A, 5)):
            want = qsystem_residuals_by_diagrams(gauged, B)
            got = (_max_abs(_associativity_terms(gauged, B.mu, B.support, B.mu, B.support)),
                   _max_abs(_frobenius_terms(gauged, B.mu, B.support)))
            assert np.allclose(got, want, rtol=0, atol=1e-12), (case, got, want)
            largest = max(largest, *want)
    assert verify_qsystem(cd, A).passed
    assert largest > 0.5


def test_perturbed_qsystem_fails_with_oracle_residual(qsystem_case):
    """A fibonacci Lagrangian with its non-unit channels scaled fails
    associativity and Frobenius by what the diagram route measures."""
    from oracles import qsystem_residuals_by_diagrams
    cd, A = qsystem_case("fib:lagrangian")
    B = AlgebraObject(A.support, {k: v if 0 in k[:2] else 2.0 * v for k, v in A.mu.items()})
    rep = verify_qsystem(cd, B)
    scale = max(1.0, max(abs(v) for v in B.mu.values()) ** 2)
    assoc, frob = qsystem_residuals_by_diagrams(cd, B)
    assert not rep.passed and min(rep.associativity, rep.frobenius) > 0.1
    assert rep.associativity == pytest.approx(assoc / scale, abs=1e-12)
    assert rep.frobenius == pytest.approx(frob / scale, abs=1e-12)
