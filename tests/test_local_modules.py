import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tensorcat.algebra import canonical_algebra, group_algebra, trivial_algebra
from tensorcat.errors import PreconditionError, StructuralError
from tensorcat.local_modules import (CondensedData,
                                     condensation_identity_check,
                                     enumerate_local_modules,
                                     free_module_decomposition, is_local,
                                     load_module, local_double_braid_trace,
                                     local_fusion, regular_module, save_module,
                                     verify_module)

from oracles import (brute_force_local_count, commutant_generators_by_diagrams,
                     condensed_ring_by_projector_ranks, induced_action_by_entries,
                     local_fusion_by_projector_ranks, local_modules_by_every_induction,
                     projector_block, projector_block_by_diagrams,
                     record_diagram_calls, record_linalg_calls)


def test_regular_module_over_itself(toric):
    A = group_algebra(toric, ("1", "e"))
    rep = verify_module(toric, A, regular_module(A))
    assert rep["passed"]


def test_module_with_corrupted_entry(toric):
    A = group_algebra(toric, ("1", "e"))
    X = regular_module(A)
    X.rho[(1, 1, 0)] = -X.rho[(1, 1, 0)]
    rep = verify_module(toric, A, X)
    assert rep["associativity"] > 0.1


def test_toric_magnetic_module_not_local(toric):
    A = group_algebra(toric, ("1", "e"))
    mods = free_module_decomposition(toric, A, 2)
    assert len(mods) == 1
    X = mods[0]
    assert X.support == (2, 3)
    assert verify_module(toric, A, X)["passed"]
    ok, resid = is_local(toric, A, X)
    assert not ok and resid > 0.5


def test_trivial_algebra_modules_are_simples(cats):
    for name in ("fibonacci", "toric_code", "vec_z3"):
        cd = cats[name]
        cond = enumerate_local_modules(cd, trivial_algebra())
        assert [m.support for m in cond.simples] == [(x,) for x in range(cd.ring.rank)]


def test_toric_condensation_electric(toric):
    A = group_algebra(toric, ("1", "e"))
    chk = condensation_identity_check(toric, A)
    assert chk["passed"]
    assert chk["n_simples"] == 1
    assert chk["sum_fpdim_sq"] == pytest.approx(4.0, abs=1e-6)
    assert chk["lagrangian"]


def test_toric_condensation_magnetic(toric):
    A = group_algebra(toric, ("1", "m"))
    chk = condensation_identity_check(toric, A)
    assert chk["passed"] and chk["n_simples"] == 1
    assert chk["sum_fpdim_sq"] == pytest.approx(4.0, abs=1e-6)


def test_enumeration_matches_brute_force_oracle(toric):
    """Independent support-enumeration oracle at halved tolerance."""
    for supp in (("1", "e"), ("1", "m")):
        A = group_algebra(toric, supp)
        lib = len(enumerate_local_modules(toric, A).simples)
        oracle = brute_force_local_count(toric, A)
        assert lib == oracle == 1


def test_enumeration_matches_brute_force_trivial(toric):
    A = trivial_algebra()
    lib = len(enumerate_local_modules(toric, A).simples)
    assert lib == brute_force_local_count(toric, A) == 4


def test_local_fusion_unit_law(toric):
    A = group_algebra(toric, ("1", "e"))
    cond = enumerate_local_modules(toric, A)
    X = cond.simples[0]
    _, mult = local_fusion(toric, A, X, regular_module(A), condensed=cond)
    assert list(mult) == [1]


def test_local_fusion_square(toric):
    A = group_algebra(toric, ("1", "e"))
    cond = enumerate_local_modules(toric, A)
    _, mult = local_fusion(toric, A, cond.simples[0], cond.simples[0],
                           condensed=cond)
    assert list(mult) == [1]


def test_local_fusion_trivial_algebra_reduces_to_ring(cats):
    for name in ("toric_code", "vec_z3"):
        cd = cats[name]
        A = trivial_algebra()
        cond = enumerate_local_modules(cd, A, with_ring=True)
        assert np.array_equal(cond.ring.N, cd.ring.N)


def test_condensed_ring_of_lagrangian_is_trivial(toric):
    from tensorcat.fusion_ring import validate_fusion_ring
    A = group_algebra(toric, ("1", "e"))
    cond = enumerate_local_modules(toric, A, with_ring=True)
    assert cond.ring.rank == 1
    assert validate_fusion_ring(cond.ring) == []
    assert cond.dims_over_Q[0] == pytest.approx(1.0)


def test_condensed_ring_refuses_a_label_without_dual(cats, monkeypatch):
    """A condensed fusion table whose unit row misses N^0 raises instead of
    making the label its own dual."""
    import tensorcat.local_modules as lm
    monkeypatch.setattr(lm, "_verlinde", lambda S, tol: np.zeros((len(S),) * 3, int))
    with pytest.raises(StructuralError, match="fusion rules give Q no dual"):
        enumerate_local_modules(cats["vec_z3"], trivial_algebra(), with_ring=True)


def test_condensed_ring_refuses_a_degenerate_braiding(cats, monkeypatch):
    """vec_z2's braiding is symmetric: the Verlinde ring and local_fusion
    raise PreconditionError before any double-braid trace is taken."""
    import tensorcat.local_modules as lm
    cd, A = cats["vec_z2"], trivial_algebra()
    traces = []
    monkeypatch.setattr(lm, "local_double_braid_trace", lambda *a: traces.append(a))
    with pytest.raises(PreconditionError, match="nondegenerate"):
        enumerate_local_modules(cd, A, with_ring=True)
    cond = enumerate_local_modules(cd, A)
    with pytest.raises(PreconditionError, match="nondegenerate"):
        local_fusion(cd, A, cond.simples[1], cond.simples[1], condensed=cond)
    assert traces == [] and cond.ring is None


def test_local_fusion_assoc_comm_multisets(toric):
    A = trivial_algebra()
    cond = enumerate_local_modules(toric, A)
    for i in range(4):
        for j in range(4):
            _, mij = local_fusion(toric, A, cond.simples[i], cond.simples[j],
                                  condensed=cond)
            _, mji = local_fusion(toric, A, cond.simples[j], cond.simples[i],
                                  condensed=cond)
            assert list(mij) == list(mji)


def test_condensed_braiding_observable(toric):
    A = group_algebra(toric, ("1", "e"))
    cond = enumerate_local_modules(toric, A)
    X = cond.simples[0]
    val = local_double_braid_trace(toric, A, X, X)
    assert val == pytest.approx(1.0, abs=1e-9)  # condensed theory is trivial


def test_enumerate_requires_commutative(fib):
    A = canonical_algebra(fib, "t")
    with pytest.raises(PreconditionError):
        enumerate_local_modules(fib, A)


def test_seed_independence(toric):
    A = group_algebra(toric, ("1", "e"))
    outs = []
    for seed in (0, 1, 17):
        cond = enumerate_local_modules(toric, A, seed=seed)
        outs.append([(m.support, tuple(round(abs(v), 9)
                                       for _k, v in sorted(m.rho.items())))
                     for m in cond.simples])
    assert outs[0] == outs[1] == outs[2]


def test_module_file_round_trip(tmp_path, toric):
    A = group_algebra(toric, ("1", "e"))
    X = regular_module(A)
    path = tmp_path / "mod.json"
    save_module(toric, X, path)
    Y = load_module(toric, path)
    assert Y.support == X.support
    for k, v in X.rho.items():
        assert Y.rho[k] == pytest.approx(v)


def test_repeated_module_label_refused(toric):
    """A support label given twice is refused, as AlgebraObject refuses one:
    this module on A = 1+e would pass verify_module with fpdim 3, where the
    module on the support {m, f} has fpdim 2."""
    from tensorcat.local_modules import ModuleObject
    rho = {(2, 0, 2): 1, (2, 1, 3): 1, (3, 0, 3): 1, (3, 1, 2): 1}
    with pytest.raises(StructuralError, match="repeated"):
        ModuleObject(support=(2, 3, 3), rho=rho)
    assert ModuleObject(support=(2, 3), rho=rho).fpdim(toric) == 2.0


def test_inadmissible_rho_reported(toric):
    A = group_algebra(toric, ("1", "e"))
    X = regular_module(A)
    X.rho[(0, 1, 0)] = 1.0
    with pytest.raises(StructuralError):
        verify_module(toric, A, X)


def test_free_module_decomposition_failure_names_rounds(toric, monkeypatch):
    import tensorcat.local_modules as lm
    monkeypatch.setattr(lm, "verify_module", lambda cd, A, X: {
        "associativity": 0.5, "unit": 0.0, "passed": False})
    A = group_algebra(toric, ("1", "e"))
    with pytest.raises(StructuralError,
                       match=r"x=2 failed after 4 attempts \(smallest eigenvalue gap [^)]+\): "
                             r"attempt 1: verify_module failed \(associativity 5\.00e-01, "
                             r"unit 0\.00e\+00\); attempt 2: "):
        free_module_decomposition(toric, A, 2)


def _count_verify_calls(monkeypatch):
    import tensorcat.local_modules as lm
    calls = []
    real = lm.verify_module

    def counting(cd, A, X):
        calls.append(X)
        return real(cd, A, X)

    monkeypatch.setattr(lm, "verify_module", counting)
    return calls


@pytest.mark.parametrize("case", ["toric:1+e", "D(Z6):Z3"])
def test_enumeration_verifies_each_returned_simple_once(case, qsystem_case, monkeypatch):
    cd, A = qsystem_case(case)
    calls = _count_verify_calls(monkeypatch)
    cond = enumerate_local_modules(cd, A)
    assert len(cond.simples) == (1 if case == "toric:1+e" else 4)
    assert len(calls) == len(cond.simples)
    assert sorted(m.fingerprint() for m in calls) == [
        m.fingerprint() for m in cond.simples]
    for m in cond.simples:
        assert verify_module(cd, A, m)["passed"]


@pytest.mark.parametrize("case", ["toric:1+e", "D(Z6):Z3", "fib:lagrangian"])
def test_induced_action_matches_per_entry_oracle(case, qsystem_case, monkeypatch):
    import tensorcat.local_modules as lm
    cd, A = qsystem_case(case)
    calls = record_diagram_calls(monkeypatch)
    for x in range(cd.ring.rank):
        want_sectors, want = induced_action_by_entries(cd, A, x)
        calls.clear()
        sectors, act = lm._induced_action(cd, A, x)
        assert sectors == want_sectors
        assert act.keys() == want.keys()
        for a in act:
            assert act[a].keys() == want[a].keys()
            for k in act[a]:
                assert np.array_equal(act[a][k], want[a][k]), (case, x, a, k)
        assert calls == []  # read from unfold, no diagram evaluated


@pytest.mark.parametrize("case", ["toric:1+e", "D(Z6):Z3", "fib:lagrangian"])
def test_commutant_generators_match_diagram_oracle(case, qsystem_case):
    """Same products as the diagram route, so equal to the last bit."""
    import tensorcat.local_modules as lm
    cd, A = qsystem_case(case)
    for x in range(cd.ring.rank):
        sectors, _act = lm._induced_action(cd, A, x)
        got = lm._commutant_generators(cd, A, x, sectors)
        want = commutant_generators_by_diagrams(cd, A, x, sectors)
        assert len(got) == len(want) > 0
        for g, w in zip(got, want):
            assert g.keys() == w.keys() == sectors.keys()
            for y in g:
                assert np.array_equal(g[y], w[y]), (case, x, y)


@pytest.mark.parametrize("case", ["toric:1+e", "D(Z6):Z3", "fib:lagrangian",
                                  "ising:trivial"])
def test_projector_block_matches_diagram_oracle(case, qsystem_case):
    """The oracle's projector blocks, over every pair of the simple locals and
    the simple submodules, local or not, of the first six induced modules
    x (x) A, equal the diagram route to 1e-13: rho, lambda and the F-moves
    multiply in another order.  local_double_braid_trace, which reads only
    the diagonal of each block, equals sum_t d_t tr(P D) / dQ with the
    diagram blocks to 1e-12 on every such pair."""
    from tensorcat.algebra import algebra_dim
    cd, A = qsystem_case(case)
    dQ = algebra_dim(cd, A)
    mods = enumerate_local_modules(cd, A).simples + [
        m for x in range(min(cd.ring.rank, 6)) for m in free_module_decomposition(cd, A, x)]
    blocks = 0
    for X in mods:
        for Y in mods:
            trace = 0.0
            for t in range(cd.ring.rank):
                pairs = [(x, y) for x in X.support for y in Y.support if cd.ring.N[x, y, t]]
                if not pairs:
                    continue
                want = projector_block_by_diagrams(cd, A, X, Y, t, pairs, dQ)
                got = projector_block(cd, A, X, Y, t, pairs, dQ)
                assert np.max(np.abs(got - want)) < 1e-13, (case, X.support, Y.support, t)
                blocks += np.count_nonzero(want) > 0
                D = [cd.rval(x, y, t) * cd.rval(y, x, t) for x, y in pairs]
                trace += cd.dims.dims[t] * np.diag(want) @ D
            assert abs(local_double_braid_trace(cd, A, X, Y) - trace / dQ) < 1e-12, (
                case, X.support, Y.support)
    assert blocks > 0


RING_CASES = ["D(Z6):lagrangian", "D(Z6):Z3", "toric*toric:1+e*1", "fib:lagrangian",
              "ising:lagrangian", "vec_z6_t1:lagrangian", "vec_z6_t0:lagrangian",
              "ising:trivial"]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("case", RING_CASES)
def test_condensed_ring_matches_projector_rank_oracle(case, seed, qsystem_case):
    """The Verlinde ring equals the ring solved from the ranks of the
    canonical projector, on the benchmark's condense cases, the Longo-Rehren
    Lagrangians and a trivial algebra."""
    cd, A = qsystem_case(case)
    cond = enumerate_local_modules(cd, A, seed=seed, with_ring=True)
    want = condensed_ring_by_projector_ranks(cd, A, cond)
    assert cond.ring == want and cond.ring.labels == want.labels


def test_local_layer_reads_f_without_unfold_or_rank_solve(qsystem_case, monkeypatch):
    """The enumeration with its Verlinde ring, local_fusion and the
    double-braid traces read F-symbols directly, so they call no unfold,
    svd, matrix_rank, lstsq or pinv."""
    import tensorcat.diagram_eval as de
    cd, A = qsystem_case("D(Z6):Z3")
    unfolds = []
    monkeypatch.setattr(de, "unfold", lambda *args: unfolds.append(args))
    linalg = record_linalg_calls(monkeypatch, "svd", "matrix_rank", "lstsq", "pinv")
    cond = enumerate_local_modules(cd, A, with_ring=True)
    for X in cond.simples:
        for Y in cond.simples:
            local_fusion(cd, A, X, Y, condensed=cond)
            local_double_braid_trace(cd, A, X, Y)
    assert cond.ring.rank == 4
    assert unfolds == []
    assert linalg == {"svd": [], "matrix_rank": [], "lstsq": [], "pinv": []}


@pytest.mark.parametrize("case", ["toric:1+e", "D(Z6):Z3"])
def test_local_layer_evaluates_no_diagram(case, qsystem_case, monkeypatch):
    """enumerate_local_modules with its condensed ring, verify_qsystem and
    verify_module included, and the double-braid trace of every pair of
    simple locals call neither insert nor compose_values."""
    cd, A = qsystem_case(case)
    calls = record_diagram_calls(monkeypatch)
    cond = enumerate_local_modules(cd, A, with_ring=True)
    assert cond.ring.rank == len(cond.simples) == (1 if case == "toric:1+e" else 4)
    for X in cond.simples:
        for Y in cond.simples:
            local_double_braid_trace(cd, A, X, Y)
    assert calls == []


@pytest.mark.parametrize("case", ["fib:lagrangian", "D(Z6):Z3"])
def test_verifiers_evaluate_no_diagram(case, qsystem_case, monkeypatch):
    from tensorcat.algebra import verify_qsystem
    cd, A = qsystem_case(case)
    mods = enumerate_local_modules(cd, A).simples + free_module_decomposition(cd, A, 1)
    calls = record_diagram_calls(monkeypatch)
    assert verify_qsystem(cd, A).passed
    assert all(verify_module(cd, A, X)["passed"] for X in mods)
    assert calls == []


MODULE_CASES = ["fib:lagrangian", "vec_z2:lagrangian", "vec_z6_t1:lagrangian",
                "vec_z6_t0:lagrangian", "D(Z6):Z3", "toric*toric:1+e*1"]


@pytest.mark.parametrize("case", MODULE_CASES)
def test_module_residuals_match_diagram_oracle(case, qsystem_case):
    """verify_module's F-contraction equals the diagram route, in the stored
    gauge and in a random vertex gauge, on every simple local module X and
    two perturbed copies: random non-unit rho, and X cut down to its first
    label x, whose paths (x, z, x) with z != x have only the mu side.  The
    perturbed copies fail verify_module by the oracle's residual."""
    from tensorcat.algebra import _associativity_terms, _max_abs
    from tensorcat.local_modules import ModuleObject

    from oracles import module_associativity_by_diagrams, vertex_gauge
    cd, A = qsystem_case(case)
    rng = np.random.default_rng(3)
    for X in enumerate_local_modules(cd, A).simples:
        assert verify_module(cd, A, X)["passed"]
        x = X.support[0]
        perturbed = [
            ModuleObject(X.support, {k: v if k[1] == 0 else complex(*rng.standard_normal(2))
                                     for k, v in sorted(X.rho.items())}),
            ModuleObject((x,), {k: v for k, v in X.rho.items() if k[0] == k[2] == x})]
        for gauged in (cd, vertex_gauge(cd, 11)):
            for M in [X] + perturbed:
                got = _max_abs(_associativity_terms(gauged, M.rho, M.support, A.mu, A.support))
                want = module_associativity_by_diagrams(gauged, A, M)
                assert got == pytest.approx(want, abs=1e-12), (case, M.support)
        for M in perturbed:
            rep = verify_module(cd, A, M)
            scale = max(1.0, max(abs(v) for v in M.rho.values()) ** 2)
            assert not rep["passed"] and rep["associativity"] > 0.01
            assert rep["associativity"] == pytest.approx(
                module_associativity_by_diagrams(cd, A, M) / scale, abs=1e-12)


def test_free_module_decomposition_without_keep_verifies_all(toric, monkeypatch):
    calls = _count_verify_calls(monkeypatch)
    A = group_algebra(toric, ("1", "e"))
    for x in range(toric.ring.rank):
        calls.clear()
        mods = free_module_decomposition(toric, A, x)
        assert mods and len(calls) == len(mods)
        dropped = free_module_decomposition(toric, A, x, keep=lambda mods: [])
        assert dropped == []


def test_local_fusion_refuses_rank_deficient_supports(toric):
    """Two simples on one support: the projector-rank solve cannot tell them
    apart, and local_fusion refuses a list that holds one simple twice."""
    A = trivial_algebra()
    cond = enumerate_local_modules(toric, A)
    X = cond.simples[1]
    twice = CondensedData(simples=[X, X], dims_over_Q=np.ones(2))
    with pytest.raises(StructuralError, match=r"rank 1 < 2"):
        local_fusion_by_projector_ranks(toric, A, X, X, twice)
    unit = cond.simples[0]
    with pytest.raises(StructuralError, match="equivalent to 2 of"):
        local_fusion(toric, A, unit, unit,
                     condensed=CondensedData(simples=[unit, unit], dims_over_Q=np.ones(2)))


def test_local_fusion_toric_squared_matches_group_law():
    """toric (x) toric condensed by 1 + e(x)1 is a toric code again: the simple
    locals sit over (1, g) + (e, g), g in (1, e, m, f), and fuse by the
    Z/2 x Z/2 group law (index XOR), the multiplicities scipy's nnls gave."""
    from tensorcat.catalog import toric_code
    from tensorcat.category_data import deligne_product_data
    cd = deligne_product_data(toric_code(), toric_code())
    A = group_algebra(cd, ("(1,1)", "(e,1)"))
    cond = enumerate_local_modules(cd, A)
    assert [m.support for m in cond.simples] == [(0, 4), (1, 5), (2, 6), (3, 7)]
    for i, X in enumerate(cond.simples):
        for j, Y in enumerate(cond.simples):
            _, mult = local_fusion(cd, A, X, Y, condensed=cond)
            assert list(mult) == list(np.eye(4, dtype=int)[i ^ j]), (i, j)


def test_condensed_ring_does_not_load_scipy_optimize():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys\n"
            "from tensorcat.algebra import group_algebra\n"
            "from tensorcat.catalog import toric_code\n"
            "from tensorcat.local_modules import enumerate_local_modules\n"
            "cd = toric_code()\n"
            "cond = enumerate_local_modules(cd, group_algebra(cd, ('1', 'e')),"
            " with_ring=True)\n"
            "assert cond.ring.rank == 1\n"
            "print('scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


# Condense cases of the benchmark, then Longo-Rehren Lagrangians, with the
# number of simple A-modules: one x (x) A is decomposed per simple A-module.
INDUCTION_CASES = {"D(Z6):lagrangian": 6, "D(Z6):Z3": 12, "toric*toric:1+e*1": 8,
                   "fib:lagrangian": 2, "ising:lagrangian": 3,
                   "vec_z6_t1:lagrangian": 6}


def _count_decompositions(monkeypatch):
    import tensorcat.local_modules as lm
    calls = []
    real = lm.free_module_decomposition

    def counting(cd, A, x, **kw):
        calls.append(x)
        return real(cd, A, x, **kw)

    monkeypatch.setattr(lm, "free_module_decomposition", counting)
    return calls


def _same_condensed(got, want):
    assert [m.support for m in got.simples] == [m.support for m in want.simples]
    for m, w in zip(got.simples, want.simples):
        assert m.rho == w.rho
    assert np.array_equal(got.dims_over_Q, want.dims_over_Q)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("case", list(INDUCTION_CASES))
def test_enumeration_matches_every_induction_oracle(case, seed, qsystem_case):
    """Skipping covered x (x) A changes no simple, no representative and no
    order: rho is equal to the last bit."""
    cd, A = qsystem_case(case)
    _same_condensed(enumerate_local_modules(cd, A, seed=seed),
                    local_modules_by_every_induction(cd, A, seed=seed))


def test_trivial_algebra_matches_every_induction_oracle(cats):
    for cd in cats.values():
        for seed in (0, 1):
            _same_condensed(enumerate_local_modules(cd, trivial_algebra(), seed=seed),
                            local_modules_by_every_induction(cd, trivial_algebra(), seed=seed))


def test_enumeration_decomposes_once_per_simple_module(qsystem_case, cats, monkeypatch):
    from tensorcat.center_tube import theorem_c_shadow
    calls = _count_decompositions(monkeypatch)
    for case, n_modules in INDUCTION_CASES.items():
        calls.clear()
        enumerate_local_modules(*qsystem_case(case))
        assert len(calls) == len(set(calls)) == n_modules, case
    for cd in cats.values():
        calls.clear()
        enumerate_local_modules(cd, trivial_algebra())
        assert calls == list(range(cd.ring.rank))
    calls.clear()
    assert theorem_c_shadow(cats["ising"])["passed"]
    assert len(calls) == INDUCTION_CASES["ising:lagrangian"]


@pytest.mark.parametrize("case", ["D(Z6):Z3", "toric*toric:1+e*1"])
def test_enumeration_counts_only_the_returned_round(case, qsystem_case, monkeypatch):
    """verify_module fails once per least label x, so each x (x) A with a local
    summand is split twice; its summands must be counted once, or the
    Frobenius-reciprocity totals overshoot and the enumeration raises."""
    import tensorcat.local_modules as lm
    cd, A = qsystem_case(case)
    calls = _count_decompositions(monkeypatch)
    want = enumerate_local_modules(cd, A)
    want_calls = list(calls)
    real = lm.verify_module
    failed = set()

    def fail_once(cd, A, X):
        if X.support[0] not in failed:
            failed.add(X.support[0])
            return {"associativity": 0.5, "unit": 0.0, "passed": False}
        return real(cd, A, X)

    monkeypatch.setattr(lm, "verify_module", fail_once)
    calls.clear()
    got = enumerate_local_modules(cd, A)
    assert failed == {m.support[0] for m in want.simples}
    assert calls == want_calls
    assert [m.fingerprint() for m in got.simples] == [m.fingerprint() for m in want.simples]
    assert np.array_equal(got.dims_over_Q, want.dims_over_Q)


def test_enumeration_raises_when_the_split_misses_a_module(toric, monkeypatch):
    """A round that loses a summand leaves Frobenius reciprocity short at
    every label of that summand."""
    import tensorcat.local_modules as lm
    real = lm.free_module_decomposition

    def lossy(cd, A, x, keep, **kw):
        return real(cd, A, x, keep=lambda mods: keep(mods[1:]), **kw)

    monkeypatch.setattr(lm, "free_module_decomposition", lossy)
    with pytest.raises(StructuralError, match=r"through x=0 have total FPdim 0\.000000, "
                                              r"but Frobenius reciprocity needs "
                                              r"d_x dim A = 2\.000000"):
        enumerate_local_modules(toric, group_algebra(toric, ("1", "e")))
