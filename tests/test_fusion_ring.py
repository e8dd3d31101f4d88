import numpy as np
import pytest

from tensorcat.fusion_ring import (FusionRing, deligne_product, fp_dimensions,
                                   hypergroup_coeffs, opposite_ring,
                                   validate_fusion_ring)
from tensorcat.catalog import catalog_category, catalog_names, vec_zn

from oracles import (PHI, SQRT2, enumerate_candidate_rings, ring_associativity_by_loops,
                     ring_axioms_by_loops, ring_duality_rotation_by_loops)


def fib_ring():
    return catalog_category("fibonacci").ring


def test_fibonacci_ring_valid():
    assert validate_fusion_ring(fib_ring()) == []


def test_rank_one_ring_valid():
    ring = FusionRing.from_arrays(["1"], [0], np.ones((1, 1, 1), dtype=int))
    assert validate_fusion_ring(ring) == []


def test_from_fusion_reads_duals_and_refuses_a_missing_one():
    from tensorcat.errors import StructuralError
    for name in catalog_names():
        ring = catalog_category(name).ring
        assert FusionRing.from_fusion(ring.labels, ring.N) == ring, name
    N = fib_ring().N.copy()
    N[1, 1, 0] = 0
    with pytest.raises(StructuralError, match="fusion rules give t no dual"):
        FusionRing.from_fusion(("1", "t"), N)


def test_fibonacci_with_doubled_entry_stays_a_ring():
    # x^2 = 1 + 2x is a valid fusion ring; both associativity sides move
    # together (5 = 5 at (t,t,t,t)), confirmed by the loop oracle
    ring = fib_ring()
    N = ring.N.copy()
    N[1, 1, 1] = 2
    bad = FusionRing.from_arrays(ring.labels, ring.dual, N)
    assert validate_fusion_ring(bad) == []
    assert ring_axioms_by_loops(2, bad.dual, bad.N.tolist())


def test_removed_channel_fails_associativity():
    ring = catalog_category("toric_code").ring
    N = ring.N.copy()
    N[1, 2, 3] = 0
    bad = FusionRing.from_arrays(ring.labels, ring.dual, N)
    report = validate_fusion_ring(bad)
    assert any(line.startswith("associativity") for line in report)
    assert not ring_axioms_by_loops(4, bad.dual, bad.N.tolist())


def test_structural_errors_reported_distinctly():
    ring = FusionRing.from_arrays(["1", "t"], [0, 1], np.zeros((2, 2, 2), int))
    N = ring.N.copy()
    N[0, 0, 0] = -1
    bad = FusionRing.from_arrays(ring.labels, ring.dual, N)
    report = validate_fusion_ring(bad)
    assert report and report[0].startswith("structural:")


def test_fp_dimensions_fibonacci():
    dims = fp_dimensions(fib_ring())
    assert dims.dims[0] == pytest.approx(1.0, abs=1e-12)
    assert dims.dims[1] == pytest.approx(PHI, abs=1e-9)
    assert dims.global_dim == pytest.approx(1.0 + PHI ** 2, abs=1e-9)


def test_fp_dimensions_unit_ring():
    ring = FusionRing.from_arrays(["1"], [0], np.ones((1, 1, 1), dtype=int))
    dims = fp_dimensions(ring)
    assert dims.dims[0] == 1.0
    assert dims.global_dim == 1.0


def test_fp_dimensions_ising():
    dims = fp_dimensions(catalog_category("ising").ring)
    assert dims.dims[1] == pytest.approx(SQRT2, abs=1e-9)
    assert dims.dims[2] == pytest.approx(1.0, abs=1e-9)
    assert dims.global_dim == pytest.approx(4.0, abs=1e-9)


def test_hypergroup_fibonacci_values():
    ring = fib_ring()
    dims = fp_dimensions(ring)
    M = hypergroup_coeffs(ring, dims).M
    assert M[1, 1, 1] == pytest.approx(1.0 / PHI, abs=1e-9)
    assert M[1, 1, 0] == pytest.approx(1.0 / PHI ** 2, abs=1e-9)


def test_hypergroup_unit_row():
    for name in catalog_names():
        ring = catalog_category(name).ring
        M = hypergroup_coeffs(ring, fp_dimensions(ring)).M
        for b in range(ring.rank):
            assert M[0, b, b] == pytest.approx(1.0, abs=1e-12)


def test_hypergroup_ising_values():
    ring = catalog_category("ising").ring
    M = hypergroup_coeffs(ring, fp_dimensions(ring)).M
    assert M[1, 1, 2] == pytest.approx(0.5, abs=1e-9)
    assert M[1, 1, 0] == pytest.approx(0.5, abs=1e-9)


def test_hypergroup_row_stochastic_all_catalog():
    for name in catalog_names():
        ring = catalog_category(name).ring
        M = hypergroup_coeffs(ring, fp_dimensions(ring)).M
        assert np.max(np.abs(M.sum(axis=2) - 1.0)) < 1e-9


def test_deligne_product_rank_and_dims():
    r = fib_ring()
    p = deligne_product(r, r)
    assert p.rank == 4
    assert validate_fusion_ring(p) == []
    dims = fp_dimensions(p)
    assert dims.dims[3] == pytest.approx(PHI ** 2, abs=1e-9)
    outer = np.outer(fp_dimensions(r).dims, fp_dimensions(r).dims).reshape(-1)
    assert np.max(np.abs(dims.dims - outer)) < 1e-9


def test_deligne_with_unit_ring_is_relabeled_copy():
    r = fib_ring()
    unit = FusionRing.from_arrays(["1"], [0], np.ones((1, 1, 1), dtype=int))
    p = deligne_product(r, unit)
    assert p.rank == r.rank
    assert np.array_equal(p.N, r.N)
    assert p.dual == r.dual


def test_opposite_fibonacci_unchanged():
    r = fib_ring()
    assert opposite_ring(r) == r


def test_opposite_vec_z3_negates_labels():
    r = vec_zn(3, 2).ring
    op = opposite_ring(r)
    for a in range(3):
        for b in range(3):
            for c in range(3):
                assert op.N[a, b, c] == r.N[(-a) % 3, (-b) % 3, (-c) % 3]
    assert validate_fusion_ring(op) == []


def test_opposite_is_involution_on_vec_z5():
    r = vec_zn(5, 2).ring
    assert opposite_ring(opposite_ring(r)) == r


def test_opposite_preserves_dims():
    for name in catalog_names():
        ring = catalog_category(name).ring
        a = fp_dimensions(ring).dims
        b = fp_dimensions(opposite_ring(ring)).dims
        assert np.array_equal(np.sort(a), np.sort(b))
        assert validate_fusion_ring(opposite_ring(ring)) == []


def test_sparse_input_stored_dense():
    ring = FusionRing.from_sparse(
        2, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 1)],
        dual=(0, 1), labels=("1", "t"))
    assert ring.N.shape == (2, 2, 2)
    assert validate_fusion_ring(ring) == []


def test_brute_force_oracle_small_ranks():
    """validate_fusion_ring agrees with direct loop checking on every
    candidate ring of rank <= 3 with entries <= 2."""
    checked = 0
    for rank in (1, 2, 3):
        for dual, N in enumerate_candidate_rings(rank, max_entry=2):
            ring = FusionRing.from_arrays([str(i) for i in range(rank)], dual, N)
            lib = validate_fusion_ring(ring) == []
            oracle = ring_axioms_by_loops(rank, dual, N.tolist())
            assert lib == oracle, (dual, N)
            checked += 1
    assert checked > 10_000


def test_channel_table_matches_nonzero():
    """The table from one np.nonzero equals the per-row loop, with the
    same tuple-of-tuples-of-lists shape, on the catalog, D(Z6) and a
    Deligne product."""
    from tensorcat.category_data import QuadraticForm, pointed_from_quadratic_form
    rings = [catalog_category(name).ring for name in catalog_names()]
    rings.append(deligne_product(fib_ring(), catalog_category("ising").ring))
    rings.append(pointed_from_quadratic_form(
        QuadraticForm(group=(6, 6), t=(0, 0), cross={(0, 1): 1})).ring)
    for ring in rings:
        loop = tuple(tuple([int(c) for c in np.nonzero(row)[0]] for row in plane)
                     for plane in ring.N)
        assert ring.channel_table == loop and type(ring.channel_table) is tuple
        assert all(type(plane) is tuple for plane in ring.channel_table)
        for a in range(ring.rank):
            for b in range(ring.rank):
                want = [int(c) for c in np.nonzero(ring.N[a, b])[0]]
                got = ring.channels(a, b)
                assert isinstance(got, list) and got == want, (ring.labels, a, b)
                assert ring.channels(a, b) is got  # built once per ring


def _corrupted_rings():
    """Catalog rings with a broken dual involution, a wrong N^0_{ab} or one
    rotation-violating entry."""
    for name in ("ising", "vec_z3", "vec_z4", "toric_code"):
        ring = catalog_category(name).ring
        r = ring.rank
        dual = list(ring.dual)
        dual[1] = r - 1 if dual[1] != r - 1 else 0
        yield f"{name}: dual(1)", FusionRing(r, ring.labels, dual, ring.N)
        N = ring.N.copy()
        N[1, 1, 0] = 1 - N[1, 1, 0]
        yield f"{name}: N^0_11", FusionRing(r, ring.labels, ring.dual, N)
        N = ring.N.copy()
        N[1, r - 1, 1] += 1
        yield f"{name}: N^1_1{r - 1}", FusionRing(r, ring.labels, ring.dual, N)


def test_duality_and_rotation_lines_match_loop_reference():
    """validate_fusion_ring gives the loops' duality and rotation lines, in
    their order, on clean and corrupted rings."""
    def lines(ring):
        return [l for l in validate_fusion_ring(ring) if l.startswith(("duality", "rotation"))]

    for name in catalog_names():
        ring = catalog_category(name).ring
        assert lines(ring) == ring_duality_rotation_by_loops(ring) == [], name
    for name, ring in _corrupted_rings():
        assert lines(ring) == ring_duality_rotation_by_loops(ring) != [], name


def test_associativity_lines_match_loop_reference():
    """validate_fusion_ring's float products give the integer loops'
    associativity lines, byte for byte and in their order."""
    def lines(ring):
        return [l for l in validate_fusion_ring(ring) if l.startswith("associativity")]

    for name in catalog_names():
        ring = catalog_category(name).ring
        assert lines(ring) == ring_associativity_by_loops(ring) == [], name
    broken = [ring for _, ring in _corrupted_rings()]
    ising = catalog_category("ising").ring
    N = ising.N.copy()
    N[1, 2, 1] = 3
    broken.append(FusionRing.from_arrays(ising.labels, ising.dual, N))
    assert sum(bool(lines(ring)) for ring in broken) > 3
    assert "(a,b,c,d)=(1,1,1,1) lhs=2 rhs=4" in lines(broken[-1])[0]
    for ring in broken:
        assert lines(ring) == ring_associativity_by_loops(ring), ring.labels
