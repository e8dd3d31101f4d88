import dataclasses
import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tensorcat.algebra import (AlgebraObject, algebra_dim, is_commutative,
                               solve_support_algebra, verify_qsystem)
from tensorcat.braided_analysis import is_nondegenerate
from tensorcat.catalog import catalog_category, catalog_names, vec_zn
from tensorcat.center_tube import (_corner_modules, _corner_projections,
                                   _half_braiding_readout, build_tube_algebra,
                                   center_global_checks, center_presentation,
                                   decompose_center, half_braiding_check,
                                   lagrangian_algebra, theorem_c_shadow)
from tensorcat.category_data import deligne_product_data, reverse_braiding
from tensorcat.errors import StructuralError
from tensorcat.local_modules import condensation_identity_check

from oracles import (PHI, algebras_gauge_equivalent, center_fusion_by_loops,
                     center_s_by_traces, center_twist_by_traces,
                     central_idempotents_by_nullspace, corner, corner_module_by_simple,
                     decompose_center_by_corners, dense_tube,
                     half_braiding_W_by_entries, half_braiding_check_by_diagrams,
                     half_braiding_check_dense, left_matrix, mate_phase_by_diagrams,
                     multiply, record_diagram_calls, record_linalg_calls,
                     rotation_isometry_by_diagrams, star_vector, trace_functional,
                     tube_by_loops, tube_product_by_pairs,
                     psu2_category, su2_category, tube_star_by_diagrams, vertex_gauge)


@pytest.fixture(scope="module")
def centers():
    out = {}
    for name in ("vec_z2", "fibonacci", "ising", "semion"):
        cd = catalog_category(name)
        tube = build_tube_algebra(cd)
        out[name] = (cd, tube, decompose_center(tube, seed=0))
    return out


def test_tube_dimensions(centers):
    assert centers["vec_z2"][1].dim == 4
    assert centers["fibonacci"][1].dim == 7
    assert centers["ising"][1].dim == 12


def test_tube_associativity_and_unit(centers):
    for name, (cd, tube, _) in centers.items():
        n = tube.dim
        eye = np.eye(n)
        u = tube.unit_vector()
        for i in range(n):
            assert np.allclose(multiply(tube, u, eye[i]), eye[i], atol=1e-9)
            assert np.allclose(multiply(tube, eye[i], u), eye[i], atol=1e-9)
        rng = np.random.default_rng(3)
        for _ in range(40):
            i, j, k = rng.integers(0, n, size=3)
            lhs = multiply(tube, multiply(tube, eye[i], eye[j]), eye[k])
            rhs = multiply(tube, eye[i], multiply(tube, eye[j], eye[k]))
            assert np.allclose(lhs, rhs, atol=1e-9), (name, i, j, k)


def test_tube_star_and_trace_form_positive(centers):
    for name, (cd, tube, _) in centers.items():
        n = tube.dim
        eye = np.eye(n)
        tau = trace_functional(tube)
        G = np.zeros((n, n), dtype=complex)
        for i in range(n):
            si = star_vector(tube, eye[i])
            for j in range(n):
                G[i, j] = tau @ multiply(tube, si, eye[j])
        assert np.max(np.abs(G - G.conj().T)) < 1e-9, name
        # diagonal on the basis: the corner modules take their inner product from it
        assert np.max(np.abs(G - np.diag(tube.trace_weights()))) < 1e-12, name
        assert np.min(np.linalg.eigvalsh((G + G.conj().T) / 2)) > 1e-9, name
        # star is an anti-homomorphism: (s t)* = t* s*
        rng = np.random.default_rng(5)
        for _ in range(20):
            i, j = rng.integers(0, n, size=2)
            lhs = star_vector(tube, multiply(tube, eye[i], eye[j]))
            rhs = multiply(tube, star_vector(tube, eye[j]), star_vector(tube, eye[i]))
            assert np.allclose(lhs, rhs, atol=1e-9), (name, i, j)


def test_array_methods_match_entrywise_sums(centers):
    """The oracles' multiply, star_vector and left_matrix, and the tube's
    trace_weights, against the defining sums over the dense structure
    constants, written as loops."""
    rng = np.random.default_rng(7)
    for name, (cd, tube, _) in centers.items():
        n = tube.dim
        C, star = dense_tube(tube)
        u, v = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        prod = np.zeros(n, dtype=complex)
        ustar = np.zeros(n, dtype=complex)
        for i in range(n):
            for k in range(n):
                ustar[k] += np.conj(u[i]) * star[i, k]
                for j in range(n):
                    prod[k] += u[i] * v[j] * C[i, j, k]
        assert np.allclose(multiply(tube, u, v), prod, atol=1e-12), name
        assert np.allclose(star_vector(tube, u), ustar, atol=1e-12), name
        assert np.allclose(left_matrix(tube, u) @ v, prod, atol=1e-12), name
        tau = trace_functional(tube)
        weights = [sum(star[i, k] * C[k, i, l] * tau[l] for k in range(n) for l in range(n))
                   for i in range(n)]
        assert np.allclose(tube.trace_weights(), weights, atol=1e-12), name


def test_tube_product_matches_per_pair_oracle(cats):
    """On the catalog, fib (x) ising, Vec(S_3) and vec_zn(3, 2), the blocks
    read from the F-moves equal the per-pair gluing diagrams and the
    per-vector star diagrams to 1e-12, and the diagrams vanish outside the
    stored blocks."""
    cases = dict(cats, **{"fib*ising": deligne_product_data(cats["fibonacci"], cats["ising"]),
                          "vec_s3": _vec_s3(), "vec_zn(3,2)": vec_zn(3, 2)})
    for name, cd in cases.items():
        tube = build_tube_algebra(cd)
        C, star = dense_tube(tube)
        oracle, oracle_star = tube_product_by_pairs(cd), tube_star_by_diagrams(cd)
        assert np.max(np.abs(C - oracle)) < 1e-12, name
        assert np.max(np.abs(star - oracle_star)) < 1e-12, name
        S = tube.sectors
        stored = np.zeros(C.shape, dtype=bool)
        for x, y, z in tube.blocks:
            stored[np.ix_(S[y, z], S[x, y], S[x, z])] = True
        assert not oracle[~stored].any(), name
        stored_star = np.zeros(star.shape, dtype=bool)
        for x, y in tube.sectors:
            stored_star[np.ix_(S[x, y], S[y, x])] = True
        assert not oracle_star[~stored_star].any(), name


@pytest.mark.parametrize("name,seed", [("fibonacci", 1), ("ising", 2), ("vec_zn(3,2)", 1)])
def test_tube_follows_the_evaluator_in_another_gauge(cats, name, seed):
    """In a random vertex gauge of F (R dropped) the build still equals the
    gluing diagrams, is associative and has a positive trace form: it
    follows the evaluator's conventions, not the stored gauge."""
    cd = vec_zn(3, 2) if name == "vec_zn(3,2)" else cats[name]
    gauged = vertex_gauge(cd, seed)
    tube = build_tube_algebra(gauged)
    C, star = dense_tube(tube)
    assert np.max(np.abs(C - tube_product_by_pairs(gauged))) < 1e-12
    assert np.max(np.abs(star - tube_star_by_diagrams(gauged))) < 1e-12
    # not the stored gauge's constants
    assert np.max(np.abs(C - dense_tube(build_tube_algebra(cd))[0])) > 0.1
    assert np.max(np.abs(np.einsum("ijk,klm->ijlm", C, C)
                         - np.einsum("jlk,ikm->ijlm", C, C))) < 1e-12
    tau = trace_functional(tube)
    G = np.einsum("ik,kjl,l->ij", star, C, tau)    # tau(t_i^* t_j)
    assert np.max(np.abs(G - np.diag(tube.trace_weights()))) < 1e-12
    assert tube.trace_weights().min() > 0.1


@pytest.mark.parametrize("name", catalog_names() + ["vec_s3", "fib*ising"])
def test_corner_left_action_is_a_star_representation(cats, name):
    """In every corner p_x Tube p_x, diag(sqrt w) L_(h^*) diag(1/sqrt w) is
    the adjoint of diag(sqrt w) L_h diag(1/sqrt w) to 1e-12, for the star of
    the loop oracle and random h: the corner split reads h + h^* from L_h
    alone, as m + m^dagger."""
    cd = (_vec_s3() if name == "vec_s3" else
          deligne_product_data(cats["fibonacci"], cats["ising"]) if name == "fib*ising"
          else cats[name])
    tube = build_tube_algebra(cd)
    rng = np.random.default_rng(11)
    for x in range(cd.ring.rank):
        _D, sub = corner(tube, x)
        sw = np.sqrt(sub.trace_weights())
        for _ in range(3):
            h = rng.standard_normal(sub.dim) + 1j * rng.standard_normal(sub.dim)
            m = sw[:, None] * left_matrix(sub, h) / sw
            m_star = sw[:, None] * left_matrix(sub, star_vector(sub, h)) / sw
            assert np.abs(m_star - m.conj().T).max() < 1e-12, (name, x)


def test_tube_build_of_the_double_of_z6_peaks_below_40_mib():
    """build_tube_algebra on D(Z/6) (rank 36, n = 1,296) peaks below 40 MiB
    by tracemalloc: 37.0 MiB measured, of which the blocks keep 26 MiB.  A
    build that allocates a (rank, rank, rank, rank) indicator and index
    table, 13.4 MB each, and a star peaked at 61.5 MiB.  The tube is built
    once first, so that lazy imports are not counted."""
    import tracemalloc
    cd = center_presentation(vec_zn(6, 0), None)[0]
    build_tube_algebra(cd)
    tracemalloc.start()
    try:
        tube = build_tube_algebra(cd)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tube.dim == 1296
    assert peak < 40 * 2 ** 20


def test_corner_split_reports_attempts(centers):
    import dataclasses
    _, tube, _ = centers["vec_z2"]
    # doubling the product quadruples dim(q sub q) for every spectral projection q
    doubled = dataclasses.replace(tube, blocks={k: 2 * P for k, P in tube.blocks.items()})
    with pytest.raises(StructuralError, match=r"corner split failed after 4 attempts "
                       r"\(smallest eigenvalue gap \d"):
        _corner_projections(doubled, [0, 1], tube.trace_weights(), np.random.default_rng(0))


def test_corner_split_retries_a_central_element(centers):
    """An rng whose draws make h a multiple of the unit yields one cluster,
    whose q, the unit of the 2-dimensional corner, is not minimal."""
    _, tube, _ = centers["vec_z2"]
    _D, sub = corner(tube, 0)

    class UnitDraws:
        calls = 0

        def standard_normal(self, n):
            self.calls += 1
            return sub.unit_vector().real

    rng = UnitDraws()
    with pytest.raises(StructuralError, match=r"corner split failed after 4 attempts "
                       r"\(smallest eigenvalue gap inf\)"):
        _corner_projections(tube, [0], tube.trace_weights(), rng)
    assert rng.calls == 8     # a real and an imaginary part per attempt


def test_only_a_failed_corner_draws_again(centers):
    """Every corner draws its h, x ascending; a corner whose split fails
    draws again only after every corner has drawn, and alone.  Fibonacci's
    corners have 2 and 3 basis vectors; corner 0's first h is the unit."""
    _, tube, _ = centers["fibonacci"]
    _D, sub = corner(tube, 0)
    good = np.random.default_rng(3)

    class FirstDrawUnit:
        calls = []

        def standard_normal(self, n):
            self.calls.append(n)
            return sub.unit_vector().real if len(self.calls) <= 2 else good.standard_normal(n)

    rng = FirstDrawUnit()
    mult, xs, Q, _gap = _corner_projections(tube, [0, 1], tube.trace_weights(), rng)
    assert rng.calls == [2, 2, 3, 3, 2, 2]
    assert xs.tolist() == [0, 0, 1, 1, 1]
    assert sorted(mult.tolist()) == [[0, 1], [0, 1], [1, 0], [1, 1], [1, 1]]
    assert Q.shape == (5, 3) and not Q[xs == 0, 2:].any()      # padded to corner 1's 3


def test_decompose_center_memory_bounded():
    """The whole decomposition of the vec_zn(6, 1) tube (n = 36) peaks
    below 4 MiB, half the 8 MiB that bounded a nullspace SVD of the whole
    tube on its own (a full SVD of that n^2 x n stack allocates 27 MB)."""
    import tracemalloc
    tube = build_tube_algebra(vec_zn(6, 1))
    assert tube.dim == 36
    tracemalloc.start()
    try:
        decompose_center(tube, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_tube_build_and_decomposition_allocate_no_cube():
    """build_tube_algebra and decompose_center on vec_zn(8, 1) (n = 64)
    together peak below n^3 complex entries, 4 MiB, which a dense product
    array alone would take.  A small center is decomposed first, so that
    lazy imports are not counted."""
    import tracemalloc
    decompose_center(build_tube_algebra(vec_zn(2, 1)), seed=0)
    cd = vec_zn(8, 1)
    tracemalloc.start()
    try:
        tube = build_tube_algebra(cd)
        decompose_center(tube, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tube.dim == 64
    assert peak < tube.dim ** 3 * 16


@pytest.mark.parametrize("name", ["fibonacci", "fib*ising"])
def test_tube_build_evaluates_no_diagram(cats, name, monkeypatch):
    """Every structure constant and rotation phase is read from F: the
    build calls neither insert nor compose_values, however many basis pairs
    the tube has."""
    cd = (deligne_product_data(cats["fibonacci"], cats["ising"]) if name == "fib*ising"
          else cats[name])
    calls = record_diagram_calls(monkeypatch)
    tube = build_tube_algebra(cd)
    assert not calls
    pairs = sum(len(tube.sectors[x, y]) * len(tube.sectors[y, z]) for x, y, z in tube.blocks)
    assert pairs > 3 * int(cd.ring.N.sum())


def test_rotation_phase_matches_the_diagram():
    """The closed-form phase of the rotation isometry equals the evaluated
    diagram on every vertex, in the stored gauge and in a random one, and
    is 0 off the vertices."""
    from tensorcat.algebra import _rotation_phases
    for base in (catalog_category("ising"), vec_zn(3, 2)):
        for cd in (base, vertex_gauge(base, 3)):
            ring = cd.ring
            _zeta, phi = _rotation_phases(cd)
            assert not phi[ring.N.transpose(1, 0, 2) == 0].any()
            for a1 in range(ring.rank):
                for a2 in range(ring.rank):
                    for b in ring.channels(a2, a1):
                        want = rotation_isometry_by_diagrams(cd, a1, a2, b).blocks[ring.dual[b]]
                        assert abs(phi[a1, a2, b] - want[0, 0]) < 1e-12


@pytest.mark.parametrize("name", catalog_names() + ["vec_s3", "fib*ising"])
def test_corner_projections_sum_to_central_idempotents(cats, name):
    """At every corner, each projection q lies under exactly one minimal
    central idempotent e of the nullspace oracle, e q = q and e' q = 0 for
    every other e', and every idempotent has exactly one projection: the
    block M_2 of Vec(S3)'s unit corner gives one of its two clusters.  Over
    an orthonormal basis u of the left ideal p_x Tube p_x q, scaled so that
    u^* u = q, the projections u u^* sum to e."""
    if name == "vec_s3":
        cd = _vec_s3()
    elif name == "fib*ising":
        cd = deligne_product_data(cats["fibonacci"], cats["ising"])
    else:
        cd = cats[name]
    tube = build_tube_algebra(cd)
    _mult, xs, Q, _gap = _corner_projections(tube, range(cd.ring.rank), tube.trace_weights(),
                                             np.random.default_rng(0))
    for x in range(cd.ring.rank):
        D, sub = corner(tube, x)
        oracle = central_idempotents_by_nullspace(sub)
        sw = np.sqrt(sub.trace_weights())
        found = []
        for q in Q[xs == x, :len(D)]:
            eq = np.array([[np.max(np.abs(multiply(sub, e, q) - t * q)) for t in (1, 0)]
                           for e in oracle])            # [e, (e q - q, e q)]
            under = eq[:, 0] < 1e-10
            assert under.sum() == 1, (name, x, eq)
            assert np.all(eq[~under, 1] < 1e-10), (name, x, eq)
            found.append(int(np.argmax(under)))
            # the t_j q, tau-scaled; their right singular vectors span the left ideal
            _u, s, vh = np.linalg.svd([multiply(sub, t, q) * sw for t in np.eye(len(D))])
            us = vh[s > 1e-10 * s[0]] / sw * np.sqrt(trace_functional(sub) @ q)
            total = np.sum([multiply(sub, u, star_vector(sub, u)) for u in us], axis=0)
            assert np.max(np.abs(total - oracle[found[-1]])) < 1e-10, (name, x)
        assert sorted(found) == list(range(len(oracle))), (name, x, found)


def _embedded(tube, x, q):
    """A projection of the corner p_x Tube p_x, given in its coordinates,
    over the whole tube."""
    out = np.zeros(tube.dim, dtype=complex)
    out[tube.sectors[x, x]] = q[:len(tube.sectors[x, x])]
    return out


def _recorded_batches(monkeypatch, tube):
    """decompose_center(tube) and the (xs, Q, copies, H, sector) of each
    _corner_modules batch it builds."""
    from tensorcat import center_tube
    batches = []

    def recorded(tube, xs, Q, weights, readout):
        out = _corner_modules(tube, xs, Q, weights, readout)
        batches.append((xs, Q) + out)
        return out

    monkeypatch.setattr(center_tube, "_corner_modules", recorded)
    center = decompose_center(tube, seed=0)
    monkeypatch.setattr(center_tube, "_corner_modules", _corner_modules)
    return center, batches


# The batch paths each fixture must take: Vec(S3) and ising batch modules
# of two copies, from more than one corner.
BATCH_PATHS = {"vec_s3": {"n > 1", "corners"}, "ising": {"n > 1", "corners"}}


@pytest.mark.parametrize("name", catalog_names() + ["fib*ising", "vec_s3", "PSU(2)_6"])
def test_corner_modules_match_the_per_simple_oracle(cats, name, monkeypatch):
    """Every projection of every batch decompose_center builds gets the
    copies of the one-projection oracle, and from its action, to 1e-12, the
    half-braiding scale[k] conj(pi(t_k)); a batch has one module size and
    no padding."""
    cd = {"fib*ising": lambda: deligne_product_data(cats["fibonacci"], cats["ising"]),
          "vec_s3": _vec_s3, "PSU(2)_6": lambda: psu2_category(6)}.get(name, lambda: cats[name])()
    tube = build_tube_algebra(cd)
    weights = tube.trace_weights()
    rank = cd.ring.rank
    slot, scale = _half_braiding_readout(tube)
    _center, batches = _recorded_batches(monkeypatch, tube)
    paths = set()
    for xs, Q, copies, H, sector in batches:
        sizes = {len(c) for c in copies}
        assert len(sizes) == 1 and H.shape == (len(Q), rank, rank) + (max(sizes),) * 2
        assert sector.tolist() == [[y for y, _j in c] for c in copies]
        paths |= {"n > 1"} if max(sizes) > 1 else set()
        paths |= {"corners"} if len(set(xs.tolist())) > 1 else set()
        for x, q, got, h in zip(xs.tolist(), Q, copies, H):
            want, pi = corner_module_by_simple(tube, x, _embedded(tube, x, q), weights)
            n = len(want)
            assert got == want, (name, x)
            oracle = np.zeros((rank * rank, n, n), dtype=complex)
            np.add.at(oracle, slot, scale[:, None, None] * pi.conj())
            assert np.max(np.abs(h.reshape(-1, n, n) - oracle)) < 1e-12, (name, x)
    assert BATCH_PATHS.get(name, set()) <= paths, (name, paths)


def test_decompose_center_batches_by_module_size(monkeypatch):
    """vec_zn(8, 1) has 64 simples, 8 at each of its 8 corners, all with one
    copy: one _corner_modules batch for all of them.  fib (x) ising has
    modules of 1, 2 and 4 copies: at most one batch per size."""
    center, batches = _recorded_batches(monkeypatch, build_tube_algebra(vec_zn(8, 1)))
    assert len(center.simples) == 64
    assert [(sorted(set(xs.tolist())), len(xs)) for xs, *_ in batches] == [(list(range(8)), 64)]
    cd = deligne_product_data(catalog_category("fibonacci"), catalog_category("ising"))
    center, batches = _recorded_batches(monkeypatch, build_tube_algebra(cd))
    sizes = [{len(c) for c in copies} for _xs, _Q, copies, *_ in batches]
    assert all(len(s) == 1 for s in sizes)
    assert sorted(s.pop() for s in sizes) == [1, 2, 4] == sorted(
        {len(z.copies) for z in center.simples})


@pytest.mark.parametrize("make, center_rank", [
    (lambda: deligne_product_data(catalog_category("fibonacci"), catalog_category("ising")), 36),
    (lambda: _vec_s3(), 8), (lambda: su2_category(4), 25)], ids=["fib*ising", "vec_s3", "SU(2)_4"])
def test_a_small_module_budget_gives_the_default_simples(make, center_rank, monkeypatch):
    """With a budget below one module every projection is a batch of its
    own.  Either way the batches build exactly one module per simple, so
    only one for the block M_2 of Vec(S3)'s unit corner.  The simples, S
    and T are the default run's, to 1e-12."""
    from tensorcat import center_tube
    tube = build_tube_algebra(make())
    want, batches = _recorded_batches(monkeypatch, tube)
    monkeypatch.setattr(center_tube, "_ENTRIES", 1)
    got, small = _recorded_batches(monkeypatch, tube)
    assert len(small) > len(batches) and all(len(xs) == 1 for xs, *_ in small)
    assert len(small) == len(got.simples) == sum(len(xs) for xs, *_ in batches) == center_rank
    assert [z.copies for z in got.simples] == [z.copies for z in want.simples]
    assert np.max(np.abs(got.S - want.S)) < 1e-12 and np.max(np.abs(got.T - want.T)) < 1e-12
    for z, w in zip(got.simples, want.simples):
        assert np.max(np.abs(z.half_braiding - w.half_braiding)) < 1e-12


def test_decompose_center_peak_memory(monkeypatch):
    """decompose_center on fib (x) fib (x) fib (tube dim 343, 64 simples)
    peaks below 6 MiB, and once the batches are done the contraction of S
    and the ordering allocate less than the trace array D: no transposed
    copy of it.  D holds one entry per simple and admissible triple, 125 of
    them for fib (x) fib (x) fib and 81 for the double of Z/3 (rank 9), not
    one per triple of labels.  A small center is decomposed first, so that
    lazy imports are not counted."""
    import tracemalloc
    from tensorcat import center_tube
    decompose_center(build_tube_algebra(vec_zn(2, 1)), seed=0)
    fib = catalog_category("fibonacci")
    tube = build_tube_algebra(deligne_product_data(deligne_product_data(fib, fib), fib))
    double = build_tube_algebra(center_presentation(vec_zn(3, 0), None)[0])
    after_batches = []
    corner_simples = center_tube._corner_simples

    def traced(*args):
        simples, D = corner_simples(*args)
        after_batches.append((tracemalloc.get_traced_memory()[0], D.shape, D.nbytes))
        tracemalloc.reset_peak()
        return simples, D

    monkeypatch.setattr(center_tube, "_corner_simples", traced)
    decompose_center(double, seed=0)
    tracemalloc.start()
    try:
        decompose_center(tube, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        monkeypatch.undo()
        decompose_center(tube, seed=0)
        whole = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (_, double_traces, _), (base, _, trace_bytes) = after_batches
    assert double_traces == (81, 81)
    assert trace_bytes == 64 * 125 * 16
    assert peak - base < trace_bytes, (peak - base, trace_bytes)
    assert whole < 6 * 2 ** 20, whole


def test_corner_split_arrays_are_dropped_before_the_module_build(monkeypatch):
    """_corner_projections drops its stacked corner blocks and their left
    and right products once the corner dimensions are formed, so they are
    not held while decompose_center builds the modules: on the double of
    Z/4 (rank 16) under 1.5 MiB is traced when _corner_simples starts
    (3.6 MiB while they were held)."""
    import tracemalloc
    from tensorcat import center_tube
    decompose_center(build_tube_algebra(vec_zn(2, 1)), seed=0)
    tube = build_tube_algebra(center_presentation(vec_zn(4, 0), None)[0])
    held = []
    corner_simples = center_tube._corner_simples

    def traced(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        return corner_simples(*args)

    monkeypatch.setattr(center_tube, "_corner_simples", traced)
    tracemalloc.start()
    try:
        decompose_center(tube, seed=0)
    finally:
        tracemalloc.stop()
    assert len(held) == 1 and held[0] < 1.5 * 2 ** 20, held


def test_center_vec_z2_is_toric_code(centers):
    _, _, center = centers["vec_z2"]
    assert len(center.simples) == 4
    assert [round(z.dim, 6) for z in center.simples] == [1.0, 1.0, 1.0, 1.0]
    tw = sorted(np.round([z.twist for z in center.simples], 9).tolist(),
                key=lambda z: (z.real, z.imag))
    assert tw == [(-1 + 0j), (1 + 0j), (1 + 0j), (1 + 0j)]


def test_center_fibonacci(centers):
    _, _, center = centers["fibonacci"]
    assert len(center.simples) == 4
    dims = sorted(z.dim for z in center.simples)
    assert np.allclose(dims, [1.0, PHI, PHI, PHI ** 2], atol=1e-6)
    tw = {np.round(z.twist, 6) for z in center.simples}
    assert np.round(np.exp(4j * np.pi / 5), 6) in tw
    assert np.round(np.exp(-4j * np.pi / 5), 6) in tw


def test_center_ising(centers):
    _, _, center = centers["ising"]
    assert len(center.simples) == 9
    assert sum(z.dim ** 2 for z in center.simples) == pytest.approx(16.0, abs=1e-6)


def test_center_global_checks(centers):
    for name, (cd, _, center) in centers.items():
        checks = center_global_checks(center)
        assert checks["dims_identity"], name
        assert checks["nondegenerate"], name
        assert checks["trivial_centralizer"], name


@pytest.mark.parametrize("name", ["ising", "vec_z3", "fib*ising"])
def test_nondegenerate_reads_unitarity_of_s(cats, name):
    """(ii) holds when S / sqrt(sum dim^2) is unitary.  Flipping the sign of
    one pair S[1, 2], S[2, 1] leaves S invertible, its smallest singular
    value above 1, yet no longer unitary: (ii) reads False."""
    cd = {"fib*ising": lambda: deligne_product_data(cats["fibonacci"], cats["ising"])}.get(
        name, lambda: cats[name])()
    center = decompose_center(build_tube_algebra(cd), seed=0)
    S = center.S.copy()
    S[[1, 2], [2, 1]] *= -1
    assert np.linalg.svd(S, compute_uv=False)[-1] > 1
    assert center_global_checks(center)["nondegenerate"]
    assert not center_global_checks(dataclasses.replace(center, S=S))["nondegenerate"]
    empty = dataclasses.replace(center, simples=[], S=S[:0, :0])
    assert not center_global_checks(empty)["nondegenerate"]


@pytest.mark.parametrize("name", ["vec_z2", "semion", "fib*ising", "vec_zn(6,0)", "vec_s3"])
def test_self_centralizer_matches_the_entrywise_loop(cats, name):
    """The self-centralizer, one array comparison of S with the outer product
    of the dims, lists what the entrywise loop lists: on the center's S
    (the unit alone) and on |S|, where every simple of a pointed center is
    transparent."""
    cd = {"fib*ising": lambda: deligne_product_data(cats["fibonacci"], cats["ising"]),
          "vec_zn(6,0)": lambda: vec_zn(6, 0), "vec_s3": _vec_s3}.get(name, lambda: cats[name])()
    center = decompose_center(build_tube_algebra(cd), seed=0)
    dims = [z.dim for z in center.simples]
    tol = cd.identity_tolerance
    for S in (center.S, np.abs(center.S)):
        want = [i for i in range(len(S))
                if all(abs(S[i, j] - dims[i] * dims[j]) < tol for j in range(len(S)))]
        checks = center_global_checks(dataclasses.replace(center, S=S))
        assert checks["self_centralizer"] == want, name
        assert all(type(i) is int for i in checks["self_centralizer"])


def test_half_braiding_hexagons(centers):
    for name, (cd, _, center) in centers.items():
        for i, z in enumerate(center.simples):
            assert half_braiding_check(cd, z) == [], (name, i)


def _sorted_twists(center):
    return np.array(sorted((z.twist for z in center.simples),
                           key=lambda t: (round(t.real, 6), round(t.imag, 6))))


GAUGE_CASES = {"fibonacci": lambda: catalog_category("fibonacci"),
               "ising": lambda: catalog_category("ising"),
               "vec_zn(3,2)": lambda: vec_zn(3, 2),
               "toric_code": lambda: catalog_category("toric_code"),
               "vec_zn(4,1)": lambda: vec_zn(4, 1)}


@functools.lru_cache(maxsize=None)
def _stored_center(name):
    cd = GAUGE_CASES[name]()
    return cd, decompose_center(build_tube_algebra(cd), seed=0)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", list(GAUGE_CASES))
def test_center_is_gauge_covariant(name, seed):
    """In a random vertex gauge of F every simple passes the half-braiding
    check and the twists are the stored gauge's: the readout conjugates the
    module matrix, which transports as the half-braiding must."""
    cd, stored = _stored_center(name)
    gauged = vertex_gauge(cd, seed)
    center = decompose_center(build_tube_algebra(gauged), seed=0)
    for i, z in enumerate(center.simples):
        assert half_braiding_check(gauged, z) == [], i
    assert len(center.simples) == len(stored.simples)
    assert np.max(np.abs(_sorted_twists(center) - _sorted_twists(stored))) < 1e-9


def test_vec_z3_twists_are_cube_roots_in_a_vertex_gauge():
    """The twists of Z(Vec(Z/3)) are cube roots of unity in any gauge; read
    from pi(t_k) rather than its conjugate they moved by twice the gauge
    phase at x = 1 and 2."""
    center = decompose_center(build_tube_algebra(vertex_gauge(vec_zn(3, 2), 1)), seed=0)
    twists = np.array([z.twist for z in center.simples])
    assert np.max(np.abs(twists ** 3 - 1)) < 1e-9
    assert np.sum(np.abs(twists - 1) < 1e-9) == 5


def test_tube_with_an_empty_sector_pair_builds():
    """PSU(2)_6 (q-Racah F) has sectors (0, 1) and (1, 3) but none from 0
    to 3, so the product of that chain is 0 and has no block: the build
    skips it, and the center is nondegenerate with clean half-braidings."""
    cd = psu2_category(6)
    tube = build_tube_algebra(cd)
    S = tube.sectors
    assert (0, 1) in S and (1, 3) in S and (0, 3) not in S
    center = decompose_center(tube, seed=0)
    checks = center_global_checks(center)
    assert checks["dims_identity"] and checks["nondegenerate"]
    for i, z in enumerate(center.simples):
        assert half_braiding_check(cd, z) == [], i


def test_seeded_draws_follow_the_seed_value():
    """Equal seeds key one stream whatever their integer type; others differ."""
    from tensorcat.category_data import SeededDraws
    draws = SeededDraws((3, 1)).standard_normal(4)
    assert np.array_equal(draws, SeededDraws((np.int64(3), 1)).standard_normal(4))
    assert not np.array_equal(draws, SeededDraws((4, 1)).standard_normal(4))


def test_spectral_splits_do_not_load_numpy_random():
    """The corner split and the free-module split draw from a stdlib
    stream, so neither imports numpy.random."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys\n"
            "import tensorcat\n"
            "from tensorcat.algebra import group_algebra\n"
            "from tensorcat.catalog import toric_code, vec_zn\n"
            "from tensorcat.center_tube import build_tube_algebra, decompose_center\n"
            "from tensorcat.local_modules import enumerate_local_modules\n"
            "assert len(decompose_center(build_tube_algebra(vec_zn(6, 1))).simples) == 36\n"
            "cd = toric_code()\n"
            "assert len(enumerate_local_modules(cd, group_algebra(cd, ('1', 'e'))).simples) == 1\n"
            "print('numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_half_braiding_check_detects_corruption(centers):
    import copy
    cd, _, center = centers["fibonacci"]
    z = copy.deepcopy(center.simples[-1])  # the dim phi^2 object
    a = 1
    c, u, v = np.argwhere(z.half_braiding[a] != 0)[0]    # the first admissible entry
    z.half_braiding[a, c, u, v] *= -1.0
    assert half_braiding_check(cd, z)


CHECK_CASES = {**{name: functools.partial(catalog_category, name) for name in catalog_names()},
               "fib*ising": lambda: deligne_product_data(catalog_category("fibonacci"),
                                                         catalog_category("ising")),
               "PSU(2)_6": lambda: psu2_category(6),
               **{f"{name}:gauged{seed}": functools.partial(
                   lambda mk, seed: vertex_gauge(mk(), seed), mk, seed)
                  for name, mk in (("fibonacci", lambda: catalog_category("fibonacci")),
                                   ("ising", lambda: catalog_category("ising")),
                                   ("vec_zn(3,2)", lambda: vec_zn(3, 2)))
                  for seed in (1, 2, 3)}}


@pytest.mark.parametrize("name", list(CHECK_CASES) + ["SU(2)_4"])
def test_tube_join_matches_the_loops(name):
    """The joined build has the basis, sectors and block layout of the loop
    oracle, and its blocks: bit for bit on the pointed catalog categories
    and ising, within 1e-15 elsewhere, where the two multiply in another
    order."""
    cd = su2_category(4) if name == "SU(2)_4" else CHECK_CASES[name]()
    tube, want = build_tube_algebra(cd), tube_by_loops(cd)
    assert np.array_equal(tube.basis, want.basis)
    assert [(s, k.tolist()) for s, k in tube.sectors.items()] == \
        [(s, k.tolist()) for s, k in want.sectors.items()]
    assert list(tube.blocks) == list(want.blocks)
    tol = 0.0 if name in catalog_names() and (cd.is_pointed() or name == "ising") else 1e-15
    for key, P in want.blocks.items():
        assert tube.blocks[key].shape == P.shape
        assert np.max(np.abs(tube.blocks[key] - P), initial=0.0) <= tol, (name, key)


def _assert_same_report(got, want):
    """Equal lines, each dev within 1e-9 or, past that, the 3 digits printed."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        (g_head, _, g_dev), (w_head, _, w_dev) = g.rpartition("dev="), w.rpartition("dev=")
        assert g_head == w_head
        if w_head:
            assert abs(float(g_dev) - float(w_dev)) <= 1e-9 + 1e-3 * float(w_dev), (g, w)


def _compare_with_references(cd, simples):
    """half_braiding_check against both references on every simple, as
    computed and with the largest |entry| of its sigma_a, a != 0, doubled
    (of sigma_0 in a rank-1 category): the same lines as the dense
    contraction, and as the diagram oracle up to the printed dev, and a
    corrupted report that is not empty.  Doubled, not negated: negating
    sigma_1 of the unit of Vec(Z/2) gives the half-braiding of e.  Returns
    the seconds the check and the diagram oracle took on the simples as
    computed."""
    import copy
    import time
    seconds = np.zeros(2)
    for z in simples:
        reports = []
        for k, check in enumerate((half_braiding_check, half_braiding_check_by_diagrams)):
            start = time.perf_counter()
            reports.append(check(cd, z))
            seconds[k] += time.perf_counter() - start
        assert reports[0] == half_braiding_check_dense(cd, z)
        _assert_same_report(*reports)
        bad = copy.deepcopy(z)
        sigma = bad.half_braiding[1:] if cd.ring.rank > 1 else bad.half_braiding
        sigma[np.unravel_index(np.argmax(np.abs(sigma)), sigma.shape)] *= 2
        got = half_braiding_check(cd, bad)
        assert got == half_braiding_check_dense(cd, bad) != []
        _assert_same_report(got, half_braiding_check_by_diagrams(cd, bad))
    return seconds


@pytest.mark.parametrize("name", list(CHECK_CASES))
def test_half_braiding_check_matches_the_diagram_check(name):
    """The check read from F gives the dense contraction's report line for
    line and the diagram check's: the same (a, b, g, copies) in the same
    order, on clean half-braidings and with one entry doubled in each
    simple."""
    cd = CHECK_CASES[name]()
    _compare_with_references(cd, decompose_center(build_tube_algebra(cd), seed=0).simples)


@pytest.mark.parametrize("name", list(CHECK_CASES) + ["vec_s3", "SU(2)_4"])
def test_decompose_center_matches_the_per_corner_oracle(name, monkeypatch):
    """decompose_center against oracles.decompose_center_by_corners, which
    splits one corner at a time and builds one module at a time, at seeds
    0-2.  Where neither drew a corner's h twice, the simples come in the
    same order with the same copies, and S, T and every half-braiding agree
    to 1e-12; otherwise dims, twists, underlying objects and S agree up to
    relabelling.  half_braiding_check is clean on every simple."""
    from tensorcat import category_data, center_tube
    cd = {"vec_s3": _vec_s3, "SU(2)_4": lambda: su2_category(4)}.get(name, CHECK_CASES.get(name))()
    tube = build_tube_algebra(cd)
    draws = []

    class Counted(category_data.SeededDraws):
        def standard_normal(self, n):
            draws.append(n)
            return super().standard_normal(n)

    for module in (category_data, center_tube):
        monkeypatch.setattr(module, "SeededDraws", Counted)
    for seed in range(3):
        draws.clear()
        got = decompose_center(tube, seed=seed)
        want = decompose_center_by_corners(tube, seed=seed)
        if len(draws) == 4 * cd.ring.rank:      # one h per corner in each
            assert [z.copies for z in got.simples] == [z.copies for z in want.simples], seed
            assert np.max(np.abs(got.S - want.S)) < 1e-12, seed
            assert np.max(np.abs(got.T - want.T)) < 1e-12, seed
            for z, w in zip(got.simples, want.simples):
                assert np.max(np.abs(z.half_braiding - w.half_braiding)) < 1e-12, seed
        else:
            assert _tied_relabelling(got, want) is not None, seed
        assert all(half_braiding_check(cd, z) == [] for z in got.simples), seed


def test_half_braiding_check_on_su2_4_matches_the_dense_check():
    """SU(2)_4, whose half-integer spins have Frobenius-Schur sign -1: every
    simple passes, and with its largest entry of a sigma_a, a != 0, negated
    each fails with the dense contraction's report."""
    import copy
    cd = su2_category(4)
    simples = decompose_center(build_tube_algebra(cd), seed=0).simples
    assert len(simples) == 25 and all(half_braiding_check(cd, z) == [] for z in simples)
    for z in simples:
        bad = copy.deepcopy(z)
        sigma = bad.half_braiding[1:]
        sigma[np.unravel_index(np.argmax(np.abs(sigma)), sigma.shape)] *= -1
        assert half_braiding_check(cd, bad) == half_braiding_check_dense(cd, bad) != []


def test_half_braiding_check_peak_memory_on_ising_ising():
    """Checking all 81 simples of ising (x) ising peaks under 1 MiB
    (0.2 MiB measured); a per-category memo of dense F-move arrays peaked
    at 12.7 MiB, 8.1 MiB of it the memo."""
    import tracemalloc
    cd = deligne_product_data(catalog_category("ising"), catalog_category("ising"))
    simples = decompose_center(build_tube_algebra(cd), seed=0).simples
    tracemalloc.start()
    try:
        reports = [half_braiding_check(cd, z) for z in simples]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(simples) == 81 and not any(reports)
    assert peak < 2 ** 20


def test_half_braiding_check_on_psu2_8_is_faster_than_the_diagrams():
    """PSU(2)_8 (22 simples, copies up to 4): the same reports as the
    diagram check, at least 4x faster, timed in one process."""
    cd = psu2_category(8)
    simples = decompose_center(build_tube_algebra(cd), seed=0).simples
    assert len(simples) == 22 and all(half_braiding_check(cd, z) == [] for z in simples)
    from_f, by_diagrams = _compare_with_references(cd, simples)
    assert by_diagrams >= 4 * from_f


@pytest.mark.parametrize("name", ["fib*ising", "PSU(2)_6"])
def test_center_and_its_check_evaluate_no_diagram(name, monkeypatch):
    """Tube build, decomposition and half_braiding_check on every simple call
    neither insert nor compose_values."""
    cd = CHECK_CASES[name]()
    calls = record_diagram_calls(monkeypatch)
    center = decompose_center(build_tube_algebra(cd), seed=0)
    assert all(half_braiding_check(cd, z) == [] for z in center.simples)
    assert calls == []


def test_center_matches_product_for_modular_input(centers):
    """(dim, twist) multiset of Z(C) equals that of C (x) rev(C) for
    nondegenerate braided C."""
    for name in ("fibonacci", "semion", "ising"):
        cd, _, center = centers[name]
        prod = deligne_product_data(cd, reverse_braiding(cd))
        from tensorcat.braided_analysis import twists
        th = twists(prod).theta
        d = prod.dims.dims
        expected = sorted((round(float(dd), 6), np.round(tt, 6))
                          for dd, tt in zip(d, th))
        got = sorted((round(z.dim, 6), np.round(z.twist, 6))
                     for z in center.simples)
        assert got == expected, name


def test_center_s_matrix_matches_product_entrywise(centers):
    """For Fibonacci all center simples are distinguished by (dim, twist),
    so the tube S-matrix can be compared entry by entry with the S-matrix
    of fib (x) rev(fib) after the canonical matching."""
    cd, _, center = centers["fibonacci"]
    prod = deligne_product_data(cd, reverse_braiding(cd))
    from tensorcat.braided_analysis import s_matrix, twists
    sp = s_matrix(prod).s
    th = twists(prod).theta
    d = prod.dims.dims
    match = []
    for z in center.simples:
        hits = [i for i in range(prod.ring.rank)
                if abs(d[i] - z.dim) < 1e-6 and abs(th[i] - z.twist) < 1e-6]
        assert len(hits) == 1
        match.append(hits[0])
    for i in range(4):
        for j in range(4):
            assert abs(center.S[i, j] - sp[match[i], match[j]]) < 1e-6, (i, j)


def test_seed_independence(centers):
    cd, tube, ref = centers["fibonacci"]
    for seed in (1, 2, 9):
        other = decompose_center(tube, seed=seed)
        a = [(round(z.dim, 9), np.round(z.twist, 9), tuple(z.underlying))
             for z in ref.simples]
        b = [(round(z.dim, 9), np.round(z.twist, 9), tuple(z.underlying))
             for z in other.simples]
        assert a == b


def _tied_relabelling(c1, c2, tol=1e-10):
    """perm with c2.simples[perm[i]] matching c1.simples[i]: equal dims,
    twists and underlying multiplicities, position by position, and S equal
    after permuting simples only within groups that agree in all three.
    None if there is no such permutation."""
    z1, z2 = c1.simples, c2.simples
    if len(z1) != len(z2):
        return None

    def same(a, b):
        return (abs(a.dim - b.dim) <= tol and abs(a.twist - b.twist) <= tol
                and np.array_equal(a.underlying, b.underlying))

    if not all(same(a, b) for a, b in zip(z1, z2)):
        return None

    def extend(perm):
        i = len(perm)
        if i == len(z1):
            return perm
        for j in range(len(z2)):
            if j in perm or not same(z1[i], z2[j]):
                continue
            if abs(c1.S[i, i] - c2.S[j, j]) <= tol and all(
                    abs(c1.S[i, k] - c2.S[j, perm[k]]) <= tol
                    and abs(c1.S[k, i] - c2.S[perm[k], j]) <= tol for k in range(i)):
                found = extend(perm + [j])
                if found:
                    return found
        return None

    return extend([])


@pytest.mark.parametrize("make", [
    lambda: vec_zn(6, 1),
    lambda: deligne_product_data(catalog_category("fibonacci"), catalog_category("fibonacci")),
    lambda: vec_zn(8, 1),
    lambda: deligne_product_data(catalog_category("fibonacci"), catalog_category("ising")),
], ids=["vec_zn(6,1)", "fib*fib", "vec_zn(8,1)", "fib*ising"])
def test_center_data_seed_independent_on_bench_categories(make):
    """Every multiplicity here is at most 1, so the half-braidings are
    seed-independent too."""
    tube = build_tube_algebra(make())
    ref = decompose_center(tube, seed=0)
    for seed in range(1, 5):
        other = decompose_center(tube, seed=seed)
        perm = _tied_relabelling(ref, other)
        assert perm is not None, seed
        for z, j in zip(ref.simples, perm):
            w = other.simples[j]
            assert w.copies == z.copies
            assert np.max(np.abs(w.half_braiding - z.half_braiding)) < 1e-10, seed


@pytest.mark.parametrize("make, seed", [
    (lambda: deligne_product_data(catalog_category("fibonacci"), catalog_category("ising")), 420),
    (lambda: vec_zn(8, 1), 505)], ids=["fib*ising", "vec_zn(8,1)"])
def test_decompose_center_redraws_when_a_module_overshoots(make, seed):
    """At these seeds the first draw leaves one module a Gram-Schmidt vector
    too many (squared sizes summing past the tube dim); the corners are
    split again and the simples agree with seed 0's."""
    tube = build_tube_algebra(make())

    def readout(center):
        return sorted((round(z.dim, 9), round(z.twist.real, 9) + 0.0,
                       round(z.twist.imag, 9) + 0.0, tuple(z.underlying))
                      for z in center.simples)

    assert readout(decompose_center(tube, seed=seed)) == readout(
        decompose_center(tube, seed=0))


def test_decompose_center_gives_up_after_four_draws(centers, monkeypatch):
    """Modules that never exhaust the tube are drawn four times, then the
    error names the smallest eigenvalue gap seen."""
    from tensorcat import center_tube
    _, tube, _ = centers["ising"]
    calls = []

    def no_simples(tube, ms, xs, Q, weights, readout):
        calls.append(len(Q))
        return [], np.zeros((0, 0))

    monkeypatch.setattr(center_tube, "_corner_simples", no_simples)
    with pytest.raises(StructuralError, match=r"corner split failed after 4 attempts "
                       r"\(smallest eigenvalue gap \d.*attempt 4: the corner modules do not "
                       r"exhaust the tube algebra"):
        decompose_center(tube, seed=0)
    assert len(calls) == 4


def test_pointed_presentation_computes_no_f_entry():
    """D(Z10) (970,299 F entries) is built without computing any of them."""
    from tensorcat.center_tube import center_presentation
    pres, _support = center_presentation(vec_zn(10, 0), None)
    assert pres.ring.rank == 100 and len(pres.F._held) == 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pointed_branch_is_decided_in_any_gauge(seed):
    """The pointed branch of center_presentation asks whether the quadratic
    form's associator class is trivial, not whether the stored F is 1:
    vec_z3 moved off the trivial associator by a small vertex gauge still
    passes theorem_c_shadow."""
    base = vec_zn(3, 0)
    gauged = dataclasses.replace(vertex_gauge(base, seed, size=0.1),
                                 quadratic_form=base.quadratic_form)
    assert max(abs(v - 1) for v in gauged.F.entries.values()) > 1e-3
    assert theorem_c_shadow(gauged)["passed"]


def test_pointed_branch_refuses_a_nontrivial_associator_class():
    """A degenerate form on Z/2 + Z/2 whose F is not a coboundary has no
    presentation of its center."""
    from tensorcat.category_data import QuadraticForm, pointed_from_quadratic_form
    from tensorcat.errors import PreconditionError
    qf = QuadraticForm(group=(2, 2), t=(1, 0))
    assert qf.validate() == []
    with pytest.raises(PreconditionError, match="trivial associator"):
        center_presentation(pointed_from_quadratic_form(qf), None)


@pytest.mark.parametrize("n, t, most", [(6, 1, 300), (10, 0, 1500)])
def test_theorem_c_reads_few_presentation_entries(monkeypatch, n, t, most):
    """theorem_c_shadow computes only the presentation entries it reads
    (250 of 42,875 on vec_zn(6,1) (x) rev, 1,458 of 970,299 on D(Z10)), and
    never builds the whole F dict."""
    from tensorcat import center_tube
    built = []

    def presentation(cd, product):
        pres, support = decided(cd, product)
        built.append(pres)
        return pres, support

    decided = center_tube._presentation
    monkeypatch.setattr(center_tube, "_presentation", presentation)
    assert center_tube.theorem_c_shadow(vec_zn(n, t))["passed"]
    (pres,) = built
    # the memo holds what value computed; the whole table has (rank - 1)^3 entries
    assert 0 < len(pres.F._held) <= most < (pres.ring.rank - 1) ** 3


@pytest.mark.parametrize("name", ["fibonacci", "ising", "toric_code", "vec_zn(6,1)"])
def test_contracted_s_and_t_match_trace_oracles(name):
    cd = vec_zn(6, 1) if name == "vec_zn(6,1)" else catalog_category(name)
    center = decompose_center(build_tube_algebra(cd), seed=0)
    assert np.max(np.abs(center.S - center_s_by_traces(cd, center.simples))) < 1e-12
    for i, z in enumerate(center.simples):
        assert abs(z.twist - center_twist_by_traces(cd, z)) < 1e-12, i
        assert center.T[i, i] == z.twist


def test_center_s_is_the_conjugate_of_bakalov_kirillovs():
    """Normalized S of Z(vec_z3) satisfies (S T^-1)^3 = conj(p+ / D) S^2;
    the textbook (S T)^3 = (p+ / D) S^2 is off by 1, as Z(vec_z3) has
    simples that are not self-dual."""
    center = decompose_center(build_tube_algebra(catalog_category("vec_z3")), seed=0)
    dims = np.array([z.dim for z in center.simples])
    D = np.sqrt(np.sum(dims ** 2))
    S, T = center.S / D, center.T
    gauss = np.sum(np.diag(T) * dims ** 2) / D
    assert abs(gauss - 1) < 1e-12
    ours = np.linalg.matrix_power(S @ np.linalg.inv(T), 3) - np.conj(gauss) * S @ S
    textbook = np.linalg.matrix_power(S @ T, 3) - gauss * S @ S
    assert np.max(np.abs(ours)) < 1e-12
    assert np.max(np.abs(textbook)) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("name", catalog_names() + ["fib*ising", "vec_zn(3,2)", "vec_s3"])
def test_half_braiding_scale_matches_entrywise_oracle(cats, name):
    """The cap-closed W of the entrywise diagrams is diagonal, and its
    diagonal is the closed form the readout divides by: W[c, c] =
    sqrt(d_x / d_y) / scale[k] at t_k = t_(x,a,c,y), in the stored gauge and
    in a random vertex gauge."""
    base = {"fib*ising": lambda: deligne_product_data(cats["fibonacci"], cats["ising"]),
            "vec_zn(3,2)": lambda: vec_zn(3, 2), "vec_s3": _vec_s3}.get(
        name, lambda: cats[name])()
    for cd in (base, vertex_gauge(base, 3)):
        tube = build_tube_algebra(cd)
        d = cd.dims.dims
        slot, scale = _half_braiding_readout(tube)
        assert scale.shape == (tube.dim,)
        for (x, y), ks in tube.sectors.items():
            for a in {tube.basis[k][1] for k in ks}:
                mine = [k for k in ks if tube.basis[k][1] == a]
                W = half_braiding_W_by_entries(cd, x, a, y)
                want = np.diag([np.sqrt(d[x] / d[y]) / scale[k] for k in mine])
                assert np.max(np.abs(W - want)) < 1e-12, (cd.name, x, a, y)


@pytest.mark.parametrize("name", ["fibonacci", "toric_code"])
def test_decompose_center_evaluates_no_diagram(cats, name, monkeypatch):
    """decompose_center calls neither insert nor compose_values, solves
    nothing (no pinv) and takes no SVD: one stacked eigh per size of the
    diagonal corners (their splits), however many simples the center has."""
    tube = build_tube_algebra(cats[name])
    calls = record_diagram_calls(monkeypatch)
    linalg = record_linalg_calls(monkeypatch, "svd", "eigh", "pinv")
    center = decompose_center(tube, seed=0)
    assert calls == []
    assert not linalg["svd"] and not linalg["pinv"]
    sizes = {len(tube.sectors[x, x]) for x in range(cats[name].ring.rank)}
    assert len(linalg["eigh"]) == len(sizes) < len(center.simples)


@pytest.mark.parametrize("name", catalog_names() + ["ising:gauged", "vec_zn(3,2):gauged"])
def test_conjugate_vertex_phases_match_the_mate_diagrams(cats, name):
    """The Longo-Rehren multiplication read from F (and R) equals the one
    built from the diagram mates to 1e-12: with the braiding on the braided
    catalog in the stored gauge (toric_code fixes the order of R), without
    it in a random vertex gauge."""
    from tensorcat.algebra import _conjugate_vertex_algebra
    base, gauged = name.partition(":")[::2]
    cd = vec_zn(3, 2) if base == "vec_zn(3,2)" else cats[base]
    braided = not gauged
    if gauged:
        cd = vertex_gauge(cd, 3)
    d = cd.dims.dims
    kappa = mate_phase_by_diagrams(cd, braided)
    A = _conjugate_vertex_algebra(cd, tuple(range(cd.ring.rank)), braided)
    assert set(A.mu) == set(kappa)
    for (a, b, c), k in kappa.items():
        want = np.sqrt(d[a] * d[b] / d[c]) * k * np.conj(kappa[(0, c, c)])
        assert abs(A.mu[(a, b, c)] - want) < 1e-12, (a, b, c)


@pytest.mark.parametrize("name", ["fibonacci", "vec_zn(6,1)", "vec_zn(6,0)"])
def test_theorem_c_shadow_evaluates_no_diagram(cats, name, monkeypatch):
    """The whole Theorem C pipeline, Lagrangian and condensation included,
    calls neither insert nor compose_values and no pinv."""
    cd = {"vec_zn(6,1)": lambda: vec_zn(6, 1), "vec_zn(6,0)": lambda: vec_zn(6, 0)}.get(
        name, lambda: cats[name])()
    calls = record_diagram_calls(monkeypatch)
    linalg = record_linalg_calls(monkeypatch, "pinv")
    assert theorem_c_shadow(cd)["passed"]
    assert calls == [] and linalg["pinv"] == []


def _vec_s3():
    """Vec(S_3) with trivial associator: its center has a simple whose
    underlying object is twice the unit, so the corner of the unit is a
    2 x 2 matrix algebra that must be split."""
    import itertools

    from tensorcat.category_data import CategoryData, FSymbolSet, fp_dimensions
    from tensorcat.fusion_ring import FusionRing

    els = list(itertools.permutations(range(3)))
    idx = {g: i for i, g in enumerate(els)}
    mul = [[idx[tuple(g[h[i]] for i in range(3))] for h in els] for g in els]
    r = len(els)
    N = np.zeros((r, r, r), dtype=np.int64)
    for a in range(r):
        for b in range(r):
            N[a, b, mul[a][b]] = 1
    dual = tuple(mul[a].index(0) for a in range(r))
    ring = FusionRing(rank=r, labels=tuple(map(str, range(r))), dual=dual, N=N)
    F = {(a, b, c, mul[mul[a][b]][c], mul[a][b], mul[b][c]): 1.0 + 0j
         for a in range(1, r) for b in range(1, r) for c in range(1, r)}
    return CategoryData(ring=ring, dims=fp_dimensions(ring), F=FSymbolSet(F), name="vec_s3")


def test_center_vec_s3_splits_a_corner():
    cd = _vec_s3()
    tube = build_tube_algebra(cd)
    center = decompose_center(tube, seed=0)
    assert [round(z.dim, 9) for z in center.simples] == [1, 1, 2, 2, 2, 2, 3, 3]
    w = np.exp(2j * np.pi / 3)
    assert sorted(np.round([z.twist for z in center.simples], 9).tolist(),
                  key=lambda t: (t.real, t.imag)) == sorted(
        np.round([1, 1, 1, 1, 1, -1, w, w.conjugate()], 9).tolist(),
        key=lambda t: (t.real, t.imag))
    doubled = [z for z in center.simples if z.underlying[0] == 2]
    assert len(doubled) == 1 and doubled[0].copies == [(0, 0), (0, 1)]
    checks = center_global_checks(center)
    assert checks["dims_identity"] and checks["nondegenerate"]
    for z in center.simples:
        assert half_braiding_check(cd, z) == []
    for seed in (1, 2):
        assert _tied_relabelling(center, decompose_center(tube, seed=seed)) is not None


def test_lagrangian_algebra_vec_z2(centers, monkeypatch):
    import tensorcat.algebra

    def no_solve(*args, **kwargs):
        raise AssertionError("the pointed branch has a closed form")

    monkeypatch.setattr(tensorcat.algebra, "solve_support_algebra", no_solve)
    cd, _, center = centers["vec_z2"]
    mults = [int(z.underlying[0]) for z in center.simples]
    assert sorted(mults) == [0, 0, 1, 1]
    pres, alg, chosen = lagrangian_algebra(cd, center)
    assert len(chosen) == 2
    assert algebra_dim(pres, alg) == pytest.approx(2.0, abs=1e-9)
    assert verify_qsystem(pres, alg).passed
    assert is_commutative(pres, alg)[0]
    chk = condensation_identity_check(pres, alg)
    assert chk["passed"] and chk["n_simples"] == 1


def test_lagrangian_algebra_fibonacci(centers):
    cd, _, center = centers["fibonacci"]
    pres, alg, chosen = lagrangian_algebra(cd, center)
    assert algebra_dim(pres, alg) == pytest.approx(1 + PHI ** 2, abs=1e-9)
    chk = condensation_identity_check(pres, alg)
    assert chk["passed"] and chk["n_simples"] == 1
    assert chk["sum_fpdim_sq"] == pytest.approx((1 + PHI ** 2) ** 2, abs=1e-6)


@pytest.mark.parametrize("name", ["fibonacci", "ising", "semion", "toric_code", "vec_z3"])
def test_lagrangian_algebra_matches_solver_up_to_gauge(name):
    cd = catalog_category(name)
    center = decompose_center(build_tube_algebra(cd), seed=0)
    pres, alg, _ = lagrangian_algebra(cd, center)
    solved = solve_support_algebra(pres, alg.support, commutative=True)
    assert algebras_gauge_equivalent(alg, solved), name


@pytest.mark.parametrize("name", ["fibonacci", "vec_z6"])
def test_lagrangian_algebra_does_not_solve(name, monkeypatch):
    import tensorcat.algebra

    def no_solve(*args, **kwargs):
        raise AssertionError("the Lagrangian on C (x) rev(C) has a closed form")

    monkeypatch.setattr(tensorcat.algebra, "solve_support_algebra", no_solve)
    cd = catalog_category(name)
    center = decompose_center(build_tube_algebra(cd), seed=0)
    pres, alg, chosen = lagrangian_algebra(cd, center)
    r = cd.ring.rank
    assert alg.support == tuple(sorted(c * r + cd.ring.dual[c] for c in range(r)))
    assert len(chosen) == r
    assert algebra_dim(pres, alg) ** 2 == pytest.approx(pres.dims.global_dim, abs=1e-9)
    assert all(alg.mu[k] == 1.0 for k in alg.mu if k[0] == 0 or k[1] == 0)
    chk = condensation_identity_check(pres, alg)
    assert chk["passed"] and chk["n_simples"] == 1


def test_lagrangian_algebra_needs_evaluated_phases():
    """Positive-real mu of the closed-form modulus fails the Q-system axioms
    on vec_zn(6, 1) (x) rev: the phases are evaluated, not a convention."""
    cd = vec_zn(6, 1)
    center = decompose_center(build_tube_algebra(cd), seed=0)
    pres, alg, _ = lagrangian_algebra(cd, center)
    real = AlgebraObject(support=alg.support, mu={k: abs(v) for k, v in alg.mu.items()})
    assert not verify_qsystem(pres, real).passed


def test_closed_forms_do_not_load_scipy_optimize():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys\n"
            "from tensorcat.algebra import symmetric_enveloping\n"
            "from tensorcat.catalog import fibonacci\n"
            "from tensorcat.center_tube import theorem_c_shadow\n"
            "assert theorem_c_shadow(fibonacci())['passed']\n"
            "symmetric_enveloping(fibonacci())\n"
            "print('scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_theorem_c_shadow_all_three():
    for name in ("vec_z2", "fibonacci", "ising"):
        res = theorem_c_shadow(catalog_category(name), seed=0)
        assert res["passed"], (name, res)


def test_theorem_c_shadow_extended():
    for name in ("semion", "toric_code", "vec_z3", "vec_z4", "vec_z5", "vec_z6"):
        res = theorem_c_shadow(catalog_category(name), seed=0)
        assert res["passed"], (name, res)


@pytest.mark.parametrize("make", [lambda: catalog_category("fibonacci"), lambda: vec_zn(6, 0)],
                         ids=["fibonacci", "vec_zn(6,0)"])
def test_theorem_c_shadow_verifies_the_lagrangian_once(make, monkeypatch):
    import tensorcat.algebra
    import tensorcat.center_tube
    import tensorcat.local_modules

    calls = []

    def counted(cd, A):
        calls.append(A)
        return verify_qsystem(cd, A)

    for module in (tensorcat.algebra, tensorcat.center_tube, tensorcat.local_modules):
        monkeypatch.setattr(module, "verify_qsystem", counted)
    assert theorem_c_shadow(make(), seed=0)["passed"]
    assert len(calls) == 1


@pytest.mark.parametrize("make", [lambda: catalog_category("fibonacci"), lambda: vec_zn(6, 0)],
                         ids=["fibonacci", "vec_zn(6,0)"])
def test_theorem_c_shadow_decides_the_presentation_once(make, monkeypatch):
    """Whether cd is nondegenerate, which picks C (x) reverse(C) or the
    pointed presentation, is computed once per theorem_c_shadow."""
    import tensorcat.center_tube
    import tensorcat.local_modules
    cd, calls = make(), []

    def counted(c):
        calls.append(c)
        return is_nondegenerate(c)

    for module in (tensorcat.center_tube, tensorcat.local_modules):
        monkeypatch.setattr(module, "is_nondegenerate", counted)
    assert theorem_c_shadow(cd, seed=0)["passed"]
    assert sum(c is cd for c in calls) == 1


def test_condensed_center_braiding_trivial(centers):
    """The condensed theory of the canonical Lagrangian is trivial: its
    unique simple has unit double-braiding trace."""
    from tensorcat.local_modules import (enumerate_local_modules,
                                         local_double_braid_trace)
    cd, _, center = centers["fibonacci"]
    pres, alg, _ = lagrangian_algebra(cd, center)
    cond = enumerate_local_modules(pres, alg)
    assert len(cond.simples) == 1
    X = cond.simples[0]
    val = local_double_braid_trace(pres, alg, X, X)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_center_dims_identity_full_catalog():
    """sum of dim^2 over center simples equals global_dim^2 for every
    catalog entry, the center S-matrix over D is unitary, and only the unit
    is transparent."""
    from tensorcat.catalog import catalog_names
    for name in catalog_names():
        cd = catalog_category(name)
        tube = build_tube_algebra(cd)
        center = decompose_center(tube, seed=0)
        checks = center_global_checks(center)
        assert checks["dims_identity"], name
        assert checks["nondegenerate"], name
        assert checks["trivial_centralizer"], name


def test_center_verlinde_ring_is_integral(tmp_path, centers):
    """The emitted center category file carries the Verlinde ring computed
    from the S-matrix; integrality and ring validity are a strong
    consistency check on the extracted half-braidings."""
    from tensorcat.cli import _write_center_category
    from tensorcat.category_data import load_category
    from tensorcat.fusion_ring import validate_fusion_ring
    for name, (cd, _, center) in centers.items():
        path = tmp_path / f"z_{name}.json"
        _write_center_category(cd, center, path)
        zcd = load_category(path)
        assert zcd.partial
        assert validate_fusion_ring(zcd.ring) == [], name
        assert zcd.ring.rank == len(center.simples)


@pytest.mark.parametrize("name", ["vec_z2", "ising", "fib*fib"])
def test_emitted_center_ring_matches_the_verlinde_loops(tmp_path, name):
    """The fusion tensor of the emitted partial file is the one the
    entry-by-entry Verlinde loop gives."""
    from tensorcat.category_data import load_category
    from tensorcat.cli import _write_center_category
    cd = (deligne_product_data(catalog_category("fibonacci"), catalog_category("fibonacci"))
          if name == "fib*fib" else catalog_category(name))
    center = decompose_center(build_tube_algebra(cd), seed=0)
    path = tmp_path / "z.json"
    _write_center_category(cd, center, path)
    assert np.array_equal(load_category(path).ring.N, center_fusion_by_loops(cd, center))


def test_center_presentation_unavailable():
    import dataclasses
    cd = catalog_category("vec_z2")
    cd2 = dataclasses.replace(cd, R=None, quadratic_form=None)
    tube = build_tube_algebra(cd2)
    center = decompose_center(tube, seed=0)
    from tensorcat.errors import PreconditionError
    with pytest.raises(PreconditionError):
        center_presentation(cd2, center)
