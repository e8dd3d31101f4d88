"""Independent oracles used by the test suite.

Everything here recomputes expected values by a route different from the
library code it checks: polynomial roots for dimensions, explicit loops for
axiom checking, and a support-enumeration module finder driven by a generic
nonlinear solver.
"""

import cmath
import itertools
import math

import numpy as np

PHI = float(np.max(np.roots([1.0, -1.0, -1.0])))  # largest root of d^2 = d + 1
SQRT2 = float(np.max(np.roots([1.0, 0.0, -2.0])))


def ring_axioms_by_loops(rank, dual, N):
    """Plain-loop fusion-ring axiom check; True iff all axioms hold."""
    for b in range(rank):
        for c in range(rank):
            if N[0][b][c] != (1 if b == c else 0):
                return False
    for a in range(rank):
        for c in range(rank):
            if N[a][0][c] != (1 if a == c else 0):
                return False
    if dual[0] != 0:
        return False
    for a in range(rank):
        if dual[dual[a]] != a:
            return False
        for b in range(rank):
            if N[a][b][0] != (1 if b == dual[a] else 0):
                return False
    for a in range(rank):
        for b in range(rank):
            for c in range(rank):
                for d in range(rank):
                    lhs = sum(N[a][b][e] * N[e][c][d] for e in range(rank))
                    rhs = sum(N[b][c][f] * N[a][f][d] for f in range(rank))
                    if lhs != rhs:
                        return False
    for a in range(rank):
        for b in range(rank):
            for c in range(rank):
                if N[a][b][c] != N[b][dual[c]][dual[a]]:
                    return False
                if N[a][b][c] != N[dual[c]][a][dual[b]]:
                    return False
    return True


def ring_duality_rotation_by_loops(ring):
    """The duality and rotation lines of validate_fusion_ring, by plain
    loops, in its order; the associativity lines between them left out."""
    report = []
    r = ring.rank
    N = ring.N
    dual = ring.dual
    if dual[0] != 0:
        report.append(f"duality: dual(0) = {dual[0]}")
    for a in range(r):
        if dual[dual[a]] != a:
            report.append(f"duality: dual(dual({a})) = {dual[dual[a]]}")
    for a in range(r):
        for b in range(r):
            want = 1 if b == dual[a] else 0
            if N[a, b, 0] != want:
                report.append(f"duality: N^0_{{{a},{b}}} = {N[a, b, 0]}, expected {want}")
    for a in range(r):
        for b in range(r):
            for c in range(r):
                n = N[a, b, c]
                if N[b, dual[c], dual[a]] != n:
                    report.append(f"rotation: N^{dual[a]}_{{{b},{dual[c]}}} != N^{c}_{{{a},{b}}}")
                if N[dual[c], a, dual[b]] != n:
                    report.append(f"rotation: N^{dual[b]}_{{{dual[c]},{a}}} != N^{c}_{{{a},{b}}}")
    return report


def ring_associativity_by_loops(ring):
    """The associativity lines of validate_fusion_ring, by plain integer
    loops, in (a, b, c, d) order."""
    report = []
    r = ring.rank
    N = ring.N.tolist()
    for a, b, c, d in itertools.product(range(r), repeat=4):
        lhs = sum(N[a][b][e] * N[e][c][d] for e in range(r))
        rhs = sum(N[b][c][f] * N[a][f][d] for f in range(r))
        if lhs != rhs:
            report.append(f"associativity: (a,b,c,d)=({a},{b},{c},{d}) lhs={lhs} rhs={rhs}")
    return report


def enumerate_candidate_rings(rank, max_entry=2):
    """All (dual, N) pairs of the given rank with unit and duality rows forced.

    Free entries N^c_{ab} with a, b, c >= 1 and c != dual(a) when b
    determined... only the unit and duality constraints are imposed; the
    remaining axioms are left for the checkers under test.
    """
    nonunit = list(range(1, rank))
    involutions = []
    for perm in itertools.permutations(nonunit):
        mapping = (0,) + perm
        if all(mapping[mapping[i]] == i for i in range(rank)):
            involutions.append(mapping)
    for dual in involutions:
        free_cells = [(a, b, c) for a in nonunit for b in nonunit for c in nonunit]
        for values in itertools.product(range(max_entry + 1), repeat=len(free_cells)):
            N = np.zeros((rank, rank, rank), dtype=np.int64)
            for i in range(rank):
                N[0, i, i] = N[i, 0, i] = 1
            for a in nonunit:
                for b in nonunit:
                    N[a, b, 0] = 1 if b == dual[a] else 0
            consistent = True
            for (a, b, c), v in zip(free_cells, values):
                if c == 0:
                    continue
                N[a, b, c] = v
            yield dual, N


def solve_modules_on_support(cd, A, support, n_starts=24, seed=7, tol=1e-12):
    """Module structures on a fixed support by generic nonlinear solving.

    Unknown rho on admissible triples, unit channels pinned to 1, the
    standard normalization sum_{a,y} |rho^{xa}_y|^2 = dim Q per x, and
    stored-gauge associativity expressed through the library evaluator's
    recoupling tensors (precomputed with unit coefficients, so the solve
    itself is independent of the enumeration code under test).
    """
    from scipy.optimize import least_squares
    from tensorcat.algebra import algebra_dim
    from tensorcat.diagram_eval import compose_values, insert, scalar_generator

    ring = cd.ring
    support = tuple(sorted(support))
    inside = set(support)
    triples = [(x, a, y) for x in support for a in A.support
               for y in ring.channels(x, a) if y in inside]
    if not triples:
        return []
    fixed = {t: 1.0 + 0.0j for t in triples if t[1] == 0}
    free = [t for t in triples if t not in fixed]
    dQ = algebra_dim(cd, A)

    # coefficient tensors for the associativity equations
    unit = {t: scalar_generator(cd, *t, 1.0) for t in triples}
    eqs = []
    for x in support:
        for a in A.support:
            for b in A.support:
                for y in support:
                    lhs_terms = [((x, a, z), (z, b, y),
                                  compose_values(cd, unit[(z, b, y)],
                                                 insert(cd, (), unit[(x, a, z)], (b,))))
                                 for z in support
                                 if (x, a, z) in unit and (z, b, y) in unit]
                    rhs_terms = [((a, b, c), (x, c, y),
                                  compose_values(cd, unit[(x, c, y)],
                                                 insert(cd, (x,), scalar_generator(
                                                     cd, a, b, c, A.mu[(a, b, c)]), ())))
                                 for c in A.support
                                 if (a, b, c) in A.mu and (x, c, y) in unit]
                    if lhs_terms or rhs_terms:
                        eqs.append((lhs_terms, rhs_terms))

    def unpack(vec):
        rho = dict(fixed)
        for i, t in enumerate(free):
            rho[t] = vec[2 * i] + 1j * vec[2 * i + 1]
        return rho

    def residual(vec):
        rho = unpack(vec)
        res = []
        for lhs_terms, rhs_terms in eqs:
            per_col = {}
            for (k1, k2, mv) in lhs_terms:
                for ch, blk in mv.blocks.items():
                    for i in range(blk.shape[1]):
                        per_col[(ch, i)] = per_col.get((ch, i), 0.0) + (
                            rho[k1] * rho[k2] * blk[0, i])
            for (_k1, k2, mv) in rhs_terms:
                for ch, blk in mv.blocks.items():
                    for i in range(blk.shape[1]):
                        per_col[(ch, i)] = per_col.get((ch, i), 0.0) - (
                            rho[k2] * blk[0, i])
            res.extend(per_col.values())
        for x in support:
            res.append(sum(abs(rho[t]) ** 2 for t in triples if t[0] == x) - dQ)
        out = np.empty(2 * len(res))
        out[0::2] = [np.real(z) for z in res]
        out[1::2] = [np.imag(z) for z in res]
        return out

    if not free:
        res = residual(np.zeros(0))
        return [dict(fixed)] if float(np.sum(res ** 2)) < tol else []

    rng = np.random.default_rng(seed)
    found = []
    for _ in range(n_starts):
        x0 = rng.standard_normal(2 * len(free))
        sol = least_squares(residual, x0, method="lm", xtol=1e-15, ftol=1e-15,
                            max_nfev=4000)
        if np.sum(sol.fun ** 2) > tol:
            continue
        rho = unpack(sol.x)
        mags = tuple(round(abs(rho[t]), 6) for t in sorted(triples))
        if mags not in [m for m, _ in found]:
            found.append((mags, rho))
    return [rho for _mags, rho in found]


def brute_force_local_count(cd, A, seed=7):
    """Count simple local modules by support enumeration and nonlinear solving.

    Uses half the library locality tolerance; independent of the
    induction-decomposition route in the library.
    """
    from tensorcat.algebra import algebra_dim
    from tensorcat.local_modules import ModuleObject

    ring = cd.ring
    d = cd.dims.dims
    dQ = algebra_dim(cd, A)
    bound = dQ * np.sqrt(cd.dims.global_dim) + 1e-9
    tol = max(cd.tolerance * 50, 5e-10)
    count = 0
    seen = []
    for size in range(1, ring.rank + 1):
        for support in itertools.combinations(range(ring.rank), size):
            if sum(d[x] for x in support) > bound:
                continue
            # every simple must connect to the rest under the A-action
            sols = solve_modules_on_support(cd, A, support, seed=seed)
            for rho in sols:
                mod = ModuleObject(support=support, rho=rho)
                # reducible solutions decompose: detect via zero action blocks
                if _is_decomposable(cd, A, mod):
                    continue
                local = all(
                    abs(v * (cd.rval(x, a, y) * cd.rval(a, x, y) - 1.0)) < tol
                    for (x, a, y), v in mod.rho.items())
                if local:
                    fp = (support, tuple(round(abs(rho[k]), 5) for k in sorted(rho)))
                    if fp not in seen:
                        seen.append(fp)
                        count += 1
    return count


def local_modules_by_every_induction(cd, A, seed=0):
    """enumerate_local_modules by decomposing x (x) A for every simple x,
    keeping each local summand not unitarily equivalent to one kept before;
    no Frobenius-reciprocity count, no skip."""
    from tensorcat.algebra import algebra_dim
    from tensorcat.local_modules import (CondensedData, _unitarily_equivalent,
                                         free_module_decomposition, is_local)

    found = []

    def keep(mods):
        return [m for m in mods if is_local(cd, A, m)[0] and not any(
            _unitarily_equivalent(cd, m, got) for got in found)]

    for x in range(cd.ring.rank):
        found.extend(free_module_decomposition(cd, A, x, seed=seed, keep=keep))
    found.sort(key=lambda m: m.fingerprint())
    dQ = algebra_dim(cd, A)
    return CondensedData(simples=found,
                         dims_over_Q=np.array([m.fpdim(cd) / dQ for m in found]))


def _is_decomposable(cd, A, mod):
    """A module on a support that splits into two invariant pieces."""
    supp = list(mod.support)
    if len(supp) <= 1:
        return False
    adj = {x: set() for x in supp}
    for (x, a, y), v in mod.rho.items():
        if abs(v) > 1e-8 and x != y:
            adj[x].add(y)
            adj[y].add(x)
    seen = {supp[0]}
    stack = [supp[0]]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) != len(supp)


def f_unitarity_by_loops(cd):
    """F-block unitarity over all (a, b, c, d) with non-unit a, b, c; report
    lines as validate_category prints them."""
    ring = cd.ring
    r = ring.rank
    report = []
    for a in range(1, r):
        for b in range(1, r):
            for c in range(1, r):
                for d in range(r):
                    es = [e for e in ring.channels(a, b) if ring.N[e, c, d]]
                    fs = [f for f in ring.channels(b, c) if ring.N[a, f, d]]
                    mat = np.array([[cd.fval(a, b, c, d, e, f) for f in fs] for e in es],
                                   dtype=complex)
                    if not es or not fs:
                        continue
                    if mat.shape[0] != mat.shape[1]:
                        report.append(f"F-block ({a},{b},{c};{d}) is not square")
                        continue
                    dev = np.max(np.abs(mat @ mat.conj().T - np.eye(len(es))))
                    if dev > cd.tolerance * 10:
                        report.append(f"F-block ({a},{b},{c};{d}) not unitary, dev={dev:.3e}")
    return report


def label_subset_error_by_loops(ring, idx):
    """The first closure failure of the ascending label list idx, walking a,
    then its dual, then every (b, c) with c in a (x) b, all ascending; None
    if idx is dual- and fusion-closed."""
    inside = set(idx)
    for a in idx:
        if ring.dual[a] not in inside:
            return f"label set not dual-closed at {a}"
        for b in idx:
            for c in ring.channels(a, b):
                if c not in inside:
                    return f"label set not fusion-closed: {a} x {b} contains {c}"
    return None


def nondegenerate_by_svd(cd, sub):
    """The braiding restricted to the label list sub is nondegenerate when
    the smallest singular value of s~ on sub exceeds len(sub) * tolerance."""
    from tensorcat.braided_analysis import s_matrix
    block = s_matrix(cd).s[np.ix_(sub, sub)]
    return bool(np.linalg.svd(block, compute_uv=False)[-1] > len(sub) * cd.tolerance)


def restriction_hom_by_loops(cd, sub):
    """restriction_hom's f for the closed, ascending label tuple sub, or the
    text of the PreconditionError it raises: the nondegeneracy of s~ on sub
    by singular values, then the restricted characters compared pair by pair."""
    from tensorcat.braided_analysis import gamma_characters
    if not nondegenerate_by_svd(cd, sub):
        return "restriction of the braiding to sub is degenerate"
    gamma = gamma_characters(cd).gamma
    d = cd.dims.dims
    tol = cd.residual_tolerance * max(1.0, float(d.max()) ** 2)
    for i, y in enumerate(sub):
        for z in sub[i + 1:]:
            if max(abs(gamma[y, x] - gamma[z, x]) for x in sub) < tol:
                return f"degenerate sub: gamma_{y} and gamma_{z} agree on sub"
    f = []
    for b in range(cd.ring.rank):
        matches = [y for y in sub
                   if max(abs(gamma[b, x] - gamma[y, x]) for x in sub) < tol]
        if len(matches) != 1:
            return f"no unique restriction match for label {b}: candidates {matches}"
        f.append(matches[0])
    return tuple(f)


def hypergroup_hom_by_loops(cd, sub, f):
    """(a, b, y, lhs, rhs) for each (a, b, y), a and b over the labels and y
    over sub in that order, where sum_{c in f^-1(y)} M^c_{ab} and
    M^y_{f(a) f(b)} differ by more than residual_tolerance."""
    from tensorcat.fusion_ring import hypergroup_coeffs
    M = hypergroup_coeffs(cd.ring, cd.dims).M
    r = cd.ring.rank
    out = []
    for a in range(r):
        for b in range(r):
            for y in sub:
                lhs = sum(M[a, b, c] for c in range(r) if f[c] == y)
                rhs = M[f[a], f[b], y]
                if abs(lhs - rhs) > cd.residual_tolerance:
                    out.append((a, b, y, lhs, rhs))
    return out


def twists_by_loops(cd):
    """theta_a = sum over c in a (x) a of (d_c / d_a) R^{aa}_c, one label at a time."""
    d = cd.dims.dims
    return np.array([
        sum((d[c] / d[a]) * cd.rval(a, a, c) for c in cd.ring.channels(a, a))
        for a in range(cd.ring.rank)], dtype=complex)


def pentagon_by_loops(cd):
    """Plain-loop pentagon check: the lines verify_pentagon prints, in loop
    order (a,b,f,c,g,d,e,l,k); verify_pentagon sorts them by the printed
    index tuple (a,b,c,d,e,f,g,k,l)."""
    ring = cd.ring
    tol = cd.tolerance
    r = ring.rank
    ch = [[ring.channels(a, b) for b in range(r)] for a in range(r)]
    fval = cd.fval
    report = []
    for a in range(r):
        for b in range(r):
            for f in ch[a][b]:
                for c in range(r):
                    for g in ch[f][c]:
                        for d in range(r):
                            for e in ch[g][d]:
                                for l in ch[c][d]:
                                    if not ring.N[f, l, e]:
                                        continue
                                    for k in ch[b][l]:
                                        if not ring.N[a, k, e]:
                                            continue
                                        lhs = fval(f, c, d, e, g, l) * fval(a, b, l, e, f, k)
                                        rhs = 0.0
                                        for h in ch[b][c]:
                                            if ring.N[a, h, g] and ring.N[h, d, k]:
                                                rhs += (fval(a, b, c, g, f, h)
                                                        * fval(a, h, d, e, g, k)
                                                        * fval(b, c, d, k, h, l))
                                        if abs(lhs - rhs) > tol:
                                            report.append(
                                                "pentagon: (a,b,c,d,e;f,g,k,l)="
                                                f"({a},{b},{c},{d},{e};{f},{g},{k},{l}) "
                                                f"residual={abs(lhs - rhs):.3e}")
    return report


def hexagon_by_loops(cd, rv):
    """Plain-loop check of one hexagon family for braiding scalars rv(a, b, c):
    the lines verify_hexagon prints for that family, in loop order
    (a,b,e,c,d,f); verify_hexagon sorts them by the printed index tuple
    (a,b,c,d,e,f)."""
    ring = cd.ring
    tol = cd.tolerance
    r = ring.rank
    fval = cd.fval
    report = []
    for a in range(r):
        for b in range(r):
            for e in ring.channels(a, b):
                for c in range(r):
                    for d in ring.channels(e, c):
                        for f in ring.channels(a, c):
                            if not ring.N[b, f, d]:
                                continue
                            lhs = rv(a, b, e) * fval(b, a, c, d, e, f) * rv(a, c, f)
                            rhs = 0.0
                            for g in ring.channels(b, c):
                                if ring.N[a, g, d]:
                                    rhs += (fval(a, b, c, d, e, g) * rv(a, g, d)
                                            * fval(b, c, a, d, g, f))
                            if abs(lhs - rhs) > tol:
                                report.append(
                                    f"hexagon: (a,b,c,d;e,f)=({a},{b},{c},{d};{e},{f}) "
                                    f"residual={abs(lhs - rhs):.3e}")
    return report


def tube_vector(cd, x, a, e, y):
    """The tube basis morphism t_(x,a,e,y): [a, x, dual(a)] -> [y] at the
    tree path (a, e, y), as a diagram value."""
    from tensorcat.diagram_eval import dagger_value, path_vector

    ab = cd.ring.dual[a]
    return dagger_value(path_vector(cd, (a, x, ab), y, (a, e, y)))


def rotation_isometry_by_diagrams(cd, a1, a2, b):
    """phi: [dual(b)] -> [dual(a1), dual(a2)], the rigidity dual of the tree
    psi_b: b -> a2 (x) a1, from (psi_b (x) phi) cup_b = nested cups,
    normalized to an isometry and divided by the zig-zag phase of b."""
    from tensorcat.diagram_eval import (cap_morphism, compose_values, cup_morphism,
                                        dagger_value, insert, path_vector)

    ring = cd.ring
    ab1, ab2, bb = ring.dual[a1], ring.dual[a2], ring.dual[b]
    psi_dag = dagger_value(path_vector(cd, (a2, a1), b, (a2, b)))
    # [bb] -> [bb, a2, ab2] -> [bb, a2, a1, ab1, ab2] -> [bb, b, ab1, ab2] -> [ab1, ab2]
    step1 = insert(cd, (bb,), cup_morphism(cd, a2), ())
    step2 = insert(cd, (bb, a2), cup_morphism(cd, a1), (ab2,))
    step3 = insert(cd, (bb,), psi_dag, (ab1, ab2))
    step4 = insert(cd, (), cap_morphism(cd, bb), (ab1, ab2))
    phi = compose_values(cd, step4, compose_values(cd, step3,
                         compose_values(cd, step2, step1)))
    zig = compose_values(cd, insert(cd, (), cap_morphism(cd, bb), (bb,)),
                         insert(cd, (bb,), cup_morphism(cd, b), ()))
    zeta = zig.block(ring, bb)[0, 0]
    zeta /= abs(zeta)
    norm = compose_values(cd, dagger_value(phi), phi).block(ring, bb)[0, 0]
    phi.blocks = {c: m / (zeta * np.sqrt(norm.real)) for c, m in phi.blocks.items()}
    return phi


def tube_basis_by_loops(cd):
    """The tube basis (x, a, e, y), e in a (x) x and y in e (x) dual(a), in
    lexicographic order."""
    ring = cd.ring
    return [(x, a, e, y) for x in range(ring.rank) for a in range(ring.rank)
            for e in ring.channels(a, x) for y in ring.channels(e, ring.dual[a])]


def tube_by_loops(cd):
    """The tube algebra of build_tube_algebra, by a nine-deep loop over
    (a1, a2, b, x, (e1, y), (e2, z), f) with one fval call per F-move and
    rotation and zig-zag phases read one vertex at a time: the same
    coefficients, sectors and block layout, the same noise-floor drop."""
    from tensorcat.center_tube import TubeAlgebra

    ring = cd.ring
    rank, dual, fval, N = ring.rank, ring.dual, cd.fval, ring.N.tolist()
    d = cd.dims.dims
    floor = cd.noise_floor
    basis = tube_basis_by_loops(cd)
    index = {quad: k for k, quad in enumerate(basis)}
    sectors, pos, leaving = {}, [], {}
    for k, (x, a, e, y) in enumerate(basis):
        members = sectors.setdefault((x, y), [])
        pos.append(len(members))
        members.append(k)
        leaving.setdefault((x, a), []).append((e, y, k))
    size = {s: len(ks) for s, ks in sectors.items()}
    z = np.array([fval(dual[a], a, dual[a], dual[a], 0, 0) for a in range(rank)]).conj()
    zeta = z / np.abs(z)

    def rotation_phase(a1, a2, b):
        ab1, ab2, bb = dual[a1], dual[a2], dual[b]
        v = ((fval(bb, a2, ab2, bb, ab1, 0) * fval(ab1, a1, ab1, ab1, 0, 0)).conjugate()
             * fval(bb, a2, a1, 0, ab1, b))
        return complex(v / abs(v) / zeta[b])

    blocks = {(x, y, z): np.zeros((size[y, z], size[x, y], size[x, z]), dtype=complex)
              for (x, y) in sectors for z in range(rank)
              if (y, z) in sectors and (x, z) in sectors}
    for a1 in range(rank):
        ab1 = dual[a1]
        for a2 in range(rank):
            ab2 = dual[a2]
            for b in ring.channels(a2, a1):
                bb = dual[b]
                phi = rotation_phase(a1, a2, b)
                for x in range(rank):
                    fs = ring.channels(b, x)
                    for e1, y, j in leaving.get((x, a1), ()):
                        for e2, z, i in leaving.get((y, a2), ()):
                            P = blocks.get((x, y, z))
                            if P is None:
                                continue
                            for f in fs:
                                if not (N[a2][e1][f] and N[f][ab1][e2] and N[f][bb][z]):
                                    continue
                                c = (phi * fval(f, ab1, ab2, z, e2, bb).conjugate()
                                     * fval(a2, a1, x, f, b, e1) * fval(a2, e1, ab1, e2, f, y))
                                if abs(c) > floor:
                                    P[pos[i], pos[j], pos[index[x, b, f, z]]] = c

    star = {(x, y): np.zeros((size[x, y], size[y, x]), dtype=complex) for x, y in sectors}
    for k, (x, a, e, y) in enumerate(basis):
        ab = dual[a]
        scale = d[a] / zeta[a] * fval(ab, a, x, x, 0, e).conjugate()
        for g in ring.channels(ab, y):
            if not (N[x][ab][g] and N[g][a][x]):
                continue
            c = scale * fval(ab, e, ab, g, x, y).conjugate() * fval(x, ab, a, x, g, 0)
            if abs(c) > floor:
                star[x, y][pos[k], pos[index[y, ab, g, x]]] = c
    return TubeAlgebra(basis=basis, sectors={s: np.array(ks) for s, ks in sectors.items()},
                       blocks=blocks, star=star, cd=cd)


def tube_product_by_pairs(cd):
    """Tube-algebra structure constants C[i, j, k], re-evaluating the whole
    gluing diagram for every basis pair (i, j) with x2 = y1.

    The gluing diagram of build_tube_algebra with a 1e-13 drop, no
    intermediate reused between pairs.
    """
    from tensorcat.diagram_eval import compose_values, insert, path_vector, paths

    ring = cd.ring
    basis = tube_basis_by_loops(cd)
    n = len(basis)
    index = {quad: k for k, quad in enumerate(basis)}
    product = np.zeros((n, n, n), dtype=complex)
    for i, (x2, a2, e2, y2) in enumerate(basis):
        for j, (x1, a1, e1, y1) in enumerate(basis):
            if x2 != y1:
                continue
            ab1, ab2 = ring.dual[a1], ring.dual[a2]
            inner = insert(cd, (a2,), tube_vector(cd, x1, a1, e1, y1), (ab2,))
            S = compose_values(cd, tube_vector(cd, x2, a2, e2, y2), inner)
            for b in ring.channels(a2, a1):
                psi = path_vector(cd, (a2, a1), b, (a2, b))
                phi = rotation_isometry_by_diagrams(cd, a1, a2, b)
                step_phi = insert(cd, (b, x1), phi, ())
                step_psi = insert(cd, (), psi, (x1, ab1, ab2))
                E = compose_values(cd, S, compose_values(cd, step_psi, step_phi))
                blk = E.block(ring, y2)
                if not blk.size:
                    continue
                cols = paths(ring, (b, x1, ring.dual[b])).get(y2, [])
                for ci, path in enumerate(cols):
                    coeff = blk[0, ci]
                    if abs(coeff) > 1e-13:
                        product[i, j, index[(x1, b, path[1], y2)]] += coeff
    return product


def tube_star_by_diagrams(cd):
    """Star coefficients star[i, k] of t_k in t_i^*: the dagger of t_i with
    both a-strands closed by caps, one diagram per basis vector, divided by
    the zig-zag phase of a."""
    from tensorcat.diagram_eval import (cap_morphism, compose_values, cup_morphism,
                                        dagger_value, insert, paths)

    ring = cd.ring
    basis = tube_basis_by_loops(cd)
    index = {quad: k for k, quad in enumerate(basis)}
    star = np.zeros((len(basis), len(basis)), dtype=complex)
    for i, (x, a, e, y) in enumerate(basis):
        ab = ring.dual[a]
        td = dagger_value(tube_vector(cd, x, a, e, y))   # [y] -> [a, x, ab]
        mid = insert(cd, (ab,), td, (a,))                 # [ab, y, a] -> [ab, a, x, ab, a]
        s1 = insert(cd, (), cap_morphism(cd, ab), (x, ab, a))
        s2 = insert(cd, (x,), cap_morphism(cd, ab), ())
        tstar = compose_values(cd, s2, compose_values(cd, s1, mid))
        zig = compose_values(cd, insert(cd, (), cap_morphism(cd, ab), (ab,)),
                             insert(cd, (ab,), cup_morphism(cd, a), ()))
        zeta = zig.block(ring, ab)[0, 0]
        zeta /= abs(zeta)
        blk = tstar.block(ring, x)
        for ci, path in enumerate(paths(ring, (ab, y, a)).get(x, [])):
            coeff = blk[0, ci] / zeta
            if abs(coeff) > 1e-13:
                star[i, index[(y, ab, path[1], x)]] += coeff
    return star


def vertex_gauge(cd, seed, size=2 * math.pi):
    """cd in another gauge of F, R dropped: a random unit phase u^{ab}_c of
    angle at most size on every admissible vertex, 1 on unit legs and on
    u^{a dual(a)}_0, and every stored entry transported,
    F'^{abc}_d[e,f] = F^{abc}_d[e,f] u^{bc}_f u^{af}_d / (u^{ab}_e u^{ec}_d)."""
    import dataclasses

    from tensorcat.category_data import FSymbolSet

    ring = cd.ring
    rng = np.random.default_rng(seed)
    u = np.exp(1j * size * rng.uniform(-1, 1, ring.N.shape)) * (ring.N > 0)
    u[0, :, :] = u[:, 0, :] = u[:, :, 0] = 1.0
    F = {(a, b, c, d, e, f): v * u[b, c, f] * u[a, f, d] / (u[a, b, e] * u[e, c, d])
         for (a, b, c, d, e, f), v in cd.F.entries.items()}
    return dataclasses.replace(cd, F=FSymbolSet(F), R=None, quadratic_form=None,
                               name=f"{cd.name} in a vertex gauge")


def su2_category(k, integer_spins=False):
    """SU(2)_k, the spins j = 0, 1/2, .., k/2 labelled by 2j, with F in the
    unitary q-Racah gauge (Kirillov-Reshetikhin 1989) and no braiding:

        F^{j1 j2 j3}_j[j12, j23] = (-1)^(j1+j2+j3+j) sqrt([2 j12 + 1][2 j23 + 1])
                                   {j1 j2 j12; j3 j j23}_q,

    [n] = sin(n pi / (k+2)) / sin(pi / (k+2)), the 6j symbol by the q-Racah
    sum.  A triple is admissible when it satisfies the triangle inequality,
    sums to an integer and sums to at most k.  The half-integer spins have
    Frobenius-Schur sign -1.  With ``integer_spins`` it is PSU(2)_k, the
    integer spins labelled by j.  Raises unless verify_pentagon is clean."""
    from tensorcat.category_data import _finish, verify_pentagon
    from tensorcat.fusion_ring import FusionRing

    spins = list(range(0, k + 1, 2 if integer_spins else 1))
    r = len(spins)
    qn = [math.sin(n * math.pi / (k + 2)) / math.sin(math.pi / (k + 2)) for n in range(k + 2)]
    fact = [1.0]                                  # fact[n] = [n]!, n <= k + 1
    for n in range(1, k + 2):
        fact.append(fact[-1] * qn[n])
    N = np.zeros((r, r, r), dtype=np.int64)
    for (i, a), (j, b), (l, c) in itertools.product(enumerate(spins), repeat=3):
        N[i, j, l] = abs(a - b) <= c <= a + b and (a + b + c) % 2 == 0 and a + b + c <= 2 * k

    def delta(a, b, c):
        return math.sqrt(fact[(a + b - c) // 2] * fact[(a - b + c) // 2] * fact[(b + c - a) // 2]
                         / fact[(a + b + c) // 2 + 1])

    def sixj(j1, j2, j12, j3, j, j23):
        """The q-Racah sum, spins given as 2j; z counts in units of 1."""
        triads = ((j1, j2, j12), (j1, j, j23), (j3, j2, j23), (j3, j, j12))
        quads = (j1 + j2 + j3 + j, j1 + j12 + j3 + j23, j2 + j12 + j + j23)
        total = 0.0
        # [z + 1]! vanishes from z = k + 1 on, where [k + 2] = 0
        for z in range(max(sum(t) // 2 for t in triads), min(min(quads) // 2, k) + 1):
            den = (math.prod(fact[z - sum(t) // 2] for t in triads)
                   * math.prod(fact[q // 2 - z] for q in quads))
            total += (-1) ** z * fact[z + 1] / den
        return math.prod(delta(*t) for t in triads) * total

    F = {}
    for a, b, c, d, e, f in itertools.product(range(1, r), range(1, r), range(1, r),
                                              range(r), range(r), range(r)):
        if N[a, b, e] and N[e, c, d] and N[b, c, f] and N[a, f, d]:
            sa, sb, sc, sd, se, sf = (spins[x] for x in (a, b, c, d, e, f))
            F[a, b, c, d, e, f] = ((-1) ** ((sa + sb + sc + sd) // 2)
                                   * math.sqrt(qn[se + 1] * qn[sf + 1])
                                   * sixj(sa, sb, se, sc, sd, sf) + 0j)
    labels = tuple(str(s // 2) if integer_spins else str(s) for s in spins)
    ring = FusionRing(rank=r, labels=labels, dual=tuple(range(r)), N=N)
    cd = _finish(ring, F, None, name=f"{'PSU' if integer_spins else 'SU'}(2)_{k}")
    bad = verify_pentagon(cd)
    if bad:
        raise ValueError(f"{cd.name}: pentagon fails: {bad[:3]}")
    return cd


def psu2_category(k):
    """PSU(2)_k, the integer spins 0 .. k // 2 of SU(2)_k, labelled by j."""
    return su2_category(k, integer_spins=True)


def dense_tube(tube):
    """The dense (n, n, n) product and (n, n) star of a tube algebra,
    assembled from its blocks: C[i, j, k] is the coefficient of t_k in
    t_i t_j.  For small test tubes only."""
    n = tube.dim
    S = tube.sectors
    C = np.zeros((n, n, n), dtype=complex)
    for (x, y, z), P in tube.blocks.items():
        C[np.ix_(S[y, z], S[x, y], S[x, z])] = P
    star = np.zeros((n, n), dtype=complex)
    for (x, y), M in tube.star.items():
        star[np.ix_(S[x, y], S[y, x])] = M
    return C, star


def left_matrix(tube, u):
    """The matrix of left multiplication by u in a tube algebra."""
    S = tube.sectors
    L = np.zeros((tube.dim, tube.dim), dtype=complex)
    for (x, y, z), P in tube.blocks.items():
        L[np.ix_(S[x, z], S[x, y])] += np.tensordot(u[S[y, z]], P, 1).T
    return L


def multiply(tube, u, v):
    """The product u v in a tube algebra, block by block."""
    S = tube.sectors
    w = np.zeros(tube.dim, dtype=complex)
    for (x, y, z), P in tube.blocks.items():
        w[S[x, z]] += v[S[x, y]] @ np.tensordot(u[S[y, z]], P, 1)
    return w


def star_vector(tube, u):
    """The star u^* in a tube algebra, block by block."""
    S = tube.sectors
    w = np.zeros(tube.dim, dtype=complex)
    for (x, y), M in tube.star.items():
        w[S[y, x]] += np.conj(u[S[x, y]]) @ M
    return w


def corner(tube, x):
    """(D, sub): the diagonal corner p_x Tube p_x as a tube algebra of its
    own, and D its coordinates in tube."""
    from tensorcat.center_tube import TubeAlgebra

    D = tube.sectors[x, x]
    return D, TubeAlgebra(basis=[tube.basis[i] for i in D],
                          sectors={(x, x): np.arange(len(D))},
                          blocks={(x, x, x): tube.blocks[x, x, x]},
                          star={(x, x): tube.star[x, x]}, cd=tube.cd)


def trace_functional(tube):
    """tau(t_{x,a,e,y}) = delta_{a,0} delta_{x,y} d_x."""
    return tube.unit_vector() * tube.cd.dims.dims[[x for x, _a, _e, _y in tube.basis]]


def corner_module_by_simple(tube, x, q, weights):
    """The irreducible module Tube q of one minimal projection q of the
    corner p_x Tube p_x, one projection at a time: a pivoted Gram-Schmidt
    of the t_j q (t_j leaving x) in the trace inner product, and the action
    of every t_k as a plain einsum.  Returns (copies, pi) as
    center_tube._corner_modules does for a batch of one."""
    cd = tube.cd
    S = tube.sectors
    ys = [y for y in range(cd.ring.rank) if (x, y) in S]
    J = np.sort(np.concatenate([S[x, y] for y in ys]))    # coordinates of Tube p_x
    at = {y: np.searchsorted(J, S[x, y]) for y in ys}     # sector y's rows in J
    sw = np.sqrt(weights[J])
    rows = np.zeros((len(J), len(J)), dtype=complex)    # row j: t_{J_j} q, tau-scaled
    for y, p in at.items():
        rows[np.ix_(p, p)] = np.tensordot(tube.blocks[x, x, y], q[S[x, x]], (1, 0))
    rows *= sw
    floor = cd.noise_floor * np.max(np.abs(rows))
    picked = []
    for _ in J:
        norms = np.sqrt(np.sum(np.abs(rows) ** 2, axis=1))
        if norms.max() <= floor:
            break
        j = int(np.argmax(norms >= (1 - cd.split_resolution) * norms.max()))
        v = rows[j] / norms[j]
        picked.append((tube.basis[J[j]][3], v))
        rows = rows - np.outer(rows @ v.conj(), v)
    picked.sort(key=lambda s: s[0])
    sectors = [y for y, _v in picked]
    copies = [(y, sectors[:i].count(y)) for i, y in enumerate(sectors)]
    B = np.array([v for _y, v in picked]).T
    Bl, Br = (B * sw[:, None]).conj(), B / sw[:, None]
    pi = np.zeros((tube.dim, len(copies), len(copies)), dtype=complex)
    for y, p in at.items():
        for z, l in at.items():
            if (x, y, z) in tube.blocks:
                pi[S[y, z]] = np.einsum("lC,kil,ic->kCc", Bl[l], tube.blocks[x, y, z], Br[p])
    return copies, pi


def corner_projections_by_corner(sub, weights, rng):
    """(m, Q, gap) of one corner sub = p_x Tube p_x split on its own: the
    eigenvalue clusters of diag(sqrt w) L_h diag(1/sqrt w) for a random
    hermitian h, drawn as two rng.standard_normal(n) calls, redrawn at once
    until every cluster's q has tr(L_q R_q) = 1, up to four attempts."""
    cd = sub.cd
    n = sub.dim
    (P,) = sub.blocks.values()
    sw = np.sqrt(weights)
    unit = sw * sub.unit_vector()
    min_gap = np.inf
    for _ in range(4):
        r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        h = r + star_vector(sub, r)
        lam, V = np.linalg.eigh(sw[:, None] * left_matrix(sub, h) / sw)
        gaps = np.diff(lam)
        cuts = np.flatnonzero(gaps > cd.split_resolution * max(1.0, np.abs(lam).max()))
        min_gap = min(min_gap, gaps[cuts].min(initial=np.inf))
        starts = np.r_[0, cuts + 1]
        Q = np.add.reduceat(V * (V.conj().T @ unit), starts, axis=1).T / sw
        dims = np.einsum("cjk,ckj->c", np.tensordot(Q, P, (1, 0)),
                         np.tensordot(Q, P, (1, 1))).real
        if np.all(np.abs(dims - 1.0) < cd.identity_tolerance):
            return np.diff(np.r_[starts, n]), Q, min_gap
    raise AssertionError(f"corner split failed (smallest eigenvalue gap {min_gap:.2e})")


def decompose_center_by_corners(tube, seed=0):
    """center_tube.decompose_center one corner and one projection at a
    time, the reference for its batches.  Each corner is split with its own
    retries before the next corner draws from SeededDraws((seed, 1)); the
    projections, sorted by (m, x) and then by eigenvalue, are taken in turn,
    each unless an earlier module claims it (tr pi(q) > 0.5), its module
    built by corner_module_by_simple and its half-braiding scattered on its
    own.  Every corner is split again, further on in the stream, while the
    modules do not exhaust the tube; dims, twists, order and S follow
    decompose_center's docstring."""
    from tensorcat.category_data import SeededDraws
    from tensorcat.center_tube import CenterData, CenterObject, _half_braiding_readout

    cd = tube.cd
    d, rank = cd.dims.dims, cd.ring.rank
    weights = tube.trace_weights()
    rng = SeededDraws((seed, 1))
    slot, scale = _half_braiding_readout(tube)
    for _ in range(4):
        found = []
        for x in range(rank):
            D, sub = corner(tube, x)
            ms, Qx, _gap = corner_projections_by_corner(sub, weights[D], rng)
            for m, qx in zip(ms.tolist(), Qx):
                q = np.zeros(tube.dim, dtype=complex)
                q[D] = qx
                found.append((m, x, q))
        found.sort(key=lambda f: f[:2])
        simples, traces, claims = [], [], []
        for _m, x, q in found:
            if any((q @ t).real > 0.5 for t in claims):
                continue
            copies, pi = corner_module_by_simple(tube, x, q, weights)
            claims.append(np.einsum("kcc->k", pi))
            n = len(copies)
            H = np.zeros((rank * rank, n, n), dtype=complex)
            np.add.at(H, slot, scale[:, None, None] * pi.conj())
            H = H.reshape(rank, rank, n, n)
            sector = np.array([y for y, _j in copies])[:, None] == np.arange(rank)
            traces.append(np.einsum("acuu,ux->acx", H, sector))
            mult = sector.sum(axis=0)
            simples.append(CenterObject(underlying=mult, half_braiding=H, copies=copies,
                                        twist=1.0, dim=float(d @ mult)))
        if sum(len(z.copies) ** 2 for z in simples) == tube.dim:
            break
    else:
        raise AssertionError("the corner modules do not exhaust the tube algebra")
    D = np.array(traces)
    dims = np.array([z.dim for z in simples])
    twists = np.einsum("zxcx,c->z", D, d) / dims
    for z, t in zip(simples, twists):
        z.twist = complex(t)
    U = np.array([z.underlying for z in simples])
    diag = np.abs(D[:, range(rank), range(rank), 0] - 1)
    unit = (U[:, 0] == 1) & (U.sum(axis=1) == 1) & np.all(diag < cd.identity_tolerance, axis=1)
    angle = np.arctan2(np.round(twists.imag, 9) + 0.0, np.round(twists.real, 9) + 0.0)
    order = np.lexsort((*U.T[::-1], angle, np.round(dims, 9), ~unit))
    S = np.einsum("zpcx,c,wxcp->zw", D, d, D)[np.ix_(order, order)]
    return CenterData(simples=[simples[i] for i in order], S=S,
                      T=np.diag(twists[order]), cd=cd)


def half_braiding_W_by_entries(cd, x, a, y):
    """W[e, c] of one (x, a, y) of the tube, one diagram per entry: the
    cap-closed sigma_c (x) id composed with the dagger of t_(x,a,e,y), so
    that the coefficient of t_(x,a,e,y) in a module is sum_c W[e, c] sigma_c.

    Rows follow e in channels(a, x) with N^y_{e, dual a}, columns c in
    channels(a, x) with N^c_{y a}.  center_tube reads W as diagonal, with
    W[c, c] = sqrt(d_a) F^{y a dual(a)}_y[c, 0]; the tests hold it to this.
    """
    from tensorcat.diagram_eval import (MorphismValue, cap_morphism, compose_values,
                                        dagger_value, insert)

    ring = cd.ring
    ab = ring.dual[a]
    es = [e for e in ring.channels(a, x) if ring.N[e, ab, y]]
    cs = [c for c in ring.channels(a, x) if ring.N[y, a, c]]
    W = np.zeros((len(es), len(cs)), dtype=complex)
    for ti, e in enumerate(es):
        td = dagger_value(tube_vector(cd, x, a, e, y))           # [y] -> [a, x, ab]
        for ci, c in enumerate(cs):
            sg = MorphismValue(source=(a, x), target=(y, a),
                               blocks={c: np.array([[1.0 + 0j]])})
            step = insert(cd, (), sg, (ab,))                      # [a,x,ab] -> [y,a,ab]
            capa = insert(cd, (y,), cap_morphism(cd, a), ())
            blk = compose_values(cd, capa, compose_values(cd, step, td)).block(ring, y)
            W[ti, ci] = blk[0, 0] if blk.size else 0.0
    return W


def mate_phase_by_diagrams(cd, braided):
    """(a, b, c) -> kappa(a, b, c), one diagram per vertex v: ab -> c: the
    right mate v^: c~ -> b~a~ (coevaluation cup(a) with cup(b) nested
    inside, evaluation cap(c~), x~ = dual(x)), daggered, precomposed with
    the braiding sigma_{a~,b~} when ``braided``, and normalized to a phase."""
    from tensorcat.diagram_eval import (braid_morphism, cap_morphism, compose_values,
                                        cup_morphism, dagger_value, insert,
                                        scalar_generator)

    ring = cd.ring
    dl = ring.dual
    kappa = {}
    for a in range(ring.rank):
        for b in range(ring.rank):
            coev = compose_values(cd, insert(cd, (a,), cup_morphism(cd, b), (dl[a],)),
                                  cup_morphism(cd, a))
            for c in ring.channels(a, b):
                v = scalar_generator(cd, a, b, c, 1.0)
                mate = compose_values(
                    cd, insert(cd, (), cap_morphism(cd, dl[c]), (dl[b], dl[a])),
                    compose_values(cd, insert(cd, (dl[c],), v, (dl[b], dl[a])),
                                   insert(cd, (dl[c],), coev, ())))
                w = dagger_value(mate)
                if braided:
                    w = compose_values(cd, w, braid_morphism(cd, dl[a], dl[b]))
                k = complex(w.block(ring, dl[c])[0, 0])
                kappa[(a, b, c)] = k / abs(k)
    return kappa


def record_diagram_calls(monkeypatch):
    """Record the name of every insert and compose_values call made through
    diagram_eval, algebra, local_modules or center_tube."""
    import tensorcat.algebra as alg
    import tensorcat.center_tube as ct
    import tensorcat.diagram_eval as de
    import tensorcat.local_modules as lm
    calls = []
    for name in ("insert", "compose_values"):
        def counting(*args, _name=name, _real=getattr(de, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        for mod in (de, alg, lm, ct):
            monkeypatch.setattr(mod, name, counting, raising=False)
    return calls


def record_linalg_calls(monkeypatch, *names):
    """name -> a list that grows by one on every call of np.linalg.<name>."""
    seen = {}
    for name in names:
        def counting(*args, _calls=seen.setdefault(name, []),
                     _real=getattr(np.linalg, name), **kwargs):
            _calls.append(1)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return seen


def _sigma_value(z, a, copy_out, copy_in):
    """sigma_a of z between two copies, as a morphism [a, x] -> [y, a] with
    one 1x1 block per channel where it is nonzero."""
    from tensorcat.diagram_eval import MorphismValue
    column = z.half_braiding[a, :, z.copies.index(copy_out), z.copies.index(copy_in)]
    blocks = {int(c): np.array([[column[c]]]) for c in np.flatnonzero(column)}
    return MorphismValue(source=(a, copy_in[0]), target=(copy_out[0], a), blocks=blocks)


def _max_dev(cd, f, g):
    """Largest entry of f - g over the blocks of either morphism value."""
    ring = cd.ring
    dev = 0.0
    for c in set(f.blocks) | set(g.blocks):
        diff = f.block(ring, c) - g.block(ring, c)
        if diff.size:
            dev = max(dev, float(np.max(np.abs(diff))))
    return dev


def half_braiding_check_by_diagrams(cd, z):
    """center_tube.half_braiding_check with one evaluated diagram per
    (a, b, copy pair, channel): the two-step braid (sigma_a (x) id_b)
    (id_a (x) sigma_b), summed over the middle copies, conjugated by the
    fusion tree g -> a (x) b on both sides and compared with sigma_g."""
    from tensorcat.diagram_eval import (MorphismValue, compose_values, dagger_value,
                                        insert, path_vector)
    ring = cd.ring
    tol = cd.identity_tolerance
    H = z.half_braiding
    report = [f"sigma_0 not identity at {(co, ci)}"
              for u, co in enumerate(z.copies) for v, ci in enumerate(z.copies)
              if co[0] == ci[0] and abs(H[0, co[0], u, v] - (u == v)) > tol]
    for a in range(ring.rank):
        for b in range(ring.rank):
            for ci in z.copies:
                for co in z.copies:
                    two = {}
                    for mid in z.copies:
                        s_b = _sigma_value(z, b, mid, ci)
                        s_a = _sigma_value(z, a, co, mid)
                        if not s_b.blocks or not s_a.blocks:
                            continue
                        term = compose_values(cd, insert(cd, (), s_a, (b,)),
                                              insert(cd, (a,), s_b, ()))
                        for t, blk in term.blocks.items():
                            if blk.size:
                                two[t] = two.get(t, np.zeros_like(blk)) + blk
                    x, y = ci[0], co[0]
                    for g in ring.channels(a, b):
                        tree = path_vector(cd, (a, b), g, (a, g))
                        psi_in = insert(cd, (), tree, (x,))
                        psi_out = insert(cd, (y,), dagger_value(tree), ())
                        composite = compose_values(cd, psi_out, compose_values(
                            cd, MorphismValue(source=(a, b, x), target=(y, a, b), blocks=two),
                            psi_in))
                        dev = _max_dev(cd, composite, _sigma_value(z, g, co, ci))
                        if dev > tol:
                            report.append(f"hexagon fails at a={a}, b={b}, g={g}, "
                                          f"copies {ci}->{co}: dev={dev:.3e}")
    return report


def half_braiding_check_dense(cd, z):
    """center_tube.half_braiding_check as one dense contraction per a over
    (b, copies, t, g, f, h), whatever the fusion sparsity, with F gathered
    once per call into the dense array Fd[a, b, c, d, e, f] = F^{abc}_d[e, f],
    0 off the admissible tuples.  For small ranks only."""
    ring, tol, H, copies = cd.ring, cd.identity_tolerance, z.half_braiding, z.copies
    N = ring.N
    report = [f"sigma_0 not identity at {(co, ci)}"
              for u, co in enumerate(copies) for v, ci in enumerate(copies)
              if co[0] == ci[0] and abs(H[0, co[0], u, v] - (u == v)) > tol]
    Fd = np.zeros((ring.rank,) * 6, dtype=complex)
    keys = np.nonzero(np.einsum("abe,ecd,bcf,afd->abcdef", N, N, N, N))
    Fd[keys] = cd.F.lookup(keys)
    sector = [x for x, _m in copies]
    want = H.transpose(1, 0, 2, 3)              # [t, g, co, ci] = sigma_g(t)
    for a in range(ring.rank):
        f_in = Fd[a][:, sector]                           # [b, ci, t, g, f] = F^{abx}_t[g, f]
        f_mid = Fd[a][sector].transpose(1, 0, 2, 3, 4).conj()   # [b, w, t, h, f] = conj F^{awb}_t[h, f]
        f_out = Fd[sector, a].transpose(1, 0, 2, 3, 4)    # [b, co, t, h, g] = F^{yab}_t[h, g]
        two = np.einsum("bitgf,bfwi->btgfwi", f_in, H)    # sigma_b
        two = np.einsum("bwthf,btgfwi->btghwi", f_mid, two)
        two = np.einsum("how,btghwi->btghoi", H[a], two)  # sigma_a
        two = np.einsum("bothg,btghoi->btgoi", f_out, two)
        dev = np.abs(two - want).max(axis=1) * N[a, :, :, None, None]   # [b, g, co, ci]
        for b, i, o, g in np.argwhere(dev.transpose(0, 3, 2, 1) > tol):
            report.append(f"hexagon fails at a={a}, b={b}, g={g}, "
                          f"copies {copies[i]}->{copies[o]}: dev={dev[b, g, o, i]:.3e}")
    return report


def center_twist_by_traces(cd, z):
    """theta_z = sum over copies (x, m) of the categorical trace of
    sigma_x((x, m), (x, m)), divided by dim z."""
    from tensorcat.diagram_eval import MorphismValue, categorical_trace

    total = 0.0 + 0.0j
    for copy in z.copies:
        sg = _sigma_value(z, copy[0], copy, copy)
        if sg.blocks:
            total += categorical_trace(cd, MorphismValue(
                source=sg.source, target=sg.source, blocks=sg.blocks))
    return complex(total / z.dim)


def center_fusion_by_loops(cd, center):
    """The Verlinde fusion tensor of a center, N[a, b, c] = sum_m S_am S_bm
    conj(S_cm) / S_0m with S normalized by sqrt(sum dim^2), one entry at a
    time; AssertionError on a non-integral entry."""
    total = np.sqrt(np.sum([z.dim ** 2 for z in center.simples]))
    S = center.S / total
    r = len(S)
    N = np.zeros((r, r, r), dtype=np.int64)
    for a in range(r):
        for b in range(r):
            for c in range(r):
                val = np.sum(S[a, :] * S[b, :] * np.conj(S[c, :]) / S[0, :])
                N[a, b, c] = n = int(round(val.real))
                assert abs(val - n) <= cd.identity_tolerance, (a, b, c, val)
    return N


def central_idempotents_by_nullspace(tube, seed=0):
    """Minimal central idempotents of a tube algebra or corner: a basis of
    the center from the nullspace of the commutator stack, then a seeded
    random central element diagonalized on that basis, retried on an
    eigenvalue collision."""
    n = tube.dim
    C = dense_tube(tube)[0]
    # row (j, k), column i: (t_i t_j - t_j t_i)_k, so big @ z = 0 iff z is central
    big = (C.transpose(1, 2, 0) - C.transpose(0, 2, 1)).reshape(n * n, n)
    _u, s, vh = np.linalg.svd(big, full_matrices=False)
    Z = vh[s < 1e-10 * max(1.0, s[0])].conj().T     # columns span the center
    m = Z.shape[1]
    rng = np.random.default_rng((seed, 1))
    for _ in range(4):
        coeff = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        h = Z @ coeff
        h = h + star_vector(tube, h)
        # regular action of h restricted to the center
        A = np.linalg.lstsq(Z, np.tensordot(h, C, 1).T @ Z, rcond=None)[0]
        w, V = np.linalg.eig(A)
        if m > 1 and np.min(np.abs(w[:, None] - w[None, :]) + np.eye(m)) < 1e-6:
            continue
        idems = []
        for v in (Z @ V).T:
            lead = np.argmax(np.abs(v))
            idems.append(v * v[lead] / multiply(tube, v, v)[lead])
        if all(np.max(np.abs(multiply(tube, p, p) - p)) < 1e-6 for p in idems) and \
                np.max(np.abs(np.sum(idems, axis=0) - tube.unit_vector())) < 1e-6:
            return idems
    raise AssertionError("no split of the center into minimal idempotents")


def center_s_by_traces(cd, simples):
    """S[z, w]: for every copy of z in sector x and of w in sector x', the
    categorical trace of sigma^z_{x'} composed with sigma^w_x."""
    from tensorcat.diagram_eval import categorical_trace, compose_values

    r = len(simples)
    S = np.zeros((r, r), dtype=complex)
    for i, z in enumerate(simples):
        for j, w in enumerate(simples):
            for cz in z.copies:
                for cw in w.copies:
                    a1 = _sigma_value(w, cz[0], cw, cw)   # [x, x'] -> [x', x]
                    a2 = _sigma_value(z, cw[0], cz, cz)   # [x', x] -> [x, x']
                    if a1.blocks and a2.blocks:
                        S[i, j] += categorical_trace(cd, compose_values(cd, a2, a1))
    return S


def canonical_algebra_by_diagrams(cd, x):
    """algebra.canonical_algebra with each mu^{ab}_c read off the evaluated
    diagram id_x (x) cap (x) id between the trees of x (x) dual(x)."""
    from tensorcat.algebra import _unit_normalized, trivial_algebra
    from tensorcat.diagram_eval import (cap_morphism, compose_values, dagger_value,
                                        insert, path_vector, tensor_values)
    ring = cd.ring
    xi = ring.label_index(x)
    xb = ring.dual[xi]
    support = ring.channels(xi, xb)
    if support == [0]:
        return trivial_algebra()
    word = (xi, xb)
    m_raw = insert(cd, (xi,), cap_morphism(cd, xb), (xb,))
    scale = np.sqrt(sum(cd.dims.dims[c] for c in support) / cd.dims.dims[xi])
    mu = {}
    for a in support:
        ia = path_vector(cd, word, a, (xi, a))
        for b in support:
            both = tensor_values(cd, ia, path_vector(cd, word, b, (xi, b)))
            for c in ring.channels(a, b):
                if c in support:
                    pc = dagger_value(path_vector(cd, word, c, (xi, c)))
                    val = compose_values(cd, pc, compose_values(cd, m_raw, both))
                    mu[(a, b, c)] = complex(val.block(ring, c)[0, 0]) * scale
    return _unit_normalized(cd, support, mu)


def algebras_gauge_equivalent(A1, A2, tol=1e-8):
    """Equality of two algebras on one object up to a diagonal gauge.

    The gauge is mu^{ab}_c -> u_a u_b mu^{ab}_c / u_c with |u_c| = 1 and
    u_0 = 1, the diagonal algebra isomorphisms; this is the test of
    local_modules._unitarily_equivalent carried over to algebras.  Supports,
    admissible triples and |mu| must agree.  The ratios r^{ab}_c =
    mu2 / mu1 must then solve u_a u_b / u_c = r, a system of integer
    exponent rows over the torus.  Unimodular integer row operations keep
    its solution set, and a row-echelon system is always solvable on the
    torus, so it is solvable exactly when every row that reduces to zero
    exponents carries the ratio 1.
    """
    if A1.support != A2.support or set(A1.mu) != set(A2.mu):
        return False
    if any(abs(abs(A1.mu[k]) - abs(A2.mu[k])) > tol for k in A1.mu):
        return False
    col = {c: j for j, c in enumerate(c for c in A1.support if c != 0)}
    rows = []
    for (a, b, c), v in sorted(A1.mu.items()):
        if abs(v) <= tol:
            continue
        n = [0] * len(col)
        for lab, sign in ((a, 1), (b, 1), (c, -1)):
            if lab:
                n[col[lab]] += sign
        ratio = A2.mu[(a, b, c)] / v
        rows.append((n, ratio / abs(ratio)))
    for j in range(len(col)):
        while True:
            live = [r for r in rows if r[0][j]]
            if len(live) <= 1:
                break
            pn, pr = min(live, key=lambda r: abs(r[0][j]))
            reduced = []
            for n, r in rows:
                if n is not pn and n[j]:
                    q = n[j] // pn[j]
                    n, r = [x - q * y for x, y in zip(n, pn)], r * pr ** (-q)
                reduced.append((n, r))
            rows = reduced
        # the one row left with a u_j term fixes u_j once the later u's are set
        rows = [(n, r) for n, r in rows if not n[j]]
    return all(abs(r - 1.0) <= 10 * tol for _n, r in rows)


def _sum_values(cd, values, source, target):
    from tensorcat.diagram_eval import MorphismValue, paths
    ring = cd.ring
    blocks = {}
    for c in set(paths(ring, source)) & set(paths(ring, target)):
        blocks[c] = sum((v.block(ring, c) for v in values),
                        np.zeros((len(paths(ring, target)[c]),
                                  len(paths(ring, source)[c])), dtype=complex))
    return MorphismValue(source=source, target=target, blocks=blocks)


def _associativity_by_diagrams(cd, act, xs, mu, supp):
    """Largest blockwise deviation of act(act (x) id) from act(id (x) mu),
    act and mu scalar generators, every term an evaluated diagram."""
    from tensorcat.diagram_eval import compose_values, insert
    dev = 0.0
    for x in xs:
        for a in supp:
            for b in supp:
                for y in xs:
                    src, tgt = (x, a, b), (y,)
                    lhs = [compose_values(cd, act[(z, b, y)],
                                          insert(cd, (), act[(x, a, z)], (b,)))
                           for z in xs if (x, a, z) in act and (z, b, y) in act]
                    rhs = [compose_values(cd, act[(x, c, y)],
                                          insert(cd, (x,), mu[(a, b, c)], ()))
                           for c in supp if (a, b, c) in mu and (x, c, y) in act]
                    if lhs or rhs:
                        dev = max(dev, _max_dev(cd, _sum_values(cd, lhs, src, tgt),
                                                _sum_values(cd, rhs, src, tgt)))
    return dev


def _generators(cd, coeffs):
    from tensorcat.diagram_eval import scalar_generator
    return {k: scalar_generator(cd, *k, v) for k, v in coeffs.items()}


def qsystem_residuals_by_diagrams(cd, A):
    """(associativity, frobenius) of algebra.verify_qsystem, unscaled, from
    evaluated diagrams: the mu components bound as scalar generators and
    both sides of each axiom composed with insert and compose_values."""
    from tensorcat.diagram_eval import compose_values, dagger_value, insert
    gens = _generators(cd, A.mu)
    supp = A.support
    assoc = _associativity_by_diagrams(cd, gens, supp, gens, supp)
    frob = 0.0
    for a, b, c, d in itertools.product(supp, repeat=4):
        src, tgt = (a, b), (c, d)
        mid = [compose_values(cd, dagger_value(gens[(c, d, e)]), gens[(a, b, e)])
               for e in supp if (a, b, e) in gens and (c, d, e) in gens]
        left = [compose_values(cd, insert(cd, (c,), gens[(g, b, d)], ()),
                               insert(cd, (), dagger_value(gens[(c, g, a)]), (b,)))
                for g in supp if (c, g, a) in gens and (g, b, d) in gens]
        right = [compose_values(cd, insert(cd, (), gens[(a, g, c)], (d,)),
                                insert(cd, (a,), dagger_value(gens[(g, d, b)]), ()))
                 for g in supp if (a, g, c) in gens and (g, d, b) in gens]
        if mid or left or right:
            vm = _sum_values(cd, mid, src, tgt)
            frob = max(frob, _max_dev(cd, _sum_values(cd, left, src, tgt), vm),
                       _max_dev(cd, _sum_values(cd, right, src, tgt), vm))
    return assoc, frob


def module_associativity_by_diagrams(cd, A, X):
    """The unscaled associativity residual of local_modules.verify_module,
    from evaluated diagrams with rho and mu bound as scalar generators."""
    return _associativity_by_diagrams(cd, _generators(cd, X.rho), X.support,
                                      _generators(cd, A.mu), A.support)


def induced_action_by_entries(cd, A, x):
    """local_modules._induced_action with one insert per matrix entry: the
    vertex id_x (x) mu^{ba}_c is evaluated again for every sector pair."""
    from tensorcat.diagram_eval import insert, paths, scalar_generator

    ring = cd.ring
    sectors = {}
    for b in A.support:
        for y in ring.channels(x, b):
            sectors.setdefault(y, []).append(b)
    sectors = {y: sorted(bs) for y, bs in sectors.items()}
    act = {}
    for a in A.support:
        mats = {}
        for y1, bs in sectors.items():
            for y2 in ring.channels(y1, a):
                if y2 not in sectors:
                    continue
                cs = sectors[y2]
                m = np.zeros((len(cs), len(bs)), dtype=complex)
                for j, b in enumerate(bs):
                    for i, c in enumerate(cs):
                        if (b, a, c) not in A.mu:
                            continue
                        mv = insert(cd, (x,), scalar_generator(
                            cd, b, a, c, A.mu[(b, a, c)]), ())
                        blk = mv.block(ring, y2)
                        cols = paths(ring, (x, b, a)).get(y2, [])
                        if blk.size and (x, y1, y2) in cols:
                            m[i, j] = complex(blk[0, cols.index((x, y1, y2))])
                mats[(y2, y1)] = m
        act[a] = mats
    return sectors, act


def commutant_generators_by_diagrams(cd, A, x, sectors):
    """local_modules._commutant_generators with one diagram per matrix entry:
    (id_x (x) mu^{ab}_c) after (f_a (x) id_b), f_a the path vector x -> x (x) a,
    read at the path (x, y) of every sector y."""
    from tensorcat.diagram_eval import (compose_values, insert, path_vector, paths,
                                        scalar_generator)

    ring = cd.ring
    gens = []
    for a in A.support:
        if not ring.N[x, a, x]:
            continue
        f_a = path_vector(cd, (x, a), x, (x, x))
        mats = {}
        for y, bs in sectors.items():
            m = np.zeros((len(bs), len(bs)), dtype=complex)
            for j, b in enumerate(bs):
                for i, c in enumerate(bs):
                    if (a, b, c) not in A.mu:
                        continue
                    mv = compose_values(
                        cd,
                        insert(cd, (x,), scalar_generator(cd, a, b, c, A.mu[(a, b, c)]), ()),
                        insert(cd, (), f_a, (b,)))
                    blk = mv.block(ring, y)
                    if blk.size:
                        cols = paths(ring, (x, b)).get(y, [])
                        if (x, y) in cols:
                            m[i, j] = blk[0, cols.index((x, y))]
            mats[y] = m
        gens.append(mats)
    return gens


def projector_block_by_diagrams(cd, A, X, Y, t, pairs, dQ):
    """projector_block with one diagram per entry: rho_X (x)
    lambda_Y after the normalized cup a (x) ab inserted between x1 and y1, where
    lambda_Y^{ab y1}_{y2} = R^{ab y1}_{y2} rho_Y(y1, ab, y2) is the left action."""
    from tensorcat.diagram_eval import (compose_values, insert, path_vector,
                                        scalar_generator, tensor_values)

    ring = cd.ring
    P = np.zeros((len(pairs), len(pairs)), dtype=complex)
    for a in A.support:
        ab = ring.dual[a]
        wmu = np.conj(A.mu.get((a, ab, 0), 0.0))
        if wmu == 0:
            continue
        emb = path_vector(cd, (a, ab), 0, (a, 0))
        for ci, (x1, y1) in enumerate(pairs):
            for ri, (x2, y2) in enumerate(pairs):
                if (x1, a, x2) not in X.rho or (y1, ab, y2) not in Y.rho:
                    continue
                if not ring.N[ab, y1, y2]:
                    continue
                rx = scalar_generator(cd, x1, a, x2, X.rho[(x1, a, x2)])
                ly = scalar_generator(cd, ab, y1, y2,
                                      cd.rval(ab, y1, y2) * Y.rho[(y1, ab, y2)])
                mv = compose_values(cd, tensor_values(cd, rx, ly),
                                    insert(cd, (x1,), emb, (y1,)))
                blk = mv.block(ring, t)
                if blk.size:
                    P[ri, ci] += wmu * blk[0, 0] / dQ
    return P


def _unfold_entry(cd, x, word, y, tree, path):
    """U[tree, path] of unfold(cd, x, word, y): the coefficient of the detached
    tree (e, spath) in the in-context middle path from x to y through word."""
    from tensorcat.diagram_eval import unfold
    ins, outs, U = unfold(cd, x, word, y)
    return U[outs.index(tree), ins.index(path)]


def unfold_by_walk(cd, x, s_word, y):
    """diagram_eval.unfold by an amplitude walk: the in-context paths are
    enumerated as m-sequences fusing s_word onto x, and the strands s_2 ..
    s_j are detached one F-move at a time, a dict of amplitudes per
    (standalone path, attaching channel, rest of m), with words of length 0
    and 1 answered directly."""
    ring = cd.ring
    states = [((), x)]
    for w in s_word:
        states = [(m + (c,), c) for (m, last) in states for c in ring.channels(last, w)]
    in_basis = [m for m in sorted(m for m, _ in states) if (m[-1] if m else x) == y]
    j = len(s_word)
    if j == 0:
        out_basis = [(0, ())] if y == x else []
        return tuple(in_basis), tuple(out_basis), np.eye(len(in_basis), dtype=complex)
    if j == 1:
        out_basis = [(s_word[0], (s_word[0],))] if in_basis else []
        return tuple(in_basis), tuple(out_basis), np.eye(len(in_basis), dtype=complex)
    amps = {}
    for idx, m in enumerate(in_basis):
        amps.setdefault(((s_word[0],), m[0], m[1:]), {})[idx] = 1.0 + 0.0j
    for k in range(1, j):
        nxt = {}
        for (npath, attach, mtail), vec in amps.items():
            n_k, s_next, m_next = npath[-1], s_word[k], mtail[0]
            for n_next in ring.channels(n_k, s_next):
                if not ring.N[x, n_next, m_next]:
                    continue
                coef = cd.fval(x, n_k, s_next, m_next, attach, n_next)
                if coef == 0:
                    continue
                acc = nxt.setdefault((npath + (n_next,), m_next, mtail[1:]), {})
                for idx, amp in vec.items():
                    acc[idx] = acc.get(idx, 0.0) + amp * coef
        amps = nxt
    out_basis = sorted({(npath[-1], npath) for (npath, _attach, _tail) in amps})
    row = {ob: i for i, ob in enumerate(out_basis)}
    U = np.zeros((len(out_basis), len(in_basis)), dtype=complex)
    for (npath, _attach, _tail), vec in amps.items():
        for idx, amp in vec.items():
            U[row[(npath[-1], npath)], idx] = amp
    return tuple(in_basis), tuple(out_basis), U


def projector_block(cd, A, X, Y, t, pairs, dQ):
    """Block of the canonical projector X (x) Y -> X (x)_Q Y at channel t,
    read from the memoized F-move matrices.

    The separability element sum_a conj(mu^{a ab}_0) e_a, e_a the unit path
    vector 0 -> a (x) ab, inserted between x1 and y1 and closed by rho_X on
    the left and the left action
    lambda_Y^{ab y1}_{y2} = R^{ab y1}_{y2} rho_Y(y1, ab, y2) on the right,
    gives the (x2, y2) <- (x1, y1) entry
    conj(mu^{a ab}_0) rho_X(x1, a, x2) lambda_Y(ab, y1, y2) K / dQ.  K is a
    product of three unfold entries, the F-moves of that diagram: e_a
    read on the path (x2, x1) of unfold(x1, (a, ab), x1), rho_X's vertex on
    (x1, x2) of unfold(0, (x1, a), x2), and lambda_Y's vertex on (x1, t) of
    unfold(x2, (ab, y1), t).
    """
    ring = cd.ring
    P = np.zeros((len(pairs), len(pairs)), dtype=complex)
    for a in A.support:
        ab = ring.dual[a]
        wmu = np.conj(A.mu.get((a, ab, 0), 0.0))
        if wmu == 0:
            continue
        for ci, (x1, y1) in enumerate(pairs):
            for ri, (x2, y2) in enumerate(pairs):
                rx = X.rho.get((x1, a, x2))
                ry = Y.rho.get((y1, ab, y2))
                if rx is None or ry is None or not ring.N[ab, y1, y2]:
                    continue
                K = (np.conj(_unfold_entry(cd, x1, (a, ab), x1, (0, (a, 0)), (x2, x1)))
                     * _unfold_entry(cd, 0, (x1, a), x2, (x2, (x1, x2)), (x1, x2))
                     * _unfold_entry(cd, x2, (ab, y1), t, (y2, (ab, y2)), (x1, t)))
                P[ri, ci] += wmu * rx * cd.rval(ab, y1, y2) * ry * K / dQ
    return P


def local_fusion_by_projector_ranks(cd, A, X, Y, condensed):
    """Multiplicities of X (x)_Q Y over condensed.simples from the ranks of
    the canonical projector.

    The per-channel ranks of projector_block solve indicator @ m = ranks,
    indicator[t, j] = 1 when t lies in the support of the j-th simple; m
    must come out integral to within 0.01 and nonnegative.  When the
    indicator has rank below the number of simples (two simples with the
    same support, say), the channel ranks do not determine m and
    StructuralError is raised.
    """
    from tensorcat.algebra import algebra_dim
    from tensorcat.errors import StructuralError

    ring = cd.ring
    dQ = algebra_dim(cd, A)
    ranks = np.zeros(ring.rank)
    for t in range(ring.rank):
        pairs = [(x, y) for x in X.support for y in Y.support if ring.N[x, y, t]]
        if not pairs:
            continue
        P = projector_block(cd, A, X, Y, t, pairs, dQ)
        dev = np.max(np.abs(P @ P - P))
        if dev > cd.identity_tolerance:
            raise StructuralError(f"canonical projector not idempotent (dev {dev:.2e})")
        ranks[t] = int(np.sum(np.linalg.svd(P, compute_uv=False) > 0.5))
    n_simples = len(condensed.simples)
    indicator = np.zeros((ring.rank, n_simples))
    for j, z in enumerate(condensed.simples):
        indicator[list(z.support), j] = 1.0
    support_rank = np.linalg.matrix_rank(indicator)
    if support_rank < n_simples:
        raise StructuralError(
            f"supports of the {n_simples} simple locals span rank {support_rank} < "
            f"{n_simples}: channel ranks do not determine the multiplicities")
    mults = np.linalg.lstsq(indicator, ranks, rcond=None)[0]
    rounded = np.round(mults).astype(int)
    if np.max(np.abs(mults - rounded)) > 0.01 or np.max(
            np.abs(indicator @ rounded - ranks)) > 0.01 or (rounded < 0).any():
        raise StructuralError(
            f"no nonnegative integral multiplicities: solved {mults} "
            f"for channel ranks {ranks}")
    return rounded


def condensed_ring_by_projector_ranks(cd, A, condensed):
    """The condensed fusion ring from local_fusion_by_projector_ranks on
    every ordered pair of simples, the one equivalent to A moved first."""
    from tensorcat.fusion_ring import FusionRing
    from tensorcat.local_modules import _unitarily_equivalent, regular_module

    simples = condensed.simples
    n = len(simples)
    N = np.zeros((n, n, n), dtype=np.int64)
    for i, X in enumerate(simples):
        for j, Y in enumerate(simples):
            N[i, j] = local_fusion_by_projector_ranks(cd, A, X, Y, condensed)
    reg = regular_module(A)
    unit = next(i for i, m in enumerate(simples) if _unitarily_equivalent(cd, m, reg))
    order = [unit] + [i for i in range(n) if i != unit]
    N = N[np.ix_(order, order, order)]
    return FusionRing.from_fusion(["Q"] + [f"X{i}" for i in range(1, n)], N)


def deligne_product_data_by_loops(c1, c2):
    """Deligne product F and R entries by nested loops over both factors,
    one F lookup per product tuple; the library reads each factor's entries
    into one list first."""
    k = c2.ring.rank
    r1, r2 = c1.ring, c2.ring
    F = {}
    for a1, b1, c1_, d1, e1, f1 in _admissible(r1):
        for a2, b2, c2_, d2, e2, f2 in _admissible(r2):
            A, B, C = a1 * k + a2, b1 * k + b2, c1_ * k + c2_
            if A == 0 or B == 0 or C == 0:
                continue
            F[(A, B, C, d1 * k + d2, e1 * k + e2, f1 * k + f2)] = (
                c1.fval(a1, b1, c1_, d1, e1, f1) * c2.fval(a2, b2, c2_, d2, e2, f2))
    R = {}
    for a1, b1, x1 in itertools.product(range(r1.rank), repeat=3):
        for a2, b2, x2 in itertools.product(range(r2.rank), repeat=3):
            if r1.N[a1, b1, x1] and r2.N[a2, b2, x2]:
                R[(a1 * k + a2, b1 * k + b2, x1 * k + x2)] = (
                    c1.rval(a1, b1, x1) * c2.rval(a2, b2, x2))
    return F, R


def _admissible(ring):
    for a, b, c, d, e, f in itertools.product(range(ring.rank), repeat=6):
        if ring.N[a, b, e] and ring.N[e, c, d] and ring.N[b, c, f] and ring.N[a, f, d]:
            yield a, b, c, d, e, f


def _qf_r_value_by_loops(qf, g, h):
    """R(g, h) of a quadratic form, one factor and one cross term at a time."""
    phase = 0.0
    for i, n in enumerate(qf.group):
        phase += qf.t[i] * g[i] * h[i] / n
    for (i, j), cij in qf.cross.items():
        gcd = math.gcd(qf.group[i], qf.group[j])
        phase += 2.0 * cij * g[i] * h[j] / gcd
    return cmath.exp(1j * math.pi * phase)


def quadratic_form_validate_by_loops(qf):
    """QuadraticForm.validate as triple loops over the group: q(g) = q(-g),
    then b(e_i, h + k) = b(e_i, h) b(e_i, k), first failure per generator."""
    report = []
    els = qf.elements()
    ns = qf.group

    def neg(g):
        return tuple((-a) % n for a, n in zip(g, ns))

    def add(g, h):
        return tuple((a + b) % n for a, b, n in zip(g, h, ns))

    qs = {g: _qf_r_value_by_loops(qf, g, g) for g in els}

    def q(g):  # a generator of a Z/1 factor is not reduced, so not in qs
        return qs[g] if g in qs else _qf_r_value_by_loops(qf, g, g)

    def b(g, h):
        return q(add(g, h)) / (q(g) * q(h))

    for g in els:
        if abs(q(g) - q(neg(g))) > 1e-9:
            report.append(f"q({g}) != q(-{g})")
    gens = [tuple(1 if j == i else 0 for j in range(len(ns))) for i in range(len(ns))]
    for g in gens:
        bg = {h: b(g, h) for h in els}
        for h in els:
            for k in els:
                if abs(bg[add(h, k)] - bg[h] * bg[k]) > 1e-9:
                    report.append(f"b({g}, -) not multiplicative at {h}+{k}")
                    break
            else:
                continue
            break
    return report


def pointed_from_quadratic_form_by_loops(qf, name=""):
    """pointed_from_quadratic_form with every table built by loops over the
    group: N, labels and dual per element, F per triple, R per pair."""
    from tensorcat.category_data import CategoryData, FSymbolSet, RSymbolSet
    from tensorcat.errors import StructuralError
    from tensorcat.fusion_ring import FusionRing, fp_dimensions

    bad = quadratic_form_validate_by_loops(qf)
    if bad:
        raise StructuralError("quadratic form invalid: " + "; ".join(bad[:3]))
    ns = qf.group
    els = qf.elements()
    index = {g: i for i, g in enumerate(els)}
    rank = len(els)

    def add(g, h):
        return tuple((x + y) % n for x, y, n in zip(g, h, ns))

    def neg(g):
        return tuple((-x) % n for x, n in zip(g, ns))

    labels = tuple(".".join(str(x) for x in g) if len(ns) > 1 else str(g[0]) for g in els)
    dual = tuple(index[neg(g)] for g in els)
    N = np.zeros((rank, rank, rank), dtype=np.int64)
    for g in els:
        for h in els:
            N[index[g], index[h], index[add(g, h)]] = 1
    ring = FusionRing(rank=rank, labels=labels, dual=dual, N=N)

    def fscalar(g, h, k):
        phase = 0.0
        for i, n in enumerate(ns):
            carry = h[i] + k[i] - ((h[i] + k[i]) % n)
            phase += qf.t[i] * g[i] * carry / n
        return cmath.exp(1j * math.pi * phase)

    F_entries = {}
    for g in els[1:]:
        for h in els[1:]:
            gh = add(g, h)
            for k in els[1:]:
                a, b, c = index[g], index[h], index[k]
                e = index[gh]
                f = index[add(h, k)]
                d = index[add(gh, k)]
                F_entries[(a, b, c, d, e, f)] = fscalar(g, h, k)
    R_entries = {}
    for g in els:
        for h in els:
            R_entries[(index[g], index[h], index[add(g, h)])] = _qf_r_value_by_loops(qf, g, h)
    return CategoryData(ring=ring, dims=fp_dimensions(ring), F=FSymbolSet(F_entries),
                        R=RSymbolSet(R_entries), name=name or f"pointed{list(ns)}",
                        quadratic_form=qf)


def pointed_tables_by_loops(cd):
    """Product table and dense F(a, b, c) of a pointed category, one F entry
    at a time."""
    ring = cd.ring
    r = ring.rank
    P = np.argmax(ring.N, axis=2)
    FF = np.ones((r, r, r), dtype=complex)
    for (a, b, c, d, e, f), v in cd.F.entries.items():
        FF[a, b, c] = v
    return P, FF
