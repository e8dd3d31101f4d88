"""Drinfeld center computation via the tube algebra.

The tube algebra has one basis vector per admissible quadruple (x, a, e, y)
with N^e_{ax} = N^y_{e, dual(a)} = 1, realized as the orthonormal tree
vector in Hom(a (x) x (x) dual(a) -> y).  Products glue annuli: the a-strands
fuse through every channel b with the dual leg closed off by rotation
isometries; all coefficients are produced by the diagram evaluator, and the
resulting structure constants are verified associative and C* by the tests.

Structure constants are dense arrays: product[i, j, k] is the coefficient of
t_k in t_i * t_j (48 MB at dimension n = 144) and star[i, k] that of t_k in
t_i^*, so products, stars and the left and right regular actions are array
contractions.  The center is the null space of the n^2 x n commutator stack,
read off an economy SVD, so no step allocates more than O(n^3).

Blocks of the algebra correspond to the simple objects of the center: each
carries a multiplicity vector over Irr(C), half-braiding component matrices
(extracted from the block representation by a linear solve and verified
against the composite-channel axioms), a twist, and a quantum dimension.
The S and T matrices of the center are computed from the half-braidings.

Conventions: the half-braiding sigma_{c,z}: c (x) z -> z (x) c carries the
strand of the ambient category over the center object's strand; the braiding
of two center objects (z, sigma) and (w, rho) is rho evaluated at z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (_conjugate_vertex_algebra, algebra_dim, group_algebra,
                      is_commutative, verify_qsystem)
from .category_data import (CategoryData, QuadraticForm, deligne_product_data,
                            pointed_from_quadratic_form, reverse_braiding)
from .braided_analysis import is_nondegenerate
from .diagram_eval import (MorphismValue, cap_morphism, categorical_trace,
                           compose_values, cup_morphism, dagger_value,
                           insert, path_vector, paths)
from .errors import PreconditionError, StructuralError

__all__ = [
    "TubeAlgebra", "CenterObject", "CenterData", "build_tube_algebra",
    "decompose_center", "half_braiding_check", "lagrangian_algebra",
    "theorem_c_shadow", "center_presentation",
]


@dataclass
class TubeAlgebra:
    basis: list            # quadruples (x, a, e, y)
    product: np.ndarray    # (n, n, n): [i, j, k] = coefficient of t_k in t_i * t_j
    star: np.ndarray       # (n, n): [i, k] = coefficient of t_k in t_i^*
    cd: CategoryData

    @property
    def dim(self):
        return len(self.basis)

    def unit_vector(self):
        v = np.zeros(self.dim, dtype=complex)
        for i, (x, a, e, y) in enumerate(self.basis):
            if a == 0 and x == y:
                v[i] = 1.0
        return v

    def left_matrices(self):
        """mats[i] is the matrix of left multiplication by t_i."""
        return self.product.transpose(0, 2, 1)

    def multiply(self, u, v):
        return v @ np.tensordot(u, self.product, 1)

    def star_vector(self, u):
        return np.conj(u) @ self.star

    def trace_functional(self):
        """tau(t_{x,a,e,y}) = delta_{a,0} delta_{x,y} d_x."""
        d = self.cd.dims.dims
        tau = np.zeros(self.dim, dtype=complex)
        for i, (x, a, e, y) in enumerate(self.basis):
            if a == 0 and x == y:
                tau[i] = d[x]
        return tau


@dataclass
class CenterObject:
    underlying: np.ndarray        # multiplicity vector over Irr(C)
    half_braiding: dict           # a -> {channel c: matrix (copies) x (copies)}
    copies: list                  # ordered list of (x, m) copy labels
    twist: complex
    dim: float


@dataclass
class CenterData:
    simples: list
    S: np.ndarray
    T: np.ndarray
    cd: CategoryData


def _tube_basis(cd):
    ring = cd.ring
    basis = []
    for x in range(ring.rank):
        for a in range(ring.rank):
            ab = ring.dual[a]
            for e in ring.channels(a, x):
                for y in ring.channels(e, ab):
                    basis.append((x, a, e, y))
    return basis


def _tube_vector(cd, x, a, e, y) -> MorphismValue:
    """The basis morphism [a, x, dual(a)] -> [y] at the tree path (a, e, y)."""
    ab = cd.ring.dual[a]
    return dagger_value(path_vector(cd, (a, x, ab), y, (a, e, y)))


def _rotation_isometry(cd, a1, a2, b):
    """phi: [dual(b)] -> [dual(a1), dual(a2)], the rigidity dual of the tree
    psi_b: b -> a2 (x) a1.

    Defined by (psi_b (x) phi) cup_b = nested cups, which fixes the phase
    (Frobenius-Schur signs included); the result is normalized to an isometry.
    """
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
    # divide out the zig-zag phase of b (the Frobenius-Schur indicator)
    zig = compose_values(cd, insert(cd, (), cap_morphism(cd, bb), (bb,)),
                         insert(cd, (bb,), cup_morphism(cd, b), ()))
    zeta = zig.block(ring, bb)[0, 0] / cd.dims.dims[b]
    zeta /= abs(zeta)
    norm = compose_values(cd, dagger_value(phi), phi).block(ring, bb)[0, 0]
    if not norm.real > 1e-12:
        raise StructuralError("degenerate rotation isometry")
    phi.blocks = {c: m / (zeta * np.sqrt(norm.real))
                  for c, m in phi.blocks.items()}
    return phi


def build_tube_algebra(cd: CategoryData) -> TubeAlgebra:
    """Assemble basis, structure constants, and the star structure."""
    if cd.partial:
        raise PreconditionError("tube algebra needs full F data")
    ring = cd.ring
    if (ring.N > 1).any():
        raise StructuralError("fusion multiplicity > 1 is out of scope")
    basis = _tube_basis(cd)
    n = len(basis)
    index = {}
    for k, quad in enumerate(basis):
        index[quad] = k
    tube_mv = {quad: _tube_vector(cd, *quad) for quad in basis}

    product = np.zeros((n, n, n), dtype=complex)
    rot_cache = {}
    inner_cache = {}   # (j, a2): t_j inside the a2 strand
    glue_cache = {}    # (a1, a2, b, x1): the a2 (x) a1 -> b gluing
    for i, (x2, a2, e2, y2) in enumerate(basis):
        for j, (x1, a1, e1, y1) in enumerate(basis):
            if x2 != y1:
                continue
            ab1, ab2 = ring.dual[a1], ring.dual[a2]
            if (j, a2) not in inner_cache:
                # [a2,a1,x1,ab1,ab2] -> [a2,y1,ab2]
                inner_cache[(j, a2)] = insert(cd, (a2,), tube_mv[(x1, a1, e1, y1)],
                                              (ab2,))
            S = compose_values(cd, tube_mv[(x2, a2, e2, y2)], inner_cache[(j, a2)])
            for b in ring.channels(a2, a1):
                key = (a1, a2, b, x1)
                if key not in glue_cache:
                    if (a1, a2, b) not in rot_cache:
                        rot_cache[(a1, a2, b)] = _rotation_isometry(cd, a1, a2, b)
                    psi = path_vector(cd, (a2, a1), b, (a2, b))
                    step_phi = insert(cd, (b, x1), rot_cache[(a1, a2, b)], ())
                    step_psi = insert(cd, (), psi, (x1, ab1, ab2))
                    glue_cache[key] = compose_values(cd, step_psi, step_phi)
                E = compose_values(cd, S, glue_cache[key])
                blk = E.block(ring, y2)
                if not blk.size:
                    continue
                cols = paths(ring, (b, x1, ring.dual[b])).get(y2, [])
                for ci, path in enumerate(cols):
                    coeff = blk[0, ci]
                    if abs(coeff) > 1e-13:
                        product[i, j, index[(x1, b, path[1], y2)]] += coeff

    star = np.zeros((n, n), dtype=complex)
    zig_cache = {}
    for i, (x, a, e, y) in enumerate(basis):
        ab = ring.dual[a]
        td = dagger_value(tube_mv[(x, a, e, y)])          # [y] -> [a, x, ab]
        mid = insert(cd, (ab,), td, (a,))                 # [ab, y, a] -> [ab, a, x, ab, a]
        s1 = insert(cd, (), cap_morphism(cd, ab), (x, ab, a))
        s2 = insert(cd, (x,), cap_morphism(cd, ab), ())
        tstar = compose_values(cd, s2, compose_values(cd, s1, mid))
        if a not in zig_cache:
            zig = compose_values(cd, insert(cd, (), cap_morphism(cd, ab), (ab,)),
                                 insert(cd, (ab,), cup_morphism(cd, a), ()))
            zval = zig.block(ring, ab)[0, 0]
            zig_cache[a] = zval / abs(zval)
        zeta = zig_cache[a]
        blk = tstar.blocks.get(x)
        if blk is None or not blk.size:
            continue
        for ci, path in enumerate(paths(ring, (ab, y, a)).get(x, [])):
            coeff = blk[0, ci] / zeta
            if abs(coeff) > 1e-13:
                star[i, index[(y, ab, path[1], x)]] += coeff
    return TubeAlgebra(basis=basis, product=product, star=star, cd=cd)


def _central_elements(tube: TubeAlgebra):
    """Basis of the center of the tube algebra (nullspace of ad)."""
    n = tube.dim
    C = tube.product
    # row (j, k), column i: (t_i t_j - t_j t_i)_k, so big @ z = 0 iff z is central
    big = (C.transpose(1, 2, 0) - C.transpose(0, 2, 1)).reshape(n * n, n)
    _u, s, vh = np.linalg.svd(big, full_matrices=False)
    keep = s < 1e-9 * max(1.0, s[0])
    return vh[keep].conj().T  # columns span the center


def _minimal_idempotents(tube: TubeAlgebra, seed):
    """Minimal central idempotents via a seeded random central element."""
    Z = _central_elements(tube)
    m = Z.shape[1]
    rng = np.random.default_rng((seed, 1))
    attempts = 4
    min_gap = np.inf
    for attempt in range(attempts):
        coeff = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        h = Z @ coeff
        h = h + tube.star_vector(h)
        # regular action of h restricted to the center
        Hz = np.tensordot(h, tube.product, 1).T @ Z
        A, resid, *_ = np.linalg.lstsq(Z, Hz, rcond=None)
        w, V = np.linalg.eig(A)
        if m > 1:
            gap = np.min(np.abs(w[:, None] - w[None, :]) + np.eye(m))
            min_gap = min(min_gap, gap)
            if gap < 1e-6:
                continue  # eigenvalue collision: retry
        idems = []
        for k in range(m):
            v = Z @ V[:, k]
            sq = tube.multiply(v, v)
            lead = np.argmax(np.abs(v))
            gamma = sq[lead] / v[lead]
            if abs(gamma) < 1e-10:
                break
            p = v / gamma
            if np.max(np.abs(tube.multiply(p, p) - p)) > 1e-8:
                break
            idems.append(p)
        else:
            total = np.sum(idems, axis=0)
            if np.max(np.abs(total - tube.unit_vector())) < 1e-7:
                return idems
    raise StructuralError(
        f"central idempotent refinement failed after {attempts} attempts "
        f"(smallest eigenvalue gap {min_gap:.2e})")


def _block_representation(tube: TubeAlgebra, p, seed):
    """One irreducible module of the block cut out by the idempotent p.

    Returns (basis, pi, nk): the n x nk module basis, and pi[i] the nk x nk
    matrix of t_i on it.
    """
    n = tube.dim
    C = tube.product
    u, s, vh = np.linalg.svd(np.tensordot(p, C, 1).T)  # left multiplication by p
    rank = int(np.sum(s > 1e-8 * s[0]))
    nk = int(round(np.sqrt(rank)))
    if nk * nk != rank:
        raise StructuralError(f"block rank {rank} is not a perfect square")
    Scols = u[:, :rank]  # ONB of the left ideal p * Tube
    # right multiplication by a random element commutes with the left action
    rng = np.random.default_rng((seed, 2))
    attempts = 6
    no_group = 0
    min_dev = np.inf
    for attempt in range(attempts):
        r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        right = ((r + tube.star_vector(r)) @ C).T  # v -> v * (r + r*)
        K = Scols.conj().T @ right @ Scols
        w_eig, V = np.linalg.eig(K)
        # group eigenvalues; each group of size nk spans one copy
        order = np.argsort(w_eig.real + 1e-3 * w_eig.imag)
        w_eig = w_eig[order]
        V = V[:, order]
        groups = []
        for idx, lam in enumerate(w_eig):
            if groups and abs(lam - w_eig[groups[-1][-1]]) < 1e-7 * max(1.0, abs(lam)):
                groups[-1].append(idx)
            else:
                groups.append([idx])
        good = [g for g in groups if len(g) == nk]
        if not good:
            no_group += 1
            continue
        cols = good[0]
        basis_vecs = Scols @ V[:, cols]  # n x nk: one copy of the simple module
        # LB[i, c] is t_i times basis vector c; one least-squares solve for all i
        LB = basis_vecs.T @ C
        sol = np.linalg.lstsq(basis_vecs, LB.reshape(n * nk, n).T, rcond=None)[0]
        pi = sol.reshape(nk, n, nk).transpose(1, 0, 2)
        dev = float(np.max(np.abs(basis_vecs @ pi - LB.transpose(0, 2, 1))))
        min_dev = min(min_dev, dev)
        if dev < 1e-7:
            return basis_vecs, pi, nk
    raise StructuralError(
        f"failed to isolate an irreducible tube module after {attempts} attempts "
        f"({no_group} found no {nk}-fold eigenvalue; smallest invariance "
        f"deviation {min_dev:.2e})")


def _unitarize(tube, pi, nk):
    """Inner product making pi a *-representation: pi(t)^dag G = G pi(t*)."""
    pi_star = np.tensordot(tube.star, pi, 1)  # pi(t_i^*)
    eye = np.eye(nk)
    # constraint pi(t_i)^dag G - G pi(t_i*) = 0; row-major vectorization:
    # vec(A G) = (A kron I) vec(G), vec(G B) = (I kron B^T) vec(G)
    big = (np.einsum("ica,bd->iabcd", pi.conj(), eye)
           - np.einsum("ac,idb->iabcd", eye, pi_star)).reshape(-1, nk * nk)
    _u, s, vh = np.linalg.svd(big, full_matrices=False)
    null = vh[s < 1e-8 * max(1.0, s[0])].conj().T
    if null.shape[1] == 0:
        raise StructuralError("no invariant inner product found for tube module")
    G = null[:, 0].reshape(nk, nk)
    G = (G + G.conj().T) / 2
    w, V = np.linalg.eigh(G)
    if np.all(w < 0):
        G, w = -G, -w
    if np.any(w < 1e-10):
        raise StructuralError("invariant form is not definite")
    B = np.linalg.cholesky(G).conj().T
    out = B @ pi @ np.linalg.inv(B)
    dev = float(np.max(np.abs(np.tensordot(tube.star, out, 1)
                              - out.conj().transpose(0, 2, 1))))
    if dev > 1e-7:
        raise StructuralError(f"unitarization failed (star deviation {dev:.2e})")
    return out


def _half_braiding_from_block(cd, tube, pi, nk):
    """Copies, multiplicity vector, and half-braiding components of a block."""
    ring = cd.ring
    n = tube.dim
    # orthonormal bases of the x-isotypic pieces H_x = pi(1_x) V
    proj = {}
    for i, (x, a, e, y) in enumerate(tube.basis):
        if a == 0 and x == y:
            proj[x] = pi[i]
    copies = []
    frames = {}
    for x in sorted(proj):
        P = proj[x]
        w, V = np.linalg.eigh((P + P.conj().T) / 2)
        cols = V[:, w > 0.5]
        if cols.shape[1]:
            frames[x] = cols
            copies += [(x, m) for m in range(cols.shape[1])]
    mult = np.zeros(ring.rank, dtype=np.int64)
    for x, cols in frames.items():
        mult[x] = cols.shape[1]

    half = {}
    for a in range(ring.rank):
        ab = ring.dual[a]
        comp = {}
        # solve sum_c W[e, c] sigma_c = pi-elements for each copy pair
        for (x, mx) in copies:
            for (y, my) in copies:
                cs = [c for c in ring.channels(a, x) if ring.N[y, a, c]]
                if not cs:
                    continue
                tubes = [(x, a, e, y) for e in ring.channels(a, x)
                         if ring.N[e, ab, y]]
                if not tubes:
                    continue
                W = np.zeros((len(tubes), len(cs)), dtype=complex)
                rhs = np.zeros(len(tubes), dtype=complex)
                for ti, quad in enumerate(tubes):
                    tv = _tube_vector(cd, *quad)
                    td = dagger_value(tv)                     # [y] -> [a, x, ab]
                    for ci, c in enumerate(cs):
                        sg = MorphismValue(source=(a, x), target=(y, a),
                                           blocks={c: np.array([[1.0 + 0j]])})
                        step = insert(cd, (), sg, (ab,))       # [a,x,ab] -> [y,a,ab]
                        capa = insert(cd, (y,), cap_morphism(cd, a), ())
                        mv = compose_values(cd, capa, compose_values(cd, step, td))
                        blk = mv.block(ring, y)
                        W[ti, ci] = blk[0, 0] if blk.size else 0.0
                    k = tube.basis.index(quad)
                    mat = pi[k]
                    rhs[ti] = (frames[y][:, my].conj() @ mat @ frames[x][:, mx])
                sigma, *_ = np.linalg.lstsq(W, rhs, rcond=None)
                # the tube inner product weights the x-sector by d_x relative
                # to the categorical tree normalization
                w = np.sqrt(cd.dims.dims[x] / cd.dims.dims[y])
                for ci, c in enumerate(cs):
                    comp.setdefault(c, {})[((y, my), (x, mx))] = sigma[ci] * w
        half[a] = comp

    # per-a rescale to unitarity (fixes the positive normalization freedom)
    for a in range(ring.rank):
        comp = half[a]
        scales = []
        for c in comp:
            rows = sorted({yy for (yy, xx) in comp[c]})
            colsl = sorted({xx for (yy, xx) in comp[c]})
            M = np.array([[comp[c].get((yy, xx), 0.0) for xx in colsl] for yy in rows])
            if M.size:
                g = M.conj().T @ M
                scales.append(np.sqrt(np.trace(g).real / g.shape[0]))
        if not scales:
            continue
        s0 = float(np.mean(scales))
        if abs(s0) < 1e-12:
            raise StructuralError("vanishing half-braiding block")
        if max(abs(s - s0) for s in scales) > 1e-6 * max(1.0, s0):
            raise StructuralError("inconsistent half-braiding normalization")
        for c in comp:
            for key in comp[c]:
                comp[c][key] /= s0
    return copies, mult, half


def _sigma_generator(cd, z: CenterObject, a, copy_out, copy_in) -> MorphismValue:
    """sigma component as a morphism [a, x] -> [y, a] between chosen copies."""
    (y, my), (x, mx) = copy_out, copy_in
    blocks = {}
    for c, table in z.half_braiding.get(a, {}).items():
        v = table.get((copy_out, copy_in))
        if v is not None and abs(v) > 0:
            blocks[c] = np.array([[v]])
    return MorphismValue(source=(a, x), target=(y, a), blocks=blocks)


def half_braiding_check(cd: CategoryData, z: CenterObject) -> list:
    """Composite-channel axioms for the half-braiding components.

    For all simples a, b and every channel g of a (x) b, the component of
    sigma at g must match the two-step braid conjugated by the fusion tree,
    and sigma at the unit must be the identity.
    """
    ring = cd.ring
    report = []
    tol = max(cd.tolerance * 1e3, 1e-7)
    # unit component
    for c, table in z.half_braiding.get(0, {}).items():
        for ((yc, my), (xc, mx)), v in table.items():
            want = 1.0 if (yc, my) == (xc, mx) else 0.0
            if abs(v - want) > tol:
                report.append(f"sigma_0 not identity at {((yc, my), (xc, mx))}")
    for a in range(ring.rank):
        for b in range(ring.rank):
            for ci in z.copies:
                for co in z.copies:
                    # two-step: (sigma_a (x) id_b) (id_a (x) sigma_b) on [a, b, x]
                    two = {}
                    for mid in z.copies:
                        s_b = _sigma_generator(cd, z, b, mid, ci)
                        s_a = _sigma_generator(cd, z, a, co, mid)
                        if not s_b.blocks or not s_a.blocks:
                            continue
                        term = compose_values(
                            cd, insert(cd, (), s_a, (b,)),
                            insert(cd, (a,), s_b, ()))
                        for t, blk in term.blocks.items():
                            if blk.size:
                                two[t] = two.get(t, np.zeros_like(blk)) + blk
                    x = ci[0]
                    y = co[0]
                    for g in ring.channels(a, b):
                        # conjugate by the tree g -> a (x) b on both sides
                        psi_in = insert(cd, (), path_vector(cd, (a, b), g, (a, g)), (x,))
                        psi_out = insert(cd, (y,), dagger_value(
                            path_vector(cd, (a, b), g, (a, g))), ())
                        gmv = _sigma_generator(cd, z, g, co, ci)
                        composite = compose_values(
                            cd, psi_out,
                            compose_values(
                                cd,
                                MorphismValue(source=(a, b, x), target=(y, a, b),
                                              blocks=two),
                                psi_in))
                        dev = 0.0
                        for t in set(composite.blocks) | set(gmv.blocks):
                            diff = composite.block(ring, t) - gmv.block(ring, t)
                            if diff.size:
                                dev = max(dev, float(np.max(np.abs(diff))))
                        if dev > tol:
                            report.append(
                                f"hexagon fails at a={a}, b={b}, g={g}, "
                                f"copies {ci}->{co}: dev={dev:.3e}")
    return report


def _is_unit_object(cd, z: CenterObject) -> bool:
    """The tensor unit of the center: unit underlying and trivial half-braiding."""
    if abs(z.dim - 1.0) > 1e-8 or z.underlying[0] != 1:
        return False
    for a, comp in z.half_braiding.items():
        for c, table in comp.items():
            for (out_c, in_c), v in table.items():
                want = 1.0 if out_c == in_c else 0.0
                if abs(v - want) > 1e-6:
                    return False
    return True


def _center_twist(cd, z: CenterObject) -> complex:
    total = 0.0 + 0.0j
    for copy in z.copies:
        sg = _sigma_generator(cd, z, copy[0], copy, copy)
        if sg.blocks:
            total += categorical_trace(cd, MorphismValue(
                source=sg.source, target=sg.source, blocks=sg.blocks))
    return complex(total / z.dim)


def _center_s_entry(cd, z: CenterObject, w: CenterObject) -> complex:
    ring = cd.ring
    total = 0.0 + 0.0j
    for cz in z.copies:
        for cw in w.copies:
            x, xp = cz[0], cw[0]
            a1 = _sigma_generator(cd, w, x, cw, cw)     # [x, xp] -> [xp, x]
            a2 = _sigma_generator(cd, z, xp, cz, cz)    # [xp, x] -> [x, xp]
            if not a1.blocks or not a2.blocks:
                continue
            total += categorical_trace(cd, compose_values(cd, a2, a1))
    return complex(total)


def decompose_center(tube: TubeAlgebra, seed=0) -> CenterData:
    """Simple center objects with dims, twists, half-braidings, S and T.

    Deterministic given the seed; the reported (underlying, dim, twist)
    data is seed-independent, and simples are ordered canonically by
    (dim, twist angle, multiplicity vector).
    """
    cd = tube.cd
    d = cd.dims.dims
    idems = _minimal_idempotents(tube, seed)
    simples = []
    for p in idems:
        vecs, pi, nk = _block_representation(tube, p, seed)
        pi = _unitarize(tube, pi, nk)
        copies, mult, half = _half_braiding_from_block(cd, tube, pi, nk)
        dim = float(sum(d[x] * m for x, m in enumerate(mult)))
        z = CenterObject(underlying=mult, half_braiding=half, copies=copies,
                         twist=1.0, dim=dim)
        z.twist = _center_twist(cd, z)
        simples.append(z)
    simples.sort(key=lambda z: (not _is_unit_object(cd, z), round(z.dim, 9),
                                round(float(np.angle(z.twist)), 9),
                                tuple(z.underlying)))
    r = len(simples)
    S = np.zeros((r, r), dtype=complex)
    for i in range(r):
        for j in range(r):
            S[i, j] = _center_s_entry(cd, simples[i], simples[j])
    T = np.diag([z.twist for z in simples])
    return CenterData(simples=simples, S=S, T=T, cd=cd)


def center_global_checks(center: CenterData) -> dict:
    """Sum of dim^2, S invertibility, and the self-centralizer of Z(C)."""
    cd = center.cd
    dims = np.array([z.dim for z in center.simples])
    total = float(np.sum(dims ** 2))
    D = cd.dims.global_dim
    S = center.S
    smin = np.linalg.svd(S, compute_uv=False)[-1] if len(S) else 0.0
    nondeg = bool(smin > len(S) * 1e-8)
    transparent = [i for i in range(len(S))
                   if all(abs(S[i, j] - dims[i] * dims[j]) < 1e-6
                          for j in range(len(S)))]
    return {
        "sum_dim_sq": total, "global_dim_sq": D ** 2,
        "dims_identity": abs(total - D ** 2) < 1e-6,
        "nondegenerate": nondeg,
        "self_centralizer": transparent,
        "trivial_centralizer": (
            len(transparent) == 1
            and abs(dims[transparent[0]] - 1.0) < 1e-6
            and abs(center.simples[transparent[0]].twist - 1.0) < 1e-6),
    }


def lagrangian_algebra(cd: CategoryData, center: CenterData):
    """The canonical Lagrangian algebra of Z(C) in a braided presentation.

    The support is read from the unit multiplicities of the tube simples.
    On the pointed presentation (trivial F, R = 1 on the dual-group factor)
    the multiplication is the group algebra's.  On C (x) reverse(C) it is
    the Longo-Rehren algebra on the pairs (c, dual c), in closed form (see
    algebra._conjugate_vertex_algebra): modulus (d_a d_b / d_c)^{1/2} and a
    phase evaluated once per vertex of C from its braided mate, times the
    sign s_c that cancels the Frobenius-Schur sign of the unsigned cups and
    caps.  Nothing is solved for.  Either way the dimension, the Q-system
    axioms and commutativity are checked.  Returns (presentation, algebra,
    support_indices_in_center).
    """
    mults = [int(z.underlying[0]) for z in center.simples]
    if any(m > 1 for m in mults):
        raise StructuralError("a center simple has unit multiplicity > 1; "
                              "Lagrangian algebra out of scope")
    chosen = [i for i, m in enumerate(mults) if m == 1]
    pres, support = center_presentation(cd, center)
    if _presents_center_as_product(cd):
        alg = _conjugate_vertex_algebra(cd, support, braided=True)
    else:
        alg = group_algebra(pres, support)
    dQ = algebra_dim(pres, alg)
    DZ = pres.dims.global_dim
    if abs(dQ ** 2 - DZ) > 1e-6:
        raise StructuralError(
            f"Lagrangian dimension check failed: dim^2 = {dQ**2:.6f}, D = {DZ:.6f}")
    rep = verify_qsystem(pres, alg)
    if not rep.passed:
        raise StructuralError(f"Lagrangian candidate fails Q-system axioms: "
                              f"{rep.residuals}")
    comm, resid = is_commutative(pres, alg)
    if not comm:
        raise StructuralError(f"Lagrangian candidate not commutative ({resid:.2e})")
    return pres, alg, tuple(chosen)


def _presents_center_as_product(cd: CategoryData) -> bool:
    """True when Z(C) is presented as C (x) reverse(C), i.e. cd is
    nondegenerately braided; otherwise only the pointed presentation applies."""
    return cd.R is not None and is_nondegenerate(cd)


def center_presentation(cd: CategoryData, center: CenterData):
    """An explicit braided CategoryData presenting Z(C), plus the Lagrangian
    support in its labels.

    Nondegenerately braided cd: C (x) reverse(C), Lagrangian on the pairs
    (c, dual c).  Pointed cd with trivial associator built from a quadratic
    form: the double of the group, Lagrangian on the dual-group factor.
    """
    if _presents_center_as_product(cd):
        pres = deligne_product_data(cd, reverse_braiding(cd))
        r = cd.ring.rank
        support = tuple(c * r + cd.ring.dual[c] for c in range(r))
        return pres, support
    qf = cd.quadratic_form
    if qf is not None and cd.is_pointed():
        if any(abs(v - 1.0) > 1e-12 for v in cd.F.entries.values()):
            raise PreconditionError(
                "pointed presentation requires a trivial associator")
        k = len(qf.group)
        dbl = QuadraticForm(group=qf.group + qf.group,
                            t=(0,) * (2 * k),
                            cross={(i, k + i): 1 for i in range(k)})
        pres = pointed_from_quadratic_form(dbl, name=f"double({cd.name})")
        els = dbl.elements()
        support = tuple(i for i, g in enumerate(els)
                        if all(x == 0 for x in g[:k]))
        return pres, support
    raise PreconditionError(
        "no braided presentation of the center available for this category")


def theorem_c_shadow(cd: CategoryData, seed=0) -> dict:
    """The categorical assertions consumed by the non-Gamma classification.

    (i) sum of center dims^2 equals global_dim^2; (ii) the center S-matrix
    is invertible; (iii) the center centralizes only its unit; (iv) the
    canonical Lagrangian condenses to a single simple local module.
    """
    tube = build_tube_algebra(cd)
    center = decompose_center(tube, seed=seed)
    checks = center_global_checks(center)
    result = {
        "center_rank": len(center.simples),
        "dims": [z.dim for z in center.simples],
        "twists": [z.twist for z in center.simples],
        "i_dims_identity": checks["dims_identity"],
        "ii_nondegenerate": checks["nondegenerate"],
        "iii_trivial_centralizer": bool(checks["trivial_centralizer"]),
    }
    pres, alg, chosen = lagrangian_algebra(cd, center)
    # lagrangian_algebra has run verify_qsystem and is_commutative on (pres, alg)
    from .local_modules import _condensation_identity, _require_condensable
    _require_condensable(pres, alg)
    cond = _condensation_identity(pres, alg, seed)
    result["iv_lagrangian_condenses_trivially"] = bool(
        cond["passed"] and cond["n_simples"] == 1)
    result["passed"] = all(result[k] for k in (
        "i_dims_identity", "ii_nondegenerate", "iii_trivial_centralizer",
        "iv_lagrangian_condenses_trivially"))
    return result
