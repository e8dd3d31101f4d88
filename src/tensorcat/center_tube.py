"""Drinfeld center computation via the tube algebra.

The tube algebra has one basis vector per admissible quadruple (x, a, e, y)
with N^e_{ax} = N^y_{e, dual(a)} = 1, realized as the orthonormal tree
vector in Hom(a (x) x (x) dual(a) -> y).  Products glue annuli: the a-strands
fuse through every channel b with the dual leg closed off by rotation
isometries.  Each coefficient of that gluing diagram is a single product of
F-moves, the unfold entries the evaluator would multiply, times a rotation
phase per vertex (a1, a2, b), joined over the admissible label tuples and
read from F by lookup, as is everything here; the tests hold the result to
the diagrams in random gauges of F and check it associative and C*.

t_(x,a,e,y) maps the sector x to y, and t_i t_j is nonzero only when t_j
ends where t_i starts.  So the structure constants are stored as one block
per chain of sectors x -> y -> z, n_yz x n_xy x n_xz entries: 5.2 MiB for
ising (x) fib (x) fib (dimension n = 588), where a dense n^3 array would
take 3.0 GiB.  Products and the left regular action are contractions over
blocks; no star is stored (see _corner_projections).

The center lives in the diagonal corners p_x Tube p_x (Izumi 2000, Mueger
2003), which are small: at most 16 of the 144 basis elements of ising (x)
ising.  A corner is the sum, over the simples Z of the center, of the
blocks p_Z p_x Tube p_x, each of m_x(Z) x m_x(Z) matrices.  The seeded
split (category_data.seeded_split) of the left action of a random hermitian
element, self-adjoint for the trace form, gives one minimal projection q
per block (_corner_projections), every corner at once; tr(L_q R_q')
= dim(q p_x Tube p_x q') tells which eigenvalue clusters share a block.
q spans one copy of Z's irreducible module, the left ideal Tube q.  Only
Z's projection in its corner of least multiplicity is built, so no module
twice, in batches of equal module size across corners (_corner_simples).
From each come the multiplicity vector over Irr(C), the half-braiding
(module matrix entries conjugated, each times one F entry), the dimension
and the traces S and T contract, held only where they can be nonzero.
half_braiding_check holds the half-braiding to its axioms, joined over
the admissible label tuples with F read by lookup.  It and the tube build
walk category_data._blocks, a block of label pairs at a time, sized by the
rows counted from N before the join.

Conventions: the half-braiding sigma_{c,z}: c (x) z -> z (x) c carries the
strand of the ambient category over the center object's strand; the braiding
of two center objects (z, sigma) and (w, rho) is rho evaluated at z.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .algebra import (_conjugate_vertex_algebra, _rotation_phases, algebra_dim,
                      group_algebra, is_commutative, verify_qsystem)
from .category_data import (CategoryData, QuadraticForm, SeededDraws, _ChannelJoin, _blocks,
                            _expand, _read_all, _sums, _trees, deligne_product_data,
                            pointed_from_quadratic_form, reverse_braiding, seeded_split)
from .braided_analysis import _unitarity_dev, is_nondegenerate
from .errors import PreconditionError, StructuralError

__all__ = [
    "TubeAlgebra", "CenterObject", "CenterData", "build_tube_algebra",
    "decompose_center", "half_braiding_check", "lagrangian_algebra",
    "theorem_c_shadow", "center_presentation",
]


@dataclass
class TubeAlgebra:
    """Basis and structure constants of a tube algebra, stored by sector.

    The sector (x, y) holds the basis vectors t_(x,a,e,y) from x to y, and
    a product t_i t_j is nonzero only when t_j ends where t_i starts, so
    the structure constants live in one block per chain x -> y -> z.
    """
    basis: np.ndarray   # (dim, 4) integer rows (x, a, e, y), ascending
    sectors: dict       # (x, y) -> ascending indices of the t_(x, ., ., y), by first index
    blocks: dict        # (x, y, z) -> (n_yz, n_xy, n_xz): [i, j, k] = coefficient of t_k
                        # in t_i * t_j, positions in sectors (y, z), (x, y) and (x, z); held
                        # in memory as [j, i, k], so P.transpose(1, 0, 2) is contiguous
    cd: CategoryData

    @property
    def dim(self):
        return len(self.basis)

    def unit_vector(self):
        return ((self.basis[:, 1] == 0) & (self.basis[:, 0] == self.basis[:, 3])).astype(complex)

    @functools.cached_property
    def _leaving(self):
        """x -> (J, ends, at): the t_j leaving x, sector by sector, sectors
        ascending, as tube indices J, the sector ends[i] each ends in, and
        at[y] the slice of J in sector y."""
        out = {}
        for x, y in sorted(self.sectors):
            J, ends, at = out.setdefault(x, ([], [], {}))
            at[y] = slice(len(J), len(J) + len(self.sectors[x, y]))
            J += self.sectors[x, y].tolist()
            ends += [y] * len(self.sectors[x, y])
        return {x: (np.array(J), np.array(ends), at) for x, (J, ends, at) in out.items()}

    def trace_weights(self):
        """w_i = tau(t_i^* t_i) = d_y / d_a for t_i = t_(x,a,e,y), an orthonormal
        tree: the trace form tau(u^* v) is diagonal on the basis, with these
        positive weights (the tests hold both to the products and the oracle star)."""
        d = self.cd.dims.dims
        return d[self.basis[:, 3]] / d[self.basis[:, 1]]

@dataclass
class CenterObject:
    underlying: np.ndarray        # multiplicity vector over Irr(C)
    half_braiding: np.ndarray     # [a, c, copy_out, copy_in] = sigma_a on channel c,
                                  # 0 off the blocks of tube basis vectors
    copies: list                  # ordered list of (x, m) copy labels
    twist: complex
    dim: float


@dataclass
class CenterData:
    simples: list
    S: np.ndarray
    T: np.ndarray
    cd: CategoryData


def build_tube_algebra(cd: CategoryData) -> TubeAlgebra:
    """Basis and structure constants, read from the F-moves.

    The product t_(y,a2,e2,z) t_(x,a1,e1,y) glues the a-strands through each
    channel b of a2 (x) a1: the diagram

        t_i (id_a2 (x) t_j (x) id_ab2) (psi_b (x) id) (id_(b,x) (x) phi_b)

    on [b, x, dual b], with psi_b the tree b -> a2 (x) a1 and phi_b its
    rotation isometry.  Evaluated on the path (b, f, z) it is a single term:
    phi_b times the three unfold entries the evaluator would multiply.  These
    are F-moves, the one of psi_b on a unit leg and so 1:

        conj F^{f ab1 ab2}_z[e2, bb] * F^{a2 a1 x}_f[b, e1] * F^{a2 e1 ab1}_{e2}[f, y],

    the coefficient of t_(x,b,f,z), with phi_b a phase per vertex (a1, a2, b)
    (algebra._rotation_phases).  The tuples (a1, a2, b, x, e1, y, e2, z, f)
    are joined with no dual label (N^y_{e ab} = N^e_{ya}), a block of pairs
    (a1, a2) of _blocks at a time, each counted as one row per product
    t_i t_j, channel b and, at most, f in b (x) x: a small tube is one block.
    A block's three F-move sets are one lookup, scattered into one buffer
    that the blocks view.  The basis is the join of (x, a, e, y), walked by
    _blocks of pairs (x, a), its rows ascending: so t_(x,a,e,y) is found
    from two (rank, rank, rank) tables, and its place in its sector from
    one stable sort by sector.  Coefficients at or below the noise floor
    are dropped.
    """
    if cd.partial:
        raise PreconditionError("tube algebra needs full F data")
    ring = cd.ring
    if (ring.N > 1).any():
        raise StructuralError("fusion multiplicity > 1 is out of scope")
    N, rank, dual, floor = ring.N, ring.rank, np.asarray(ring.dual), cd.noise_floor
    join = _ChannelJoin(ring)
    runs = N.transpose(1, 0, 2) * N.sum(axis=0)         # [x, a, e]: how many t_(x,a,e,.)
    heads = runs.sum(axis=2)                            # [x, a]
    basis = []
    for x, a in _blocks(heads):
        q = join.tuples("axe yae", x=x, a=a)
        basis.append(np.stack([q[k] for k in "xaey"], axis=1))
    basis = np.concatenate(basis)                       # ascending in (x, a, e, y)
    sector = basis[:, 0] * rank + basis[:, 3]
    n = np.bincount(sector, minlength=rank * rank)      # the sector sizes
    first = np.cumsum(n) - n
    order = np.argsort(sector, kind="stable")           # each sector's members, ascending
    pos = np.empty_like(order)                          # a basis vector's place in its sector
    pos[order] = np.arange(len(order)) - first[sector[order]]
    # t_(x,a,e,y) is the first t_(x,a,e,.) plus the number of y' < y with N^e_{y'a}
    lead = (np.cumsum(runs) - runs.ravel()).reshape(runs.shape)
    below = np.cumsum(N, axis=0).transpose(1, 2, 0) - N.transpose(1, 2, 0)     # [a, e, y]

    def at(x, a, e, y):
        return pos[lead[x, a, e] + below[a, e, y]]

    n = n.reshape(rank, rank)
    keys = np.flatnonzero(n)
    sectors = {divmod(k, rank): order[first[k]:first[k] + n.flat[k]]    # by first appearance
               for k in keys[np.argsort(order[first[keys]])].tolist()}
    shapes = {(x, y, z): (n[x, y], n[y, z], n[x, z])    # one buffer, a view per block
              for (x, y) in sectors for z in range(rank) if n[y, z] and n[x, z]}
    sizes = [math.prod(shape) for shape in shapes.values()]
    offsets = np.cumsum(sizes) - sizes
    start = np.zeros((rank,) * 3, dtype=np.intp)
    start[tuple(np.array(list(shapes)).T)] = offsets
    buf = np.zeros(sum(sizes), dtype=complex)
    _zeta, phi = _rotation_phases(cd)
    ends = np.bincount(basis[:, 1] * rank + basis[:, 3], minlength=rank * rank)   # [a, y]
    for a, c in _blocks(ends.reshape(rank, rank) @ heads * (N @ N.sum(2).max(1)).T):
        t = join.tuples("cab axe yae cyg zcg bxf cef gaf zbf", a=a, c=c)
        a, b, c, x, e, y, g, z, f = (t[k] for k in "abcxeygzf")
        f1, f2, f3 = _read_all(cd.F, (f, dual[a], dual[c], z, g, dual[b]), (c, a, x, f, b, e),
                               (c, e, dual[a], g, f, y))
        v = phi[a, c, b] * f1.conjugate() * f2 * f3
        keep = np.abs(v) > floor
        buf[(start[x, y, z] + (at(x, a, e, y) * n[y, z] + at(y, c, g, z)) * n[x, z]
             + at(x, b, f, z))[keep]] = v[keep]
    return TubeAlgebra(basis=basis, sectors=sectors, cd=cd, blocks={
        k: buf[o:o + m].reshape(shape).transpose(1, 0, 2)
        for (k, shape), o, m in zip(shapes.items(), offsets.tolist(), sizes)})


_ENTRIES = 1 << 19     # complex entries a batch of corner modules holds at once, read by _batches


def _corner_projections(tube: TubeAlgebra, xs, weights, rng, whole=lambda mult, x, Q: None):
    """(mult, x, Q, gap), one row per block of each corner p_x Tube p_x, x
    in xs: row Q[i] is a minimal projection q of the corner x[i], in its
    coordinates tube.sectors[x, x] and padded with zeros, under the block
    M_m of one center simple Z, the first of the block's m eigenvalue
    clusters of a random hermitian h, and mult[i] is Z's multiplicity
    vector, m = mult[i, x[i]].  Rows come by corner and, within one, by
    eigenvalue; gap is the smallest eigenvalue gap cut.

    Left multiplication is a *-representation for the trace inner product,
    diagonal on the basis with the given weights: with m = diag(sqrt w) L_h
    diag(1/sqrt w), m + m^dagger is the matrix of h + h^*, and seeded_split
    splits it, h drawn from rng corner by corner.  On a block M_m each of
    h's m eigenvalues appears m times, and the spectral projection at one of
    them is left multiplication by q: q is that projection applied to the
    unit, and m is the size of the cluster.  dim(q p_x Tube p_x q') =
    tr(L_q R_q') is 1 when the clusters' q and q' lie under one block and 0
    otherwise, so only the first of a block is kept.  A collision of
    eigenvalues shows as tr(L_q R_q) != 1, and that corner draws again.
    Once every corner is split, whole(mult, x, Q) may name a reason to split
    them all again.  Right multiplication by q projects p_y Tube p_x onto
    p_y Tube q, so its trace there, read from _right_traces, is m_y(Z).
    """
    cd, S = tube.cd, tube.sectors
    unit = np.sqrt(weights) * tube.unit_vector()
    T = _right_traces(tube)
    found = []

    def hermitian(x, h):
        sw = np.sqrt(weights[S[x, x]])
        m = sw[:, None] * np.einsum("i,ijk->kj", h, tube.blocks[x, x, x]) / sw
        return [m + m.conj().T]         # diag(sqrt w) L_(h + h^*) diag(1/sqrt w)

    def split():
        mult, x, Q = (np.concatenate(f) for f in zip(*found))
        order = np.argsort(x, kind="stable")
        return mult[order], x[order], Q[order]

    def accept(stacks):
        failed = {}
        for g, _j, V, cluster in stacks:
            D = np.array([S[x, x] for x in g])
            P, sw = np.array([tube.blocks[x, x, x] for x in g]), np.sqrt(weights[D])
            g, n = np.array(g), V.shape[1]
            # each cluster's eigenvectors times their overlaps with the unit, summed
            W = V * np.einsum("gij,gi->gj", V.conj(), unit[D])[:, None]
            Q = (W @ (cluster[:, :, None] == np.arange(n))).transpose(0, 2, 1) / sw[:, None]
            # tr(L_q R_q'), the dimension of q p_x Tube p_x q', one matmul against R_q' with
            # its last two axes swapped: 1 exactly when q and q' are minimal under one block
            L = Q @ P.reshape(len(g), n, -1)
            R = Q @ P.transpose(0, 2, 3, 1).reshape(len(g), n, -1)
            dims = (L @ R.transpose(0, 2, 1)).real                      # [g, q, q']
            del P, L, R     # not held through whole's module build
            real = np.arange(n) <= cluster[:, -1:]          # the clusters there are
            off = np.where(real, np.abs(dims.diagonal(0, 1, 2) - 1.0), 0.0).max(axis=1)
            ok = off < cd.identity_tolerance
            first = ~np.tril(dims > 0.5, -1).any(axis=2)    # no earlier cluster in its block
            i, c = np.nonzero(real & first & ok[:, None])
            q = np.zeros((len(i), T.shape[1]), dtype=complex)
            q[:, :n] = Q[i, c]
            mult = np.rint(np.einsum("cj,cjy->cy", q, T[g[i]]).real)
            found.append((mult.astype(np.intp), g[i], q))
            failed.update((x, f"corner {x}: |tr(L_q R_q) - 1| = {o:.2e}")
                          for x, o in zip(g[~ok].tolist(), off[~ok].tolist()))
        if failed or not (reason := whole(*split())):
            return failed
        found.clear()
        return dict.fromkeys(xs, reason)

    gap = seeded_split("corner split", {x: len(S[x, x]) for x in xs}, rng, hermitian, accept)
    return (*split(), gap)


def _right_traces(tube: TubeAlgebra):
    """T[x, j, y]: the trace of right multiplication by t_j, the j-th basis
    vector of the corner p_x Tube p_x, on the sector (x, y); j is padded to
    the largest corner."""
    S, rank = tube.sectors, tube.cd.ring.rank
    T = np.zeros((rank, max(len(S[x, x]) for x in range(rank)), rank), dtype=complex)
    for x, y in S:
        T[x, :len(S[x, x]), y] = np.einsum("iji->j", tube.blocks[x, x, y])
    return T


def _batches(n, cost):
    """(lo, hi) of the batches of members, in order: consecutive members of
    equal n while the next fits under _ENTRIES of cost, a member past it
    alone."""
    lo, held = 0, 0
    for i, c in enumerate(cost.tolist()):
        if held and (held + c > _ENTRIES or n[i] != n[lo]):
            yield lo, i
            lo, held = i, 0
        held += c
    if held:
        yield lo, len(n)


def _corner_modules(tube: TubeAlgebra, xs, Q, weights, readout):
    """The irreducible modules Tube q of a batch of minimal projections q,
    the rows of Q, each of the corner p_x Tube p_x at its x in xs
    (ascending) and in its coordinates (see _corner_projections), and their
    half-braidings.

    The t_j q with t_j leaving x span Tube q; a pivoted Gram-Schmidt in the
    trace inner product, which is diagonal on the basis with the given
    weights, makes an orthonormal basis of it, sector by sector, on which
    the left action is unitary.  It runs once for the batch, one pivot per
    pass and module, until every module is spanned; the t_j of a corner
    with fewer are padded with zero rows.  t_k from y to z acts only where
    a module has copies at y and at z: its action pi(t_k) is contracted from
    one tube block per such (y, z), for the modules of one corner with as
    many copies in each sector at once, conjugated and times scale[k] (see
    _half_braiding_readout), straight into the slots of the half-braiding
    array; no array of module matrices is built.

    Returns (copies, H, sector): copies[b][c] = (y, j) labels basis vector c
    of module b, the j-th in sector y, sectors ascending; H[b] is module b's
    (rank, rank, n, n) half-braiding array and sector[b, c] = y, both padded
    (H with zeros, sector with rank) to the largest module; there is no
    padding when the modules have one size, as decompose_center's batches
    have.
    """
    cd, S, rank, (slot, scale) = tube.cd, tube.sectors, tube.cd.ring.rank, readout
    runs = {}           # x -> the batch's members there, lo to hi
    for b, x in enumerate(xs.tolist()):
        runs[x] = (runs.get(x, (b,))[0], b + 1)
    width = max(len(tube._leaving[x][0]) for x in runs)
    rows = np.zeros((len(Q), width, width), dtype=complex)  # [b, j]: t_{J_j} q_b, tau-scaled
    sw, target = np.ones((len(Q), width)), np.full((len(Q), width), rank)
    key = np.full((len(Q), width), tube.dim)                # the tube index of each row
    for x, (lo, hi) in runs.items():
        J, ends, at = tube._leaving[x]
        sw[lo:hi, :len(J)], key[lo:hi, :len(J)] = np.sqrt(weights[J]), J
        target[lo:hi, :len(J)] = ends
        q = Q[lo:hi, :len(S[x, x])]
        for y, p in at.items():
            P = tube.blocks[x, x, y].transpose(1, 0, 2)
            rows[lo:hi, p, p] = (q @ P.reshape(len(P), -1)).reshape(hi - lo, len(J[p]), -1)
    rows *= sw[:, None]
    floor = cd.noise_floor * np.abs(rows).max(axis=(1, 2))
    member = np.arange(len(Q))
    sectors, vectors = [], []   # per pass, each module's pivot: its sector (rank once spanned)
    for _ in range(width):
        norms = np.sqrt(np.sum(np.abs(rows) ** 2, axis=2))
        top = norms.max(axis=1)
        done = top <= floor
        if done.all():
            break
        # the row of largest norm and least tube index, ties within split_resolution
        # included, so that the choice and with it the copy's phase do not follow rounding
        j = np.argmin(np.where(norms >= (1 - cd.split_resolution) * top[:, None], key, tube.dim),
                      axis=1)
        v = rows[member, j] * np.where(done, 0.0, 1 / np.maximum(norms[member, j], floor))[:, None]
        sectors.append(np.where(done, rank, target[member, j]))
        vectors.append(v)
        rows -= (rows @ v.conj()[:, :, None]) * v[:, None, :]
    n = len(sectors)      # the largest module's dimension
    order = np.argsort(np.transpose(sectors), axis=1, kind="stable")   # copies by sector
    sectors = np.sort(np.transpose(sectors), axis=1)                    # [b, copy]
    copies = [[(y, i - sec.index(y)) for i, y in enumerate(sec) if y < rank]
              for sec in sectors.tolist()]
    B = np.asarray(vectors)[order, member[:, None]].transpose(0, 2, 1)
    Bl, Br = (B * sw[:, :, None]).conj(), B / sw[:, :, None]
    count = (sectors[:, :, None] == np.arange(rank)).sum(axis=1)
    first = np.cumsum(count, axis=1) - count        # each sector's first copy
    H = np.zeros((len(Q), rank * rank, n, n), dtype=complex)
    layouts = {}        # the modules of one corner with as many copies in each sector
    for b, x in enumerate(xs.tolist()):
        layouts.setdefault((x, *count[b].tolist()), []).append(b)
    for (x, *_), g in layouts.items():
        _J, _ends, at = tube._leaving[x]
        bl, br, h = Bl[g], Br[g], np.zeros((len(g), rank * rank, n, n), dtype=complex)
        c = {y: slice(first[g[0], y], first[g[0], y] + count[g[0], y])
             for y in np.flatnonzero(count[g[0]]).tolist()}
        for y in c:
            for z in c:
                if (x, y, z) in tube.blocks:    # t_k from y to z: the modules' sector y to z
                    P = tube.blocks[x, y, z].transpose(1, 0, 2)
                    T = br[:, at[y], c[y]].transpose(0, 2, 1) @ P.reshape(len(P), -1)
                    A = T.reshape(len(g), -1, P.shape[2]) @ bl[:, at[z], c[z]]  # [b, (c, k), C]
                    A = A.reshape(len(g), -1, P.shape[1], A.shape[2]).transpose(0, 2, 3, 1)
                    h[:, slot[S[y, z]], c[z], c[y]] = A.conj() * scale[S[y, z], None, None]
        H[g] = h
    return copies, H.reshape(len(Q), rank, rank, n, n), sectors


def _half_braiding_readout(tube: TubeAlgebra):
    """(slot, scale), one entry per tube basis vector, with sigma_a(c) =
    scale[k] conj(pi(t_k)) at t_k = t_(x,a,c,y), and slot[k] = a * rank + c
    its place in the flattened first two axes of a half-braiding array.

    A half-braiding closed against the basis tree with a cap on a is a
    matrix unit of its block; only the channel c = e survives, as one
    F-move sqrt(d_a) F^{y a ab}_y[c, 0] (ab = dual(a)), and by Schur
    orthogonality for the trace form the coefficient of t_k in a matrix
    unit is conj(pi(t_k)) over the weight of t_k, so scale[k] is
    sqrt(d_x / d_y) / (sqrt(d_a) F^{y a ab}_y[c, 0]).  A vertex gauge u
    moves t_k and pi(t_k) by g = u^{ax}_c u^{c ab}_y and scale by
    u^{ya}_c u^{c ab}_y, so sigma moves by u^{ya}_c / u^{ax}_c as it must
    (pi would be off by g^2); pi is unitary, and so is sigma.
    """
    cd = tube.cd
    d, dual = cd.dims.dims, np.asarray(cd.ring.dual)
    x, a, c, y = tube.basis.T
    return (a * cd.ring.rank + c,
            np.sqrt(d[x] / (d[y] * d[a])) / cd.F.lookup([y, a, dual[a], y, c, 0 * a]))


def half_braiding_check(cd: CategoryData, z: CenterObject) -> list:
    """The half-braiding axioms, read from F and the array z.half_braiding.

    sigma_0 must be the identity.  For all simples a, b, every channel g of
    a (x) b, every copy ci at x and co at y and every channel t,

        sum_{w, f, h} F^{abx}_t[g, f] sigma_b(f)_{w<-x} conj(F^{awb}_t[h, f])
                      sigma_a(h)_{y<-w} F^{yab}_t[h, g] = sigma_g(t)_{y<-x},

    with w over the copies, f in b (x) x and h in a (x) w: sigma_b and then
    sigma_a on a (x) b (x) x, carried by F from the tree ((ab)_g x)_t to
    (a(bx)_f)_t, then ((aw)_h b)_t and back to (y(ab)_g)_t, is sigma_g.
    The admissible tuples (a, b, g, x, t, f, w, h, y), with x, w and y
    sectors of z, are joined a block of pairs (a, b) of _blocks at a time,
    with one F lookup; each then takes the copies of its sectors.  A pair
    counts its deviations, its targets' copy pairs and, at most, their terms:
    N^t_{awb} choices of f and of h per copy at w.  An entry of sigma_g off
    the blocks of tube basis vectors has no term and counts whole.  The
    report has a line per failing copy pair of sigma_0, then per failing
    (a, b, ci, co, g), in that order.
    """
    ring, tol, H, copies = cd.ring, cd.identity_tolerance, z.half_braiding, z.copies
    report = [f"sigma_0 not identity at {(co, ci)}"
              for u, co in enumerate(copies) for v, ci in enumerate(copies)
              if co[0] == ci[0] and abs(H[0, co[0], u, v] - (u == v)) > tol]
    N, rank = ring.N, ring.rank
    sector = np.array([x for x, _m in copies], dtype=np.intp)
    count = np.bincount(sector, minlength=rank)         # the copies come sorted by sector
    first, xs = np.cumsum(count) - count, np.flatnonzero(count)
    off_block = np.einsum("git,ogt->gtoi", N[:, sector], N[sector]) == 0    # sigma_g(t): ci -> co
    stray = np.abs(H * off_block).max(axis=1, initial=0.0)                   # [g, co, ci]
    XY = np.einsum("x,gxt->gt", count, N) * np.einsum("y,ygt->gt", count, N)
    K = np.einsum("w,awbt->abt", count, _trees(N) ** 2)
    join = _ChannelJoin(ring)
    for pa, pb in _blocks(rank * len(copies) ** 2 + ((N @ XY) * (1 + K)).sum(axis=2)):
        p, x, y = np.indices((len(pa), len(xs), len(xs))).reshape(3, -1)   # p: the pair (a, b)
        out = join.tuples("abg gxt ygt", p=p, a=pa[p], b=pb[p], x=xs[x], y=xs[y])  # sigma_g(t)
        cx, cy = count[out["x"]], count[out["y"]]
        one, three = (join.tuples(s, r=np.arange(len(cx)), **out) for s in ("bxf aft", "yah hbt"))
        p, w = np.indices((len(pa), len(xs))).reshape(2, -1)
        mid = join.tuples("wbf awh hbt aft", p=p, a=pa[p], b=pb[p], w=xs[w])
        f_in, f_mid, f_out = _read_all(cd.F, *([c[k] for k in s] for c, s in (   # the F-moves
            (one, "abxtgf"), (mid, "awbthf"), (three, "yabthg"))))
        # under each row (r, f) of one, the rows (w, h) of mid with its (a, b, t, f)
        ptf = [(c["p"] * rank + c["t"]) * rank + c["f"] for c in (one, mid)]
        size = np.bincount(ptf[1], minlength=len(pa) * rank ** 2)
        q, k = _expand(size[ptf[0]])
        m = np.argsort(ptf[1], kind="stable")[(np.cumsum(size) - size)[ptf[0]][q] + k]
        r, w, h = one["r"][q], mid["w"][m], mid["h"][m]
        # those with N^h_{ya} = 1, once per copy (co, cm, ci) at (y, w, x), ci fastest
        row, k = _expand(cy[r] * count[w] * cx[r] * N[out["y"][r], out["a"][r], h])
        q, m, r, w, h = q[row], m[row], r[row], w[row], h[row]
        k, i = np.divmod(k, cx[r])
        o, j = np.divmod(k, count[w])
        ci, cm, co = first[out["x"][r]] + i, first[w] + j, first[out["y"][r]] + o
        terms = (f_in[q] * f_mid[m].conj() * f_out[np.searchsorted(three["r"] * rank + three["h"],
                                                                    r * rank + h)]
                 * H[out["a"][r], h, co, cm] * H[out["b"][r], one["f"][q], cm, ci])
        lhs = _sums((np.cumsum(cx * cy) - cx * cy)[r] + o * cx[r] + i, terms, int(np.sum(cx * cy)))
        r, k = _expand(cy * cx)         # each target once per copy pair, in the order of lhs
        (o, i), g = np.divmod(k, cx[r]), out["g"][r]
        co, ci = first[out["y"][r]] + o, first[out["x"][r]] + i
        dev = np.where(N[pa, pb][:, :, None, None] > 0, stray, 0.0)     # [(a, b), g, co, ci]
        np.maximum.at(dev, (out["p"][r], g, co, ci), np.abs(lhs - H[g, out["t"][r], co, ci]))
        for p, i, o, g in np.argwhere(dev.transpose(0, 3, 2, 1) > tol):
            report.append(f"hexagon fails at a={pa[p]}, b={pb[p]}, g={g}, "
                          f"copies {copies[i]}->{copies[o]}: dev={dev[p, g, o, i]:.3e}")
    return report


def decompose_center(tube: TubeAlgebra, seed=0) -> CenterData:
    """Simple center objects with dims, twists, half-braidings, S and T.

    One simple per block of the tube algebra, built in the corner where its
    multiplicity is smallest (the first such x).  Every corner is split at
    once (_corner_projections), and the modules are built in a few batches
    of equal module size across corners (_corner_simples), each at most
    _ENTRIES complex entries, a module constant.  Nothing is solved: each
    entry of a simple's half-braiding array is one module matrix entry,
    conjugated so that it follows the gauge of F, times one F entry (see
    _half_braiding_readout),

        sigma_a(c) = conj(pi(t_(x,a,c,y))) sqrt(d_x / d_y) / (sqrt(d_a) F^{y a dual(a)}_y[c, 0]),

    and with D[z, t] their traces on the triples t = (a, c, x) of _trace_triples,
    S[z, w] is the sum of D[z, t] d_c D[w, swap(t)], swap(a, c, x) = (x, c, a),
    and theta_z that of d_c D[z, t] on a = x, over dim z.  Simples are
    ordered by (dim, twist angle, multiplicity vector), the unit first.

    S has the convention of braided_analysis.s_matrix, the complex conjugate
    of Bakalov-Kirillov's: with D^2 = sum_z dim_z^2 and T = diag(theta),
    (S/D T^-1)^3 = (S/D)^2, as the Gauss sum sum_z theta_z dim_z^2 is D.

    The seed keys the stdlib stream SeededDraws((seed, 1)) of the one seeded
    split (category_data.seeded_split) of the corners, x ascending; a corner
    whose split fails draws again after every corner has drawn.  When the
    modules so found do not exhaust the tube, every corner is split again
    from the same stream.  Both retries share the split's four attempts.
    Dims, twists, underlying multiplicities and S do not depend on the
    seed, up to the order of simples that agree in all three.  Nor
    do the copies and half-braidings of a simple with some multiplicity 1,
    whose projection there is the block idempotent p_Z p_x; otherwise they
    are fixed up to a seed-dependent unitary change of copy basis.
    """
    cd = tube.cd
    d, rank = cd.dims.dims, cd.ring.rank
    weights, readout, built = tube.trace_weights(), _half_braiding_readout(tube), []

    def exhausts(mult, xs, Q):
        # a split just past split_resolution can leave a module's Gram-Schmidt
        # a vector too many; every corner is then split again
        built[:] = _corner_simples(tube, mult, xs, Q, weights, readout)
        if sum(len(z.copies) ** 2 for z in built[0]) != tube.dim:
            return "the corner modules do not exhaust the tube algebra"

    _corner_projections(tube, np.arange(rank), weights, SeededDraws((seed, 1)), exhausts)
    simples, D = built
    a, c, x = _trace_triples(cd.ring)
    dims = np.array([z.dim for z in simples])
    twists = D[:, a == x] @ d[c[a == x]] / dims
    if np.max(np.abs(np.abs(twists) - 1.0)) > cd.identity_tolerance:
        raise StructuralError("half-braidings are not unitary: a twist is off the unit circle")
    for z, t in zip(simples, twists):
        z.twist = complex(t)
    U = np.array([z.underlying for z in simples])
    # the unit: underlying object 1 and sigma_a = 1 on channel a for every a
    diag = np.abs(D[:, x == 0] - 1)                 # the triples (a, a, 0)
    unit = (U[:, 0] == 1) & (U.sum(axis=1) == 1) & np.all(diag < cd.identity_tolerance, axis=1)
    # rounded without signed zeros, so a twist of -1 always sorts at angle pi
    angle = np.arctan2(np.round(twists.imag, 9) + 0.0, np.round(twists.real, 9) + 0.0)
    order = np.lexsort((*U.T[::-1], angle, np.round(dims, 9), ~unit))
    # S[z, w] = sum over t of D[z, t] d_c D[w, swap(t)], z and w in the order found: a
    # quarter of the rows of D, or fewer, gathered by swap and scaled at a time; then sorted
    swap = np.lexsort((a, c, x))                    # the index of (x, c, a)
    S = np.empty((len(D), len(D)), dtype=complex)
    step = max(1, min(-(-len(D) // 4), _ENTRIES // len(swap)))
    for lo in range(0, len(D), step):
        S[:, lo:lo + step] = D @ (D[lo:lo + step, swap] * d[c]).T
    return CenterData(simples=[simples[i] for i in order], S=S[np.ix_(order, order)],
                      T=np.diag(twists[order]), cd=cd)


def _corner_simples(tube: TubeAlgebra, mult, xs, Q, weights, readout):
    """One simple per block, from the module of its projection in its corner
    of least multiplicity, and D[z, t], the trace of its sigma_a(c) over the
    copies at x for the t-th triple (a, c, x) of _trace_triples.

    _corner_projections gives one projection q per block of each corner,
    with its simple Z's multiplicities mult = (m_y(Z))_y: so Z's module size
    is n = sum_y m_y(Z).  Only the projections in Z's corner of least
    multiplicity, the first such x, are built, one per simple, sorted by
    (n, x) and walked by _batches, a batch of equal n across corners at a
    time (_corner_modules).
    """
    cd, rank = tube.cd, tube.cd.ring.rank
    n = mult.sum(axis=1)
    first = np.flatnonzero(np.argmin(np.where(mult > 0, mult, tube.dim), axis=1) == xs)
    first = first[np.lexsort((xs[first], n[first]))]
    xs, Q, n = xs[first], Q[first], n[first]
    span = np.bincount(tube.basis[:, 0], minlength=rank)        # the t_j leaving x
    a, c, x = _trace_triples(cd.ring)
    D = np.zeros((len(Q), len(a)), dtype=complex)
    simples = []
    for lo, hi in _batches(n, span[xs] ** 2 + rank ** 2 * n ** 2):
        copies, H, sector = _corner_modules(tube, xs[lo:hi], Q[lo:hi], weights, readout)
        at = sector[:, :, None] == np.arange(rank)      # [b, copy, x]
        D[lo:hi] = np.einsum("btu,but->bt", H.diagonal(0, 3, 4)[:, a, c], at[:, :, x])
        underlying = at.sum(axis=1)
        for h, cs, u, dim in zip(H, copies, underlying, (underlying @ cd.dims.dims).tolist()):
            simples.append(CenterObject(underlying=u, copies=cs, twist=1.0, dim=dim,
                                        half_braiding=h[:, :, :len(cs), :len(cs)]))
    return simples, D


def _trace_triples(ring):
    """(a, c, x), ascending, with N^c_{ax} = N^c_{xa} = 1, closed under a <-> x:
    only there is t_(x,a,c,x) in the tube, and a trace of sigma_a(c) at x nonzero."""
    return np.nonzero(ring.N.transpose(0, 2, 1) * ring.N.transpose(1, 2, 0))


def center_global_checks(center: CenterData) -> dict:
    """Sum of dim^2, unitarity of S / sqrt(sum dim^2), and the
    self-centralizer of Z(C)."""
    S, D, tol = center.S, center.cd.dims.global_dim, center.cd.identity_tolerance
    dims = np.array([z.dim for z in center.simples])
    total = float(np.sum(dims ** 2))
    nondeg = len(S) > 0 and bool(_unitarity_dev(S / np.sqrt(total)) < tol)
    transparent = np.flatnonzero(np.all(np.abs(S - np.outer(dims, dims)) < tol, axis=1)).tolist()
    return {
        "sum_dim_sq": total, "global_dim_sq": D ** 2,
        "dims_identity": abs(total - D ** 2) < tol,
        "nondegenerate": nondeg,
        "self_centralizer": transparent,
        "trivial_centralizer": (
            len(transparent) == 1
            and abs(dims[transparent[0]] - 1.0) < tol
            and abs(center.simples[transparent[0]].twist - 1.0) < tol),
    }


def lagrangian_algebra(cd: CategoryData, center: CenterData):
    """The canonical Lagrangian algebra of Z(C) in a braided presentation.

    The support is read from the unit multiplicities of the tube simples.
    On the pointed presentation (trivial F, R = 1 on the dual-group factor)
    the multiplication is the group algebra's.  On C (x) reverse(C) it is
    the Longo-Rehren algebra on the pairs (c, dual c), in closed form (see
    algebra._conjugate_vertex_algebra): modulus (d_a d_b / d_c)^{1/2} and
    the phase of the braided mate of each vertex of C, read from F and R,
    times the sign s_c that cancels the Frobenius-Schur sign of the unsigned
    cups and caps.  Nothing is solved for.  Either way the dimension, the
    Q-system axioms and commutativity are checked.  Returns (presentation,
    algebra, support_indices_in_center).
    """
    mults = [int(z.underlying[0]) for z in center.simples]
    if any(m > 1 for m in mults):
        raise StructuralError("a center simple has unit multiplicity > 1; "
                              "Lagrangian algebra out of scope")
    chosen = [i for i, m in enumerate(mults) if m == 1]
    product = _presents_center_as_product(cd)       # the branch, decided once
    pres, support = _presentation(cd, product)
    alg = (_conjugate_vertex_algebra(cd, support, braided=True) if product
           else group_algebra(pres, support))
    dQ = algebra_dim(pres, alg)
    DZ = pres.dims.global_dim
    if abs(dQ ** 2 - DZ) > cd.identity_tolerance:
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
    (c, dual c).  Pointed cd built from a quadratic form whose associator
    class is trivial, i.e. whose closed-form F phase is 0 mod 2 on the whole
    group, in whatever gauge cd.F is: the double of the group, Lagrangian on
    the dual-group factor.
    Either presentation carries cd's tolerance.
    """
    return _presentation(cd, _presents_center_as_product(cd))


def _presentation(cd: CategoryData, product: bool):
    """center_presentation on the branch already decided: C (x) reverse(C)
    when product, else the pointed presentation."""
    if product:
        r = cd.ring.rank
        return (deligne_product_data(cd, reverse_braiding(cd)),
                tuple(c * r + cd.ring.dual[c] for c in range(r)))
    qf = cd.quadratic_form
    if qf is not None and cd.is_pointed():
        x, _P = qf._grid()
        if np.any(qf._f_phase(x[:, :, None, None], x[:, None, :, None], x[:, None, None]) % 2):
            raise PreconditionError("pointed presentation requires a trivial associator")
        k = len(qf.group)
        dbl = QuadraticForm(group=qf.group + qf.group, t=(0,) * (2 * k),
                            cross={(i, k + i): 1 for i in range(k)})
        pres = replace(pointed_from_quadratic_form(dbl, name=f"double({cd.name})"),
                       tolerance=cd.tolerance)
        return pres, tuple(i for i, g in enumerate(dbl.elements()) if all(x == 0 for x in g[:k]))
    raise PreconditionError(
        "no braided presentation of the center available for this category")


def theorem_c_shadow(cd: CategoryData, seed=0) -> dict:
    """The categorical assertions consumed by the non-Gamma classification.

    (i) sum of center dims^2 equals global_dim^2; (ii) S / D, for the
    center S-matrix and D^2 = sum dims^2, is unitary, hence invertible;
    (iii) the center centralizes only its unit; (iv) the canonical
    Lagrangian condenses to a single simple local module.
    """
    center = decompose_center(build_tube_algebra(cd), seed=seed)
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
