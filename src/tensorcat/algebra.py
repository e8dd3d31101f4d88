"""Q-systems as multiplicity-free algebra objects.

An AlgebraObject stores multiplication coefficients mu^{ab}_c in orthonormal
fusion-tree components, in the unit-normalized gauge mu^{0a}_a = mu^{a0}_a = 1.
The physically normalized multiplication of the corresponding Q-system is
m_phys = m / sqrt(dim Q) with unit i = sqrt(dim Q) times the unit inclusion,
so unitary separability reads

    sum_{a,b} |mu^{ab}_c|^2 = dim Q        for every c in the support,

and that is what the verifier checks (as m_phys m_phys^dag = id).
Associativity, unitality and the Frobenius relations are scale-free in this
gauge.  The diagram basis is left-associated and F has entries 1 on unit
legs, so associativity, both Frobenius relations and commutativity are
F- and R-contractions of the stored mu.  Each axiom has one term generator
(_associativity_terms, _frobenius_terms, _commutativity_terms): the
verifiers take the largest |term| and solve_support_algebra minimizes the
same terms, so nothing here evaluates a diagram.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .category_data import (CategoryData, _load_labelled, _read_all, _save_labelled,
                            deligne_product_data, monoidal_opposite)
from .errors import PreconditionError, StructuralError

__all__ = [
    "AlgebraObject", "QSystemReport", "verify_qsystem", "is_connected",
    "is_commutative", "canonical_algebra", "symmetric_enveloping",
    "algebra_dim", "trivial_algebra", "group_algebra", "load_algebra",
    "save_algebra", "solve_support_algebra",
]


@dataclass
class AlgebraObject:
    """Support labels (unit required, multiplicity one) plus mu^{ab}_c."""

    support: tuple
    mu: dict  # (a, b, c) -> complex

    def __post_init__(self):
        self.support = tuple(sorted(int(x) for x in self.support))
        if 0 not in self.support:
            raise StructuralError("algebra support must contain the unit label")
        if len(set(self.support)) != len(self.support):
            raise StructuralError("algebra support has a repeated label")
        self.mu = {tuple(k): complex(v) for k, v in self.mu.items()}

    def check_admissible(self, cd: CategoryData):
        """mu must be defined on exactly the admissible support triples."""
        inside = set(self.support)
        _require_keys("mu", self.mu, {(a, b, c) for a in self.support for b in self.support
                                      for c in cd.ring.channels(a, b) if c in inside})


def _require_keys(name, values, admissible):
    """StructuralError at the least key of values off admissible, else at
    the least admissible key that values lacks."""
    extra, missing = set(values) - admissible, admissible - set(values)
    if extra:
        raise StructuralError(f"{name} entry on inadmissible triple {min(extra)}")
    if missing:
        raise StructuralError(f"{name} missing on admissible triple {min(missing)}")


@dataclass
class QSystemReport:
    associativity: float
    unitality: float
    frobenius: float
    separability: float
    connected: bool
    tolerance: float

    @property
    def residuals(self):
        return {"associativity": self.associativity, "unitality": self.unitality,
                "frobenius": self.frobenius, "separability": self.separability}

    @property
    def passed(self):
        return (self.connected
                and all(r < self.tolerance for r in self.residuals.values()))


def algebra_dim(cd: CategoryData, A: AlgebraObject) -> float:
    return float(sum(cd.dims.dims[c] for c in A.support))


def trivial_algebra() -> AlgebraObject:
    return AlgebraObject(support=(0,), mu={(0, 0, 0): 1.0})


def group_algebra(cd: CategoryData, support) -> AlgebraObject:
    """mu = 1 on every admissible triple of a fusion-closed support."""
    support = tuple(sorted(cd.ring.label_index(x) for x in support))
    inside = set(support)
    mu = {}
    for a in support:
        for b in support:
            for c in cd.ring.channels(a, b):
                if c not in inside:
                    raise StructuralError(f"support not closed: {a} x {b} contains {c}")
                mu[(a, b, c)] = 1.0
    return AlgebraObject(support=support, mu=mu)


def _associativity_terms(cd, act, xs, mu, supp):
    """act(act (x) id) - act(id (x) mu) on every path, read from F.

    ``act`` and ``mu`` map (x, a, y) and (a, b, c) to coefficients on the
    module support ``xs`` and the algebra support ``supp``; algebra
    associativity is act = mu, xs = supp.  On the path (x, z, y) of
    x (x) a (x) b -> y the sides are act^{xa}_z act^{zb}_y (0 for z outside
    xs) and sum_c F^{xab}_y[z, c] mu^{ab}_c act^{xc}_y.
    """
    ring = cd.ring
    inside = set(xs)
    for x, a, b in itertools.product(xs, supp, supp):
        cs = [c for c in ring.channels(a, b) if (a, b, c) in mu]
        for z in ring.channels(x, a):
            for y in (y for y in ring.channels(z, b) if y in inside):
                rhs = sum(cd.fval(x, a, b, y, z, c) * mu[(a, b, c)] * act[(x, c, y)]
                          for c in cs if (x, c, y) in act)
                yield act.get((x, a, z), 0) * act.get((z, b, y), 0) - rhs


def _frobenius_terms(cd, mu, supp):
    """Either Frobenius composite minus m^dag m, read from F.

    On the channel t of a (x) b -> c (x) d the three terms are
    mid = mu^{ab}_t conj(mu^{cd}_t) (0 for t outside supp),
    left = sum_g conj(mu^{cg}_a) mu^{gb}_d F^{cgb}_t[a, d] and
    right = sum_g mu^{ag}_c conj(mu^{gd}_b F^{agd}_t[c, b]);
    yields left - mid, then right - mid.
    """
    ring = cd.ring
    for a, b, c, d in itertools.product(supp, repeat=4):
        for t in (t for t in ring.channels(a, b) if ring.N[c, d, t]):
            mid = mu.get((a, b, t), 0) * mu.get((c, d, t), 0).conjugate()
            left = sum(mu[(c, g, a)].conjugate() * mu[(g, b, d)] * cd.fval(c, g, b, t, a, d)
                       for g in supp if (c, g, a) in mu and (g, b, d) in mu)
            right = sum(mu[(a, g, c)] * (mu[(g, d, b)] * cd.fval(a, g, d, t, c, b)).conjugate()
                        for g in supp if (a, g, c) in mu and (g, d, b) in mu)
            yield left - mid
            yield right - mid


def _commutativity_terms(cd, mu):
    """mu^{ba}_c R^{ab}_c - mu^{ab}_c on every triple, in sorted order."""
    for a, b, c in sorted(mu):
        yield mu[(b, a, c)] * cd.rval(a, b, c) - mu[(a, b, c)]


def _max_abs(terms) -> float:
    """The largest |term|, 0 for no terms: the residual of an axiom."""
    return float(max(map(abs, terms), default=0.0))


def verify_qsystem(cd: CategoryData, A: AlgebraObject) -> QSystemReport:
    """Check the five Q-system axioms on the stored coefficients.

    Associativity and the Frobenius relations are multiplicity-free
    F-contractions of mu (_associativity_terms, _frobenius_terms); no diagram
    is evaluated.  Residuals are maxima over fusion-tree components;
    separability is measured on the physically normalized multiplication
    m / sqrt(dim Q).
    """
    A.check_admissible(cd)
    supp = A.support
    dQ = algebra_dim(cd, A)

    unit_dev = max(abs(A.mu[k] - 1.0) for k in A.mu if k[0] == 0 or k[1] == 0)
    assoc_dev = _max_abs(_associativity_terms(cd, A.mu, supp, A.mu, supp))
    frob_dev = _max_abs(_frobenius_terms(cd, A.mu, supp))

    sep_dev = 0.0
    for c in supp:
        total = sum(abs(v) ** 2 for (a, b, cc), v in A.mu.items() if cc == c)
        sep_dev = max(sep_dev, abs(total / dQ - 1.0))

    scale = max(1.0, max(abs(v) for v in A.mu.values()) ** 2)
    return QSystemReport(
        associativity=assoc_dev / scale, unitality=unit_dev,
        frobenius=frob_dev / scale, separability=sep_dev,
        connected=is_connected(A), tolerance=cd.residual_tolerance)


def is_connected(A: AlgebraObject) -> bool:
    """Unit label occurs with multiplicity exactly one in the support."""
    return A.support.count(0) == 1


def is_commutative(cd: CategoryData, A: AlgebraObject):
    """(passed, residual) for mu^{ba}_c R^{ab}_c = mu^{ab}_c on all triples."""
    if cd.R is None:
        raise PreconditionError("commutativity requires R-symbols")
    residual = _max_abs(_commutativity_terms(cd, A.mu))
    return residual < cd.residual_tolerance, residual


def canonical_algebra(cd: CategoryData, x) -> AlgebraObject:
    """The Q-system on x (x) dual(x), with multiplication from the duality cap.

    id_x (x) cap (x) id between the trees of x (x) dual(x) is one F-move on
    each side, so with xb = dual(x), before the unit channels are fixed to 1,

        mu^{ab}_c = sqrt(dim Q) conj(F^{a x xb}_c[x, b]) F^{x xb x}_x[a, 0].
    """
    xi = cd.ring.label_index(x)
    xb = cd.ring.dual[xi]
    ring = cd.ring
    support = ring.channels(xi, xb)
    if any(ring.N[xi, xb, c] > 1 for c in support):
        raise StructuralError(f"x (x) dual(x) has multiplicity for x={x}; out of scope")
    root = np.sqrt(sum(cd.dims.dims[c] for c in support))
    mu = {(a, b, c): root * cd.fval(a, xi, xb, c, xi, b).conjugate() * cd.fval(xi, xb, xi, xi, a, 0)
          for a in support for b in support for c in ring.channels(a, b) if c in support}
    return _unit_normalized(cd, support, mu)


def _unit_normalized(cd, support, mu) -> AlgebraObject:
    """The algebra of mu, gauge-fixed so that its unit channels are exactly 1."""
    unit_vals = [mu[k] for k in mu if k[0] == 0 or k[1] == 0]
    nu = unit_vals[0]
    if any(abs(v - nu) > cd.identity_tolerance for v in unit_vals):
        raise StructuralError("canonical algebra has non-constant unit channel; "
                              "cannot gauge-normalize")
    if abs(abs(nu) - 1.0) > cd.identity_tolerance:
        raise StructuralError(f"canonical algebra unit channel has modulus {abs(nu)}")
    for (a, b, c), v in list(mu.items()):
        w = 1.0
        if a == 0:
            w /= nu
        if b == 0:
            w /= nu
        if c == 0:
            w *= nu
        mu[(a, b, c)] = v * w if (a == 0 or b == 0 or c == 0) else v
    return AlgebraObject(support=tuple(support), mu=mu)


def _rotation_phases(cd):
    """(zeta, phi), read from F by one lookup.  zeta[a] is the phase of the
    zig-zag (cap_ab (x) id_ab)(id_ab (x) cup_a) on [ab], ab = dual(a), which
    is d_a conj F^{ab a ab}_ab[0, 0]: the Frobenius-Schur indicator of a, up
    to the gauge of F.  phi[a1, a2, b] is the one coefficient of the rotation
    isometry phi: [bb] -> [ab1, ab2], the rigidity dual of the tree
    psi_b: b -> a2 (x) a1, on every channel b of a2 (x) a1, and 0 elsewhere.

    The condition (psi_b (x) phi) cup_b = nested cups fixes its phase,
    Frobenius-Schur signs included; phi is normalized to an isometry and
    divided by the zig-zag phase of b.  The nested cups composed with psi_b^*
    and closed by a cap on b evaluate to sqrt(d_a1 d_a2 d_b) times

        conj(F^{bb a2 ab2}_bb[ab1, 0] F^{ab1 a1 ab1}_ab1[0, 0]) F^{bb a2 a1}_0[ab1, b],

    so phi is the phase of that product over zeta_b.
    """
    rank, dual = cd.ring.rank, np.asarray(cd.ring.dual)
    a2, a1, b = np.nonzero(cd.ring.N)
    ab1, ab2, bb = dual[a1], dual[a2], dual[b]
    o, ov = np.zeros(rank, dtype=np.intp), np.zeros_like(b)      # the unit label
    fz, f1, f2 = _read_all(cd.F, (dual, np.arange(rank), dual, dual, o, o),
                           (bb, a2, ab2, bb, ab1, ov), (bb, a2, a1, ov, ab1, b))
    zeta = fz.conj() / np.abs(fz)
    v = (f1 * fz[a1]).conjugate() * f2
    r = np.abs(v)
    if not np.all(r > cd.noise_floor):
        raise StructuralError("degenerate rotation isometry")
    phi = np.zeros((rank,) * 3, dtype=complex)
    # v / r part by part: a complex quotient multiplies by 1 / r, and rounds apart
    phi[a1, a2, b] = (v.real / r + 1j * (v.imag / r)) / zeta[b]
    return zeta, phi


def _conjugate_vertex_algebra(cd: CategoryData, support, braided) -> AlgebraObject:
    """The Longo-Rehren Q-system with one summand support[c] per simple c of cd.

    support[c] is the product label pairing c with its partner: (c, dual c)
    in C (x) rev(C) for the canonical Lagrangian (``braided``), (c, c) in
    op(C) (x) C for the symmetric enveloping algebra.  The multiplication
    is closed-form (Longo & Rehren 1995; Kong & Runkel 2008), not solved:

        mu^{support[a] support[b]}_{support[c]}
            = (d_a d_b / d_c)^{1/2} kappa(a, b, c) conj(kappa(0, c, c)).

    kappa(a, b, c) is the phase of the dagger of the right mate c~ -> b~a~
    (x~ = dual(x)) of the basis vertex v: ab -> c, precomposed with the
    braiding sigma_{a~,b~} of cd when ``braided``.  The mate is the rotation
    isometry phi of the tree c -> a (x) b times the zig-zag phase of c, and
    the braiding adds one R-symbol:

        kappa(a, b, c) = conj(phi(b, a, c) zeta_c) [R^{a~ b~}_{c~} if braided].

    The sign s_c = conj(kappa(0, c, c)) cancels the Frobenius-Schur sign the
    unsigned cups and caps leave in the zigzag (-1 for the semion and the
    odd elements of vec_zn(6, 1)).  It is applied as its conjugate, equal for
    a sign, so that the unit channels come out as exactly 1 in floating point.
    """
    dl, d = np.asarray(cd.ring.dual), cd.dims.dims
    zeta, phi = _rotation_phases(cd)
    a, b, c = np.nonzero(cd.ring.N)
    kappa = np.conj(phi[b, a, c] * zeta[c])
    if braided:
        kappa = kappa * cd.R.lookup([dl[a], dl[b], dl[c]])
    sign = np.conj(kappa[a == 0])       # kappa(0, c, c), c ascending
    mu = np.sqrt(d[a] * d[b] / d[c]) * kappa * sign[c]
    return AlgebraObject(support=support, mu={
        (support[i], support[j], support[k]): v
        for i, j, k, v in zip(a.tolist(), b.tolist(), c.tolist(), mu)})


def solve_support_algebra(cd: CategoryData, support, commutative=False,
                          seed=0, max_restarts=24) -> AlgebraObject:
    """Numerically solve for Q-system coefficients on a fusion-closed support.

    Residual vector: the associativity and Frobenius terms verify_qsystem
    checks, unitary separability, and optionally the commutativity terms
    is_commutative checks, as interleaved real and imaginary parts.  Unit
    channels are pinned to 1.
    """
    from scipy.optimize import least_squares

    ring = cd.ring
    support = tuple(sorted(ring.label_index(x) for x in support))
    inside = set(support)
    triples = [(a, b, c) for a in support for b in support
               for c in ring.channels(a, b) if c in inside]
    fixed = {t: 1.0 + 0.0j for t in triples if t[0] == 0 or t[1] == 0}
    free = [t for t in triples if t not in fixed]
    dQ = float(sum(cd.dims.dims[c] for c in support))
    d = cd.dims.dims

    if not free:
        return AlgebraObject(support=support, mu=dict(fixed))

    def unpack(xvec):
        mu = dict(fixed)
        for i, t in enumerate(free):
            mu[t] = xvec[2 * i] + 1j * xvec[2 * i + 1]
        return mu

    def residuals(xvec):
        mu = unpack(xvec)
        res = [*_associativity_terms(cd, mu, support, mu, support),
               *_frobenius_terms(cd, mu, support)]
        res += [sum(abs(mu[t]) ** 2 for t in triples if t[2] == c) - dQ for c in support]
        if commutative:
            res += _commutativity_terms(cd, mu)
        return np.asarray(res, dtype=complex).view(float)

    rng = np.random.default_rng(seed)
    mags = np.array([np.sqrt(d[a] * d[b] * d[c] / dQ) for (a, b, c) in free])
    best = None
    nfev = 0
    for attempt in range(max_restarts):
        # magnitude heuristic with random phases; phase frustration is the
        # usual reason a single positive start stalls
        if attempt == 0:
            phases = np.zeros(len(free))
        else:
            phases = rng.uniform(0, 2 * np.pi, size=len(free))
        start = np.empty(2 * len(free))
        start[0::2] = mags * np.cos(phases)
        start[1::2] = mags * np.sin(phases)
        if attempt > 1:
            start *= 1 + 0.2 * rng.standard_normal(len(start))
        sol = least_squares(residuals, start, method="lm", xtol=1e-15, ftol=1e-15,
                            max_nfev=20_000)
        nfev += sol.nfev
        cost = float(np.sum(sol.fun ** 2))
        if best is None or cost < best[0]:
            best = (cost, sol.x)
        if cost < 1e-22:
            break
    cost, xbest = best
    if cost > 1e-18:
        raise StructuralError(
            f"no Q-system found on support {support} after {attempt + 1} attempts "
            f"(best residual {np.sqrt(cost):.2e}, {nfev} residual evaluations)")
    return AlgebraObject(support=support, mu=unpack(xbest))


def symmetric_enveloping(cd: CategoryData):
    """The enveloping Q-system on the diagonal of op(C) (x) C.

    Returns (product_category, algebra); the support is {(c, c) : c}.  The
    multiplication is closed-form (see _conjugate_vertex_algebra): modulus
    (d_a d_b / d_c)^{1/2} and the phase of the mate of each vertex of cd,
    read from F with no braiding, times the sign s_c.  It is not solved
    for; callers check it with verify_qsystem.
    """
    if cd.partial:
        raise PreconditionError("symmetric enveloping needs full F data")
    prod = deligne_product_data(monoidal_opposite(cd), cd)
    r2 = cd.ring.rank
    support = tuple(c * r2 + c for c in range(r2))
    return prod, _conjugate_vertex_algebra(cd, support, braided=False)


def load_algebra(cd: CategoryData, path) -> AlgebraObject:
    support, mu = _load_labelled(cd, path, "algebra", "mu")
    return AlgebraObject(support=support, mu=mu)


def save_algebra(cd: CategoryData, A: AlgebraObject, path):
    _save_labelled(cd, A.support, "mu", A.mu, path)
