"""Right modules over a Q-system, locality, and anyon condensation.

A ModuleObject stores action coefficients rho^{xa}_y in orthonormal tree
components with the unit channel pinned: rho^{x0}_x = 1 (same stored gauge
as AlgebraObject; the physical action is rho / sqrt(dim Q)).  In this gauge
module associativity reads rho(rho (x) id) = rho(id (x) m) verbatim with the
stored coefficients, and the standardly-normalized action satisfies
sum_{a,y} |rho^{xa}_y|^2 = dim Q for every x in the support.

Simple modules are enumerated by decomposing induced modules x (x) A.  By
Frobenius reciprocity, Hom_A(x (x) A, M) = Hom_C(x, M), so x (x) A is the
sum of the simple modules M with x in supp M, and d_x dim A is the sum of
their FPdims.  x runs over the simples in order; x (x) A is decomposed only
while the modules found so far through x fall short of d_x dim A, and each
summand M is counted once, at x = min supp M.  The least label of every simple module is
therefore decomposed, so the enumeration is complete, and the totals must
come out exact for every x or the enumeration raises.  Enumeration checks
module associativity (verify_module) only on the candidates it returns, the
local summands first met at their least label; the rest are discarded
unverified.

For a nondegenerate C the simple local modules form a modular category
(Kirillov-Ostrik 2002), so their fusion follows from Verlinde: S is the
matrix of local_double_braid_trace normalized by sqrt(sum dims_over_Q^2),
and N_ij^k = sum_m S_im S_jm conj(S_km) / S_0m.  local_fusion reads its
multiplicities from that ring.

The induced action, the commutant generators and the double-braid trace are
read without evaluating diagrams: in a multiplicity-free category each of
their entries is one algebra or module coefficient (mu or rho) times
F-symbols.  verify_module reads module associativity straight from rho, mu
and the F-symbols.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (AlgebraObject, _associativity_terms, _max_abs, _require_keys,
                      algebra_dim, is_commutative, is_connected, verify_qsystem)
from .braided_analysis import _unitarity_dev, is_nondegenerate
from .category_data import (CategoryData, SeededDraws, _load_labelled,
                            _save_labelled, seeded_split)
from .errors import PreconditionError, StructuralError

__all__ = [
    "ModuleObject", "CondensedData", "verify_module", "is_local",
    "free_module_decomposition", "enumerate_local_modules", "local_fusion",
    "condensation_identity_check", "regular_module", "load_module",
    "save_module", "local_double_braid_trace",
]


@dataclass
class ModuleObject:
    """Multiplicity-free module: support labels and rho^{xa}_y coefficients."""

    support: tuple
    rho: dict  # (x, a, y) -> complex

    def __post_init__(self):
        self.support = tuple(sorted(int(x) for x in self.support))
        if len(set(self.support)) != len(self.support):
            raise StructuralError("module support has a repeated label")
        self.rho = {tuple(k): complex(v) for k, v in self.rho.items()}

    def check_admissible(self, cd: CategoryData, A: AlgebraObject):
        inside = set(self.support)
        _require_keys("rho", self.rho, {(x, a, y) for x in self.support for a in A.support
                                        for y in cd.ring.channels(x, a) if y in inside})

    def fpdim(self, cd: CategoryData) -> float:
        return float(sum(cd.dims.dims[x] for x in self.support))

    def fingerprint(self):
        ent = tuple((k, round(abs(v), 8)) for k, v in sorted(self.rho.items()))
        return (self.support, ent)


@dataclass
class CondensedData:
    """Simple local modules over a connected commutative Q-system."""

    simples: list
    dims_over_Q: np.ndarray
    ring: object = None  # FusionRing of the condensed theory, when computed


def regular_module(A: AlgebraObject) -> ModuleObject:
    """A as a right module over itself (rho = mu)."""
    return ModuleObject(support=A.support, rho=dict(A.mu))


def verify_module(cd: CategoryData, A: AlgebraObject, X: ModuleObject) -> dict:
    """Residuals for module associativity and the unit axiom.

    Associativity is the F-contraction of algebra._associativity_terms with
    act = rho: on the path (x, z, y) of x (x) a (x) b -> y it compares
    rho^{xa}_z rho^{zb}_y with sum_c F^{xab}_y[z, c] mu^{ab}_c rho^{xc}_y.
    No diagram is evaluated.
    """
    X.check_admissible(cd, A)
    unit_dev = max((abs(X.rho[k] - 1.0) for k in X.rho if k[1] == 0), default=0.0)
    assoc_dev = _max_abs(_associativity_terms(cd, X.rho, X.support, A.mu, A.support))
    scale = max(1.0, max((abs(v) for v in X.rho.values()), default=1.0) ** 2)
    tol = cd.residual_tolerance
    return {"associativity": assoc_dev / scale, "unit": unit_dev,
            "passed": assoc_dev / scale < tol and unit_dev < tol}


def is_local(cd: CategoryData, A: AlgebraObject, X: ModuleObject):
    """(passed, residual): the action is invariant under the double braiding.

    Componentwise, rho^{xa}_y (R^{xa}_y R^{ax}_y - 1) must vanish on every
    admissible triple.
    """
    if cd.R is None:
        raise PreconditionError("locality requires R-symbols")
    residual = 0.0
    for (x, a, y), v in X.rho.items():
        residual = max(residual,
                       abs(v * (cd.rval(x, a, y) * cd.rval(a, x, y) - 1.0)))
    return residual < cd.residual_tolerance, residual


def _induced_action(cd, A, x):
    """Action data of the induced module x (x) A.

    sectors[y] is the ordered basis {b in supp A : N^y_{xb} = 1} of the
    y-component; act[a][(y2, y1)] is the matrix of the a-action from the
    y1 sector to the y2 sector.  The (c, b) entry is the coefficient of
    id_x (x) mu^{ba}_c on the path (x, y1, y2): mu^{ba}_c times the F-move
    F^{xba}_{y2}[y1, c] that detaches b (x) a -> c from the path.
    """
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
                        mu = A.mu.get((b, a, c))
                        if mu is not None:
                            m[i, j] = mu * cd.fval(x, b, a, y2, y1, c)
                mats[(y2, y1)] = m
        act[a] = mats
    return sectors, act


def _commutant_generators(cd, A, x, sectors):
    """End_A(x (x) A) via Frobenius reciprocity: one generator per a with
    N^x_{xa} = 1, acting sector-diagonally.

    The generator is (id_x (x) mu^{ab}_c)(f_a (x) id_b), f_a the path vector
    x -> x (x) a; its (c, b) entry at sector y is mu^{ab}_c times the F-move
    F^{xab}_y[x, c].  Lifting f_a to [x, a, b] adds one unit-leg F-move: 1
    in the stored gauge, and in any gauge a scalar per generator, which
    leaves their span as it is.
    """
    ring = cd.ring
    gens = []
    for a in A.support:
        if not ring.N[x, a, x]:
            continue
        mats = {}
        for y, bs in sectors.items():
            m = np.zeros((len(bs), len(bs)), dtype=complex)
            for j, b in enumerate(bs):
                for i, c in enumerate(bs):
                    mu = A.mu.get((a, b, c))
                    if mu is not None:
                        m[i, j] = mu * cd.fval(x, a, b, y, x, c)
            mats[y] = m
        gens.append(mats)
    return gens


def free_module_decomposition(cd, A, x, seed=0, keep=None):
    """Simple submodules of x (x) A.

    A random Hermitian element of the commutant, one matrix per sector, is
    drawn from the stdlib stream SeededDraws((seed, x, 977)) and split by
    category_data.seeded_split; its eigenvalue clusters across sectors are
    the simple summands.  A summand whose underlying object acquires
    multiplicity is out of scope and fails the attempt.

    keep, if given, is called with the list of every summand of a cleanly
    split attempt and returns the sublist to verify with verify_module and
    return; the others are dropped unverified.  An attempt is retried when
    a returned candidate fails verify_module, and keep is then called again
    on the new attempt, so the returned list comes from the attempt keep
    saw last.  With keep=None every summand is verified and returned.
    """
    ring = cd.ring
    sectors, act = _induced_action(cd, A, x)
    ys = sorted(sectors)
    gens = _commutant_generators(cd, A, x, sectors)
    modules = []

    def hermitian(_x, coeff):
        hs = [sum(ci * g[y] for ci, g in zip(coeff, gens)) for y in ys]
        return [h + h.conj().T for h in hs]

    def accept(stacks):
        clusters = {}
        for _x, j, V, cluster in stacks:
            for k, U, cs in zip(j.tolist(), V, cluster.tolist()):
                for i, c in enumerate(cs):
                    clusters.setdefault(c, {}).setdefault(ys[k], []).append(U[:, i])
        modules.clear()
        for c in sorted(clusters):
            crowded = [y for y, v in clusters[c].items() if len(v) > 1]
            if crowded:
                # collision between distinct simples, or multiplicity
                return {x: f"eigenvalue collision in sector {crowded[0]}"}
            u = {y: v[0] for y, v in clusters[c].items()}
            support = tuple(sorted(u))
            rho = {(y1, a, y2): complex(u[y2].conj() @ act[a][y2, y1] @ u[y1])
                   for y1 in support for a in A.support for y2 in ring.channels(y1, a)
                   if y2 in u and (y2, y1) in act[a]}
            mod = ModuleObject(support=support, rho=rho)
            if not _action_connected(cd, mod):
                # two distinct simples merged by an eigenvalue collision
                return {x: f"merged simples on support {support}"}
            modules.append(mod)
        if keep is not None:
            modules[:] = keep(modules)
        reports = (verify_module(cd, A, mod) for mod in modules)
        bad = next((r for r in reports if not r["passed"]), None)
        if bad is None:
            return {}
        return {x: f"verify_module failed (associativity "
                   f"{bad['associativity']:.2e}, unit {bad['unit']:.2e})"}

    seeded_split(f"x (x) A split for x={x}", {x: len(gens)}, SeededDraws((seed, x, 977)),
                 hermitian, accept)
    return modules


def _gauge_phases(support, edges):
    """u with u[y] = u[x] r along each edge (x, y, r), starting from 1 at
    support[0]; only the labels the edges connect to it get a phase."""
    u = {support[0]: 1.0 + 0j}
    changed = True
    while changed:
        changed = False
        for x, y, r in edges:
            if x in u and y not in u:
                u[y] = u[x] * r
                changed = True
            elif y in u and x not in u:
                u[x] = u[y] / r
                changed = True
    return u


def _action_connected(cd, mod: ModuleObject) -> bool:
    """Simple modules have connected action graphs; a disconnected graph
    means the candidate splits into invariant pieces."""
    edges = [(x, y, 1.0) for (x, _a, y), v in mod.rho.items() if abs(v) > cd.noise_floor]
    return len(_gauge_phases(mod.support, edges)) == len(mod.support)


def _unitarily_equivalent(cd, m1: ModuleObject, m2: ModuleObject):
    """Equality up to a diagonal phase gauge rho -> u_y rho^{xa}_y u_x^{-1}."""
    tol = cd.identity_tolerance
    if (m1.support != m2.support or set(m1.rho) != set(m2.rho)
            or any(abs(abs(m1.rho[k]) - abs(m2.rho[k])) > tol for k in m1.rho)):
        return False
    edges = [(x, y, m2.rho[(x, a, y)] / m1.rho[(x, a, y)])
             for (x, a, y) in sorted(m1.rho) if abs(m1.rho[(x, a, y)]) > tol]
    u = _gauge_phases(m1.support, edges)
    if set(u) != set(m1.support):
        return True  # action graph disconnected; magnitudes already agree
    return all(abs(u[y] / u[x] - r) <= 10 * tol for x, y, r in edges)


def enumerate_local_modules(cd: CategoryData, A: AlgebraObject,
                            seed=0, with_ring=False) -> CondensedData:
    """All simple local modules over a connected commutative Q-system.

    For x = 0, 1, ... the induced module x (x) A is decomposed unless
    covered[x] >= d_x dim A - identity_tolerance, where covered[x] sums
    FPdim M over the distinct simple A-modules M found so far with x in
    supp M, local or not.  Each M is counted once, at the decomposition of
    x = min supp M, which is never skipped: until M is counted, covered[x]
    falls short by at least FPdim M >= 1.  By Frobenius reciprocity every
    covered[x] must end at d_x dim A; a deviation above identity_tolerance
    (a wrong eigen-split) raises StructuralError naming x.

    The simples are deterministically ordered by (support, |rho| data), each
    the representative of the decomposition at its least label.  Each is
    checked once with verify_module; the other summands are discarded
    without that check.
    """
    if not is_connected(A):
        raise PreconditionError("algebra must be connected")
    _require_commutative_qsystem(cd, A)
    return _local_modules(cd, A, seed, with_ring)


def _require_commutative_qsystem(cd, A):
    """verify_qsystem and is_commutative, raising PreconditionError."""
    qrep = verify_qsystem(cd, A)
    if not qrep.passed:
        raise PreconditionError(f"algebra fails Q-system axioms: {qrep.residuals}")
    comm, resid = is_commutative(cd, A)
    if not comm:
        raise PreconditionError(f"algebra is not commutative (residual {resid:.3e})")


def _local_modules(cd, A, seed=0, with_ring=False) -> CondensedData:
    """enumerate_local_modules on an A that already passed its checks."""
    dQ = algebra_dim(cd, A)
    dims = cd.dims.dims
    tol = cd.identity_tolerance
    bound = dQ * np.sqrt(cd.dims.global_dim) + tol
    covered = np.zeros(cd.ring.rank)
    found = []
    first_seen = []

    def keep(mods):
        # x (x) A contains M exactly when x is in supp M: a summand whose
        # least label is below x was met, and counted, at that label
        first_seen[:] = [m for m in mods if m.support[0] == x]
        return [m for m in first_seen if is_local(cd, A, m)[0]]

    for x in range(cd.ring.rank):
        if covered[x] >= dims[x] * dQ - tol:
            continue
        for mod in free_module_decomposition(cd, A, x, seed=seed, keep=keep):
            if mod.fpdim(cd) > bound:
                raise StructuralError(
                    f"module dimension {mod.fpdim(cd):.6f} exceeds the "
                    f"enumeration bound {bound:.6f}")
            found.append(mod)
        for mod in first_seen:
            covered[list(mod.support)] += mod.fpdim(cd)
    for x in range(cd.ring.rank):
        if abs(covered[x] - dims[x] * dQ) > tol:
            raise StructuralError(
                f"simple A-modules through x={x} have total FPdim "
                f"{covered[x]:.6f}, but Frobenius reciprocity needs "
                f"d_x dim A = {dims[x] * dQ:.6f}")
    found.sort(key=lambda m: m.fingerprint())
    data = CondensedData(
        simples=found,
        dims_over_Q=np.array([m.fpdim(cd) / dQ for m in found]))
    if with_ring:
        data.ring = _condensed_ring(cd, A, data)
    return data


def local_fusion(cd: CategoryData, A: AlgebraObject, X: ModuleObject,
                 Y: ModuleObject, condensed: CondensedData | None = None,
                 seed=0):
    """Decompose X (x)_Q Y against the enumerated simple local modules.

    Returns (condensed, multiplicities), the multiplicities indexed like
    condensed.simples.  X and Y must each be unitarily equivalent, within
    identity_tolerance, to exactly one of the simples, or StructuralError is
    raised.  The multiplicities are read from the Verlinde ring of the
    condensed theory: condensed.ring, computed by _condensed_ring and stored
    on condensed when it is None, which needs a nondegenerate C.  Simples
    that share a support are told apart by their rows of S, so the supports
    need not determine the multiplicities.
    """
    if condensed is None:
        condensed = enumerate_local_modules(cd, A, seed=seed)
    if not condensed.simples:
        raise StructuralError("no simple local modules to decompose against")
    if condensed.ring is None:
        condensed.ring = _condensed_ring(cd, A, condensed)
    order = _unit_first(cd, A, condensed.simples)
    i, j = (_simple_index(cd, condensed.simples, order, M) for M in (X, Y))
    mult = np.zeros(len(order), dtype=np.int64)
    mult[order] = condensed.ring.N[i, j]
    return condensed, mult


def _unit_first(cd, A, simples):
    """Indices of simples with the one equivalent to A itself moved first."""
    unit = _simple_index(cd, simples, range(len(simples)), regular_module(A))
    return [unit] + [i for i in range(len(simples)) if i != unit]


def _simple_index(cd, simples, order, M):
    """The position k in order of the one simple unitarily equivalent to M."""
    hits = [k for k, i in enumerate(order) if _unitarily_equivalent(cd, simples[i], M)]
    if len(hits) != 1:
        raise StructuralError(
            f"module on support {M.support} is equivalent to {len(hits)} of the "
            "simple local modules, not to exactly one")
    return hits[0]


def local_double_braid_trace(cd, A, X: ModuleObject, Y: ModuleObject) -> complex:
    """Trace in C_A of the inherited double braiding on X (x)_Q Y.

    That is the trace in C divided by dQ, sum_t d_t tr(P_t D_t) / dQ, with
    P_t the block at channel t of the canonical projector
    X (x) Y -> X (x)_Q Y built from the separability element, and D_t the
    diagonal of R^{xy}_t R^{yx}_t over the pairs (x, y) of X (x) Y.  Since
    D_t is diagonal only the diagonal of P_t is read: at the pair (x, y) it
    is sum_a conj(mu^{a ab}_0) rho_X(x, a, x) R^{ab y}_y rho_Y(y, ab, y) K
    / dQ, ab the dual of a, and K the F-moves of that diagram,
    conj(F^{x a ab}_x[x, 0]) F^{x ab y}_t[x, y] (the F-move of rho_X's
    vertex has a unit leg, and is 1).

    This pairwise observable is the only braiding data of the condensed
    theory exposed here; condensed R-symbols are not computed.
    """
    ring, dims = cd.ring, cd.dims.dims
    dQ = algebra_dim(cd, A)
    total = 0.0 + 0.0j
    for a in A.support:
        ab = ring.dual[a]
        wmu = np.conj(A.mu.get((a, ab, 0), 0.0))
        if wmu == 0:
            continue
        for x in X.support:
            rx = X.rho.get((x, a, x))
            if rx is None:
                continue
            wx = wmu * rx * np.conj(cd.fval(x, a, ab, x, x, 0))
            for y in Y.support:
                ry = Y.rho.get((y, ab, y))
                if ry is None:
                    continue
                wxy = wx * cd.rval(ab, y, y) * ry
                for t in ring.channels(x, y):
                    total += (dims[t] * wxy * cd.fval(x, ab, y, t, x, y)
                              * cd.rval(x, y, t) * cd.rval(y, x, t))
    return complex(total / dQ ** 2)


def condensation_identity_check(cd: CategoryData, A: AlgebraObject, seed=0) -> dict:
    """Size identities of the condensed theory.

    The simple locals must satisfy sum FPdim(underlying)^2 = global_dim(C);
    a Lagrangian algebra (algebra_dim^2 = global_dim) must condense to a
    single simple.
    """
    _require_condensable(cd, A)
    _require_commutative_qsystem(cd, A)
    return _condensation_identity(cd, A, seed)


def _require_condensable(cd, A):
    """The checks of condensation_identity_check besides verify_qsystem and
    is_commutative."""
    if not is_nondegenerate(cd):
        raise PreconditionError("condensation identities need a nondegenerate braiding")
    if not is_connected(A):
        raise PreconditionError("algebra must be connected")


def _condensation_identity(cd, A, seed=0) -> dict:
    """condensation_identity_check on a (cd, A) that already passed its checks."""
    cond = _local_modules(cd, A, seed)
    total = float(sum(m.fpdim(cd) ** 2 for m in cond.simples))
    D = cd.dims.global_dim
    dQ = algebra_dim(cd, A)
    tol = cd.identity_tolerance
    lagrangian = abs(dQ ** 2 - D) < tol
    ok = abs(total - D) < tol and (not lagrangian or len(cond.simples) == 1)
    return {
        "sum_fpdim_sq": total, "global_dim": D, "identity_ok": abs(total - D) < tol,
        "lagrangian": lagrangian, "n_simples": len(cond.simples), "passed": ok,
        "condensed": cond,
    }


def _condensed_ring(cd, A, condensed: CondensedData):
    """Fusion ring of the condensed theory by Verlinde.

    C_A^loc is modular for a nondegenerate C, so the local S, the
    local_double_braid_trace matrix over unordered pairs divided by
    sqrt(sum dims_over_Q^2), is unitary and N follows from _verlinde.  The
    simple equivalent to A itself is moved first, as the unit Q.  C is
    nondegenerate when its Muger center is trivial; otherwise
    PreconditionError is raised before any trace is taken.
    """
    from .fusion_ring import FusionRing
    if not is_nondegenerate(cd):
        raise PreconditionError(
            "the Verlinde ring of the condensed theory needs a nondegenerate braiding")
    simples = [condensed.simples[i] for i in _unit_first(cd, A, condensed.simples)]
    n = len(simples)
    T = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(i, n):
            T[i, j] = T[j, i] = local_double_braid_trace(cd, A, simples[i], simples[j])
    S = T / np.sqrt(np.sum(condensed.dims_over_Q ** 2))
    N = _verlinde(S, cd.identity_tolerance)
    return FusionRing.from_fusion(["Q"] + [f"X{i}" for i in range(1, n)], N)


def _verlinde(S, tol):
    """N_ij^k = sum_m S_im S_jm conj(S_km) / S_0m for a unitary S with its
    unit row first; StructuralError unless S is unitary and N integral and
    nonnegative, both within tol."""
    dev = _unitarity_dev(S)
    if dev > tol:
        raise StructuralError(f"S-matrix is not unitary (dev {dev:.2e})")
    N = (S[:, None] * (S / S[0])) @ S.conj().T
    rounded = np.round(N.real).astype(np.int64)
    dev = np.max(np.abs(N - rounded))
    if dev > tol or (rounded < 0).any():
        raise StructuralError(
            f"Verlinde multiplicities are not nonnegative integers (dev {dev:.2e}, "
            f"least {rounded.min()})")
    return rounded


def load_module(cd: CategoryData, path) -> ModuleObject:
    support, rho = _load_labelled(cd, path, "module", "rho")
    return ModuleObject(support=support, rho=rho)


def save_module(cd: CategoryData, X: ModuleObject, path):
    _save_labelled(cd, X.support, "rho", X.rho, path)
