"""Integer fusion-ring arithmetic.

A fusion ring is given by nonnegative integer structure constants
N[a,b,c] = N^c_{ab} (the multiplicity of c in a*b) together with a unit
label (always index 0) and a duality involution.  On top of the integer
data we compute Frobenius-Perron dimensions, the renormalized hypergroup
coefficients M^c_{ab} = (d_c / d_a d_b) N^c_{ab}, Deligne products and
opposites.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, StructuralError

__all__ = [
    "FusionRing",
    "FPDimData",
    "HypergroupView",
    "validate_fusion_ring",
    "fp_dimensions",
    "hypergroup_coeffs",
    "deligne_product",
    "opposite_ring",
]


@dataclass(frozen=True)
class FusionRing:
    """Structure constants of a fusion ring.

    The unit is always label 0.  ``dual`` is the duality involution on
    label indices and ``N`` is the dense rank x rank x rank array with
    N[a, b, c] = N^c_{ab}.  Instances are immutable; share freely.
    """

    rank: int
    labels: tuple
    dual: tuple
    N: np.ndarray

    def __post_init__(self):
        N = np.asarray(self.N, dtype=np.int64)
        N.setflags(write=False)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "dual", tuple(int(d) for d in self.dual))

    @staticmethod
    def from_arrays(labels, dual, N):
        labels = tuple(labels)
        return FusionRing(rank=len(labels), labels=labels, dual=tuple(dual),
                          N=np.asarray(N, dtype=np.int64))

    @staticmethod
    def from_fusion(labels, N):
        """The ring with dual(a) the first b with N^0_{ab} > 0, read from the
        fusion rules; StructuralError when some a has no such b."""
        has = np.asarray(N)[:, :, 0] > 0
        missing = np.flatnonzero(~has.any(axis=1))
        if missing.size:
            raise StructuralError(f"fusion rules give {labels[missing[0]]} no dual")
        return FusionRing.from_arrays(labels, np.argmax(has, axis=1).tolist(), N)

    @staticmethod
    def from_sparse(rank, triples, dual, labels=None):
        """Build from sparse entries [(a, b, c, n), ...], labels in range(rank)
        and integers n >= 0; unchecked duplicates add.  StructuralError names
        the first row or entry that is not such an entry."""
        if labels is None:
            labels = tuple(str(i) for i in range(rank))
        N = np.zeros((rank, rank, rank), dtype=np.int64)
        for (a, b, c), n in _label_rows(triples, 3, "N"):
            if not (0 <= min(a, b, c) and max(a, b, c) < rank and type(n) is int and n >= 0):
                raise StructuralError(f"N entry ({a},{b},{c}) = {n!r}: a label outside "
                                      f"0..{rank - 1} or not an integer n >= 0")
            N[a, b, c] += n
        return FusionRing(rank=rank, labels=tuple(labels), dual=tuple(dual), N=N)

    def label_index(self, name) -> int:
        """Resolve a label given as display name or integer index."""
        if isinstance(name, (int, np.integer)):
            i = int(name)
            if not 0 <= i < self.rank:
                raise StructuralError(f"label index {i} out of range 0..{self.rank - 1}")
            return i
        try:
            return self.labels.index(str(name))
        except ValueError:
            raise StructuralError(f"unknown label {name!r}") from None

    def channels(self, a, b):
        """Sorted list of c with N^c_{ab} >= 1.

        Read from ``channel_table``; callers must not mutate the returned list.
        """
        return self.channel_table[a][b]

    @functools.cached_property
    def channel_table(self):
        """channel_table[a][b] = channels(a, b), built once per ring from one
        np.nonzero over N, whose c come grouped by (a, b) in order."""
        r = self.rank
        cs = np.nonzero(self.N)[2].tolist()
        ends = np.cumsum(np.count_nonzero(self.N, axis=2)).tolist()
        rows = [cs[i:j] for i, j in zip([0] + ends[:-1], ends)]
        return tuple(tuple(rows[a * r:(a + 1) * r]) for a in range(r))

    @functools.cached_property
    def channel_legs(self):
        """Per leg of N^z_{xy}, (labels, counts, starts) of the labels it takes
        beside each pair of the other two, ascending: the channels of x (x) y
        for z.  category_data._ChannelJoin extends label tuples by them."""
        return [(np.nonzero(T)[2], n, np.cumsum(n) - n)
                for T in (self.N.transpose(1, 2, 0), self.N.transpose(0, 2, 1), self.N)
                for n in [np.count_nonzero(T, axis=2).reshape(-1)]]

    def __eq__(self, other):
        if not isinstance(other, FusionRing):
            return NotImplemented
        return (self.rank == other.rank and self.dual == other.dual
                and np.array_equal(self.N, other.N))

    def __hash__(self):
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash((self.rank, self.dual, self.N.tobytes()))
            object.__setattr__(self, "_hash", h)
        return h


def _label_rows(rows, arity, what):
    """(labels, last field) of each row of a data file, in one pass: arity
    integer labels and one more field; StructuralError names the first row
    that is not."""
    for i, row in enumerate(rows):
        if not (type(row) in (list, tuple) and len(row) == arity + 1
                and all(type(x) is int for x in row[:arity])):
            raise StructuralError(f"{what} row {i} is not {arity} integer labels and a value: "
                                  f"{row!r}")
        yield tuple(row[:arity]), row[arity]


@dataclass(frozen=True)
class FPDimData:
    """Frobenius-Perron dimensions d_a (d_0 = 1) and D = sum d_a^2."""

    dims: np.ndarray
    global_dim: float

    def __post_init__(self):
        d = np.asarray(self.dims, dtype=float)
        d.setflags(write=False)
        object.__setattr__(self, "dims", d)


@dataclass(frozen=True)
class HypergroupView:
    """Renormalized structure constants M^c_{ab} = (d_c / d_a d_b) N^c_{ab}.

    Rows are stochastic: sum_c M^c_{ab} = 1 for every a, b.
    """

    M: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.M, dtype=float)
        M.setflags(write=False)
        object.__setattr__(self, "M", M)


def validate_fusion_ring(ring: FusionRing) -> list:
    """Check the fusion-ring axioms; return a report of violations.

    Structural problems (bad shapes, negative entries) are reported with a
    "structural:" prefix and short-circuit the axiom checks they invalidate.
    The empty list means the ring is valid.
    """
    r = ring.rank
    N = ring.N
    if N.shape != (r, r, r):
        return [f"structural: N has shape {N.shape}, expected {(r, r, r)}"]
    if len(ring.dual) != r:
        return [f"structural: dual has length {len(ring.dual)}, expected {r}"]
    if any(not 0 <= d < r for d in ring.dual):
        return ["structural: dual contains out-of-range indices"]
    if (N < 0).any():
        return [f"structural: negative entry N{tuple(np.argwhere(N < 0)[0].tolist())}"]

    report = []
    dual = np.asarray(ring.dual)
    # Unit: N^c_{0b} = delta_{b,c}, N^c_{a0} = delta_{a,c}.
    eye = np.eye(r, dtype=np.int64)
    for b, c in np.argwhere(N[0] != eye):
        report.append(f"unit: N^{c}_{{0,{b}}} = {N[0, b, c]}")
    for a, c in np.argwhere(N[:, 0, :] != eye):
        report.append(f"unit: N^{c}_{{{a},0}} = {N[a, 0, c]}")

    # Duality: N^0_{ab} = delta_{b, dual(a)}; involution; dual(0) = 0.
    if dual[0] != 0:
        report.append(f"duality: dual(0) = {dual[0]}")
    for a in np.flatnonzero(dual[dual] != np.arange(r)):
        report.append(f"duality: dual(dual({a})) = {dual[dual[a]]}")
    want = (np.arange(r)[None, :] == dual[:, None]).astype(np.int64)
    for a, b in np.argwhere(N[:, :, 0] != want):
        report.append(f"duality: N^0_{{{a},{b}}} = {N[a, b, 0]}, expected {want[a, b]}")

    # Associativity: sum_e N^e_{ab} N^d_{ec} = sum_f N^f_{bc} N^d_{af}, one a at
    # a time as float products (exact while rank * max(N)^2 < 2^53).
    Nf = N.astype(float)
    for a in range(r):
        lhs = (Nf[a] @ Nf.reshape(r, r * r)).reshape(r, r, r)
        rhs = (Nf.reshape(r * r, r) @ Nf[a]).reshape(r, r, r)
        for b, c, d in np.argwhere(lhs != rhs):
            report.append(
                f"associativity: (a,b,c,d)=({a},{b},{c},{d}) "
                f"lhs={int(lhs[b, c, d])} rhs={int(rhs[b, c, d])}")

    # Rotation symmetry: N^c_{ab} = N^{dual a}_{b, dual c} = N^{dual b}_{dual c, a},
    # reported per (a, b, c), the first rotation before the second.
    a, b, c = np.ogrid[:r, :r, :r]
    bad = np.stack([N[b, dual[c], dual[a]] != N, N[dual[c], a, dual[b]] != N], axis=-1)
    for a, b, c, second in np.argwhere(bad):
        if second:
            report.append(f"rotation: N^{dual[b]}_{{{dual[c]},{a}}} != N^{c}_{{{a},{b}}}")
        else:
            report.append(f"rotation: N^{dual[a]}_{{{b},{dual[c]}}} != N^{c}_{{{a},{b}}}")
    return report


def fp_dimensions(ring: FusionRing) -> FPDimData:
    """Frobenius-Perron dimensions by power iteration on sum_a N_a.

    The fusion matrices share a unique strictly positive common
    eigenvector v with N_a v = d_a v; normalizing v[0] = 1 gives the
    dimensions.  Deterministic: starts from the all-ones vector.
    """
    M = ring.N.sum(axis=0).astype(float)
    v = np.ones(ring.rank)
    target = 5e-16 * ring.rank
    for _ in range(100_000):
        w = M @ v
        nw = np.linalg.norm(w)
        if nw == 0:
            raise PreconditionError("fusion matrices are nilpotent; ring invalid")
        w /= nw
        if np.max(np.abs(w - v)) < target:
            v = w
            break
        v = w
    else:
        raise PreconditionError("power iteration did not converge in 100000 steps")
    if v[0] <= 0:
        raise PreconditionError("Perron-Frobenius vector vanishes at the unit")
    dims = v / v[0]
    # d_a d_b = sum_c N^c_{ab} d_c must hold for a genuine fusion ring.
    resid = np.max(np.abs(np.outer(dims, dims) - np.einsum("abc,c->ab", ring.N, dims)))
    if resid > 1e-7 * max(1.0, dims.max() ** 2):
        raise PreconditionError(f"FP dimension residual {resid:.2e}; ring data inconsistent")
    return FPDimData(dims=dims, global_dim=float(np.sum(dims ** 2)))


def hypergroup_coeffs(ring: FusionRing, dims: FPDimData) -> HypergroupView:
    """M^c_{ab} = (d_c / d_a d_b) N^c_{ab}; rows sum to 1."""
    d = dims.dims
    M = ring.N * d[None, None, :] / (d[:, None, None] * d[None, :, None])
    return HypergroupView(M=M)


def deligne_product(r1: FusionRing, r2: FusionRing) -> FusionRing:
    """Product ring on ordered pairs; (a,a') has index a * rank2 + a'."""
    k = r2.rank
    labels = tuple(f"({la},{lb})" for la in r1.labels for lb in r2.labels)
    dual = tuple(r1.dual[i] * k + r2.dual[j] for i in range(r1.rank) for j in range(k))
    N = np.einsum("abc,xyz->axbycz", r1.N, r2.N).reshape(
        r1.rank * k, r1.rank * k, r1.rank * k)
    return FusionRing(rank=r1.rank * k, labels=labels, dual=dual, N=N)


def opposite_ring(ring: FusionRing) -> FusionRing:
    """The ring with N^c_{ab} replaced by N^{dual c}_{dual a, dual b}."""
    idx = np.asarray(ring.dual)
    N = ring.N[np.ix_(idx, idx, idx)]
    return FusionRing(rank=ring.rank, labels=ring.labels, dual=ring.dual, N=N)
