"""Full categorical data: F-symbols, R-symbols, coherence validation and I/O.

All data is multiplicity-free: N^c_{ab} in {0, 1}.  F-symbols are stored in
the triangle-normalized unitary gauge, so any F with a unit leg equals 1 and
is synthesized rather than stored.  The F-move convention is

    |(ab)c -> d; e>  =  sum_f  F^{abc}_d[e, f]  |a(bc) -> d; f>

with e the channel of a*b and f the channel of b*c.  R^{ab}_c is the scalar
of the braiding sigma_{a,b}: a*b -> b*a on the channel c.

F and R are immutable symbol sets, read one key at a time by ``value``
(``cd.fval``, ``cd.rval``) or a column of keys at a time by ``lookup``,
which the coherence checks use.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import json
import math
import operator
import random
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import ClassVar

import numpy as np

from .errors import PreconditionError, StructuralError, ValidationFailure
from .fusion_ring import (FPDimData, FusionRing, deligne_product,
                          fp_dimensions, opposite_ring, validate_fusion_ring)

__all__ = [
    "FSymbolSet",
    "RSymbolSet",
    "CategoryData",
    "check_tolerance",
    "QuadraticForm",
    "verify_pentagon",
    "verify_hexagon",
    "pointed_from_quadratic_form",
    "kappa_of",
    "reverse_braiding",
    "monoidal_opposite",
    "deligne_product_data",
    "load_category",
    "save_category",
]


class _SymbolSet:
    """Immutable symbol entries, read one key at a time by ``value`` or a
    column of keys at a time by ``lookup``.  Both give exactly 1 on a unit
    leg and raise StructuralError("missing ... entry for admissible ...")
    on a key that is absent, not admissible or not a tuple of labels.

    A stored set holds a copy of the dict it is given, all values finite;
    ``entries`` shows it read-only, and ``lookup`` reads sorted packed keys
    built from it once, vectorized, and cached on the instance.  To edit an
    entry, build a replacement, e.g.
    ``dataclasses.replace(cd, F=FSymbolSet({**cd.F.entries, key: v}))``.
    """

    _arity: ClassVar[int]
    _units: ClassVar[int]       # a unit label on one of the first _units legs gives 1
    _missing: ClassVar[str]

    def __init__(self, entries):
        self._held = dict(entries)
        for key, v in self._held.items():
            if not cmath.isfinite(v):
                raise StructuralError(f"{type(self).__name__} entry {key} is not finite: {v!r}")

    @classmethod
    def _adopt(cls, entries: dict):
        """Wrap a dict that no caller keeps, without the constructor's copy."""
        out = cls.__new__(cls)
        out._held = entries
        return out

    @property
    def entries(self):
        return MappingProxyType(self._held)

    def _absent(self, key):
        return StructuralError(f"{self._missing} {key}")

    def lookup(self, cols):
        """The values at the rows of the index columns ``cols``, one column
        per leg; the first row ``value`` would refuse raises what it raises."""
        cols = [np.asarray(c) for c in cols]
        unit = functools.reduce(np.logical_or, [c == 0 for c in cols[:self._units]])
        if unit.all():
            return np.ones(len(unit), dtype=complex)
        vals, ok = self._rows(cols)     # every row: a gathered copy of the columns costs more
        ok |= unit
        if not ok.all():
            raise self._absent(tuple(c[np.argmin(ok)].item() for c in cols))
        vals[unit] = 1
        return vals

    @functools.cached_property
    def _packed(self):
        """(base, sorted packed keys, values) of the stored entries, behind a
        key -1 that no row packs to."""
        keys = _key_array(self._held, self._arity).T
        base = int(keys.max()) + 1 if keys.size else 1
        packed = np.append(-1, np.ravel_multi_index(keys, (base,) * self._arity))
        order = np.argsort(packed)
        vals = np.fromiter(self._held.values(), dtype=complex, count=len(self._held))
        return base, packed[order], np.append(0j, vals)[order]

    def _rows(self, cols):
        """(values, found) of the rows; those with a unit leg are lookup's."""
        base, keys, vals = self._packed
        _cols, packed, ok = _label_columns(cols, base)
        pos = np.searchsorted(keys, packed)
        np.minimum(pos, len(keys) - 1, out=pos)
        return vals[pos], ok & (keys[pos] == packed)


def _label_columns(cols, rank):
    """(cols, packed, ok): cols as integer columns, 0 on the rows that are
    not all labels (integers in [0, rank)), their raveled index in base rank,
    and those rows' mask; packing is the one bounds check when all are."""
    try:
        return cols, np.ravel_multi_index(cols, (rank,) * len(cols)), True
    except (TypeError, ValueError):
        ok = np.all([(c >= 0) & (c < rank) & (c == np.floor(c)) for c in cols], axis=0)
        cols = [np.where(ok, c, 0).astype(np.int64) for c in cols]
        return cols, np.ravel_multi_index(cols, (rank,) * len(cols)), ok


class FSymbolSet(_SymbolSet):
    """Associator entries (a,b,c,d,e,f) -> complex on admissible tuples.

    A tuple is admissible when N^e_{ab} = N^d_{ec} = N^f_{bc} = N^d_{af} = 1.
    Entries with a unit leg are not stored; ``value`` returns 1 for them.

    The F of ``deligne_product_data`` and ``pointed_from_quadratic_form`` is
    computed, not stored (``_ComputedF``).
    """

    _arity, _units, _missing = 6, 3, "missing F entry for admissible tuple"

    def value(self, a, b, c, d, e, f):
        if a == 0 or b == 0 or c == 0:
            return 1.0 + 0.0j
        key = (a, b, c, d, e, f)
        v = self._held.get(key)
        return self._first_read(key) if v is None else v

    def _first_read(self, key):
        raise self._absent(key)


class _ComputedF(FSymbolSet):
    """F from a closed form: ``scalar(*key)`` for one entry, ``vector(cols)``
    for admissible rows with no unit leg, equal bit for bit.

    ``value`` computes an entry on its first read and keeps it in its memo,
    ``_held``; ``lookup`` computes the rows it is given and keeps none, and
    ``entries`` is a lookup of every admissible tuple with no unit leg,
    made afresh on each access.  Concurrent first reads write equal values,
    so a set is safe to share across threads.
    """

    def __init__(self, ring, scalar, vector):
        self._held, self._ring, self._scalar, self._vector = {}, ring, scalar, vector

    @property
    def entries(self):
        return MappingProxyType(_table(self._ring, self.lookup))

    def _first_read(self, key):
        if not _admissible(self._ring, key):
            raise self._absent(key)
        v = self._held[key] = self._scalar(*key)
        return v

    def _rows(self, cols):
        N = self._ring.N
        cols, _packed, ok = _label_columns(cols, self._ring.rank)
        a, b, c, d, e, f = cols
        ok = ok & ((N[a, b, e] * N[e, c, d] * N[b, c, f] * N[a, f, d]) > 0)
        if ok.all():
            return self._vector(cols), ok
        vals = np.zeros(len(ok), dtype=complex)
        vals[ok] = self._vector([col[ok] for col in cols])
        return vals, ok


class RSymbolSet(_SymbolSet):
    """Braiding scalars (a,b,c) -> R^{ab}_c on channels with N^c_{ab} = 1."""

    _arity, _units, _missing = 3, 2, "missing R entry for admissible channel"

    def value(self, a, b, c):
        if a == 0 or b == 0:
            return 1.0 + 0.0j
        try:
            return self._held[(a, b, c)]
        except KeyError:
            raise self._absent((a, b, c)) from None


def _admissible(ring, key) -> bool:
    """N^e_{ab} N^d_{ec} N^f_{bc} N^d_{af} = 1 for labels in range."""
    a, b, c, d, e, f = key
    table = ring.channel_table
    try:
        return (min(key) >= 0 and e in table[a][b] and d in table[e][c]
                and f in table[b][c] and d in table[a][f])
    except (IndexError, TypeError):
        return False


def check_tolerance(value) -> float:
    """``value`` as a float; StructuralError unless it is a finite number > 0."""
    try:
        if math.isfinite(tol := float(value)) and tol > 0:
            return tol
    except (TypeError, ValueError):
        pass
    raise StructuralError(f"tolerance must be a finite number > 0, got {value!r}")


class SeededDraws:
    """numpy's standard_normal(n), drawn from random.Random(repr(key)) on int
    keys: one stream per value, under any PYTHONHASHSEED, no numpy.random."""

    def __init__(self, key):
        self._stream = random.Random(repr(tuple(map(operator.index, key))))

    def standard_normal(self, n):
        return np.array([self._stream.gauss(0.0, 1.0) for _ in range(n)])


def seeded_split(what, sizes, rng, hermitian, accept):
    """Split a finite-dimensional C*-algebra by a seeded random self-adjoint
    element, in one retry loop; the smallest eigenvalue gap cut.

    Each attempt, each key not yet split, in the order of sizes, draws
    r = rng.standard_normal(n) + 1j rng.standard_normal(n), n = sizes[key],
    and hermitian(key, r) lists its Hermitian matrices, diagonalized by one
    stacked eigh per size.  A key's pooled eigenvalues are cut where a
    consecutive gap exceeds split_resolution * max(1, max|lambda|).  accept
    gets (keys, j, V, cluster) per size: each matrix's key and list index,
    eigenvectors and their clusters, numbered per key by eigenvalue.  It
    returns {key: reason} for the keys, earlier ones too, to draw again.
    After four attempts StructuralError names the split (what), the
    smallest gap cut and each attempt's reasons.
    """
    attempts, todo, reasons, gap = 4, list(sizes), [], np.inf
    for _ in range(attempts):
        by_size = {}
        for o, k in enumerate(todo):
            r = rng.standard_normal(sizes[k]) + 1j * rng.standard_normal(sizes[k])
            for j, m in enumerate(hermitian(k, r)):
                by_size.setdefault(len(m), []).append((o, j, m))
        # per size: (position in todo, list index) of each matrix, eigenvalues, eigenvectors
        stacks = [(np.array([t[:2] for t in st]), *np.linalg.eigh(np.array([t[2] for t in st])))
                  for st in by_size.values()]
        lam = np.concatenate([w.ravel() for _oj, w, _V in stacks])
        owner = np.concatenate([np.repeat(oj[:, 0], w.shape[1]) for oj, w, _V in stacks])
        order = np.lexsort((lam, owner))        # by key, then ascending; ties keep stacked order
        lam, owner = lam[order], owner[order]
        start = np.searchsorted(owner, np.arange(len(todo)))    # each key's first
        top = np.maximum(1.0, np.maximum.reduceat(np.abs(lam), start))[owner[1:]]
        gaps = np.diff(lam)
        cut = (gaps > CategoryData.split_resolution * top) & (owner[1:] == owner[:-1])
        gap = min(gap, gaps[cut].min(initial=np.inf))
        run = np.concatenate(([0], np.cumsum(cut)))         # clusters so far, over all keys
        cluster = np.empty_like(run)
        cluster[order] = run - run[start][owner]
        at = [0, *itertools.accumulate(w.size for _oj, w, _V in stacks)]
        failed = accept([([todo[o] for o in oj[:, 0].tolist()], oj[:, 1], V,
                          cluster[lo:hi].reshape(w.shape))
                         for (oj, w, V), lo, hi in zip(stacks, at, at[1:])])
        if not failed:
            return gap
        reasons.append(", ".join(dict.fromkeys(failed.values())))
        todo = [k for k in sizes if k in failed]
    raise StructuralError(
        f"{what} failed after {attempts} attempts (smallest eigenvalue gap {gap:.2e}): "
        + "; ".join(f"attempt {i + 1}: {r}" for i, r in enumerate(reasons)))


@dataclass(frozen=True)
class CategoryData:
    """A unitary fusion category skeleton: ring, dims, F and optional R.

    Frozen: a derived category (other ring labels, tolerance, no braiding)
    is a new instance from ``dataclasses.replace``; so is a category with
    edited entries, whose F or R is a replacement symbol set.  F of a
    Deligne product or of a quadratic form's category is computed, not
    stored (see _ComputedF).  Safe to share across threads: concurrent
    first reads write equal values.
    """

    ring: FusionRing
    dims: FPDimData
    F: FSymbolSet
    R: RSymbolSet | None = None
    tolerance: float = 1e-9
    name: str = ""
    partial: bool = False  # ring and dims only; F entries absent
    quadratic_form: QuadraticForm | None = None  # set by pointed_from_quadratic_form

    def __post_init__(self):
        object.__setattr__(self, "tolerance", check_tolerance(self.tolerance))

    # The tolerance policy (README, "Tolerances"): ``tolerance`` bounds the
    # coherence residuals of the input data, and the thresholds on derived
    # data are the three names below.  ``split_resolution`` is fixed: it
    # conditions the random element of seeded_split, whose eigenvalues, and
    # the corner Gram-Schmidt's row norms, count as equal when closer than
    # it relative to max(1, scale).
    split_resolution: ClassVar[float] = 1e-6

    @property
    def residual_tolerance(self):
        """Axiom residuals of algebras, modules and hypergroups."""
        return max(self.tolerance * 100, 1e-9)

    @property
    def identity_tolerance(self):
        """Equalities between computed numbers: identities, idempotency, ranks.
        Capped, so that integrality and rank checks still decide something at
        a loose tolerance."""
        return min(max(self.tolerance * 1000, 1e-7), 1e-3)

    @property
    def noise_floor(self):
        """Computed coefficients and norms below it are 0."""
        return max(self.tolerance / 10, 1e-10)

    def is_pointed(self):
        return bool(np.all(np.abs(self.dims.dims - 1.0) < self.tolerance))

    def fval(self, a, b, c, d, e, f):
        return self.F.value(a, b, c, d, e, f)

    def rval(self, a, b, c):
        if self.R is None:
            raise PreconditionError("category carries no braiding data")
        return self.R.value(a, b, c)


@dataclass(frozen=True)
class QuadraticForm:
    """A quadratic form on A = Z/n_1 + ... + Z/n_k.

    ``t[i]`` (mod 2 n_i) sets the restriction to the i-th factor via
    q(a e_i) = exp(pi i t_i a^2 / n_i); ``cross[(i, j)]`` (i < j) sets the
    pairing between factors via b(e_i, e_j) = exp(2 pi i c_ij / gcd(n_i, n_j)).
    """

    group: tuple
    t: tuple
    cross: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "group", tuple(int(n) for n in self.group))
        object.__setattr__(self, "t", tuple(int(x) for x in self.t))
        object.__setattr__(self, "cross",
                           {tuple(k): int(v) for k, v in dict(self.cross).items()})
        if len(self.t) != len(self.group):
            raise StructuralError("need one t parameter per cyclic factor")
        for (i, j) in self.cross:
            if not 0 <= i < j < len(self.group):
                raise StructuralError(f"cross key {(i, j)} must have 0 <= i < j < k")

    @property
    def order(self):
        return math.prod(self.group)

    def elements(self):
        return list(itertools.product(*map(range, self.group)))

    def _phase(self, g, h):
        """arg R(g, h) / pi, for coordinate tuples or broadcastable per-factor arrays."""
        phase = 0.0
        for i, n in enumerate(self.group):
            phase = phase + self.t[i] * g[i] * h[i] / n
        for (i, j), cij in self.cross.items():
            gcd = math.gcd(self.group[i], self.group[j])
            phase = phase + 2.0 * cij * g[i] * h[j] / gcd
        return phase

    def _f_phase(self, a, b, c):
        """arg F(a, b, c) / pi = sum_i t_i a_i carry_i(b, c) / n_i, where
        carry_i(b, c) = s - (s mod n_i) for s = b_i + c_i; for coordinate
        tuples or broadcastable per-factor arrays."""
        phase = 0.0
        for n, ti, ai, bi, ci in zip(self.group, self.t, a, b, c):
            s = bi + ci
            phase = phase + ti * ai * (s - s % n) / n
        return phase

    def r_value(self, g, h):
        """The braiding scalar R(g, h) of the associated pointed category."""
        return cmath.exp(1j * math.pi * self._phase(g, h))

    def q_value(self, g):
        return self.r_value(g, g)

    def _grid(self):
        """Coordinates x[i, g] of the elements, in ``elements()`` order, and
        the product table P[g, h] = index of g + h."""
        k = len(self.group)
        x = np.indices(self.group).reshape(k, self.order)
        n = np.array(self.group).reshape(k, 1, 1)
        P = np.ravel_multi_index(tuple((x[:, :, None] + x[:, None, :]) % n), self.group)
        return x, P.reshape(self.order, self.order)

    def validate(self):
        """Check q(g) = q(-g) and that b(g,h) = q(g+h)/(q(g)q(h)) is a bicharacter.

        Both are broadcast comparisons over the element grid.  The report
        names, in element order, every g with q(g) != q(-g); then, for each
        generator e_i, the first (h, k) in (h, k) order at which
        b(e_i, h + k) != b(e_i, h) b(e_i, k).  q(e_i) is taken at the
        unreduced coordinates of e_i, so on a Z/1 factor with odd t it is -1.
        """
        report = []
        els = self.elements()
        x, P = self._grid()
        # the phase is a scalar 0.0 when the group has no factors
        q = np.broadcast_to(np.exp(1j * np.pi * self._phase(x, x)), (self.order,))
        neg = np.argmin(P, axis=1)          # the g' with g + g' = 0
        for g in np.nonzero(np.abs(q - q[neg]) > 1e-9)[0]:
            report.append(f"q({els[g]}) != q(-{els[g]})")
        k = len(self.group)
        for i in range(k):
            gen = tuple(1 if j == i else 0 for j in range(k))
            at = np.ravel_multi_index(tuple(a % n for a, n in zip(gen, self.group)),
                                      self.group)
            b = q[P[at]] / (self.q_value(gen) * q)         # b(e_i, h) for every h
            bad = np.abs(b[P] - b[:, None] * b[None, :]) > 1e-9
            if bad.any():
                h, kk = divmod(int(np.argmax(bad)), self.order)
                report.append(f"b({gen}, -) not multiplicative at {els[h]}+{els[kk]}")
        return report


class _ChannelJoin:
    """The label tuples a ring's fusion channels allow."""

    def __init__(self, ring):
        self.N, self.rank, self.legs = ring.N, ring.rank, ring.channel_legs

    def tuples(self, spec, **given):
        """{name: column} of the label tuples with N^z_{xy} = 1 for every
        triple xyz of the space-separated spec.  A name takes the column
        given for it.  Otherwise the last new name of a triple is extended
        by the labels the triple's other two allow (the channels of x (x) y
        when it is z), a new name before it is spread over every label, and
        a triple of bound names filters.  From sorted given columns, rows
        come out in lexicographic order of the names as met.  The given
        columns are gathered once, at the end."""
        take = np.arange(len(next(iter(given.values()))) if given else 1)
        cols = {}                       # the other names, row by row with take

        def at(x):
            return cols[x] if x in cols else given[x][take]

        for triple in spec.split():
            fresh = [i for i, name in enumerate(triple) if name not in cols and name not in given]
            for name in (triple[i] for i in fresh[:-1]):
                row = np.repeat(np.arange(len(take)), self.rank)
                take, cols = take[row], {k: v[row] for k, v in cols.items()}
                cols[name] = np.arange(len(row)) % self.rank
            if fresh:
                labels, counts, starts = self.legs[fresh[-1]]
                x, y = (at(name) for j, name in enumerate(triple) if j != fresh[-1])
                keys = x * self.rank + y
                row, local = _expand(counts[keys])
                new = {triple[fresh[-1]]: labels[starts[keys][row] + local]}
            else:
                row, new = np.flatnonzero(self.N[tuple(map(at, triple))]), {}
            take, cols = take[row], {**{k: v[row] for k, v in cols.items()}, **new}
        return {**{k: v[take] for k, v in given.items()}, **cols}


def _expand(counts):
    """(row, k) for k in range(counts[row]), row by row."""
    row = np.repeat(np.arange(len(counts)), counts)
    return row, np.arange(len(row)) - (np.cumsum(counts) - counts)[row]


def _sums(idx, terms, n=0):
    """The complex sums of terms over each value of idx in range(n)."""
    return (np.bincount(idx, weights=terms.real, minlength=n)
            + 1j * np.bincount(idx, weights=terms.imag, minlength=n))


def _read(symbols, cols, names):
    """symbols.lookup of the columns cols[x] for x in names."""
    return symbols.lookup([cols[x] for x in names])


def _read_all(symbols, *keys):
    """symbols.lookup of each set of key columns, all read by one lookup."""
    vals = symbols.lookup([np.concatenate(leg) for leg in zip(*keys)])
    return np.split(vals, np.cumsum([len(k[0]) for k in keys[:-1]]))


def _lines(cd, head, cols, resid):
    """'head=(values) residual=r' for each row with resid > tolerance, in
    order of the printed values; head names the columns it prints, as in
    'hexagon: (a,b,c,d;e,f)'."""
    fields = head.split(": ")[1]
    keys = [cols[x] for x in fields if x.isalpha()]
    bad = np.flatnonzero(resid > cd.tolerance)
    order = bad[np.lexsort([k[bad] for k in keys[::-1]])]
    fmt = head + "=" + "".join("{}" if x.isalpha() else x for x in fields) + " residual={:.3e}"
    return [fmt.format(*(k[i] for k in keys), resid[i]) for i in order]


def _is_group_ring(ring):
    return bool((ring.N.sum(axis=2) == 1).all())


def _key_array(entries, arity):
    """The keys of an entries dict as a (len(entries), arity) index array."""
    return np.fromiter(itertools.chain.from_iterable(entries), dtype=np.intp,
                       count=len(entries) * arity).reshape(len(entries), arity)


_ROWS = 1 << 14        # the rows a join block holds at once, read by _blocks


def _blocks(counts):
    """The pairs (a, b) with counts[a, b] > 0 rows, columns a and b in (a, b)
    order, a block of at most _ROWS rows at a time: whole labels a while the
    next fits, a label past the budget split by b, a pair past it alone."""
    a, b = np.nonzero(counts)
    units = np.flatnonzero(np.concatenate(([True], a[1:] != a[:-1]))
                           | (counts.sum(axis=1) > _ROWS)[a])
    start, held = 0, 0
    for i, rows in zip(units.tolist(), np.add.reduceat(counts[a, b], units).tolist()):
        if held and held + rows > _ROWS:
            yield a[start:i], b[start:i]
            start, held = i, 0
        held += rows
    if held:
        yield a[start:], b[start:]


def _trees(N):
    """T[a, b, c, d] = N^d_{abc}, the trees ((a b) c -> d) or (a (b c) -> d)."""
    r, N = len(N), N.astype(float)                  # float: a BLAS product
    return (N.reshape(r * r, r) @ N.reshape(r, r * r)).reshape((r,) * 4)


def _tree_pairs(X, ring):
    """sum_{c,d} (sum_e X[..., e] N^d_{ec})^2 = X G X^T, the pairs of trees (e c -> d)
    on X's; G[e, f] = sum_y N^f_{ey} m_y, m_y = sum_c N^y_{c dual(c)} by reciprocity."""
    G = ring.N.transpose(0, 2, 1) @ ring.N[np.arange(ring.rank), ring.dual].sum(axis=0)
    return ((X @ G.astype(float)) * X).sum(axis=-1)


def _pointed_tables(cd):
    """Group product table P and the dense F(a,b,c) array of a pointed
    category, read by one lookup per block of _blocks, r rows per (a, b)."""
    r = cd.ring.rank
    P = np.argmax(cd.ring.N, axis=2)
    FF = []
    for a, b in _blocks(np.full((r, r), r)):
        a, b, c = np.repeat(a, r), np.repeat(b, r), np.tile(np.arange(r), len(b))
        e = P[a, b]
        FF.append(cd.F.lookup([a, b, c, P[e, c], e, P[b, c]]))
    return P, np.concatenate(FF).reshape(r, r, r)


def _pentagon_pointed(cd) -> list:
    """Dense cocycle check F(ab,c,d) F(a,b,cd) = F(a,b,c) F(a,bc,d) F(b,c,d),
    walked by _blocks, r^2 instances per (a, b)."""
    r = cd.ring.rank
    P, FF = _pointed_tables(cd)
    _, c, d = np.ogrid[:1, :r, :r]
    cdl, bad = P[c, d], []                  # bad: (a, b, c, d, residual) of the violations
    for a, b in _blocks(np.full((r, r), r * r)):
        a, b = a[:, None, None], b[:, None, None]
        resid = np.abs(FF[P[a, b], c, d] * FF[a, b, cdl]
                       - FF[a, b, c] * FF[a, P[b, c], d] * FF[b, c, d])
        i, ic, id_ = np.nonzero(resid > cd.tolerance)
        bad.append((a[i, 0, 0], b[i, 0, 0], ic, id_, resid[i, ic, id_]))
    a, b, c, d, resid = map(np.concatenate, zip(*bad))
    f, l = P[a, b], P[c, d]
    g = P[f, c]
    return _lines(cd, "pentagon: (a,b,c,d,e;f,g,k,l)",
                  dict(a=a, b=b, c=c, d=d, e=P[g, d], f=f, g=g, k=P[b, l], l=l), resid)


def verify_pentagon(cd: CategoryData) -> list:
    """All multiplicity-free pentagon instances

        F^{fcd}_e[g,l] F^{abl}_e[f,k] = sum_h F^{abc}_g[f,h] F^{ahd}_e[g,k] F^{bcd}_k[h,l]

    One report line per violated instance, in order of its printed index
    tuple (a,b,c,d,e,f,g,k,l).  Joined a block of _blocks at a time: (a, b, c)
    counts P = sum_{d,e} (N^e_{abcd})^2 instances and P |b (x) c| h-sum rows.
    """
    if _is_group_ring(cd.ring):
        return _pentagon_pointed(cd)
    N = cd.ring.N
    join, report = _ChannelJoin(cd.ring), []
    for a, b in _blocks((_tree_pairs(_trees(N), cd.ring) * (1 + N.sum(axis=2))).sum(axis=2)):
        inst = join.tuples("abf fcg gde cdl fle blk ake", a=a, b=b)
        hsum = join.tuples("bch ahg hdk", i=np.arange(len(inst["a"])), **inst)
        lhs = _read(cd.F, inst, "fcdegl") * _read(cd.F, inst, "ablefk")
        terms = (_read(cd.F, hsum, "abcgfh") * _read(cd.F, hsum, "ahdegk")
                 * _read(cd.F, hsum, "bcdkhl"))
        report += _lines(cd, "pentagon: (a,b,c,d,e;f,g,k,l)", inst,
                         np.abs(lhs - _sums(hsum["i"], terms, len(lhs))))
    return report


def _hexagon_pointed(cd) -> list:
    """Dense hexagon check for a pointed category, both families."""
    r = cd.ring.rank
    P, FF = _pointed_tables(cd)
    R = cd.R.lookup([*np.indices((r, r)).reshape(2, -1), P.ravel()]).reshape(r, r)
    a, b, c = np.ogrid[:r, :r, :r]
    bc = P[b, c]
    report = []
    for tag, RR in (("hexagon", R), ("hexagon(inverse)", 1.0 / R.T)):
        resid = np.abs(RR[a, b] * FF[b, a, c] * RR[a, c] - FF[a, b, c] * RR[a, bc] * FF[b, c, a])
        for ia, ib, ic in np.argwhere(resid > cd.tolerance):
            e, f = P[ia, ib], P[ia, ic]
            report.append(f"{tag}: (a,b,c,d;e,f)=({ia},{ib},{ic},{P[e, ic]};{e},{f}) "
                          f"residual={resid[ia, ib, ic]:.3e}")
    return report


def verify_hexagon(cd: CategoryData) -> list:
    """Both hexagon families, for braiding scalars rv(a,b,c):

        rv(a,b,e) F^{bac}_d[e,f] rv(a,c,f) = sum_g F^{abc}_d[e,g] rv(a,g,d) F^{bca}_d[g,f]

    first with rv = R, then with the scalars of the inverse braiding,
    rv(a,b,c) = 1 / R^{ba}_c.  One report line per violated instance, each
    family's in order of its printed index tuple (a,b,c,d,e,f); joined by
    _blocks, (a, b, c, d) counting N^d_{abc} N^d_{bac} (e, f) and as many g.
    """
    if cd.R is None:
        raise PreconditionError("verify_hexagon requires R-symbols")
    if _is_group_ring(cd.ring):
        return _hexagon_pointed(cd)
    T, join = _trees(cd.ring.N), _ChannelJoin(cd.ring)
    report = {"hexagon": [], "hexagon(inverse)": []}
    for a, b in _blocks((T * (1 + T) * T.transpose(1, 0, 2, 3)).sum(axis=(2, 3))):
        inst = join.tuples("abe ecd acf bfd", a=a, b=b)
        gsum = join.tuples("bcg agd", i=np.arange(len(inst["a"])), **inst)
        f_lhs = _read(cd.F, inst, "bacdef")
        f_in, f_out = _read(cd.F, gsum, "abcdeg"), _read(cd.F, gsum, "bcadgf")
        for tag, rv in (("hexagon", lambda t, xyz: _read(cd.R, t, xyz)),
                        ("hexagon(inverse)",
                         lambda t, xyz: 1.0 / _read(cd.R, t, xyz[1] + xyz[0] + xyz[2]))):
            lhs = rv(inst, "abe") * f_lhs * rv(inst, "acf")
            rhs = _sums(gsum["i"], f_in * rv(gsum, "agd") * f_out, len(lhs))
            report[tag] += _lines(cd, f"{tag}: (a,b,c,d;e,f)", inst, np.abs(lhs - rhs))
    return report["hexagon"] + report["hexagon(inverse)"]


def _inadmissible_entries(ring, F_entries, R_entries) -> list:
    """A line per F entry (a,b,c,d,e,f) with N^e_{ab} N^d_{ec} N^f_{bc} N^d_{af}
    = 0 and per R entry (a,b,c) with N^c_{ab} = 0: validate_category reports
    them and load_category raises the first."""
    N = ring.N
    F = _key_array(F_entries, 6)
    a, b, c, d, e, f = F.T
    bad = F[N[a, b, e] * N[e, c, d] * N[b, c, f] * N[a, f, d] == 0]
    R = _key_array(R_entries or {}, 3)
    return (["F entry on inadmissible tuple ({},{},{},{},{},{})".format(*k) for k in bad.tolist()]
            + ["R entry on inadmissible channel ({},{},{})".format(*k)
               for k in R[N[tuple(R.T)] == 0].tolist()])


def _f_unitarity(cd) -> list:
    """A line per F-block (a, b, c; d), in that order, whose Gram matrix
    G[e, e'] = sum_f F[e, f] conj F[e', f] is further than 10 * tolerance
    from the identity.  A block's rows are all n x n pairs (e, f) of its
    channels (admissibility splits into a condition on e and one on f, and
    ring associativity makes #e = #f); sorted by (e, f), each row meets the
    n rows with its f, and one bincount sums the products into G.
    """
    report = []
    for cols in _admissible_rows(cd.ring):
        order = np.lexsort(cols[::-1])
        a, b, c, d, e, f = cols = [col[order] for col in cols]
        v = cd.F.lookup(cols)
        start = np.flatnonzero(np.diff([a, b, c, d], prepend=-1).any(axis=0))
        size = np.diff(start, append=len(a))
        block = np.repeat(np.arange(len(start)), size)
        n = np.rint(np.sqrt(size)).astype(np.int64)[block]
        ei, fi = np.divmod(np.arange(len(a)) - start[block], n)
        i, ej = _expand(n)                          # row i = (ei, fi) meets row (ej, fi)
        first = start[block[i]]
        terms = v[i] * v[first + ej * n[i] + fi[i]].conj()
        g = first + ei[i] * n[i] + ej               # G[ei, ej]
        G = _sums(g, terms)
        G[ei == fi] -= 1
        dev = np.maximum.reduceat(np.abs(G), start)
        bad = np.flatnonzero(dev > cd.tolerance * 10)
        report += [f"F-block ({a[s]},{b[s]},{c[s]};{d[s]}) not unitary, dev={x:.3e}"
                   for s, x in zip(start[bad], dev[bad])]
    return report


def validate_category(cd: CategoryData) -> list:
    """Ring axioms, admissibility of the stored entries, F unitarity,
    pentagon, unimodularity and hexagons.  A computed F is admissible by
    construction, and read only through ``lookup``."""
    report = list(validate_fusion_ring(cd.ring))
    if report or cd.partial:
        return report
    ring = cd.ring
    F_entries = {} if isinstance(cd.F, _ComputedF) else cd.F.entries
    report += _inadmissible_entries(ring, F_entries, cd.R and cd.R.entries)
    report += _f_unitarity(cd)
    report += verify_pentagon(cd)
    if cd.R is not None:
        for (a, b, c), v in cd.R.entries.items():
            if ring.N[a, b, c] and abs(abs(v) - 1.0) > cd.tolerance * 10:
                report.append(f"R^{{{a},{b}}}_{c} not unimodular: |R| = {abs(v):.12f}")
        report += verify_hexagon(cd)
    return report


def _finish(ring, F, R_entries, tolerance=CategoryData.tolerance, name=""):
    """The CategoryData of an FSymbolSet or of freshly built entry dicts,
    which it keeps uncopied."""
    F = F if isinstance(F, FSymbolSet) else FSymbolSet._adopt(F)
    return CategoryData(ring=ring, dims=fp_dimensions(ring), F=F,
                        R=RSymbolSet._adopt(R_entries) if R_entries is not None else None,
                        tolerance=tolerance, name=name)


def pointed_from_quadratic_form(qf: QuadraticForm, name="") -> CategoryData:
    """The pointed braided category attached to a quadratic form.

    Per cyclic factor Z/n with parameter t the closed forms are
    F(a,b,c) = exp(pi i t a (b + c - ((b+c) mod n)) / n) and
    R(a,b) = exp(pi i t a b / n); cross terms contribute only to R.

    The form is validated first.  Labels are the elements in
    ``qf.elements()`` order; the product table, duals and R come from
    coordinate arrays over that grid.  F is computed from the closed form,
    per key on its first ``value`` read and per column in ``lookup``, on
    coordinate arrays (see _ComputedF); nothing is computed up front.
    """
    bad = qf.validate()
    if bad:
        raise StructuralError("quadratic form invalid: " + "; ".join(bad[:3]))
    ns = qf.group
    rank = qf.order
    x, P = qf._grid()
    els = qf.elements()
    labels = tuple(".".join(str(a) for a in g) if len(ns) > 1 else str(g[0]) for g in els)
    dual = tuple(np.argmin(P, axis=1).tolist())
    N = np.zeros((rank, rank, rank), dtype=np.int64)
    N[np.arange(rank)[:, None], np.arange(rank)[None, :], P] = 1
    ring = FusionRing(rank=rank, labels=labels, dual=dual, N=N)
    F = _ComputedF(ring, functools.partial(_pointed_f_value, qf, els),
                   functools.partial(_pointed_f_rows, qf, x))
    R = np.exp(1j * np.pi * qf._phase(x[:, :, None], x[:, None, :]))
    R_entries = _keyed([*np.indices((rank, rank)).reshape(2, -1), P.ravel()], R.ravel())
    return CategoryData(ring=ring, dims=fp_dimensions(ring), F=F, R=RSymbolSet(R_entries),
                        name=name or f"pointed{list(ns)}", quadratic_form=qf)


def _pointed_f_value(qf: QuadraticForm, els, a, b, c, d, e, f):
    """F(a, b, c) = exp(pi i qf._f_phase(a, b, c)) at the labels' coordinates."""
    return cmath.exp(1j * math.pi * qf._f_phase(els[a], els[b], els[c]))


def _pointed_f_rows(qf: QuadraticForm, x, cols):
    """_pointed_f_value on label columns, x[i, g] the coordinates of g."""
    return np.exp(1j * np.pi * qf._f_phase(*(x[:, col] for col in cols[:3])))


def kappa_of(cd: CategoryData, g) -> complex:
    """Self-braiding scalar R^{gg}_{g^2} of an invertible object."""
    if not cd.is_pointed():
        raise PreconditionError("kappa_of requires a pointed category (all dims 1)")
    if cd.R is None:
        raise PreconditionError("kappa_of requires braiding data")
    gi = cd.ring.label_index(g)
    (square,) = cd.ring.channels(gi, gi)
    return cd.rval(gi, gi, square)


def reverse_braiding(cd: CategoryData) -> CategoryData:
    """Replace R^{ab}_c by conj(R^{ba}_c); an involution on the entries."""
    if cd.R is None:
        raise PreconditionError("reverse_braiding requires R-symbols")
    R = cd.R.entries
    entries = {(a, b, c): np.conj(R[(b, a, c)]) for a, b, c in R}
    return CategoryData(ring=cd.ring, dims=cd.dims, F=cd.F, R=RSymbolSet._adopt(entries),
                        tolerance=cd.tolerance,
                        name=f"rev({cd.name})" if cd.name else "")


def monoidal_opposite(cd: CategoryData) -> CategoryData:
    """Monoidal opposite, transported along the dual functor.

    The ring becomes opposite_ring(ring); the data transports as
    F_op^{abc}_d[e,f] = conj(F^{c~ b~ a~}_{d~}[f~, e~]) and
    R_op^{ab}_c = R^{b~ a~}_{c~}, where x~ = dual(x).
    """
    ring_op = opposite_ring(cd.ring)
    dl = np.array(cd.ring.dual)
    F_entries = _table(ring_op, lambda cols: np.conj(
        cd.F.lookup([dl[cols[i]] for i in (2, 1, 0, 3, 5, 4)])))
    R_entries = None
    if cd.R is not None:
        a, b, c = np.nonzero(ring_op.N)
        R_entries = dict(_keyed((a, b, c), cd.R.lookup([dl[b], dl[a], dl[c]])))
    return _finish(ring_op, F_entries, R_entries, tolerance=cd.tolerance,
                   name=f"op({cd.name})" if cd.name else "")


def _keyed(cols, vals):
    """(row of cols, value) pairs for index columns and an array of values."""
    return zip(zip(*(c.tolist() for c in cols)), vals.tolist())


def _admissible_rows(ring):
    """The columns (a, b, c, d, e, f) of every admissible tuple with no unit
    leg, in (a, b, e, c, d, f) order, a block of _blocks at a time, (a, b,
    c, d) counting (N^d_{abc})^2 pairs (e, f)."""
    join = _ChannelJoin(ring)
    for a, b in _blocks(np.pad(_tree_pairs(ring.N[1:, 1:], ring), ((1, 0), (1, 0)))):
        t = join.tuples("abe ecd bcf afd", a=a, b=b)
        keep = t["c"] > 0
        t = [t[x][keep] for x in "abcdef"]      # the join's own columns go before the yield
        yield t


def _table(ring, read) -> dict:
    """{(a, b, c, d, e, f): read(cols)} over _admissible_rows."""
    return {k: v for cols in _admissible_rows(ring) for k, v in _keyed(cols, read(cols))}


def deligne_product_data(c1: CategoryData, c2: CategoryData) -> CategoryData:
    """Deligne product: ring product, componentwise F (and R when both braided).

    The pair (i, j) has index i * rank2 + j; each F entry is the product of
    the two factors' entries: ``value`` multiplies the factors' values on a
    key's first read, ``lookup`` the factors' lookups on the split columns
    (see _ComputedF).  The product holds its immutable factors, so
    ``copy.deepcopy`` of it copies them too.
    """
    ring = deligne_product(c1.ring, c2.ring)
    k = c2.ring.rank
    R_entries = None
    if c1.R is not None and c2.R is not None:
        cols = np.nonzero(ring.N)
        R_entries = dict(_keyed(cols, _split_product(c1.R, c2.R, k, cols)))
    name = f"{c1.name}(x){c2.name}" if c1.name and c2.name else ""
    F = _ComputedF(ring, functools.partial(_deligne_f_value, c1, c2),
                   functools.partial(_split_product, c1.F, c2.F, k))
    return _finish(ring, F, R_entries, tolerance=max(c1.tolerance, c2.tolerance), name=name)


def _deligne_f_value(c1, c2, a, b, c, d, e, f):
    """The product c1.fval * c2.fval at the split labels."""
    k = c2.ring.rank
    return (c1.fval(a // k, b // k, c // k, d // k, e // k, f // k)
            * c2.fval(a % k, b % k, c % k, d % k, e % k, f % k))


def _split_product(S1, S2, k, cols):
    """S1.lookup(cols // k) * S2.lookup(cols % k), multiplied as Python
    multiplies complex numbers (numpy's complex product may round otherwise)."""
    x, y = (S.lookup(c) for S, c in zip((S1, S2), np.divmod(np.array(cols), k)))
    return (x.real * y.real - x.imag * y.imag) + 1j * (x.real * y.imag + x.imag * y.real)


# ---------------------------------------------------------------------------
# file I/O


def _decode_value(v):
    """A value of a data file: [re, im] with finite real re and im, or
    {"rou": [k, n]} with integers k and n >= 1 for exp(2 pi i k / n), times
    an optional finite real "coeff"; StructuralError on anything else."""
    def real(x):                # a bool is not a number here, nor NaN or inf
        return type(x) in (int, float) and -math.inf < x < math.inf
    try:
        if isinstance(v, (list, tuple)) and len(v) == 2 and all(map(real, v)):
            return complex(float(v[0]), float(v[1]))
        if isinstance(v, dict) and "rou" in v:
            (k, n), coeff = v["rou"], v.get("coeff", 1.0)
            if type(k) is type(n) is int and n >= 1 and real(coeff):
                return float(coeff) * cmath.exp(2j * math.pi * k / n)
    except (TypeError, ValueError, OverflowError):  # not a pair, or too large for a float
        pass
    raise StructuralError(f"cannot decode complex value {v!r}")


def _encode_value(z):
    z = complex(z)
    return [z.real, z.imag]


def save_category(cd: CategoryData, path):
    """Write the documented JSON category format (format 1).

    Complex values are written as [re, im] float pairs; floats round-trip
    exactly through json, so save -> load -> save is byte identical.
    """
    ring = cd.ring
    doc = {
        "format": 1,
        "rank": ring.rank,
        "labels": list(ring.labels),
        "unit": 0,
        "dual": list(ring.dual),
        "N": [[a, b, c, int(ring.N[a, b, c])] for a, b, c in np.argwhere(ring.N).tolist()],
        "dims_hint": [float(x) for x in cd.dims.dims],
        "tolerance": cd.tolerance,
    }
    if cd.partial:
        doc["partial"] = True
    else:
        doc["F"] = [[a, b, c, d, e, f, _encode_value(v)]
                    for (a, b, c, d, e, f), v in sorted(cd.F.entries.items())]
        if cd.R is not None:
            doc["R"] = [[a, b, c, _encode_value(v)]
                        for (a, b, c), v in sorted(cd.R.entries.items())]
    _write_json(doc, path)


def _write_json(doc: dict, path):
    """Write doc with sorted keys, one line per key and one per row of a list
    of rows.  Every line goes through json.dumps's C encoder (an indented
    json.dump runs the pure-Python one)."""
    lines = []
    for key in sorted(doc):
        val = doc[key]
        if isinstance(val, list) and val and isinstance(val[0], list):
            val = "[\n" + ",\n".join(map(json.dumps, val)) + "\n]"
        else:
            val = json.dumps(val)
        lines.append(f"{json.dumps(key)}: {val}")
    with open(path, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


def _load_labelled(cd: CategoryData, path, kind, field):
    """(support, {(x, y, z): value}) of an algebra or module file, its
    labels resolved in cd."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != 1:
        raise StructuralError(f"unsupported {kind} format {doc.get('format')!r}")
    label = cd.ring.label_index
    return (tuple(label(x) for x in doc["support"]),
            {(label(x), label(y), label(z)): _decode_value(v) for x, y, z, v in doc[field]})


def _save_labelled(cd: CategoryData, support, field, values, path):
    """Write an algebra or module file: its support and labelled values."""
    labels = cd.ring.labels
    _write_json({"format": 1, "support": [labels[x] for x in support],
                 field: [[labels[x], labels[y], labels[z], _encode_value(v)]
                         for (x, y, z), v in sorted(values.items())]}, path)


def load_category(path, validate=True, tolerance=None) -> CategoryData:
    """Load the JSON category format; validation, of the ring alone for a
    partial file, runs unless suppressed.

    With ``validate=False`` the data loads without the coherence checks,
    and ``validate_category`` can report on it later.
    ``tolerance`` replaces the file's tolerance, for validation included.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != 1:
        raise StructuralError(f"unsupported format marker {doc.get('format')!r}")
    rank = int(doc["rank"])
    labels = doc.get("labels") or [str(i) for i in range(rank)]
    if len(labels) != rank:
        raise StructuralError("labels length does not match rank")
    if int(doc.get("unit", 0)) != 0:
        raise StructuralError("unit label must be index 0")
    dual = [int(x) for x in doc["dual"]]
    ring = FusionRing.from_sparse(rank, doc["N"], dual, labels)
    if (ring.N > 1).any():
        raise StructuralError("multiplicity > 1 is out of scope for this format")
    partial = bool(doc.get("partial", False))    # ring and dims only: F and R are not read
    tol = doc.get("tolerance", CategoryData.tolerance) if tolerance is None else tolerance
    F_entries = {} if partial else {
        (int(a), int(b), int(c), int(d), int(e), int(f)): _decode_value(v)
        for a, b, c, d, e, f, v in doc.get("F", [])}
    R_entries = None if partial or "R" not in doc else {
        (int(a), int(b), int(c)): _decode_value(v) for a, b, c, v in doc["R"]}
    bad = _inadmissible_entries(ring, F_entries, R_entries)
    if bad:
        raise StructuralError(bad[0])
    cd = CategoryData(ring=ring, dims=fp_dimensions(ring), F=FSymbolSet._adopt(F_entries),
                      R=RSymbolSet._adopt(R_entries) if R_entries is not None else None,
                      tolerance=tol, partial=partial)
    if validate:
        report = validate_category(cd)
        if report:
            raise ValidationFailure(
                f"category data failed validation ({len(report)} problems); "
                f"first: {report[0]}", report)
    return cd
