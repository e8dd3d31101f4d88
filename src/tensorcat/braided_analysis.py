"""Modular-style analysis of braided category data.

Twists, the unnormalized S-matrix s~_{ab} = tr(sigma_{b,a} sigma_{a,b}),
the character table gamma_a(b) = s~_{ab} / d_a of the fusion ring, Muger
centralizers, the restriction map onto a nondegenerate fusion subcategory,
and the search for a centralizing object outside a proper subcategory.

gamma_a is normalized by 1/d_a: this is the unique normalization for which
the character law gamma_a(b) gamma_a(c) = sum_d N^d_{bc} gamma_a(d), the
centralizer criterion gamma_c|_D = dims|_D, and the product expansion

    gamma_a(c) gamma_b(c) / d_c = sum_e (d_e / d_a d_b) N^e_{ab} gamma_e(c)

hold simultaneously.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .category_data import CategoryData
from .errors import PreconditionError
from .fusion_ring import hypergroup_coeffs

__all__ = [
    "TwistData", "SMatrix", "CharacterTable", "SubcategoryRestriction",
    "twists", "s_matrix", "gamma_characters", "is_nondegenerate",
    "muger_centralizer", "restriction_hom", "verify_hypergroup_hom",
    "find_centralizing_object", "check_label_subset",
]


@dataclass(frozen=True)
class TwistData:
    """Ribbon twists theta_a = sum_c (d_c / d_a) R^{aa}_c; theta_0 = 1."""

    theta: np.ndarray


@dataclass(frozen=True)
class SMatrix:
    """Unnormalized S-matrix s~_{ab} = tr(sigma_{b,a} sigma_{a,b})."""

    s: np.ndarray


@dataclass(frozen=True)
class CharacterTable:
    """Gamma[a, b] = gamma_a(b) = s~_{ab} / d_a."""

    gamma: np.ndarray


@dataclass(frozen=True)
class SubcategoryRestriction:
    """A fusion-closed label set together with f: Irr(C) -> sub."""

    sub: tuple
    f: tuple


def twists(cd: CategoryData) -> TwistData:
    if cd.R is None:
        raise PreconditionError("twists require R-symbols")
    ring, d = cd.ring, cd.dims.dims
    theta = np.array([
        sum((d[c] / d[a]) * cd.rval(a, a, c) for c in ring.channels(a, a))
        for a in range(ring.rank)], dtype=complex)
    return TwistData(theta=theta)


def s_matrix(cd: CategoryData) -> SMatrix:
    """s~_{ab} = sum_c N^c_{ab} (theta_c / theta_a theta_b) d_c, the complex
    conjugate of Bakalov-Kirillov's (which sums over N^c_{a* b}): for S =
    s~ / D, D^2 = sum_a d_a^2, T = diag(theta) and p+ = sum_a theta_a d_a^2,
    a modular category has (S T^-1)^3 = conj(p+ / D) S^2, not (S T)^3 = (p+ / D) S^2."""
    th = twists(cd).theta
    s = np.einsum("abc,c->ab", cd.ring.N, th * cd.dims.dims) / np.outer(th, th)
    return SMatrix(s=s)


def gamma_characters(cd: CategoryData) -> CharacterTable:
    s = s_matrix(cd).s
    return CharacterTable(gamma=s / cd.dims.dims[:, None])


def is_nondegenerate(cd: CategoryData) -> bool:
    """True iff s~ is invertible (smallest singular value > rank * tolerance)."""
    return _sub_nondegenerate(cd, list(range(cd.ring.rank)))


def check_label_subset(cd: CategoryData, sub) -> tuple:
    """Normalize a label set; require 0 in sub, fusion- and dual-closed.
    An error names the first offence by ascending a, its dual before (b, c)."""
    ring = cd.ring
    idx = sorted({ring.label_index(x) for x in sub})
    if 0 not in idx:
        raise PreconditionError("subcategory must contain the unit label 0")
    out = np.flatnonzero(~np.isin(np.arange(ring.rank), idx))
    dual_out = np.isin(np.asarray(ring.dual)[idx], out)
    fused_out = ring.N[np.ix_(idx, idx, out)] > 0
    bad = np.flatnonzero(dual_out | fused_out.any(axis=(1, 2)))
    if bad.size:
        a = idx[bad[0]]
        if dual_out[bad[0]]:
            raise PreconditionError(f"label set not dual-closed at {a}")
        j, k = np.argwhere(fused_out[bad[0]])[0]
        raise PreconditionError(f"label set not fusion-closed: {a} x {idx[j]} contains {out[k]}")
    return tuple(idx)


def _sub_nondegenerate(cd, sub):
    s = s_matrix(cd).s
    block = s[np.ix_(sub, sub)]
    smin = np.linalg.svd(block, compute_uv=False)[-1]
    return bool(smin > len(sub) * cd.tolerance)


def muger_centralizer(cd: CategoryData, sub) -> tuple:
    """Labels a with s~_{ax} = d_a d_x for every x in sub."""
    if cd.R is None:
        raise PreconditionError("centralizer requires R-symbols")
    sub = list(check_label_subset(cd, sub))
    d = cd.dims.dims
    tol = cd.tolerance * max(1.0, float(d.max()) ** 2) * 10
    dev = np.abs(s_matrix(cd).s[:, sub] - np.outer(d, d[sub]))
    return tuple(int(a) for a in np.flatnonzero(np.all(dev < tol, axis=1)))


def restriction_hom(cd: CategoryData, sub) -> SubcategoryRestriction:
    """The map f with gamma_b|_sub = gamma_{f(b)}|_sub for each b.

    Requires the restriction of the braiding to sub to be nondegenerate,
    which makes {gamma_y}_{y in sub} a complete set of characters; f is
    then total and unique.
    """
    sub = check_label_subset(cd, sub)
    if not _sub_nondegenerate(cd, sub):
        raise PreconditionError("restriction of the braiding to sub is degenerate")
    gamma = gamma_characters(cd).gamma
    d = cd.dims.dims
    tol = cd.residual_tolerance * max(1.0, float(d.max()) ** 2)
    # distinct sub labels must have distinct restricted characters
    for i, y in enumerate(sub):
        for z in sub[i + 1:]:
            if max(abs(gamma[y, x] - gamma[z, x]) for x in sub) < tol:
                raise PreconditionError(
                    f"degenerate sub: gamma_{y} and gamma_{z} agree on sub")
    f = []
    for b in range(cd.ring.rank):
        matches = [y for y in sub
                   if max(abs(gamma[b, x] - gamma[y, x]) for x in sub) < tol]
        if len(matches) != 1:
            raise PreconditionError(
                f"no unique restriction match for label {b}: candidates {matches}")
        f.append(matches[0])
    for x in sub:
        assert f[x] == x
    return SubcategoryRestriction(sub=sub, f=tuple(f))


def verify_hypergroup_hom(cd: CategoryData, sr: SubcategoryRestriction) -> list:
    """Check sum_{c in f^-1(y)} M^c_{ab} = M^y_{f(a) f(b)} for all a, b, y."""
    M = hypergroup_coeffs(cd.ring, cd.dims).M
    r = cd.ring.rank
    f = sr.f
    tol = cd.residual_tolerance
    report = []
    for a in range(r):
        for b in range(r):
            for y in sr.sub:
                lhs = sum(M[a, b, c] for c in range(r) if f[c] == y)
                rhs = M[f[a], f[b], y]
                if abs(lhs - rhs) > tol:
                    report.append(
                        f"hypergroup hom fails at (a,b,y)=({a},{b},{y}): "
                        f"{lhs:.12f} != {rhs:.12f}")
    return report


def find_centralizing_object(cd: CategoryData, sub):
    """Least-index label outside sub whose character restricts to dims.

    For a proper, nondegenerately braided sub this always succeeds; the
    caller may rely on a non-None result in that situation.
    """
    sub = check_label_subset(cd, sub)
    if len(sub) == cd.ring.rank:
        raise PreconditionError("sub must be a proper subset of the labels")
    if not _sub_nondegenerate(cd, sub):
        raise PreconditionError("restriction of the braiding to sub is degenerate")
    sr = restriction_hom(cd, sub)
    for a in range(cd.ring.rank):
        if a not in sub and sr.f[a] == 0:
            return a
    return None
