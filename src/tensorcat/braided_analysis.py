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

from .category_data import CategoryData, _sums
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
    r, d = cd.ring.rank, cd.dims.dims
    a, c = np.nonzero(cd.ring.N[np.arange(r), np.arange(r)])    # the channels of a (x) a
    return TwistData(theta=_sums(a, d[c] / d[a] * cd.R.lookup([a, a, c]), r))


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
    """True iff the Muger center is trivial: only the unit centralizes every
    label.  For braided fusion data this is the invertibility of s~."""
    return _sub_nondegenerate(cd, range(cd.ring.rank), s_matrix(cd).s)


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


def _centralizes(cd, sub, s):
    """Mask over the labels a with s[a, x] = d_a d_x for every x in sub,
    within 10 tolerance max(1, d_max^2); s is cd's s~, computed by the caller."""
    sub = list(sub)
    d = cd.dims.dims
    tol = cd.tolerance * max(1.0, float(d.max()) ** 2) * 10
    return np.all(np.abs(s[:, sub] - np.outer(d, d[sub])) < tol, axis=1)


def _sub_nondegenerate(cd, sub, s):
    """Only the unit of the closed label set sub centralizes sub, s being cd's s~."""
    return np.flatnonzero(_centralizes(cd, sub, s)[list(sub)]).tolist() == [0]


def _unitarity_dev(S):
    """max |S S^dagger - 1|, 0 exactly when S is unitary."""
    return np.max(np.abs(S @ S.conj().T - np.eye(len(S))))


def muger_centralizer(cd: CategoryData, sub) -> tuple:
    """Labels a with s~_{ax} = d_a d_x for every x in sub."""
    if cd.R is None:
        raise PreconditionError("centralizer requires R-symbols")
    sub = check_label_subset(cd, sub)
    return tuple(np.flatnonzero(_centralizes(cd, sub, s_matrix(cd).s)).tolist())


def restriction_hom(cd: CategoryData, sub) -> SubcategoryRestriction:
    """The map f with gamma_b|_sub = gamma_{f(b)}|_sub for each b.

    Requires the restriction of the braiding to sub to be nondegenerate,
    which makes {gamma_y}_{y in sub} a complete set of characters; f is
    then total and unique.
    """
    sub = check_label_subset(cd, sub)
    s = s_matrix(cd).s          # once, for the nondegeneracy test and the characters
    if not _sub_nondegenerate(cd, sub, s):
        raise PreconditionError("restriction of the braiding to sub is degenerate")
    idx = np.array(sub)
    g = s[:, idx] / cd.dims.dims[:, None]       # gamma_b(y) for y in sub
    tol = cd.residual_tolerance * max(1.0, float(cd.dims.dims.max()) ** 2)
    # match[b, j]: gamma_b and gamma_{sub[j]} agree on sub
    match = np.array([np.abs(g - g[y]).max(axis=1) for y in idx]).T < tol
    # distinct sub labels must have distinct restricted characters
    pairs = np.argwhere(np.triu(match[idx], 1))
    if pairs.size:
        y, z = idx[pairs[0]]
        raise PreconditionError(f"degenerate sub: gamma_{y} and gamma_{z} agree on sub")
    bad = np.flatnonzero(match.sum(axis=1) != 1)
    if bad.size:
        raise PreconditionError(f"no unique restriction match for label {bad[0]}: "
                                f"candidates {idx[match[bad[0]]].tolist()}")
    return SubcategoryRestriction(sub=sub, f=tuple(idx[match.argmax(axis=1)].tolist()))


def verify_hypergroup_hom(cd: CategoryData, sr: SubcategoryRestriction) -> list:
    """Check sum_{c in f^-1(y)} M^c_{ab} = M^y_{f(a) f(b)} for all a, b, y."""
    M = hypergroup_coeffs(cd.ring, cd.dims).M
    f, sub = np.array(sr.f), list(sr.sub)
    lhs = M @ (f[:, None] == sub)
    rhs = M[np.ix_(f, f, sub)]
    return [f"hypergroup hom fails at (a,b,y)=({a},{b},{sub[j]}): "
            f"{lhs[a, b, j]:.12f} != {rhs[a, b, j]:.12f}"
            for a, b, j in np.argwhere(np.abs(lhs - rhs) > cd.residual_tolerance)]


def find_centralizing_object(cd: CategoryData, sub):
    """Least-index label outside sub whose character restricts to dims.

    For a proper, nondegenerately braided sub this always succeeds; the
    caller may rely on a non-None result in that situation.
    """
    sub = check_label_subset(cd, sub)
    if len(sub) == cd.ring.rank:
        raise PreconditionError("sub must be a proper subset of the labels")
    sr = restriction_hom(cd, sub)
    for a in range(cd.ring.rank):
        if a not in sub and sr.f[a] == 0:
            return a
    return None
