"""Compare op outputs with the reference outputs stored in reference.json.

Numbers agree when |out - ref| <= 1e-8 * max(1, |ref|).  Complex numbers are
[re, im] pairs.  The order of center simples (and of condensed simples) among
equal (dim, twist, underlying) keys follows the seeded decomposition, so
those lists are matched up to a permutation that must also carry S (or the
double-braid trace and fusion tensor) onto the reference.
"""

from __future__ import annotations

import json
import os

TOL = 1e-8
MATCH_STEPS = 200_000

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def close(a, b):
    return abs(a - b) <= TOL * max(1.0, abs(b))


def diff(out, ref, where="$"):
    """None when out matches ref, else a description of the first mismatch."""
    if isinstance(ref, dict):
        if not isinstance(out, dict) or set(out) != set(ref):
            return f"{where}: keys {sorted(out) if isinstance(out, dict) else out!r}"
        for k in ref:
            d = diff(out[k], ref[k], f"{where}.{k}")
            if d:
                return d
        return None
    if isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            return f"{where}: length differs"
        for i, (o, r) in enumerate(zip(out, ref)):
            d = diff(o, r, f"{where}[{i}]")
            if d:
                return d
        return None
    if isinstance(ref, bool) or ref is None or isinstance(ref, str):
        return None if out == ref else f"{where}: {out!r} != {ref!r}"
    if isinstance(out, bool) or not isinstance(out, (int, float)):
        return f"{where}: {out!r} is not a number"
    return None if close(out, ref) else f"{where}: {out!r} != {ref!r}"


def _cmat(m):
    return [[complex(*z) for z in row] for row in m]


def match(sig_out, sig_ref, mats_out=(), mats_ref=(), full=None):
    """Is there a bijection p with sig_out[i] ~ sig_ref[p(i)], every
    M_out[i][k] ~ M_ref[p(i)][p(k)], and full(p) true?"""
    n = len(sig_out)
    if n != len(sig_ref):
        return False
    cand = [[j for j in range(n) if diff(sig_out[i], sig_ref[j]) is None] for i in range(n)]
    order = sorted(range(n), key=lambda i: len(cand[i]))
    perm, used = {}, set()
    steps = [0]

    def fits(i, j):
        for mo, mr in zip(mats_out, mats_ref):
            if not close(mo[i][i], mr[j][j]):
                return False
            for i2, j2 in perm.items():
                if not (close(mo[i][i2], mr[j][j2]) and close(mo[i2][i], mr[j2][j])):
                    return False
        return True

    def extend(k):
        if k == n:
            return full is None or full(perm)
        i = order[k]
        for j in cand[i]:
            steps[0] += 1
            if steps[0] > MATCH_STEPS:
                return False
            if j in used or not fits(i, j):
                continue
            perm[i] = j
            used.add(j)
            if extend(k + 1):
                return True
            del perm[i]
            used.discard(j)
        return False

    return extend(0)


def check_center(out, ref):
    if out["rank"] != ref["rank"]:
        return f"rank {out['rank']} != {ref['rank']}"
    for key in set(out["checks"]) & set(ref["checks"]):
        d = diff(out["checks"][key], ref["checks"][key], f"checks.{key}")
        if d:
            return d
    sig = lambda c: [[d, t, u] for d, t, u in zip(c["dims"], c["twists"], c["underlying"])]
    if not match(sig(out), sig(ref), [_cmat(out["S"])], [_cmat(ref["S"])]):
        return "center simples and S do not match the reference up to relabelling"
    return None


def check_theorem_c(out, ref):
    rest = lambda r: {k: v for k, v in r.items() if k not in ("dims", "twists")}
    d = diff(rest(out), rest(ref))
    if d:
        return d
    sig = lambda r: [[d, t] for d, t in zip(r["dims"], r["twists"])]
    if not match(sig(out), sig(ref)):
        return "center dims and twists do not match the reference"
    return None


def check_condense(out, ref):
    if out["count"] != ref["count"]:
        return f"count {out['count']} != {ref['count']}"
    No, Nr = out["N"], ref["N"]
    n = len(Nr)

    def same_ring(p):
        return all(No[a][b][c] == Nr[p[a]][p[b]][p[c]]
                   for a in range(n) for b in range(n) for c in range(n))

    if not match([[x] for x in out["dims_over_Q"]], [[x] for x in ref["dims_over_Q"]],
                 [_cmat(out["double_braid_trace"])], [_cmat(ref["double_braid_trace"])],
                 full=same_ring):
        return "condensed simples do not match the reference up to relabelling"
    return None


def check_cli(out, ref):
    """out/ref: {"exit": code, "json": parsed stdout}."""
    if out["exit"] != ref["exit"]:
        return f"exit code {out['exit']} != {ref['exit']}"
    doc, rdoc = out["json"], ref["json"]
    if "S" not in rdoc:
        return diff(doc, rdoc)
    rest = lambda r: {k: v for k, v in r.items()
                      if k not in ("dims", "twists", "underlying", "S", "T")}
    d = diff(rest(doc), rest(rdoc))
    if d:
        return d
    if doc["T"] != doc["twists"]:
        return "T differs from the twists"
    return check_center(doc, rdoc)


def product_center(a):
    """Z(C (x) D) from Z(C) and Z(D) data: products of dims and twists, tensor
    products of S and of the underlying multiplicities."""
    pairs = [(i, j) for i in range(a["rank"]) for j in range(a["rank"])]
    cm = lambda z, w: [z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0]]
    dims = [a["dims"][i] * a["dims"][j] for i, j in pairs]
    total = sum(d * d for d in dims)
    return {
        "rank": len(pairs),
        "dims": dims,
        "twists": [cm(a["twists"][i], a["twists"][j]) for i, j in pairs],
        "underlying": [[x * y for x in a["underlying"][i] for y in a["underlying"][j]]
                       for i, j in pairs],
        "S": [[cm(a["S"][i][k], a["S"][j][l]) for k, l in pairs] for i, j in pairs],
        "checks": {"sum_dim_sq": total, "global_dim_sq": total, "dims_identity": True,
                   "nondegenerate": True, "trivial_centralizer": True},
    }
