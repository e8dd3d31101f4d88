"""Built-in category data.

Every entry passes pentagon and hexagon validation at the default tolerance;
the test suite enforces this, including for all pairwise Deligne products.
"""

from __future__ import annotations

import cmath
import dataclasses
import math

import numpy as np

from .category_data import (CategoryData, QuadraticForm, _finish,
                            pointed_from_quadratic_form)
from .errors import StructuralError
from .fusion_ring import FusionRing

__all__ = ["catalog_names", "catalog_category", "fibonacci", "ising", "semion",
           "toric_code", "vec_zn"]

_PHI = (1.0 + math.sqrt(5.0)) / 2.0


def fibonacci() -> CategoryData:
    """Rank 2, t*t = 1 + t, d_t the golden ratio."""
    N = np.zeros((2, 2, 2), dtype=np.int64)
    N[0, 0, 0] = N[0, 1, 1] = N[1, 0, 1] = 1
    N[1, 1, 0] = N[1, 1, 1] = 1
    ring = FusionRing(rank=2, labels=("1", "t"), dual=(0, 1), N=N)
    s = 1.0 / math.sqrt(_PHI)
    F = {
        (1, 1, 1, 1, 0, 0): 1.0 / _PHI,
        (1, 1, 1, 1, 0, 1): s,
        (1, 1, 1, 1, 1, 0): s,
        (1, 1, 1, 1, 1, 1): -1.0 / _PHI,
        (1, 1, 1, 0, 1, 1): 1.0,
    }
    R = {
        (1, 1, 0): cmath.exp(-4j * math.pi / 5.0),
        (1, 1, 1): cmath.exp(3j * math.pi / 5.0),
    }
    return _finish(ring, F, R, name="fibonacci")


def ising() -> CategoryData:
    """Rank 3 (1, s, p): s*s = 1 + p, s*p = s, p*p = 1; theta_s = exp(i pi/8)."""
    N = np.zeros((3, 3, 3), dtype=np.int64)
    for a in range(3):
        N[0, a, a] = N[a, 0, a] = 1
    N[1, 1, 0] = N[1, 1, 2] = 1   # s s = 1 + p
    N[1, 2, 1] = N[2, 1, 1] = 1   # s p = p s = s
    N[2, 2, 0] = 1                # p p = 1
    ring = FusionRing(rank=3, labels=("1", "s", "p"), dual=(0, 1, 2), N=N)
    s2 = 1.0 / math.sqrt(2.0)
    F = {
        (1, 1, 1, 1, 0, 0): s2,
        (1, 1, 1, 1, 0, 2): s2,
        (1, 1, 1, 1, 2, 0): s2,
        (1, 1, 1, 1, 2, 2): -s2,
        (1, 2, 1, 0, 1, 1): 1.0,
        (1, 2, 1, 2, 1, 1): -1.0,
        (2, 1, 2, 1, 1, 1): -1.0,
        (2, 1, 1, 0, 1, 2): 1.0,
        (2, 1, 1, 2, 1, 0): 1.0,
        (1, 1, 2, 2, 0, 1): 1.0,
        (1, 1, 2, 0, 2, 1): 1.0,
        (2, 2, 1, 1, 0, 1): 1.0,
        (1, 2, 2, 1, 1, 0): 1.0,
        (2, 2, 2, 2, 0, 0): 1.0,
    }
    R = {
        (1, 1, 0): cmath.exp(-1j * math.pi / 8.0),
        (1, 1, 2): cmath.exp(3j * math.pi / 8.0),
        (1, 2, 1): -1j,
        (2, 1, 1): -1j,
        (2, 2, 0): -1.0 + 0j,
    }
    return _finish(ring, F, R, name="ising")


def semion() -> CategoryData:
    return pointed_from_quadratic_form(QuadraticForm(group=(2,), t=(1,)), name="semion")


def vec_zn(n: int, t: int = 0, name="") -> CategoryData:
    """Pointed category on Z/n with quadratic-form parameter t (mod 2n)."""
    return pointed_from_quadratic_form(QuadraticForm(group=(n,), t=(t,)),
                                       name=name or f"vec_z{n}" + (f"_t{t}" if t else ""))


def toric_code() -> CategoryData:
    """Pointed on Z/2 x Z/2 with q(e) = q(m) = 1, q(f) = -1."""
    cd = pointed_from_quadratic_form(
        QuadraticForm(group=(2, 2), t=(0, 0), cross={(0, 1): 1}), name="toric_code")
    relabeled = FusionRing(rank=4, labels=("1", "e", "m", "f"), dual=cd.ring.dual, N=cd.ring.N)
    return dataclasses.replace(cd, ring=relabeled)


_CATALOG = {
    "fibonacci": fibonacci,
    "ising": ising,
    "semion": semion,
    "toric_code": toric_code,
    "vec_z1": lambda: vec_zn(1, 0),
    "vec_z2": lambda: vec_zn(2, 0),
    "vec_z3": lambda: vec_zn(3, 2),
    "vec_z4": lambda: vec_zn(4, 1),
    "vec_z5": lambda: vec_zn(5, 2),
    "vec_z6": lambda: vec_zn(6, 1),
}


def catalog_names() -> list:
    return sorted(_CATALOG)


def catalog_category(name: str) -> CategoryData:
    try:
        build = _CATALOG[name]
    except KeyError:
        raise StructuralError(
            f"unknown catalog category {name!r}; available: {', '.join(catalog_names())}"
        ) from None
    return build()
