"""Identities of the Drinfeld center that need no file and no second
implementation (Mueger 2003; Davydov-Mueger-Nikshych-Ostrik 2013).

- Z(C^mop) is Z(C)^rev, and C^mop is Morita equivalent to C: the
  (dim, twist) multiset of Z(monoidal_opposite(C)) is Z(C)'s, and that
  multiset is closed under complex conjugation.
- The canonical Lagrangian algebra I(1) has multiplicities m_z =
  underlying(z)[0]: S m = m with S normalized by D = sum_i d_i^2, theta_z = 1
  wherever m_z > 0, and sum_z m_z dim_z = D.
- The tube algebra of a Deligne product is the Kronecker product of the
  factors' tube algebras, up to the order of its basis.
"""

import itertools

import numpy as np
import pytest

from tensorcat.catalog import catalog_category, catalog_names, vec_zn
from tensorcat.category_data import deligne_product_data, monoidal_opposite
from tensorcat.center_tube import build_tube_algebra, decompose_center
from tensorcat.errors import StructuralError

from oracles import psu2_category, su2_category, tube_by_product


def _categories():
    """The catalog, fib (x) ising, every valid vec_zn(n, t) for n <= 6,
    PSU(2)_6 and SU(2)_4."""
    cds = [catalog_category(name) for name in catalog_names()]
    cds.append(deligne_product_data(catalog_category("fibonacci"), catalog_category("ising")))
    for n, t in itertools.product(range(1, 7), range(12)):
        if t < 2 * n:
            try:
                cds.append(vec_zn(n, t))
            except StructuralError:     # t names no quadratic form on Z/n
                pass
    return cds + [psu2_category(6), su2_category(4)]


def _signature(dims, twists):
    """The (dim, twist) pairs sorted by their rounded values."""
    keys = np.round([dims, twists.real, twists.imag], 9) + 0.0
    order = np.lexsort(keys[::-1])
    return dims[order], twists[order]


def _same_multiset(a, b, tol):
    (da, ta), (db, tb) = _signature(*a), _signature(*b)
    return len(da) == len(db) and max(np.abs(da - db).max(), np.abs(ta - tb).max()) < tol


def _data(center):
    """(dims, twists, unit multiplicities m, S) of a center."""
    return (np.array([z.dim for z in center.simples]), np.diag(center.T).copy(),
            np.array([z.underlying[0] for z in center.simples], dtype=float), center.S)


def _broken(cd, data, opposite):
    """The names of the identities that the center data of cd break, with
    opposite the (dims, twists) of Z(monoidal_opposite(cd))."""
    dims, twists, m, S = data
    D = float(np.sum(cd.dims.dims ** 2))
    tol = cd.identity_tolerance
    devs = {"Z(C^mop) has Z(C)'s (dim, twist)": not _same_multiset((dims, twists), opposite, tol),
            "closed under conjugation": not _same_multiset((dims, twists),
                                                           (dims, twists.conj()), tol),
            "S m = m": np.abs(S @ m / D - m).max() >= tol,
            "theta = 1 on m": np.abs(twists[m > 0] - 1).max() >= tol,
            "sum m dim = D": abs(m @ dims - D) >= tol}
    return [name for name, broken in devs.items() if broken]


def _centers(cd):
    """The center data of cd and the (dims, twists) of Z(monoidal_opposite(cd))."""
    opposite = _data(decompose_center(build_tube_algebra(monoidal_opposite(cd))))
    return _data(decompose_center(build_tube_algebra(cd))), opposite[:2]


def test_center_identities_hold():
    cds = _categories()
    assert len(cds) == 46
    for cd in cds:
        data, opposite = _centers(cd)
        assert not _broken(cd, data, opposite), cd.name


@pytest.mark.parametrize("name", ["ising", "vec_z3", "fib*ising"])
def test_center_identities_see_swapped_data(name):
    """Swapping the underlying objects of two simples with different unit
    multiplicities, or the twists of two simples with unequal twists and
    unequal dims or unit multiplicities, breaks at least one identity.  A
    swap between two simples that agree in dim and in unit multiplicity
    keeps every multiset the identities read, and is not counted."""
    cd = (deligne_product_data(catalog_category("fibonacci"), catalog_category("ising"))
          if name == "fib*ising" else catalog_category(name))
    (dims, twists, m, S), opposite = _centers(cd)
    tol = cd.identity_tolerance
    swaps = 0
    for z, w in itertools.combinations(range(len(dims)), 2):
        p = np.arange(len(dims))
        p[[z, w]] = w, z
        if m[z] != m[w]:
            assert _broken(cd, (dims, twists, m[p], S), opposite), (name, "underlying", z, w)
            swaps += 1
        if abs(twists[z] - twists[w]) > tol and (abs(dims[z] - dims[w]) > tol or m[z] != m[w]):
            assert _broken(cd, (dims, twists[p], m, S), opposite), (name, "twist", z, w)
            swaps += 1
    assert swaps > 0


@pytest.mark.parametrize("left,right", [("fibonacci", "ising"), ("ising", "vec_zn(3,2)"),
                                        ("PSU(2)_6", "fibonacci")])
def test_product_tube_is_the_kronecker_product_of_the_factors(left, right):
    """The tube of C (x) D has the basis, sectors and block layout of the
    product of the factor tubes, and its blocks to 1e-14."""
    make = {"fibonacci": lambda: catalog_category("fibonacci"),
            "ising": lambda: catalog_category("ising"),
            "vec_zn(3,2)": lambda: vec_zn(3, 2), "PSU(2)_6": lambda: psu2_category(6)}
    c1, c2 = make[left](), make[right]()
    cd = deligne_product_data(c1, c2)
    tube = build_tube_algebra(cd)
    want = tube_by_product(build_tube_algebra(c1), build_tube_algebra(c2), cd)
    assert np.array_equal(tube.basis, want.basis)
    assert [(k, v.tolist()) for k, v in tube.sectors.items()] == \
        [(k, v.tolist()) for k, v in want.sectors.items()]
    assert list(tube.blocks) == list(want.blocks)
    for key, P in want.blocks.items():
        assert np.abs(tube.blocks[key] - P).max(initial=0.0) < 1e-14, key
