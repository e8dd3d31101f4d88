"""Drawn faults: each vectorized check against its loop or diagram oracle on
one corrupted entry that bites.

A fault is one admissible F or R entry with no unit leg, one entry of a
half-braiding, or one coefficient of an algebra's mu or a module's rho off
the unit channels, whose |value| is at least 10 times the tolerance,
multiplied by a sign, a phase or a scale; or one fusion rule N^c_{ab} with
a, b not the unit, moved by 1 or 2.  The draws are derandomized with a fixed
example budget, so the suite is not flaky.  The cases are fib (x) ising,
PSU(2)_6 (no braiding) and vec_z6, which takes the pointed shortcuts; the
half-braidings are those of SU(2)_4, whose half-integer spins have
Frobenius-Schur sign -1; the algebras are Lagrangians of Z(fib) and Z(ising),
fib's enveloping algebra and 1 + e (x) 1 in toric (x) toric; the rings are
the catalog's and those of the cases.
"""

import cmath
import dataclasses
import functools
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tensorcat.algebra import (AlgebraObject, group_algebra, symmetric_enveloping,
                               verify_qsystem)
from tensorcat.catalog import catalog_category, catalog_names
from tensorcat.category_data import (FSymbolSet, RSymbolSet, _f_unitarity,
                                     deligne_product_data, verify_hexagon, verify_pentagon)
from tensorcat.center_tube import (build_tube_algebra, decompose_center, half_braiding_check,
                                   lagrangian_algebra)
from tensorcat.fusion_ring import FusionRing, validate_fusion_ring
from tensorcat.local_modules import ModuleObject, enumerate_local_modules, verify_module

from oracles import (f_unitarity_by_loops, half_braiding_check_dense, hexagon_by_loops,
                     module_associativity_by_diagrams, pentagon_by_loops, psu2_category,
                     qsystem_residuals_by_diagrams, ring_associativity_by_loops,
                     ring_axioms_by_loops, ring_duality_rotation_by_loops, su2_category)

CASES = {
    "fib*ising": lambda: deligne_product_data(catalog_category("fibonacci"),
                                              catalog_category("ising")),
    "PSU(2)_6": lambda: psu2_category(6),
    "vec_z6": lambda: catalog_category("vec_z6"),
}

# (kind, factor): a sign, three phases off 1 and -1, and three scales
FACTORS = ([("sign", -1.0)] + [("phase", cmath.exp(1j * t)) for t in (1.0, math.pi / 2, 2.5)]
           + [("scale", s) for s in (0.5, 1.5, 2.0)])


@functools.cache
def _category(name):
    return CASES[name]()


@functools.cache
def _su2_4():
    """SU(2)_4 and the simples of its center."""
    cd = su2_category(4)
    return cd, decompose_center(build_tube_algebra(cd), seed=0).simples


def _biting(keys, values, floor):
    """The keys whose |value| is at least 10 times the tolerance floor."""
    return [k for k, v in zip(keys, values) if abs(v) >= 10 * floor]


@functools.cache
def _symbol_keys(name, symbols):
    """Sorted keys of the stored F or R entries with no unit leg that bite."""
    cd = _category(name)
    entries, units = (cd.F.entries, 3) if symbols == "F" else (cd.R.entries, 2)
    keys = sorted(k for k in entries if min(k[:units]) > 0)
    return _biting(keys, [entries[k] for k in keys], cd.tolerance)


@st.composite
def faults(draw):
    """(name, symbols, key, kind, factor): one F or R entry of a case to
    multiply by a sign, a phase or a scale."""
    name = draw(st.sampled_from(sorted(CASES)))
    symbols = draw(st.sampled_from(["F", "R"] if _category(name).R is not None else ["F"]))
    key = draw(st.sampled_from(_symbol_keys(name, symbols)))
    return (name, symbols, key, *draw(st.sampled_from(FACTORS)))


def _printed_order(lines):
    """Report lines sorted by the integers of the index tuple they print."""
    return sorted(lines, key=lambda l: tuple(
        map(int, re.split("[,;]", l.split("=(")[1].split(")")[0]))))


@given(faults())
@settings(max_examples=40, derandomize=True, deadline=None)
def test_checks_match_the_loop_oracles_on_a_drawn_fault(fault):
    """verify_pentagon, verify_hexagon and _f_unitarity give their loop
    oracles' lines in the printed-tuple order; the check that reads the
    corrupted set reports something, and so does F-unitarity unless a unit
    modulus entry only turned its phase."""
    name, symbols, key, kind, factor = fault
    cd = _category(name)
    if symbols == "F":
        v = cd.F.entries[key]
        bad = dataclasses.replace(cd, F=FSymbolSet({**cd.F.entries, key: v * factor}))
    else:
        v = cd.R.entries[key]
        bad = dataclasses.replace(cd, R=RSymbolSet({**cd.R.entries, key: v * factor}))
    pentagon, unitarity = verify_pentagon(bad), _f_unitarity(bad)
    assert pentagon == _printed_order(pentagon_by_loops(bad))
    assert unitarity == f_unitarity_by_loops(bad)
    if symbols == "F":
        assert pentagon
        assert unitarity or (kind != "scale" and abs(abs(v) - 1) < cd.tolerance)
    if bad.R is not None:
        hexagon = verify_hexagon(bad)
        assert hexagon == (
            _printed_order(hexagon_by_loops(bad, bad.rval))
            + _printed_order([line.replace("hexagon:", "hexagon(inverse):") for line in
                              hexagon_by_loops(bad, lambda a, b, c: 1 / bad.rval(b, a, c))]))
        assert hexagon


@st.composite
def sigma_faults(draw):
    """(simple, entry, kind, factor): one entry of a half-braiding of
    SU(2)_4 to multiply by a sign, a phase or a scale."""
    cd, simples = _su2_4()
    i = draw(st.sampled_from(range(len(simples))))
    H = simples[i].half_braiding
    entries = list(zip(*np.nonzero(H)))
    at = draw(st.sampled_from(_biting(entries, H[tuple(np.transpose(entries))],
                                      cd.identity_tolerance)))
    return (i, at, *draw(st.sampled_from(FACTORS)))


@given(sigma_faults())
@settings(max_examples=40, derandomize=True, deadline=None)
def test_half_braiding_check_matches_the_dense_check_on_a_drawn_fault(fault):
    """half_braiding_check gives the dense contraction's lines, and some."""
    i, at, _kind, factor = fault
    cd, simples = _su2_4()
    H = simples[i].half_braiding.copy()
    H[at] *= factor
    bad = dataclasses.replace(simples[i], half_braiding=H)
    assert half_braiding_check(cd, bad) == half_braiding_check_dense(cd, bad) != []


def _lagrangian(name):
    cd = catalog_category(name)
    pres, A, _support = lagrangian_algebra(cd, decompose_center(build_tube_algebra(cd)))
    return pres, A


def _toric_squared():
    cd = deligne_product_data(catalog_category("toric_code"), catalog_category("toric_code"))
    return cd, group_algebra(cd, ("(1,1)", "(e,1)"))


ALGEBRAS = {
    "fib:lagrangian": lambda: _lagrangian("fibonacci"),
    "ising:lagrangian": lambda: _lagrangian("ising"),
    "fib:enveloping": lambda: symmetric_enveloping(catalog_category("fibonacci")),
    "toric*toric:1+e*1": _toric_squared,
}


@functools.cache
def _algebra(name):
    """(category, algebra, its simple local modules, none when it is not
    commutative)."""
    cd, A = ALGEBRAS[name]()
    commutative = name != "fib:enveloping"
    return cd, A, tuple(enumerate_local_modules(cd, A).simples) if commutative else ()


@functools.cache
def _coefficient_keys(name, module):
    """Sorted keys of mu (module None) or of a module's rho off the unit
    channels that bite."""
    cd, A, modules = _algebra(name)
    coefficients = A.mu if module is None else modules[module].rho
    # the unit channels: mu^{ab}_c with a or b the unit, rho^{xa}_y with a the unit
    keys = sorted(k for k in coefficients if k[1] and (k[0] or module is not None))
    return _biting(keys, [coefficients[k] for k in keys], cd.tolerance)


@st.composite
def coefficient_faults(draw):
    """(name, module, key, kind, factor): one coefficient of an algebra's
    mu (module None) or of one of its simple local modules' rho to multiply
    by a sign, a phase or a scale."""
    name = draw(st.sampled_from(sorted(ALGEBRAS)))
    module = draw(st.sampled_from([None, *range(len(_algebra(name)[2]))]))
    key = draw(st.sampled_from(_coefficient_keys(name, module)))
    return (name, module, key, *draw(st.sampled_from(FACTORS)))


def _scale(coefficients):
    """The residual scale of verify_qsystem and verify_module."""
    return max(1.0, max(abs(v) for v in coefficients.values()) ** 2)


@given(coefficient_faults())
@settings(max_examples=40, derandomize=True, deadline=None)
def test_qsystem_and_module_checks_match_the_diagrams_on_a_drawn_fault(fault):
    """verify_qsystem and verify_module give the maxima of the diagram
    residuals over their scale, to 1e-12: a mu fault read by both, on every
    simple local module, a rho fault by verify_module.  A rho fault fails
    its module; a mu fault fails the Q-system unless it is a phase or a sign
    that the diagrams do not see either (a change of basis)."""
    name, module, key, kind, factor = fault
    cd, A, modules = _algebra(name)
    if module is None:
        A = AlgebraObject(A.support, {**A.mu, key: A.mu[key] * factor})
        rep = verify_qsystem(cd, A)
        assoc, frob = qsystem_residuals_by_diagrams(cd, A)
        assert (rep.associativity, rep.frobenius) == pytest.approx(
            (assoc / _scale(A.mu), frob / _scale(A.mu)), abs=1e-12)
        assert not rep.passed or (kind != "scale" and max(assoc, frob) < cd.residual_tolerance)
    else:
        X = modules[module]
        modules = [ModuleObject(X.support, {**X.rho, key: X.rho[key] * factor})]
    for M in modules:
        rep = verify_module(cd, A, M)
        assert rep["associativity"] == pytest.approx(
            module_associativity_by_diagrams(cd, A, M) / _scale(M.rho), abs=1e-12)
        assert module is None or not rep["passed"]


RINGS = {**{n: lambda n=n: catalog_category(n).ring for n in catalog_names()},
         **{n: lambda n=n: _category(n).ring for n in ("fib*ising", "PSU(2)_6")}}


@functools.cache
def _ring_keys(name):
    """The (a, b, c) with a and b not the unit that the rotation N^c_{ab} =
    N^{dual a}_{b, dual c} moves, so that a change of N^c_{ab} bites."""
    dual = RINGS[name]().dual
    return [(a, b, c) for a, b, c in itertools.product(range(1, len(dual)), range(1, len(dual)),
                                                        range(len(dual)))
            if (a, b, c) != (b, dual[c], dual[a])]


@st.composite
def ring_faults(draw):
    """(name, key, delta): one fusion rule N^c_{ab} of a ring, moved by
    delta and never below 0."""
    name = draw(st.sampled_from(sorted(n for n in RINGS if _ring_keys(n))))
    key = draw(st.sampled_from(_ring_keys(name)))
    return name, key, draw(st.sampled_from([1, 2] + ([-1] if RINGS[name]().N[key] else [])))


@given(ring_faults())
@settings(max_examples=40, derandomize=True, deadline=None)
def test_validate_fusion_ring_matches_the_loop_oracles_on_a_drawn_fault(fault):
    """validate_fusion_ring gives the loops' duality, associativity and
    rotation lines, in that order and byte for byte, and some; the plain
    axiom loops refuse the ring too."""
    name, key, delta = fault
    ring = RINGS[name]()
    N = ring.N.copy()
    N[key] += delta
    bad = FusionRing(ring.rank, ring.labels, ring.dual, N)
    loops = ring_duality_rotation_by_loops(bad)
    assert validate_fusion_ring(bad) == (
        [line for line in loops if line.startswith("duality")] + ring_associativity_by_loops(bad)
        + [line for line in loops if line.startswith("rotation")]) != []
    assert not ring_axioms_by_loops(bad.rank, bad.dual, bad.N)
