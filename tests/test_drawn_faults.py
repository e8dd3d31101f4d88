"""Drawn faults: each vectorized coherence check against its loop oracle on
one corrupted entry that bites.

A fault is one admissible F or R entry with no unit leg, or one entry of a
half-braiding, whose |value| is at least 10 times the tolerance, multiplied
by a sign, a phase or a scale.  The draws are derandomized with a fixed
example budget, so the suite is not flaky.  The cases are fib (x) ising,
PSU(2)_6 (no braiding) and vec_z6, which takes the pointed shortcuts; the
half-braidings are those of SU(2)_4, whose half-integer spins have
Frobenius-Schur sign -1.
"""

import cmath
import dataclasses
import functools
import math
import re

import numpy as np
from hypothesis import given, settings, strategies as st

from tensorcat.catalog import catalog_category
from tensorcat.category_data import (FSymbolSet, RSymbolSet, _f_unitarity,
                                     deligne_product_data, verify_hexagon, verify_pentagon)
from tensorcat.center_tube import build_tube_algebra, decompose_center, half_braiding_check

from oracles import (f_unitarity_by_loops, half_braiding_check_dense, hexagon_by_loops,
                     pentagon_by_loops, psu2_category, su2_category)

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
