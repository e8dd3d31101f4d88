"""The row budget of category_data._blocks sets how the joins are cut into
blocks, never what they give: with a budget that splits leading labels by
their second label, and with one under which every walk is one block, the
coherence checks report the default run's lines, in its order, and the tube
blocks are equal bit for bit."""

import dataclasses

import numpy as np
import pytest

import tensorcat.category_data as category_data
import tensorcat.center_tube as center_tube
from tensorcat.catalog import catalog_category
from tensorcat.category_data import (FSymbolSet, RSymbolSet, _f_unitarity, deligne_product_data,
                                     verify_hexagon, verify_pentagon)
from tensorcat.center_tube import build_tube_algebra, decompose_center, half_braiding_check

from oracles import psu2_category

CASES = {
    "fib*ising": lambda: deligne_product_data(catalog_category("fibonacci"),
                                              catalog_category("ising")),
    "PSU(2)_8": lambda: psu2_category(8),
}


def _faulty(cd):
    """cd with five F entries spread over the leading labels scaled by 1.5,
    and with R, if any, turned by i on five entries."""
    F = dict(cd.F.entries)
    for key in sorted(F)[::len(F) // 5][:5]:
        F[key] *= 1.5
    bad = dataclasses.replace(cd, F=FSymbolSet(F))
    if cd.R is not None:
        R = dict(cd.R.entries)
        for key in [k for k in sorted(R) if min(k[:2]) > 0][::7][:5]:
            R[key] *= 1j
        bad = dataclasses.replace(bad, R=RSymbolSet(R))
    return bad


def _run(cd, bad, simples):
    """The report lines of every check on the faulty data, and the tube."""
    reports = [verify_pentagon(bad), _f_unitarity(bad),
               verify_hexagon(bad) if bad.R is not None else []]
    return reports + [half_braiding_check(cd, z) for z in simples], build_tube_algebra(cd)


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_budget_changes_no_report_and_no_tube_block(name, monkeypatch):
    cd = CASES[name]()
    simples = decompose_center(build_tube_algebra(cd), seed=0).simples[::3]
    for z in simples:               # the largest |entry| of a sigma_a, a != 0, doubled
        sigma = z.half_braiding[1:]
        sigma[np.unravel_index(np.argmax(np.abs(sigma)), sigma.shape)] *= 2
    bad = _faulty(cd)
    want, tube = _run(cd, bad, simples)
    assert all(want[:2]) and all(want[3:]) and (bad.R is None or want[2])

    walks, walk = [], category_data._blocks

    def recorded(counts):
        walks.append(list(walk(counts)))
        return walks[-1]

    for module in (category_data, center_tube):
        monkeypatch.setattr(module, "_blocks", recorded)
    for budget in (256, 1 << 40):
        walks.clear()
        monkeypatch.setattr(category_data, "_ROWS", budget)
        got, other = _run(cd, bad, simples)
        assert got == want, budget
        assert other.basis == tube.basis and list(other.blocks) == list(tube.blocks)
        for built, ref in ((other.blocks, tube.blocks), (other.star, tube.star)):
            assert all(np.array_equal(built[key], P) for key, P in ref.items()), budget
        # a label split by its second label: its pairs in more than one block
        split = any(len(set(np.concatenate([a for a, _ in w]).tolist()))
                    < sum(len(set(a.tolist())) for a, _ in w) for w in walks)
        assert split == (budget == 256)
        assert all(len(w) == 1 for w in walks) == (budget > 256)
