import dataclasses
import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest

from tensorcat.category_data import (FSymbolSet, QuadraticForm, RSymbolSet,
                                     deligne_product_data, kappa_of,
                                     load_category, monoidal_opposite,
                                     pointed_from_quadratic_form,
                                     reverse_braiding, save_category,
                                     validate_category, verify_hexagon,
                                     verify_pentagon)
from tensorcat.catalog import catalog_category, catalog_names, vec_zn
from tensorcat.errors import StructuralError, ValidationFailure

from tensorcat.category_data import _ChannelJoin, _ComputedF, _pointed_tables

from oracles import (PHI, deligne_product_data_by_loops, f_unitarity_by_loops,
                     hexagon_by_loops, pentagon_by_loops, pointed_from_quadratic_form_by_loops,
                     pointed_tables_by_loops, psu2_category, quadratic_form_validate_by_loops)


def test_catalog_passes_pentagon_and_hexagon(cats):
    for name, cd in cats.items():
        assert verify_pentagon(cd) == [], name
        assert verify_hexagon(cd) == [], name


def test_fibonacci_f_matrix_is_the_golden_one(fib):
    assert fib.fval(1, 1, 1, 1, 0, 0) == pytest.approx(1 / PHI)
    assert fib.fval(1, 1, 1, 1, 0, 1) == pytest.approx(1 / np.sqrt(PHI))
    assert fib.fval(1, 1, 1, 1, 1, 1) == pytest.approx(-1 / PHI)


def _with_f(cd, key, v):
    """cd with F^key replaced by v, through a replacement F."""
    return dataclasses.replace(cd, F=FSymbolSet({**cd.F.entries, key: v}))


def test_pentagon_detects_negated_entry(fib):
    bad = _with_f(fib, (1, 1, 1, 1, 1, 1), -fib.fval(1, 1, 1, 1, 1, 1))
    report = verify_pentagon(bad)
    assert report and "pentagon" in report[0]


def test_hexagon_detects_flattened_r(fib):
    bad = dataclasses.replace(fib, R=RSymbolSet({**fib.R.entries, (1, 1, 1): 1.0}))
    assert verify_hexagon(bad)


def test_vectorized_validators_match_loop_reference(cats):
    for name, cd in cats.items():
        assert verify_pentagon(cd) == pentagon_by_loops(cd)
        loops = (hexagon_by_loops(cd, lambda a, b, c: cd.rval(a, b, c))
                 + [l.replace("hexagon:", "hexagon(inverse):")
                    for l in hexagon_by_loops(cd, lambda a, b, c: 1 / cd.rval(b, a, c))])
        assert verify_hexagon(cd) == loops


def test_f_unitarity_matches_loop_reference(cats, fib, ising_cat):
    """validate_category visits only the nonempty F blocks and reports what
    the loop over all (a, b, c, d) reports, a corrupted block included."""
    def unitarity(cd):
        return [l for l in validate_category(cd) if l.startswith("F-block")]

    for name, cd in cats.items():
        assert unitarity(cd) == f_unitarity_by_loops(cd) == [], name
    for cd, key in ((fib, (1, 1, 1, 1, 1, 1)), (ising_cat, (1, 1, 1, 1, 0, 2))):
        bad = _with_f(cd, key, cd.fval(*key) * 1.5)
        assert unitarity(bad) == f_unitarity_by_loops(bad) != [], key
        assert f"({key[0]},{key[1]},{key[2]};{key[3]}) not unitary" in unitarity(bad)[0]


def test_semion_values(semion_cat):
    assert semion_cat.rval(1, 1, 0) == pytest.approx(1j)
    assert semion_cat.fval(1, 1, 1, 1, 0, 0) == pytest.approx(-1.0)


def test_trivially_braided_vec_z2():
    cd = vec_zn(2, 0)
    assert all(v == pytest.approx(1.0) for v in cd.F.entries.values())
    assert all(v == pytest.approx(1.0) for v in cd.R.entries.values())


def test_toric_code_modular(toric):
    from tensorcat.braided_analysis import is_nondegenerate
    assert toric.rval(1, 1, 0) == pytest.approx(1.0)    # q(e) = 1
    assert toric.rval(3, 3, 0) == pytest.approx(-1.0)   # q(f) = -1
    assert is_nondegenerate(toric)
    # relabelling the ring keeps the form the category was built from
    assert toric.ring.labels == ("1", "e", "m", "f")
    assert toric.quadratic_form == QuadraticForm(group=(2, 2), t=(0, 0), cross={(0, 1): 1})


def _abelian_groups_up_to(order):
    def partitions_into_prime_powers(n):
        # all multisets of cyclic orders n_i >= 2 with product n
        if n == 1:
            return [()]
        out = []
        for d in range(2, n + 1):
            if n % d == 0:
                for rest in partitions_into_prime_powers(n // d):
                    combo = tuple(sorted((d,) + rest))
                    if combo not in out:
                        out.append(combo)
        return out

    groups = [(1,)]
    for n in range(2, order + 1):
        groups.extend(partitions_into_prime_powers(n))
    return groups


def test_pointed_from_quadratic_form_exhaustive_small_orders():
    """Every (A, t, cross) with |A| <= 16 yields validator-clean data.

    Exhaustive over t and cross for |A| <= 8; a seeded sample of parameter
    combinations for the larger groups.
    """
    rng = np.random.default_rng(0)
    checked = 0
    for group in _abelian_groups_up_to(16):
        order = int(np.prod(group))
        k = len(group)
        t_ranges = [range(0, 2 * n) for n in group]
        pairs = list(itertools.combinations(range(k), 2))
        cross_ranges = [range(np.gcd(group[i], group[j])) for i, j in pairs]
        combos = list(itertools.product(*t_ranges, *cross_ranges))
        if order > 8 and len(combos) > 24:
            combos = [combos[i] for i in
                      rng.choice(len(combos), size=24, replace=False)]
        for combo in combos:
            t = combo[:k]
            cross = {pairs[i]: combo[k + i] for i in range(len(pairs))}
            qf = QuadraticForm(group=group, t=t, cross=cross)
            if qf.validate():
                continue  # not a quadratic form (odd t on odd factor)
            cd = pointed_from_quadratic_form(qf)
            assert verify_pentagon(cd) == [], (group, t, cross)
            assert verify_hexagon(cd) == [], (group, t, cross)
            checked += 1
    assert checked > 100


def test_quadratic_form_symmetry_rejected():
    qf = QuadraticForm(group=(3,), t=(1,))
    assert qf.validate()
    with pytest.raises(StructuralError):
        pointed_from_quadratic_form(qf)


DZ6 = QuadraticForm(group=(6, 6), t=(0, 0), cross={(0, 1): 1})


def _all_forms(max_order):
    """Every (A, t, cross) of the exhaustive test with |A| <= max_order."""
    for group in _abelian_groups_up_to(max_order):
        k = len(group)
        pairs = list(itertools.combinations(range(k), 2))
        for combo in itertools.product(*[range(2 * n) for n in group],
                                       *[range(np.gcd(group[i], group[j])) for i, j in pairs]):
            yield QuadraticForm(group=group, t=combo[:k],
                                cross={pairs[i]: combo[k + i] for i in range(len(pairs))})


def test_pointed_from_quadratic_form_matches_loop_oracle():
    """Every form of the exhaustive test with |A| <= 8, and D(Z6): the same
    validation report; for a valid form, equal ring arrays and F and R items
    equal in value and dict order."""
    extra = [DZ6, QuadraticForm(group=(3,), t=(1,)), QuadraticForm(group=(1,), t=(1,)),
             QuadraticForm(group=(5, 2), t=(3, 1)), QuadraticForm(group=(2, 1), t=(1, 3))]
    n_valid = n_invalid = 0
    for qf in itertools.chain(_all_forms(8), extra):
        report = qf.validate()
        assert report == quadratic_form_validate_by_loops(qf), qf
        if report:
            with pytest.raises(StructuralError):
                pointed_from_quadratic_form(qf)
            n_invalid += 1
            continue
        cd = pointed_from_quadratic_form(qf)
        ref = pointed_from_quadratic_form_by_loops(qf)
        assert np.array_equal(cd.ring.N, ref.ring.N), qf
        assert cd.ring.labels == ref.ring.labels and cd.ring.dual == ref.ring.dual, qf
        assert list(cd.F.entries.items()) == list(ref.F.entries.items()), qf
        assert list(cd.R.entries.items()) == list(ref.R.entries.items()), qf
        assert cd.name == ref.name and cd.quadratic_form == qf
        n_valid += 1
    assert n_valid > 600 and n_invalid > 30


@pytest.mark.parametrize("qf", [DZ6, QuadraticForm(group=(4, 4), t=(1, 3), cross={(0, 1): 2}),
                                QuadraticForm(group=(1,), t=(0,))],
                         ids=["D(Z6)", "Z4xZ4", "Z1"])
def test_pointed_tables_match_loop_oracle(qf):
    cd = pointed_from_quadratic_form(qf)
    for got, want in zip(_pointed_tables(cd), pointed_tables_by_loops(cd)):
        assert np.array_equal(got, want)


def test_pointed_from_quadratic_form_peak_memory():
    """F.entries of the computed set, one lookup over every admissible
    tuple, allocates no more at its peak than the loops' whole construction."""
    cd = pointed_from_quadratic_form(DZ6)
    tracemalloc.start()
    cd.F.entries
    peaks = [tracemalloc.get_traced_memory()[1]]
    tracemalloc.stop()
    del cd
    tracemalloc.start()
    cd = pointed_from_quadratic_form_by_loops(DZ6)
    peaks.append(tracemalloc.get_traced_memory()[1])
    tracemalloc.stop()
    del cd
    assert peaks[0] <= peaks[1], peaks


def test_kappa_semion(semion_cat):
    assert kappa_of(semion_cat, "1") == pytest.approx(1j)


def test_kappa_unit_label(cats):
    for name in ("semion", "toric_code", "vec_z3"):
        cd = cats[name]
        assert kappa_of(cd, 0) == pytest.approx(1.0)


def test_kappa_toric_f(toric):
    assert kappa_of(toric, "f") == pytest.approx(-1.0)


def test_kappa_requires_pointed(fib):
    from tensorcat.errors import PreconditionError
    with pytest.raises(PreconditionError):
        kappa_of(fib, "t")


def test_kappa_bicharacter_relation(cats):
    """kappa(g) kappa(h) b(g,h) = kappa(g+h) with b(g,h) = R^{gh} R^{hg}."""
    for name in ("semion", "toric_code", "vec_z2", "vec_z3", "vec_z4",
                 "vec_z5", "vec_z6"):
        cd = cats[name]
        ring = cd.ring
        for g in range(ring.rank):
            for h in range(ring.rank):
                gh = ring.channels(g, h)[0]
                b = cd.rval(g, h, gh) * cd.rval(h, g, gh)
                lhs = kappa_of(cd, g) * kappa_of(cd, h) * b
                assert lhs == pytest.approx(kappa_of(cd, gh), abs=1e-9), (name, g, h)


def test_reverse_braiding_semion(semion_cat):
    anti = reverse_braiding(semion_cat)
    assert anti.rval(1, 1, 0) == pytest.approx(-1j)
    assert verify_hexagon(anti) == []


def test_reverse_braiding_fixes_symmetric():
    cd = vec_zn(2, 0)
    rev = reverse_braiding(cd)
    for k, v in cd.R.entries.items():
        assert rev.R.entries[k] == pytest.approx(v)


def test_reverse_braiding_involution(cats):
    for name, cd in cats.items():
        twice = reverse_braiding(reverse_braiding(cd))
        for k, v in cd.R.entries.items():
            assert abs(twice.R.entries[k] - v) < 1e-12
        assert verify_hexagon(reverse_braiding(cd)) == []
        assert verify_pentagon(reverse_braiding(cd)) == []


def test_reverse_braiding_fibonacci_value(fib):
    rev = reverse_braiding(fib)
    assert rev.rval(1, 1, 0) == pytest.approx(np.exp(4j * np.pi / 5))


def test_monoidal_opposite_validates(cats):
    for name, cd in cats.items():
        op = monoidal_opposite(cd)
        assert validate_category(op) == [], name
        assert np.allclose(np.sort(op.dims.dims), np.sort(cd.dims.dims))


def test_monoidal_opposite_unit_category():
    cd = vec_zn(1, 0)
    op = monoidal_opposite(cd)
    assert op.ring.rank == 1
    assert validate_category(op) == []


def test_deligne_product_data_validates(fib, semion_cat, toric):
    p = deligne_product_data(fib, reverse_braiding(fib))
    assert p.ring.rank == 4
    assert validate_category(p) == []
    q = deligne_product_data(semion_cat, semion_cat)
    assert validate_category(q) == []
    assert q.quadratic_form is None
    # product of self-braidings: q((1,1)) = -1
    assert kappa_of(q, 3) == pytest.approx(-1.0)


def test_deligne_product_data_matches_loop_oracle(fib, ising_cat, toric):
    from tensorcat.category_data import monoidal_opposite
    z3 = vec_zn(3, 2)
    for c1, c2 in ((fib, ising_cat), (toric, reverse_braiding(toric)),
                   (monoidal_opposite(z3), z3)):
        p = deligne_product_data(c1, c2)
        F, R = deligne_product_data_by_loops(c1, c2)
        assert p.F.entries == F
        assert p.R.entries == R


def _admissible_keys(ring, first=1):
    """Admissible (a, b, c, d, e, f) with a, b, c >= first: without a unit
    leg by default."""
    ch = ring.channels
    return [(a, b, c, d, e, f) for a, b, c in itertools.product(range(first, ring.rank), repeat=3)
            for e in ch(a, b) for d in ch(e, c) for f in ch(b, c) if d in ch(a, f)]


LAZY_CASES = {
    "vec_z6": lambda: catalog_category("vec_z6"),
    "toric(x)toric": lambda: deligne_product_data(catalog_category("toric_code"),
                                                  catalog_category("toric_code")),
    "fib(x)ising": lambda: deligne_product_data(catalog_category("fibonacci"),
                                                catalog_category("ising")),
    "ising(x)ising": lambda: deligne_product_data(catalog_category("ising"),
                                                  catalog_category("ising")),
    "z6(x)rev": lambda: deligne_product_data(vec_zn(6, 1), reverse_braiding(vec_zn(6, 1))),
    "D(Z6)": lambda: pointed_from_quadratic_form(DZ6),
}


def _columns(keys):
    return [np.array(col, dtype=np.int64) for col in zip(*keys)]


@pytest.mark.parametrize("name", sorted(LAZY_CASES))
def test_f_read_before_the_bulk_build_is_bit_identical(name):
    """A computed F gives, bit for bit, the same entry whether it is read by
    value (computed and kept on the first read), by one lookup over every
    admissible tuple, or through entries; no lookup writes to the per-key
    memo.  value keeps the type of the product it computes (a float where
    both factors' entries are), lookup and entries give complex."""
    lazy, bulk = LAZY_CASES[name](), LAZY_CASES[name]()
    keys = _admissible_keys(lazy.ring)
    looked = bulk.F.lookup(_columns(keys)).tolist()
    assert len(bulk.F._held) == 0
    first = [lazy.fval(*k) for k in keys]
    assert len(lazy.F._held) == len(keys)
    assert first == looked == [lazy.fval(*k) for k in keys]
    entries = bulk.F.entries
    assert sorted(entries) == sorted(keys) and len(bulk.F._held) == 0
    assert [entries[k] for k in keys] == first
    if name == "D(Z6)":
        ref = pointed_from_quadratic_form_by_loops(DZ6)
        assert list(entries.items()) == list(ref.F.entries.items())


@pytest.mark.parametrize("ring, spec", [
    ("fib*z3", "axe yae"), ("fib*z3", "abc axc"), ("fib*z3", "agy gax"),
    ("fib*z3", "abg gxt ygt"), ("ising", "cab axe yae cyg zcg bxf cef gaf zbf")])
def test_channel_join_lists_every_admissible_tuple_in_order(ring, spec):
    """tuples, with the first name given, gives the tuples a product over
    all labels admits, in lexicographic order of the names as met: names
    spread, extended as x, y or z of a triple, and filtered.  fib (x) Z/3
    has labels that are not self-dual, so N^z_{xy} != N^y_{xz} there."""
    ring = (deligne_product_data(catalog_category("fibonacci"), catalog_category("vec_z3"))
            if ring == "fib*z3" else catalog_category(ring)).ring
    names = list(dict.fromkeys(spec.replace(" ", "")))
    got = _ChannelJoin(ring).tuples(spec, **{names[0]: np.arange(ring.rank)})
    at = {x: i for i, x in enumerate(names)}
    want = [t for t in itertools.product(range(ring.rank), repeat=len(names))
            if all(ring.N[t[at[x]], t[at[y]], t[at[z]]] for x, y, z in spec.split())]
    assert list(zip(*(got[x].tolist() for x in names))) == want


@pytest.mark.parametrize("unit_legs", [False, True])
def test_lookup_holds_no_copy_of_its_key_columns(unit_legs):
    """A lookup of 2^20 rows of fibonacci's F peaks under 3x its 16 MiB
    output (2.7x measured), with or without rows on a unit leg: the
    gathered and converted copies of the six key columns took it to 10x."""
    cd = catalog_category("fibonacci")
    cols = [np.resize(c, 2 ** 20) for c in np.array(list(cd.F.entries)).T]
    if unit_legs:
        cols[0][::7] = 0
    cd.F.lookup([c[:8] for c in cols])
    tracemalloc.start()
    try:
        v = cd.F.lookup(cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(v[::7] == 1) == unit_legs
    assert peak < 3 * v.nbytes


def test_f_and_r_lookup_equals_value_on_the_catalog(cats):
    """On every stored set of the catalog, and its monoidal opposite, lookup
    over all admissible tuples, unit legs included, equals value exactly."""
    for name, cd in cats.items():
        for c in (cd, monoidal_opposite(cd)):
            ring = c.ring
            keys = _admissible_keys(ring, first=0)
            assert c.F.lookup(_columns(keys)).tolist() == [c.fval(*k) for k in keys], name
            if c.R is not None:
                rkeys = [(a, b, x) for a in range(ring.rank) for b in range(ring.rank)
                         for x in ring.channels(a, b)]
                assert (c.R.lookup(_columns(rkeys)).tolist()
                        == [c.rval(*k) for k in rkeys]), name


@pytest.mark.parametrize("name", sorted(LAZY_CASES))
def test_f_first_read_rejects_inadmissible_tuples(name):
    """Not admissible, out of range or not a label: value and lookup raise
    the message a missing entry of a stored table gives, computed or not."""
    cd = LAZY_CASES[name]()
    stored = FSymbolSet(cd.F.entries)
    r = cd.ring.rank
    bad = [(1, 1, 1, 1, 1, r), (1, 1, 1, 1, 1, -1), (1, 1, 1, 1, 1, 1.5)]
    good = set(_admissible_keys(cd.ring))
    bad += [k for k in itertools.product(range(1, min(r, 4)), repeat=6) if k not in good][:20]
    ok = sorted(good)[0]
    for F in (cd.F, stored):
        for key in bad:
            message = re.escape(f"missing F entry for admissible tuple {key}")
            with pytest.raises(StructuralError, match=message):
                F.value(*key)
            cols = [np.array([x, y]) for x, y in zip(ok, key)]     # a float column for 1.5
            with pytest.raises(StructuralError, match=message):
                F.lookup(cols)


def test_symbol_sets_are_read_only(fib):
    """Assigning an item of entries raises; the constructor copies."""
    for S in (fib.F, fib.R):
        key = next(iter(S.entries))
        with pytest.raises(TypeError):
            S.entries[key] = 0.0
        given = dict(S.entries)
        assert type(S)(given).entries is not given
    with pytest.raises(TypeError):
        LAZY_CASES["D(Z6)"]().F.entries[(1, 1, 1, 2, 2, 2)] = 0.0


@pytest.mark.parametrize("name", ["fib(x)ising", "D(Z6)"])
def test_fault_injection_reaches_computed_f(name):
    """A copy whose F is replaced by the computed entries with one of them
    negated reports it in verify_pentagon, and fval returns the negated
    value, whether or not the entry was read before the copy."""
    cd = LAZY_CASES[name]()
    key = _admissible_keys(cd.ring)[-1]
    for read_first in (False, True):
        if read_first:
            cd.fval(*key)
        want = -cd.fval(*key)
        bad = _with_f(cd, key, want)
        assert bad.fval(*key) == want
        assert verify_pentagon(bad) != []
    assert verify_pentagon(cd) == []


@pytest.mark.parametrize("name", ["fib(x)ising", "D(Z6)"])
def test_validate_reads_no_entries_of_a_computed_f(name, monkeypatch):
    """validate_category reads a computed F only through lookup."""
    def dump(self):
        raise AssertionError("validate_category read _ComputedF.entries")

    cd = LAZY_CASES[name]()
    monkeypatch.setattr(_ComputedF, "entries", property(dump))
    assert validate_category(cd) == []


def _index_order(lines):
    """Report lines sorted by the index tuple they name, as the vectorized
    pentagon and hexagon checks order them."""
    return sorted(lines, key=lambda l: tuple(
        map(int, re.split("[,;]", l.split("=(")[1].split(")")[0]))))


@pytest.mark.parametrize("name", ["fib(x)ising", "ising(x)ising"])
def test_validate_matches_loop_references_on_injected_errors(name):
    """With three F entries scaled, negated and nudged, validate_category
    gives the loop references' unitarity, pentagon and hexagon lines, in
    that order."""
    cd = LAZY_CASES[name]()
    keys = _admissible_keys(cd.ring)
    for key, factor in zip(keys[len(keys) // 3::len(keys) // 3], (1.5, -1, 1 + 1e-7j)):
        bad = _with_f(cd, key, cd.fval(*key) * factor)
        hexagons = (_index_order(hexagon_by_loops(bad, lambda a, b, c: bad.rval(a, b, c)))
                    + _index_order([l.replace("hexagon:", "hexagon(inverse):") for l in
                                    hexagon_by_loops(bad, lambda a, b, c: 1 / bad.rval(b, a, c))]))
        report = validate_category(bad)
        assert report, key
        assert report == (f_unitarity_by_loops(bad) + _index_order(pentagon_by_loops(bad))
                          + hexagons), key


def test_f_first_reads_and_lookups_agree_across_threads():
    """Six threads mixing first reads by value and lookups of one computed
    set all get the reference values."""
    import sys
    import threading
    cd, ref = LAZY_CASES["D(Z6)"](), LAZY_CASES["D(Z6)"]().F.entries
    keys = list(ref)[::7]
    cols = _columns(keys)
    want = [ref[k] for k in keys]
    start = threading.Barrier(6, timeout=10)
    got = []

    def first_reads():
        start.wait()
        got.append([cd.fval(*k) for k in keys])

    def lookups():
        start.wait()
        got.append(cd.F.lookup(cols).tolist())

    threads = [threading.Thread(target=f) for f in (lookups, first_reads) * 3]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 6 and all(g == want for g in got)


def test_pentagon_pointed_matches_loops_on_a_negated_entry():
    """The pointed pentagon, walked in blocks of (a, b) pairs, reports what
    the loop oracle reports, in its order, on vec_z6 with one entry negated."""
    cd = catalog_category("vec_z6")
    key = _admissible_keys(cd.ring)[40]
    bad = _with_f(cd, key, -cd.fval(*key))
    report = verify_pentagon(bad)
    assert report and report == pentagon_by_loops(bad)


def test_pentagon_pointed_peak_memory():
    """verify_pentagon on D(Z6) holds one block of the row budget, r^2
    instances per (a, b), at a time: it peaks under 10 MiB (90 MiB with all
    r^4 at once)."""
    cd = pointed_from_quadratic_form(DZ6)
    tracemalloc.start()
    try:
        assert verify_pentagon(cd) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20, peak


def test_streamed_checks_keep_the_printed_index_order():
    """With F entries negated under three leading labels and two R entries
    rotated, verify_pentagon and both hexagon families give the loop
    references' lines sorted by their printed integers (the loops run in
    (a,b,f,c,g,d,e,l,k) order, not in that one)."""
    cd = LAZY_CASES["fib(x)ising"]()
    keys = _admissible_keys(cd.ring)
    negated = [next(k for k in keys if k[0] == a) for a in (1, 3, 5)]
    F = {**cd.F.entries, **{k: -cd.fval(*k) for k in negated}}
    R = dict(cd.R.entries)
    for k in [next(k for k in sorted(R) if k[0] == a and k[1]) for a in (2, 4)]:
        R[k] *= 1j
    bad = dataclasses.replace(cd, F=FSymbolSet(F), R=RSymbolSet(R))

    def leading_labels(lines):
        return {line.split("=(")[1].split(",")[0] for line in lines}

    pentagons = verify_pentagon(bad)
    assert len(leading_labels(pentagons)) >= 3
    assert pentagons == _index_order(pentagon_by_loops(bad))
    hexagons = verify_hexagon(bad)
    assert len(leading_labels(hexagons)) >= 3
    assert hexagons == (
        _index_order(hexagon_by_loops(bad, lambda a, b, c: bad.rval(a, b, c)))
        + _index_order([line.replace("hexagon:", "hexagon(inverse):") for line in
                        hexagon_by_loops(bad, lambda a, b, c: 1 / bad.rval(b, a, c))]))


def _traced_peak(check, cd):
    """check(cd), which must report nothing, and its tracemalloc peak."""
    tracemalloc.start()
    try:
        assert check(cd) == []
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pentagon_peak_memory_on_psu2_10(monkeypatch):
    """The general pentagon holds one block of the row budget, its instances
    and their h-sum, at a time: PSU(2)_10 peaks under 24 MiB (44 MiB with
    every instance at once)."""
    import tensorcat.category_data as category_data
    monkeypatch.setattr(category_data, "verify_pentagon", lambda cd: [])
    cd = psu2_category(10)
    monkeypatch.undo()
    peak = _traced_peak(verify_pentagon, cd)
    assert peak < 24 * 2 ** 20, peak


def test_pentagon_splits_a_label_past_the_budget_on_psu2_14(monkeypatch):
    """PSU(2)_14's largest leading label has 696,144 h-sum rows, far past
    the row budget, so it is split by its second label: the pentagon peaks
    under 96 MiB, where one label at a time peaked at 172.8 MiB."""
    import tensorcat.category_data as category_data
    monkeypatch.setattr(category_data, "verify_pentagon", lambda cd: [])
    cd = psu2_category(14)
    monkeypatch.undo()
    peak = _traced_peak(verify_pentagon, cd)
    assert peak < 96 * 2 ** 20, peak


def test_hexagon_peak_memory_on_ising_ising_fib():
    """Both hexagon families, one block of the row budget at a time:
    ising(x)ising(x)fib (rank 18) peaks under 8 MiB (16 MiB with every
    instance at once)."""
    ising = catalog_category("ising")
    cd = deligne_product_data(deligne_product_data(ising, ising), catalog_category("fibonacci"))
    peak = _traced_peak(verify_hexagon, cd)
    assert peak < 8 * 2 ** 20, peak


def test_deligne_with_unit_is_identity(fib):
    unit = vec_zn(1, 0)
    p = deligne_product_data(fib, unit)
    assert p.ring.rank == fib.ring.rank
    for k, v in fib.F.entries.items():
        assert p.F.entries[k] == pytest.approx(v)


def test_save_load_round_trip(tmp_path, fib):
    p1 = tmp_path / "fib.json"
    p2 = tmp_path / "fib2.json"
    save_category(fib, p1)
    cd = load_category(p1)
    save_category(cd, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert cd.ring == fib.ring
    for k, v in fib.F.entries.items():
        assert cd.F.entries[k] == pytest.approx(v, abs=0)


def test_load_rejects_inadmissible_f_entry(tmp_path, fib):
    path = tmp_path / "bad.json"
    save_category(fib, path)
    doc = json.loads(path.read_text())
    doc["F"].append([0, 0, 0, 1, 0, 0, [1.0, 0.0]])  # tuple with d=1 inadmissible
    path.write_text(json.dumps(doc))
    with pytest.raises(StructuralError) as err:
        load_category(path)
    assert "(0,0,0,1,0,0)" in str(err.value)


def test_validate_and_load_reject_inadmissible_entries_alike(tmp_path, fib):
    for where, key, msg in [("F", (1, 1, 1, 0, 0, 0), "F entry on inadmissible tuple (1,1,1,0,0,0)"),
                            ("R", (1, 0, 0), "R entry on inadmissible channel (1,0,0)")]:
        sets = {"F": fib.F, "R": fib.R}
        sets[where] = type(sets[where])({**sets[where].entries, key: 1.0 + 0j})
        bad = dataclasses.replace(fib, **sets)
        assert msg in validate_category(bad), where
        path = tmp_path / f"bad_{where}.json"
        save_category(bad, path)
        for validate in (True, False):
            with pytest.raises(StructuralError, match=re.escape(msg)):
                load_category(path, validate=validate)


def test_every_catalog_entry_round_trips(tmp_path, cats):
    """save_category then load_category returns equal F, R and dims on the
    catalog, its op and rev variants (validated on load) and the Deligne
    products of every pair of entries, self-products included (loaded
    unvalidated: the save and load of the 55 products take about 2.8 s on
    a 2-core Xeon, the ten self-products 1 s of it and vec_z6 (x) vec_z6
    alone 0.65 s)."""
    def cases():
        for n, cd in cats.items():
            yield n, cd, True
            yield f"op({n})", monoidal_opposite(cd), True
            yield f"rev({n})", reverse_braiding(cd), True
        for a, b in itertools.combinations_with_replacement(cats, 2):
            yield f"{a}*{b}", deligne_product_data(cats[a], cats[b]), False

    path = tmp_path / "cd.json"
    for name, cd, validate in cases():
        save_category(cd, path)
        back = load_category(path, validate=validate)
        assert back.ring == cd.ring, name
        assert back.F.entries == cd.F.entries, name
        assert back.R.entries == cd.R.entries, name
        assert np.array_equal(back.dims.dims, cd.dims.dims), name


def test_load_with_no_validate_defers(tmp_path, fib):
    bad = dataclasses.replace(fib, R=RSymbolSet({**fib.R.entries, (1, 1, 1): 1.0}))
    path = tmp_path / "bad.json"
    save_category(bad, path)
    with pytest.raises(ValidationFailure):
        load_category(path)
    cd = load_category(path, validate=False)
    assert any(line.startswith("hexagon") for line in validate_category(cd))


def test_rou_tokens_accepted(tmp_path):
    doc = {
        "format": 1, "rank": 2, "labels": ["1", "s"], "unit": 0, "dual": [0, 1],
        "N": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1]],
        "F": [[1, 1, 1, 1, 0, 0, {"rou": [1, 2]}]],
        "R": [[1, 1, 0, {"rou": [1, 4]}], [0, 0, 0, [1.0, 0.0]],
              [0, 1, 1, [1.0, 0.0]], [1, 0, 1, {"rou": [0, 1], "coeff": 1.0}]],
    }
    path = tmp_path / "semion.json"
    path.write_text(json.dumps(doc))
    cd = load_category(path)
    assert cd.rval(1, 1, 0) == pytest.approx(1j)
    assert cd.fval(1, 1, 1, 1, 0, 0) == pytest.approx(-1.0)


BAD_VALUES = [[float("nan"), 0.0], [0.0, float("-inf")], [True, 0.0],
              {"rou": [1, 0]}, {"rou": [1.5, 4]}, {"rou": [1, 4], "coeff": float("inf")},
              {"rou": [1, 4], "coeff": False}]


def fib_file_with(path, value):
    """A fibonacci category file whose F^{ttt}_t[t, t] is the token value."""
    save_category(catalog_category("fibonacci"), path)
    doc = json.loads(path.read_text())
    for row in doc["F"]:
        if row[:6] == [1, 1, 1, 1, 1, 1]:
            row[6] = value
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("value", BAD_VALUES)
def test_load_refuses_values_that_are_not_finite_numbers(tmp_path, value):
    path = fib_file_with(tmp_path / "bad.json", value)
    with pytest.raises(StructuralError, match="cannot decode complex value"):
        load_category(path)


def test_symbol_set_constructors_refuse_non_finite_values(fib):
    for v in (float("nan"), complex(0.0, float("inf"))):
        for S, key in ((fib.F, (1, 1, 1, 1, 1, 1)), (fib.R, (1, 1, 0))):
            message = re.escape(f"{type(S).__name__} entry {key} is not finite")
            with pytest.raises(StructuralError, match=message):
                type(S)({**S.entries, key: v})


def test_category_data_is_frozen():
    import dataclasses
    cd = catalog_category("fibonacci")
    with pytest.raises(dataclasses.FrozenInstanceError):
        cd.tolerance = 1e-7


class _FixedDraws:
    """An rng for seeded_split whose draws are zeros, recording each n."""

    def __init__(self):
        self.calls = []

    def standard_normal(self, n):
        self.calls.append(n)
        return np.zeros(n)


def _split_once(groups):
    """seeded_split of fixed diagonal matrices, groups[key] the eigenvalue
    lists of key's matrices: (gap, {(key, j): clusters}, eigh stack sizes)."""
    from tensorcat.category_data import seeded_split
    seen, sizes = {}, []

    def accept(stacks):
        for keys, js, V, cluster in stacks:
            sizes.append(V.shape[1])
            for key, j, c in zip(keys, js, cluster.tolist()):
                seen[key, j] = c
        return {}

    gap = seeded_split("test split", dict.fromkeys(groups, 1), _FixedDraws(),
                       lambda key, r: [np.diag(lam) for lam in groups[key]], accept)
    return gap, seen, sizes


def test_seeded_split_cuts_each_group_at_its_own_scale():
    """One matrix per group: a gap of 2e-6 is cut where max|lambda| <= 1
    (2e-6 > 1e-6) and not where it is 3 (2e-6 < 3e-6); the gap returned is
    the smallest cut, and the 1.5e-6 from group 0's last eigenvalue to
    group 1's first is no gap of either."""
    gap, seen, sizes = _split_once({0: [[-3.0, 0.0, 2e-6]], 1: [[3.5e-6, 5.5e-6, 0.5]]})
    assert seen == {(0, 0): [0, 1, 1], (1, 0): [0, 1, 2]}
    assert sizes == [3]                 # both groups in one stacked eigh
    assert gap == 5.5e-6 - 3.5e-6


def test_seeded_split_pools_a_group_across_sectors_of_two_sizes():
    """One group, sectors of sizes 2 and 3: the pooled eigenvalues 1, 1 +
    5e-7, 3, 5, 5.001 are cut at 5.001e-6 (the scale is max|lambda|), so 1
    and 1 + 5e-7 are one cluster across the sectors."""
    gap, seen, sizes = _split_once({7: [[1.0, 5.0], [1.0 + 5e-7, 3.0, 5.001]]})
    assert seen == {(7, 0): [0, 2], (7, 1): [0, 1, 3]}
    assert sizes == [2, 3]
    assert gap == 5.001 - 5.0


def test_seeded_split_cuts_consecutive_gaps_not_spreads():
    """A run 0, 0.6e-6, 1.2e-6, 1.8e-6 is one cluster: no consecutive gap
    passes 1e-6.  Anchoring each cluster at its first eigenvalue, the rule
    the split of x (x) A used before, splits the run in two."""
    run = [0.0, 0.6e-6, 1.2e-6, 1.8e-6, 0.5]
    gap, seen, _sizes = _split_once({0: [run]})
    assert seen == {(0, 0): [0, 0, 0, 0, 1]} and gap == 0.5 - 1.8e-6
    anchors = []
    for lam in run:
        if not anchors or abs(lam - anchors[-1]) >= 1e-6:
            anchors.append(lam)
    assert len(anchors) == 3


def test_seeded_split_redraws_only_rejected_keys_then_names_every_attempt():
    """Key 1 is rejected every time and key 0 never: both draw once, then
    key 1 alone, two draws an attempt; the error names the split, the
    attempts, the smallest gap cut and each attempt's reasons."""
    from tensorcat.category_data import seeded_split
    rng = _FixedDraws()
    with pytest.raises(StructuralError, match=r"^test split failed after 4 attempts \(smallest "
                       r"eigenvalue gap 2\.00e\+00\): attempt 1: 1 refused; attempt 2: 1 "
                       r"refused; attempt 3: 1 refused; attempt 4: 1 refused$"):
        seeded_split("test split", {0: 2, 1: 3}, rng, lambda key, r: [np.diag([0.0, 2.0])],
                     lambda stacks: {1: "1 refused"})
    assert rng.calls == [2, 2, 3, 3] + [3, 3] * 3
