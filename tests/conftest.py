import pytest

from tensorcat.catalog import catalog_category, catalog_names


@pytest.fixture(scope="session")
def cats():
    """All catalog categories, built once."""
    return {name: catalog_category(name) for name in catalog_names()}


@pytest.fixture(scope="session")
def fib(cats):
    return cats["fibonacci"]


@pytest.fixture(scope="session")
def ising_cat(cats):
    return cats["ising"]


@pytest.fixture(scope="session")
def toric(cats):
    return cats["toric_code"]


@pytest.fixture(scope="session")
def semion_cat(cats):
    return cats["semion"]


def _build_qsystem_case(cats, name):
    from tensorcat.algebra import group_algebra, symmetric_enveloping, trivial_algebra
    from tensorcat.catalog import vec_zn
    from tensorcat.category_data import deligne_product_data
    from tensorcat.center_tube import (build_tube_algebra, center_presentation,
                                       decompose_center, lagrangian_algebra)
    toric = cats["toric_code"]
    if name == "toric:1+e":
        return toric, group_algebra(toric, ("1", "e"))
    if name == "toric*toric:1+e*1":
        cd = deligne_product_data(toric, toric)
        return cd, group_algebra(cd, ("(1,1)", "(e,1)"))
    if name in ("D(Z6):Z3", "D(Z6):lagrangian"):
        cd, lagrangian = center_presentation(vec_zn(6, 0), None)
        support = lagrangian if name == "D(Z6):lagrangian" else ("0.0", "0.2", "0.4")
        return cd, group_algebra(cd, support)
    base, kind = name.split(":")
    cd = {"fib": lambda: cats["fibonacci"], "ising": lambda: cats["ising"],
          "vec_z2": lambda: cats["vec_z2"],
          "vec_z6_t1": lambda: vec_zn(6, 1), "vec_z6_t0": lambda: vec_zn(6, 0)}[base]()
    if kind == "enveloping":
        return symmetric_enveloping(cd)
    if kind == "trivial":
        return cd, trivial_algebra()
    pres, A, _ = lagrangian_algebra(cd, decompose_center(build_tube_algebra(cd)))
    return pres, A


@pytest.fixture(scope="session")
def qsystem_case(cats):
    """name -> (category, algebra), each built once and shared: callers must
    not mutate them.  Names: 'toric:1+e', 'toric*toric:1+e*1' (the algebra
    1 + e (x) 1), 'D(Z6):Z3' (D(Z/6) and the Z/3 subgroup {0.0, 0.2, 0.4}),
    'D(Z6):lagrangian' (D(Z/6) and the group algebra of the dual-group factor),
    'fib:enveloping', '<base>:lagrangian' for base fib, ising, vec_z2,
    vec_z6_t1 or vec_z6_t0 (the canonical Lagrangian of Z(base)) and
    '<base>:trivial' (the base with the trivial algebra)."""
    built = {}

    def get(name):
        if name not in built:
            built[name] = _build_qsystem_case(cats, name)
        return built[name]
    return get
