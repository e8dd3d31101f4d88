"""One benchmark child process: runs the ops of one spec and reports each as a JSON line.

Usage: python3 perfbench/child.py '<json spec>'

The spec names a kind (center, theorem_c, condense, prepare, cli, stub), its
cases, the seed forwarded to the library, whether to trace, and the file the
op lines go to.  Every op line carries perf_counter stamps (a system-wide
monotonic clock on Linux, so the parent can subtract its spawn time):
t_begin (set-up starts), t_ready (inputs built) and t_done (result returned),
plus the op's outputs or the error it raised.
"""

from __future__ import annotations

import json
import sys
import time

T_START = time.perf_counter()


def cnum(z):
    z = complex(z)
    return [z.real, z.imag]


CATEGORIES = {
    "fibonacci": lambda C, tc: C.fibonacci(),
    "vec_z2": lambda C, tc: C.vec_zn(2, 0),
    "vec_zn(6,0)": lambda C, tc: C.vec_zn(6, 0),
    "vec_zn(6,1)": lambda C, tc: C.vec_zn(6, 1),
    "vec_zn(8,1)": lambda C, tc: C.vec_zn(8, 1),
    "fib*fib": lambda C, tc: tc.deligne_product_data(C.fibonacci(), C.fibonacci()),
    "fib*ising": lambda C, tc: tc.deligne_product_data(C.fibonacci(), C.ising()),
    "ising*ising": lambda C, tc: tc.deligne_product_data(C.ising(), C.ising()),
}


def build_category(name):
    import tensorcat as tc
    from tensorcat import catalog
    return CATEGORIES[name](catalog, tc)


def build_condense_case(name):
    """(category, algebra) of a condense case; closed-form algebras, no solve."""
    import tensorcat as tc
    from tensorcat import catalog
    from tensorcat.center_tube import center_presentation
    if name == "toric*toric:1+e1":
        cd = tc.deligne_product_data(catalog.toric_code(), catalog.toric_code())
        A = tc.group_algebra(cd, ("(1,1)", "(e,1)"))
    else:
        # the double of Z/6; center_presentation ignores its center argument
        # on the pointed branch
        cd, lagrangian = center_presentation(catalog.vec_zn(6, 0), None)
        support = lagrangian if name == "D(Z6):lagrangian" else ("0.0", "0.2", "0.4")
        A = tc.group_algebra(cd, support)
    if not tc.verify_qsystem(cd, A).passed or not tc.is_commutative(cd, A)[0]:
        raise ValueError(f"condense case {name}: algebra fails its set-up check")
    return cd, A


def center_outputs(center, tube_dim):
    import tensorcat as tc
    checks = tc.center_global_checks(center)
    return {
        "rank": len(center.simples),
        "dims": [z.dim for z in center.simples],
        "twists": [cnum(z.twist) for z in center.simples],
        "underlying": [[int(m) for m in z.underlying] for z in center.simples],
        "S": [[cnum(v) for v in row] for row in center.S],
        "checks": {
            "sum_dim_sq": checks["sum_dim_sq"], "global_dim_sq": checks["global_dim_sq"],
            "dims_identity": checks["dims_identity"],
            "nondegenerate": checks["nondegenerate"],
            "self_centralizer_size": len(checks["self_centralizer"]),
            "trivial_centralizer": bool(checks["trivial_centralizer"]),
        },
        "tube_dim": tube_dim,
    }


def op_center(case, seed):
    cd = build_category(case)
    yield

    import tensorcat as tc
    tube = tc.build_tube_algebra(cd)
    center = tc.decompose_center(tube, seed=seed)
    yield center_outputs(center, tube.dim)


def op_theorem_c(case, seed):
    cd = build_category(case)
    yield

    import tensorcat as tc
    res = tc.theorem_c_shadow(cd, seed=seed)
    yield {k: ([cnum(t) for t in v] if k == "twists" else v) for k, v in res.items()}


def op_condense(case, seed):
    cd, A = build_condense_case(case)
    yield

    import tensorcat as tc
    cond = tc.enumerate_local_modules(cd, A, seed=seed, with_ring=True)
    braid = [[cnum(tc.local_double_braid_trace(cd, A, X, Y)) for Y in cond.simples]
             for X in cond.simples]
    yield {"count": len(cond.simples),
           "dims_over_Q": [float(x) for x in cond.dims_over_Q],
           "N": cond.ring.N.tolist(), "double_braid_trace": braid}


def op_prepare(case, seed):
    """Write the category files the CLI requests read."""
    yield
    import tensorcat as tc
    for name, path in case.items():
        tc.save_category(build_category(name), path)
    yield {"written": sorted(case)}


def op_stub(case, seed):
    """Harness self-test ops: ok, raise, alloc (past the cap), touch (hold RSS), sleep."""
    yield
    mode, mb = case["mode"], case.get("mb", 0)
    if mode == "raise":
        raise ValueError("stub op raised")
    if mode == "alloc":
        bytearray(mb << 20)
    held = b"x" * (mb << 20) if mode == "touch" else b""
    if mode == "sleep":
        time.sleep(case["s"])
    yield {"value": 1, "held": len(held)}


OPS = {"center": op_center, "theorem_c": op_theorem_c, "condense": op_condense,
       "prepare": op_prepare, "stub": op_stub}


def run_cli(spec):
    """A CLI request with tracing: import, install spans, then cli.main."""
    import tensorcat.cli as cli
    t_import = time.perf_counter()
    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
    rc = cli.main(spec["argv"])
    sys.stdout.flush()
    summary = tracer.summary()
    summary["cli.import_s"] = t_import - T_START
    with open(spec["result"], "w") as fh:
        fh.write(json.dumps({"trace": summary}) + "\n")
    tracer.dump(spec["spans"])
    return rc


def main():
    spec = json.loads(sys.argv[1])
    if spec["kind"] == "cli":
        return run_cli(spec)
    tracer = None
    if spec.get("trace"):
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    op = OPS[spec["kind"]]
    paths_pass1 = None
    with open(spec["result"], "w", buffering=1) as out:
        for i, (name, case) in enumerate(spec["ops"]):
            if tracer is not None and i == spec.get("pass2_from"):
                paths_pass1 = tracer.summary().get("diagram_eval.paths.s", 0.0)
            line = {"op": name, "t_begin": time.perf_counter()}
            steps = op(case, spec["seed"])
            try:
                next(steps)
                line["t_ready"] = time.perf_counter()
                outputs = next(steps)
                line["t_done"] = time.perf_counter()
                line["outputs"] = outputs
            except Exception as exc:  # the op's failure is the measurement
                line["error"] = f"{type(exc).__name__}: {exc}"[:500]
            out.write(json.dumps(line) + "\n")
        if tracer is not None:
            summary = tracer.summary()
            if paths_pass1:
                summary["diagram_eval.paths.pass2_over_pass1"] = (
                    summary["diagram_eval.paths.s"] - paths_pass1) / paths_pass1
            out.write(json.dumps({"trace": summary}) + "\n")
            tracer.dump(spec["spans"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
