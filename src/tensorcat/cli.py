"""Command-line interface.

Exit codes: 0 success or affirmative answer; 1 valid computation with a
negative answer (not commutative, no centralizing object, axiom failure);
2 validation failure; 3 structural or I/O error.  JSON output is stable:
keys sorted, floats in shortest round-trip form, identical runs with the
same seed produce identical bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys

import numpy as np

from . import catalog as _catalog
from .algebra import (AlgebraObject, canonical_algebra, is_commutative,
                      load_algebra, solve_support_algebra, verify_qsystem)
from .braided_analysis import (find_centralizing_object, gamma_characters,
                               muger_centralizer, restriction_hom, s_matrix,
                               twists, verify_hypergroup_hom)
from .category_data import (CategoryData, FSymbolSet, _encode_value, check_tolerance,
                            load_category, save_category, validate_category)
from .center_tube import (build_tube_algebra, center_global_checks,
                          decompose_center)
from .diagram_eval import categorical_trace, evaluate, scalar_generator
from .errors import PreconditionError, StructuralError, ValidationFailure
from .fusion_ring import FusionRing, fp_dimensions
from .local_modules import (_verlinde, condensation_identity_check,
                            enumerate_local_modules, load_module)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INVALID = 2
EXIT_STRUCTURAL = 3


def _emit(doc, args):
    doc = dict(doc)
    doc.setdefault("tolerance", args.tol)
    if args.format == "json":
        print(json.dumps(doc, sort_keys=True, indent=2, default=_json_default))
    else:
        _emit_text(doc)


def _json_default(obj):
    if isinstance(obj, (complex, np.complexfloating)):
        return _encode_value(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    raise TypeError(f"not serializable: {type(obj)}")


def _emit_text(doc, indent=""):
    for key in sorted(doc):
        val = doc[key]
        if isinstance(val, dict):
            print(f"{indent}{key}:")
            _emit_text(val, indent + "  ")
        elif isinstance(val, (list, tuple, np.ndarray)):
            print(f"{indent}{key}: {np.array(val).tolist()}")
        else:
            print(f"{indent}{key}: {val}")


def _load_cd(args) -> CategoryData:
    """The category of --catalog or --input, at the tolerance of --tol, else
    TENSORCAT_TOL, else the file's, else the default."""
    if getattr(args, "catalog", None):
        cd = _catalog.catalog_category(args.catalog)
        return cd if args.tol is None else dataclasses.replace(cd, tolerance=args.tol)
    if getattr(args, "input", None):
        return load_category(args.input, validate=not args.no_validate,
                             tolerance=args.tol)
    raise StructuralError("need --input PATH or --catalog NAME")


def _load_algebra_arg(cd, spec) -> AlgebraObject:
    if spec is None:
        raise StructuralError("this command needs --algebra")
    if spec.startswith("canonical:"):
        return canonical_algebra(cd, spec.split(":", 1)[1])
    if spec == "lagrangian":
        return _find_lagrangian(cd)
    return load_algebra(cd, spec)


def _find_lagrangian(cd) -> AlgebraObject:
    """Search for a connected commutative Q-system with dim^2 = global_dim."""
    d = cd.dims.dims
    D = cd.dims.global_dim
    r = cd.ring.rank
    rest = [x for x in range(1, r)]
    for size in range(0, r):
        for combo in itertools.combinations(rest, size):
            supp = (0,) + combo
            if abs(sum(d[c] for c in supp) ** 2 - D) > cd.identity_tolerance:
                continue
            if any(cd.ring.dual[c] not in supp for c in supp):
                continue
            try:
                alg = solve_support_algebra(cd, supp, commutative=True)
            except (StructuralError, PreconditionError):
                continue
            if verify_qsystem(cd, alg).passed and is_commutative(cd, alg)[0]:
                return alg
    raise PreconditionError("no Lagrangian algebra found in this category")


def _sub_labels(cd, text):
    return tuple(cd.ring.label_index(part.strip()) for part in text.split(","))


def _add_common(sp):
    sp.add_argument("--input", help="category data file")
    sp.add_argument("--catalog", help="built-in category name")
    # argparse parses a string default with ``type``, so TENSORCAT_TOL is checked too
    sp.add_argument("--tol", type=check_tolerance, help="tolerance override",
                    default=os.environ.get("TENSORCAT_TOL"))
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--format", choices=("json", "text"), default="json")
    sp.add_argument("--no-validate", action="store_true")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def main(argv=None) -> int:
    parser = _Parser(
        prog="tensorcat",
        description="computations in braided unitary fusion categories")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def register(name, **kw):
        sp = sub.add_parser(name, **kw)
        _add_common(sp)
        return sp

    register("catalog", help="list built-in categories")
    register("validate", help="validate category data")
    register("dims", help="Frobenius-Perron dimensions")
    register("smatrix", help="unnormalized S-matrix from twists")
    register("chars", help="character table gamma_a(b)")
    sp = register("centralizer", help="Muger centralizer of a label set")
    sp.add_argument("--sub", required=True)
    sp = register("find-central", help="centralizing object outside a subcategory")
    sp.add_argument("--sub", required=True)
    sp = register("qsystem-check", help="verify the Q-system axioms")
    sp.add_argument("--algebra", required=True)
    sp = register("commutative", help="test commutativity of a Q-system")
    sp.add_argument("--algebra", required=True)
    sp = register("local-modules", help="enumerate simple local modules")
    sp.add_argument("--algebra", required=True)
    sp = register("condense", help="condensation identity report")
    sp.add_argument("--algebra", required=True)
    sp = register("center", help="Drinfeld center via the tube algebra")
    sp.add_argument("--emit-category", help="write a partial category file for Z(C)")
    sp = register("eval", help="evaluate a diagram expression")
    sp.add_argument("expression")
    sp.add_argument("--algebra", help="bind mu components as m_<a>_<b>_<c>")
    sp.add_argument("--module", help="bind rho components as r_<x>_<a>_<y>")
    sp.add_argument("--max-word", type=int, default=8,
                    help="override the evaluation word-length cap")
    sp = register("kappa", help="self-braiding scalar of an invertible object")
    sp.add_argument("--g", required=True)

    try:
        args = parser.parse_args(argv)
    except (_UsageError, StructuralError) as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True, indent=2))
        return EXIT_STRUCTURAL
    if not args.command:
        parser.print_usage(sys.stderr)
        return EXIT_STRUCTURAL

    try:
        return _dispatch(args)
    except ValidationFailure as exc:
        print(json.dumps({"error": str(exc), "report": exc.report[:50]},
                         sort_keys=True, indent=2))
        return EXIT_INVALID
    except PreconditionError as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True, indent=2))
        return EXIT_INVALID
    except (StructuralError, OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True, indent=2))
        return EXIT_STRUCTURAL


def _dispatch(args) -> int:
    cmd = args.command

    if cmd == "catalog":
        _emit({"categories": _catalog.catalog_names(),
               "tolerance": args.tol or CategoryData.tolerance}, args)
        return EXIT_OK

    cd = _load_cd(args)
    args.tol = cd.tolerance     # the one in use, which _emit reports
    ring = cd.ring

    if cmd == "validate":
        # load_category has validated an --input file
        checked = not (args.catalog or args.no_validate)
        report = [] if checked else validate_category(cd)
        _emit({"valid": not report, "problems": report[:200]}, args)
        return EXIT_OK if not report else EXIT_INVALID

    if cmd == "dims":
        _emit({"dims": [float(x) for x in cd.dims.dims],
               "global_dim": cd.dims.global_dim}, args)
        return EXIT_OK

    if cmd == "smatrix":
        s = s_matrix(cd).s
        _emit({"labels": list(ring.labels),
               "s_matrix": [[_encode_value(z) for z in row] for row in s],
               "twists": [_encode_value(t) for t in twists(cd).theta]}, args)
        return EXIT_OK

    if cmd == "chars":
        g = gamma_characters(cd).gamma
        _emit({"labels": list(ring.labels),
               "gamma": [[_encode_value(z) for z in row] for row in g]}, args)
        return EXIT_OK

    if cmd == "centralizer":
        sub = _sub_labels(cd, args.sub)
        cent = muger_centralizer(cd, sub)
        _emit({"sub": [ring.labels[i] for i in sorted(set(sub))],
               "centralizer": [ring.labels[i] for i in cent]}, args)
        return EXIT_OK

    if cmd == "find-central":
        sub = _sub_labels(cd, args.sub)
        sr = restriction_hom(cd, sub)
        hom_report = verify_hypergroup_hom(cd, sr)
        found = find_centralizing_object(cd, sub)
        _emit({"sub": [ring.labels[i] for i in sr.sub],
               "restriction": {ring.labels[b]: ring.labels[sr.f[b]]
                               for b in range(ring.rank)},
               "hypergroup_hom_ok": not hom_report,
               "centralizing_object": None if found is None else ring.labels[found]},
              args)
        return EXIT_OK if found is not None else EXIT_NEGATIVE

    if cmd == "qsystem-check":
        A = _load_algebra_arg(cd, args.algebra)
        rep = verify_qsystem(cd, A)
        _emit({"support": [ring.labels[c] for c in A.support],
               "residuals": rep.residuals, "connected": rep.connected,
               "passed": rep.passed}, args)
        return EXIT_OK if rep.passed else EXIT_NEGATIVE

    if cmd == "commutative":
        A = _load_algebra_arg(cd, args.algebra)
        ok, resid = is_commutative(cd, A)
        _emit({"commutative": ok, "residual": resid}, args)
        return EXIT_OK if ok else EXIT_NEGATIVE

    if cmd == "local-modules":
        A = _load_algebra_arg(cd, args.algebra)
        cond = enumerate_local_modules(cd, A, seed=args.seed)
        _emit({"count": len(cond.simples),
               "simples": [{
                   "support": [ring.labels[x] for x in m.support],
                   "fpdim": m.fpdim(cd),
                   "rho": [[ring.labels[x], ring.labels[a], ring.labels[y],
                            _encode_value(v)] for (x, a, y), v in sorted(m.rho.items())],
               } for m in cond.simples],
               "dims_over_Q": [float(x) for x in cond.dims_over_Q]}, args)
        return EXIT_OK

    if cmd == "condense":
        A = _load_algebra_arg(cd, args.algebra)
        chk = condensation_identity_check(cd, A, seed=args.seed)
        cond = chk.pop("condensed")
        chk["simples"] = [{"support": [ring.labels[x] for x in m.support],
                           "fpdim": m.fpdim(cd)} for m in cond.simples]
        _emit(chk, args)
        return EXIT_OK if chk["passed"] else EXIT_NEGATIVE

    if cmd == "center":
        tube = build_tube_algebra(cd)
        center = decompose_center(tube, seed=args.seed)
        checks = center_global_checks(center)
        doc = {
            "rank": len(center.simples),
            "dims": [z.dim for z in center.simples],
            "twists": [_encode_value(z.twist) for z in center.simples],
            "underlying": [[int(m) for m in z.underlying] for z in center.simples],
            "S": [[_encode_value(v) for v in row] for row in center.S],
            "T": [_encode_value(z.twist) for z in center.simples],
            "checks": {k: v for k, v in checks.items() if k != "self_centralizer"},
        }
        _emit(doc, args)
        if args.emit_category:
            _write_center_category(cd, center, args.emit_category)
        return EXIT_OK

    if cmd == "eval":
        env = {}
        if args.algebra:
            A = _load_algebra_arg(cd, args.algebra)
            for (a, b, c), v in A.mu.items():
                env[f"m_{a}_{b}_{c}"] = scalar_generator(cd, a, b, c, v)
        if args.module:
            X = load_module(cd, args.module)
            for (x, a, y), v in X.rho.items():
                env[f"r_{x}_{a}_{y}"] = scalar_generator(cd, x, a, y, v)
        mv = evaluate(args.expression, cd, env, max_word=args.max_word)   # typechecks it
        source, target = mv.source, mv.target
        doc = {
            "source": [ring.labels[i] for i in source],
            "target": [ring.labels[i] for i in target],
            "blocks": {str(c): [[_encode_value(v) for v in row] for row in m]
                       for c, m in sorted(mv.blocks.items()) if m.size},
        }
        if source == target:
            doc["trace"] = _encode_value(categorical_trace(cd, mv))
        _emit(doc, args)
        return EXIT_OK

    if cmd == "kappa":
        from .category_data import kappa_of
        val = kappa_of(cd, args.g)
        _emit({"g": args.g, "kappa": _encode_value(val)}, args)
        return EXIT_OK

    raise StructuralError(f"unknown subcommand {cmd!r}")


def _write_center_category(cd, center, path):
    """Partial CategoryData for Z(C): Verlinde fusion ring and dims only."""
    total = np.sqrt(np.sum([z.dim ** 2 for z in center.simples]))
    N = _verlinde(center.S / total, cd.identity_tolerance)
    ring = FusionRing.from_fusion([f"z{i}" for i in range(len(N))], N)
    zcd = CategoryData(ring=ring, dims=fp_dimensions(ring), F=FSymbolSet({}), R=None,
                       tolerance=cd.tolerance, partial=True)
    save_category(zcd, path)


if __name__ == "__main__":
    sys.exit(main())
