"""Call spans around tensorcat's public functions, recorded from outside the library.

`Tracer.install()` wraps each function in `WRAPPED` and rebinds the wrapper in
every `tensorcat` namespace that holds the original, so calls made through a
name imported with `from .x import f` are recorded as well as calls through
module globals.  `numpy.linalg` is traced only as the library sees it: each
tensorcat module's `np` global is replaced by a copy of numpy whose `linalg`
holds wrapped functions, so scipy's own linear algebra stays untouched.
`scipy.optimize.least_squares` is imported lazily by `solve_support_algebra`;
it is patched on first entry into that function, inside its span, so the
import cost is charged where it is charged without tracing.

Spans (name, parent, start, end) go into flat arrays in memory and are written
out once, at process exit, by `dump()`.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array

# (metric prefix, module, attribute); a dotted attribute names a method.
WRAPPED = [
    ("center_tube.build_tube_algebra", "tensorcat.center_tube", "build_tube_algebra"),
    ("center_tube.decompose_center", "tensorcat.center_tube", "decompose_center"),
    ("center_tube.center_global_checks", "tensorcat.center_tube", "center_global_checks"),
    ("center_tube.lagrangian_algebra", "tensorcat.center_tube", "lagrangian_algebra"),
    ("center_tube.theorem_c_shadow", "tensorcat.center_tube", "theorem_c_shadow"),
    ("algebra.solve_support_algebra", "tensorcat.algebra", "solve_support_algebra"),
    ("algebra.verify_qsystem", "tensorcat.algebra", "verify_qsystem"),
    ("algebra.is_commutative", "tensorcat.algebra", "is_commutative"),
    ("local_modules.enumerate_local_modules", "tensorcat.local_modules",
     "enumerate_local_modules"),
    ("local_modules.free_module_decomposition", "tensorcat.local_modules",
     "free_module_decomposition"),
    ("local_modules.verify_module", "tensorcat.local_modules", "verify_module"),
    ("local_modules.local_fusion", "tensorcat.local_modules", "local_fusion"),
    ("local_modules.local_double_braid_trace", "tensorcat.local_modules",
     "local_double_braid_trace"),
    ("local_modules.condensation_identity_check", "tensorcat.local_modules",
     "condensation_identity_check"),
    ("diagram_eval.insert", "tensorcat.diagram_eval", "insert"),
    ("diagram_eval.compose_values", "tensorcat.diagram_eval", "compose_values"),
    ("diagram_eval.unfold", "tensorcat.diagram_eval", "unfold"),
    ("diagram_eval.paths", "tensorcat.diagram_eval", "paths"),
    ("diagram_eval.MorphismValue.block", "tensorcat.diagram_eval", "MorphismValue.block"),
    ("category_data.deligne_product_data", "tensorcat.category_data",
     "deligne_product_data"),
    ("category_data.validate_category", "tensorcat.category_data", "validate_category"),
    ("category_data.load_category", "tensorcat.category_data", "load_category"),
    ("cli.main", "tensorcat.cli", "main"),
]

LINALG = ("svd", "eig", "eigh", "lstsq", "cholesky", "inv", "norm")

# Every per-layer metric a traced run prints, with its unit.
PER_LAYER = (
    [(f"{prefix}.{field}", unit) for prefix, _m, _a in WRAPPED
     for field, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"))]
    + [("center_tube.tube_dim", "count"),
       ("center_tube.decompose_center.linalg_s", "s"),
       ("linalg.calls", "count"), ("linalg.s", "s"), ("linalg.max_out_bytes", "B"),
       ("scipy.least_squares.calls", "count"), ("scipy.least_squares.nfev", "count"),
       ("diagram_eval.paths.pass2_over_pass1", "ratio"),
       ("cli.import_s", "s"),
       ("proc.cpu_s", "s"),
       ("trace.overhead_frac", "ratio")]
)


def linalg_out_bytes(name, args, kwargs):
    """Bytes of the arrays a numpy.linalg call returns, from shapes and flags only."""
    a = args[0] if args else kwargs.get("a")
    shape = getattr(a, "shape", ())
    if len(shape) < 2:
        return 0
    *batch, m, n = shape
    lead = 1
    for b in batch:
        lead *= b
    item = 16 if getattr(a, "dtype", None) is not None and a.dtype.kind == "c" else 8
    k = min(m, n)
    if name == "svd":
        full = args[1] if len(args) > 1 else kwargs.get("full_matrices", True)
        uv = args[2] if len(args) > 2 else kwargs.get("compute_uv", True)
        elems = 0 if not uv else (m * m + n * n if full else m * k + k * n)
        return lead * (elems * item + k * 8)
    if name == "eig":
        return lead * (n * n + n) * 16
    if name == "eigh":
        return lead * (n * n * item + n * 8)
    if name == "lstsq":
        b = args[1] if len(args) > 1 else kwargs.get("b")
        nrhs = b.shape[-1] if getattr(b, "ndim", 1) > 1 else 1
        return (n * nrhs + k) * item
    if name == "norm":
        return 8
    return lead * m * n * item   # cholesky, inv


class Tracer:
    """Span recorder; one per process."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_ids = array("i")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.outer = array("b")     # 1 when no enclosing span has the same name
        self._stack = [-1]
        self._active = []
        self.tube_dim = 0
        self.linalg_max_out_bytes = 0
        self.nfev = 0

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    def wrap(self, name, fn, pre=None, post=None):
        nid = self._id(name)
        name_ids, parents, starts, ends, outer = (
            self.name_ids, self.parents, self.starts, self.ends, self.outer)
        stack, active = self._stack, self._active
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            outer.append(active[nid] == 0)
            ends.append(0.0)
            stack.append(i)
            active[nid] += 1
            starts.append(clock())
            try:
                if pre is not None:
                    pre(args, kwargs)
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                active[nid] -= 1
            if post is not None:
                post(out)
            return out

        traced.__wrapped_by_tracer__ = True
        return traced

    def install(self):
        """Wrap WRAPPED, numpy.linalg and least_squares in every tensorcat namespace."""
        import numpy
        import tensorcat  # noqa: F401  (loads every submodule)
        mods = [m for k, m in sys.modules.items()
                if k == "tensorcat" or k.startswith("tensorcat.")]
        for prefix, modname, attr in WRAPPED:
            owner = sys.modules.get(modname)
            if owner is None:    # tensorcat.cli is loaded only by CLI requests
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(prefix, getattr(cls, meth)))
                continue
            orig = getattr(owner, attr)
            post = pre = None
            if prefix == "center_tube.build_tube_algebra":
                post = self._note_tube
            if prefix == "algebra.solve_support_algebra":
                pre = self._patch_least_squares
            wrapper = self.wrap(prefix, orig, pre=pre, post=post)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)

        linalg = types.ModuleType("numpy.linalg")
        linalg.__dict__.update(numpy.linalg.__dict__)
        for fname in LINALG:
            linalg.__dict__[fname] = self.wrap(
                f"linalg.{fname}", getattr(numpy.linalg, fname),
                pre=functools.partial(self._note_linalg, fname))
        np_view = types.ModuleType("numpy")
        np_view.__dict__.update(numpy.__dict__)
        np_view.linalg = linalg
        for mod in mods:
            if vars(mod).get("np") is numpy:
                mod.np = np_view

    def _note_tube(self, tube):
        self.tube_dim = max(self.tube_dim, tube.dim)

    def _note_linalg(self, fname, args, kwargs):
        self.linalg_max_out_bytes = max(self.linalg_max_out_bytes,
                                        linalg_out_bytes(fname, args, kwargs))

    def _patch_least_squares(self, _args, _kwargs):
        import scipy.optimize
        if getattr(scipy.optimize.least_squares, "__wrapped_by_tracer__", False):
            return
        scipy.optimize.least_squares = self.wrap(
            "scipy.least_squares", scipy.optimize.least_squares, post=self._note_nfev)

    def _note_nfev(self, result):
        self.nfev += int(result.nfev)

    def dump(self, path):
        """Write every span to an .npz file."""
        import numpy as np
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.frombuffer(self.name_ids, "i4"),
            parent=np.frombuffer(self.parents, "i8"), start=np.frombuffer(self.starts),
            end=np.frombuffer(self.ends))

    def summary(self):
        """Per-name calls, outermost time and self time, plus the exact counters."""
        import numpy as np
        n = len(self.starts)
        nid = np.frombuffer(self.name_ids, "i4")
        parent = np.frombuffer(self.parents, "i8")
        start = np.frombuffer(self.starts)
        dur = np.frombuffer(self.ends) - start
        outer = np.frombuffer(self.outer, "i1").astype(bool)
        child = np.bincount(parent + 1, weights=dur, minlength=n + 1)[1:]
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur * outer, minlength=k)
        self_s = np.bincount(nid, weights=dur - child, minlength=k)
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.s"] = float(total[i])
            out[f"{name}.self_s"] = float(self_s[i])
        is_linalg = np.isin(nid, [self._ids[f"linalg.{f}"] for f in LINALG
                                  if f"linalg.{f}" in self._ids])
        out["linalg.calls"] = int(is_linalg.sum())
        out["linalg.s"] = float(dur[is_linalg].sum())
        out["linalg.max_out_bytes"] = int(self.linalg_max_out_bytes)
        dc = self._ids.get("center_tube.decompose_center")
        under = 0.0
        if dc is not None and is_linalg.any():
            dc_idx = np.nonzero(nid == dc)[0]
            li = np.nonzero(is_linalg)[0]
            pos = np.searchsorted(start[dc_idx], start[li], side="right") - 1
            ok = pos >= 0
            inside = np.zeros(len(li), bool)
            inside[ok] = (start[li][ok] + dur[li][ok]
                          <= start[dc_idx][pos[ok]] + dur[dc_idx][pos[ok]])
            under = float(dur[li][inside].sum())
        out["center_tube.decompose_center.linalg_s"] = under
        out["center_tube.tube_dim"] = int(self.tube_dim)
        out["scipy.least_squares.nfev"] = int(self.nfev)
        return out

