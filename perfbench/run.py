"""tensorcat benchmark: five workloads, each op in its own capped child process.

Usage, from the repository root:

    python3 perfbench/run.py --workload center --seed 0 --seconds 10 --trace 0

A single-process, closed-loop client starts one child at a time (the library
is CPU-bound; a second concurrent child would only contend for the two cores
of the machine the figures were taken on).  Every op's outputs are checked
against reference.json.  A run repeats the workload's fixed op cycle until
--seconds have passed (at least once) and reports the median over cycles.
With --trace 1 one more cycle runs with call spans installed and the
per-layer metrics are printed instead of the end-to-end ones.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics ({name: {value, unit}}).  Spans of a traced run are written under
.perfbench_work/spans/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time

import check
from harness import CAP_BYTES, Cycle, Op, child_ops, quantile, read_lines, run_child
from tracing import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_BUDGET_S = 170.0
CAP_MB = CAP_BYTES / 2**20

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"),
              ("request_p50_s", "s"), ("request_p75_s", "s")]

# Why each workload exists is recorded in BENCHMARK.json and CHANGES.md.
CENTER_CASES = ["vec_zn(6,1)", "fib*fib", "vec_zn(8,1)", "fib*ising"]
CENTER_LARGE_CASES = ["ising*ising"]
THEOREM_C_CASES = ["fibonacci", "vec_z2", "vec_zn(6,1)", "vec_zn(6,0)"]
CONDENSE_CASES = ["D(Z6):lagrangian", "D(Z6):Z3", "toric*toric:1+e1"]
CLI_ROUNDS = 4
CLI_PREPARATIONS = 3


def cli_requests(files):
    """(name, argv) of one round of CLI requests; semion has no Lagrangian (exit 2)."""
    return [
        ("validate fib*ising", ["validate", "--input", files["fib*ising"]]),
        ("validate ising*ising", ["validate", "--input", files["ising*ising"]]),
        ("center toric_code", ["center", "--catalog", "toric_code"]),
        ("center ising", ["center", "--catalog", "ising"]),
        ("condense toric_code", ["condense", "--catalog", "toric_code",
                                 "--algebra", "lagrangian"]),
        ("local-modules toric_code", ["local-modules", "--catalog", "toric_code",
                                      "--algebra", "lagrangian"]),
        ("qsystem-check fibonacci", ["qsystem-check", "--catalog", "fibonacci",
                                     "--algebra", "canonical:t"]),
        ("eval fibonacci", ["eval", "cap[t] . cup[t]", "--catalog", "fibonacci"]),
        ("smatrix ising", ["smatrix", "--catalog", "ising"]),
        ("condense semion", ["condense", "--catalog", "semion", "--algebra", "lagrangian"]),
    ]


class Runner:
    """State of one benchmark invocation: seed, deadline, scratch files, checks."""

    def __init__(self, root, workload, seed, capture=None):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.work = os.path.join(root, ".perfbench_work", f"{workload}-{os.getpid()}")
        self.spans = os.path.join(root, ".perfbench_work", "spans", workload)
        os.makedirs(self.work, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        PYTHONHASHSEED="0")
        self.capture = capture
        self.reference = None if capture is not None else check.load_reference()
        self.n = 0

    def check(self, group, name, outputs, compare):
        if self.capture is not None:
            self.capture.setdefault(group, {})[name] = outputs
            return None
        ref = (check.product_center(self.reference["cli"]["center ising"]["json"])
               if group == "center_large" else self.reference[group][name])
        return compare(outputs, ref)

    def scratch(self, suffix):
        self.n += 1
        return os.path.join(self.work, f"{self.n}{suffix}")

    def child(self, argv, timeout, stdout_path=os.devnull):
        """Run argv; None when the run budget is already spent."""
        timeout = min(timeout, self.deadline - time.perf_counter())
        if timeout <= 0:
            return None
        return run_child(argv, timeout=timeout, env=self.env, cwd=self.root,
                         stdout_path=stdout_path, stderr_path=self.scratch(".err"))

    def spec_child(self, cyc, kind, ops, timeout_per_op, traced, check_op, **extra):
        """Run one child.py over ops [(name, case)] and add its ops to cyc."""
        result = self.scratch(".jsonl")
        spec = dict(kind=kind, ops=ops, seed=self.seed, trace=traced, result=result,
                    **extra)
        if traced:
            spec["spans"] = self.spans_path(ops[0][0])
        child = self.child([sys.executable, os.path.join(HERE, "child.py"),
                            json.dumps(spec)], timeout_per_op * len(ops))
        names = [name for name, _ in ops]
        if child is None:
            cyc.ops += [Op(n, 0.0, timeout_per_op, error="not started: run budget spent")
                        for n in names]
            return
        lines = read_lines(result)
        cyc.ops += child_ops(child, lines, names, timeout_per_op, check_op)
        cyc.children.append(child)
        for ln in lines:
            if "trace" in ln:
                merge_trace(cyc.trace, ln["trace"])

    def spans_path(self, name):
        os.makedirs(self.spans, exist_ok=True)
        slug = "".join(ch if ch.isalnum() else "_" for ch in name)
        return os.path.join(self.spans, f"{slug}.npz")

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)


MERGED_BY_MAX = {"center_tube.tube_dim", "linalg.max_out_bytes",
                 "diagram_eval.paths.pass2_over_pass1"}


def merge_trace(total, part):
    for key, val in part.items():
        if key in MERGED_BY_MAX:
            total[key] = max(total.get(key, 0), val)
        else:
            total[key] = total.get(key, 0) + val


def ladder(kind, cases, timeout, compare, group=None):
    """One fresh child per case."""

    def cycle(runner, traced):
        cyc = Cycle()
        for case in cases:
            runner.spec_child(
                cyc, kind, [(case, case)], timeout, traced,
                lambda name, out: runner.check(group or kind, name, out, compare))
        return cyc

    return cycle


def condense_cycle(runner, traced):
    """One long-lived child, two passes that rebuild every category and algebra."""
    cyc = Cycle()
    ops = [(f"pass{p}:{case}", case) for p in (1, 2) for case in CONDENSE_CASES]
    runner.spec_child(
        cyc, "condense", ops, 30.0, traced,
        lambda name, out: runner.check("condense", name.split(":", 1)[1], out,
                                       check.check_condense),
        pass2_from=len(CONDENSE_CASES))
    return cyc


def cli_cycle(runner, traced):
    """Prepare the input files (set-up, median of several), then request rounds."""
    cyc = Cycle(ops_are_requests=True)
    files = {name: os.path.join(runner.work, name.replace("*", "_") + ".json")
             for name in ("fib*ising", "ising*ising")}
    prep = Cycle()
    for _ in range(CLI_PREPARATIONS):
        runner.spec_child(prep, "prepare", [("prepare", files)], 60.0, False,
                          lambda name, out: None)
    cyc.setup_s = statistics.median(c.t_exit - c.t_spawn for c in prep.children) \
        if prep.children else 0.0
    timeout = 30.0
    for _ in range(CLI_ROUNDS):
        for name, args in cli_requests(files):
            argv = args + ["--seed", str(runner.seed)]
            if traced:
                result = runner.scratch(".jsonl")
                spec = dict(kind="cli", argv=argv, result=result,
                            spans=runner.spans_path(name))
                cmd = [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)]
            else:
                cmd = [sys.executable, "-m", "tensorcat.cli"] + argv
            stdout_path = runner.scratch(".out")
            child = runner.child(cmd, timeout, stdout_path)
            if child is None:
                cyc.ops.append(Op(name, 0.0, timeout, error="not started: run budget spent"))
                continue
            cyc.children.append(child)
            latency = child.t_exit - child.t_spawn
            error = "timed out" if child.timed_out else None
            wrong = None
            if error is None:
                try:
                    with open(stdout_path) as fh:
                        doc = json.load(fh)
                except (OSError, json.JSONDecodeError) as exc:
                    error = f"unreadable output: {exc}"
                else:
                    wrong = runner.check("cli", name, {"exit": child.exit_code, "json": doc},
                                         check.check_cli)
            if error or wrong:
                cyc.ops.append(Op(name, 0.0, timeout, error=error or wrong,
                                  wrong=wrong is not None))
            else:
                cyc.ops.append(Op(name, 0.0, latency))
            if traced:
                for ln in read_lines(result):
                    if "trace" in ln:
                        merge_trace(cyc.trace, ln["trace"])
    return cyc


WORKLOADS = {
    "center": ladder("center", CENTER_CASES, 60.0, check.check_center),
    "center_large": ladder("center", CENTER_LARGE_CASES, 60.0, check.check_center,
                           group="center_large"),
    "theorem_c": ladder("theorem_c", THEOREM_C_CASES, 60.0, check.check_theorem_c),
    "condense": condense_cycle,
    "cli": cli_cycle,
}


def per_layer(traced, untraced_wall, untraced_cpu):
    out = {}
    for name, unit in PER_LAYER:
        value = traced.trace.get(name, 0)
        if name == "proc.cpu_s":
            value = untraced_cpu
        elif name == "trace.overhead_frac":
            value = traced.metrics(CAP_MB)["wall_s"] / untraced_wall - 1.0
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))   # unwind: kill the child

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tensorcat", "__init__.py")):
        print(f"perfbench: no tensorcat sources under {root}/src; run from the "
              "repository root", file=sys.stderr)
        return 2

    runner = Runner(root, args.workload, args.seed)
    cycle = WORKLOADS[args.workload]
    try:
        t0 = time.perf_counter()
        cycles = [cycle(runner, False)]
        while (time.perf_counter() - t0 < args.seconds
               and time.perf_counter() + (time.perf_counter() - t0) / len(cycles)
               < runner.deadline):
            cycles.append(cycle(runner, False))
        traced = cycle(runner, True) if args.trace else None
    finally:
        runner.cleanup()

    all_cycles = cycles + ([traced] if traced else [])
    for i, cyc in enumerate(all_cycles):
        tag = "traced" if cyc is traced else f"cycle {i + 1}"
        for op in cyc.ops:
            status = "ok" if not op.failed else ("WRONG: " if op.wrong else "FAILED: ") + op.error
            print(f"{tag:>8}  {op.name:<26} setup {op.setup_s:8.3f} s  op {op.op_s:8.3f} s  "
                  f"{status}")
    per_cycle = [c.metrics(CAP_MB) for c in cycles]
    med = {k: statistics.median(m[k] for m in per_cycle) for k in per_cycle[0]}
    requests = sorted(r for c in cycles for r in c.request_latencies())
    med["request_p50_s"] = quantile(requests, 0.5)
    med["request_p75_s"] = quantile(requests, 0.75)
    attempted = sum(len(c.ops) for c in all_cycles)
    failed = sum(op.failed for c in all_cycles for op in c.ops)
    print(f"cycles {len(cycles)}  requests {len(requests)}  ops_attempted {attempted}  "
          f"ops_failed {failed}  ops_failed_frac {failed / attempted:.4f}  "
          f"cpu_s {med['cpu_s']:.3f}")
    if traced:
        metrics = per_layer(traced, med["wall_s"], med["cpu_s"])
    else:
        metrics = {name: {"value": med[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({
        "correct": not any(op.wrong for c in all_cycles for op in c.ops),
        "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
