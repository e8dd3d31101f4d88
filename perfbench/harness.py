"""Closed-loop child runner: one child at a time, capped, timed and charged.

Each child sets its own address-space cap (RLIMIT_AS, in the forked child
before exec).  The parent enforces the timeout through a pidfd and reads the
child's own peak RSS and CPU time from os.wait4; RUSAGE_CHILDREN is a running
maximum over every child reaped so far and would smear one op's peak over the
ops after it.

Charging: a failed op counts the per-op timeout as its time and the cap as
its peak RSS.
"""

from __future__ import annotations

import json
import os
import resource
import select
import signal
import statistics
import subprocess
import time
from dataclasses import dataclass, field

CAP_BYTES = 3 << 30


@dataclass
class Child:
    t_spawn: float
    t_exit: float
    exit_code: int          # negative: killed by that signal
    timed_out: bool
    peak_rss_mb: float
    cpu_s: float


def run_child(argv, *, timeout, env, cwd, stdout_path, stderr_path, cap_bytes=CAP_BYTES):
    """Run argv to completion or until timeout seconds have passed."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (cap_bytes, cap_bytes))

    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd,
                                preexec_fn=cap)
    fd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([fd], [], [], max(timeout, 0.0))
        if not ready:
            signal.pidfd_send_signal(fd, signal.SIGKILL)
        _, status, ru = os.wait4(proc.pid, 0)
    except BaseException:   # interrupted: leave no child behind
        signal.pidfd_send_signal(fd, signal.SIGKILL)
        os.wait4(proc.pid, 0)
        raise
    finally:
        os.close(fd)
    t_exit = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(t_spawn=t_spawn, t_exit=t_exit, exit_code=proc.returncode,
                 timed_out=not ready, peak_rss_mb=ru.ru_maxrss / 1024.0,
                 cpu_s=ru.ru_utime + ru.ru_stime)


@dataclass
class Op:
    """One op's measured (or charged) numbers."""

    name: str
    setup_s: float
    op_s: float
    error: str | None = None
    wrong: bool = False

    @property
    def failed(self):
        return self.error is not None


@dataclass
class Cycle:
    """One pass over a workload's ops.

    A request is what the client waits for: one op when ops_are_requests (a
    CLI command), else the whole pass, whose latency is the sum of its ops'
    set-up and op times.
    """

    ops: list = field(default_factory=list)
    children: list = field(default_factory=list)
    setup_s: float | None = None      # overrides the per-op median (cli)
    ops_are_requests: bool = False
    trace: dict = field(default_factory=dict)

    def metrics(self, cap_mb):
        peak = max((c.peak_rss_mb for c in self.children), default=0.0)
        if any(op.failed for op in self.ops):
            peak = max(peak, cap_mb)
        return {
            "wall_s": sum(op.op_s for op in self.ops),
            "setup_s": (self.setup_s if self.setup_s is not None
                        else statistics.median(op.setup_s for op in self.ops)),
            "peak_rss_mb": peak,
            "cpu_s": sum(c.cpu_s for c in self.children),
        }

    def request_latencies(self):
        if self.ops_are_requests:
            return [op.op_s for op in self.ops]
        return [sum(op.setup_s + op.op_s for op in self.ops)]


def quantile(sorted_values, q):
    """Linear interpolation between closest ranks (numpy's default method)."""
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (pos - lo) * (sorted_values[hi] - sorted_values[lo])


def read_lines(path):
    """JSON lines a child wrote; a torn last line (killed child) is dropped."""
    lines = []
    try:
        with open(path) as fh:
            for raw in fh:
                try:
                    lines.append(json.loads(raw))
                except json.JSONDecodeError:
                    break
    except FileNotFoundError:
        pass
    return lines


def child_ops(child, lines, names, timeout, check):
    """Ops of one child from its JSON lines; ops without a good line are charged.

    check(name, outputs) returns None or the reason the outputs are wrong.
    """
    by_name = {ln["op"]: ln for ln in lines if "op" in ln}
    ops = []
    for name in names:
        ln = by_name.get(name)
        error = wrong = None
        if ln is None:
            error = ("timed out" if child.timed_out
                     else f"no result (exit code {child.exit_code})")
        elif "error" in ln:
            error = ln["error"]
        elif child.exit_code != 0:
            error = f"exit code {child.exit_code}"
        else:
            wrong = check(name, ln["outputs"])
        if ln is not None and "t_ready" in ln:
            setup = ln["t_ready"] - (child.t_spawn if name == names[0] else ln["t_begin"])
        else:
            setup = 0.0
        if error is None and wrong is None:
            ops.append(Op(name, setup, ln["t_done"] - ln["t_ready"]))
        else:
            ops.append(Op(name, setup, timeout, error=error or wrong,
                          wrong=wrong is not None))
    return ops
