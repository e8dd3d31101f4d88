"""Tests of the benchmark harness's charging rules, on stub ops that import nothing.

Run from the repository root:  python3 -m pytest -q perfbench/test_harness.py
"""

import json
import os
import sys
import time

from harness import CAP_BYTES, Cycle, child_ops, read_lines, run_child

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
CAP_MB = CAP_BYTES / 2**20


def run_stub(tmp_path, case, timeout=30.0, cap_bytes=CAP_BYTES):
    result = tmp_path / f"{case['mode']}.jsonl"
    spec = {"kind": "stub", "ops": [["stub", case]], "seed": 0, "trace": False,
            "result": str(result)}
    child = run_child([sys.executable, CHILD, json.dumps(spec)], timeout=timeout,
                      env=dict(os.environ), cwd=str(tmp_path), stdout_path=os.devnull,
                      stderr_path=str(tmp_path / "err"), cap_bytes=cap_bytes)
    cyc = Cycle(ops=child_ops(child, read_lines(result), ["stub"], timeout,
                              lambda name, out: None if out["value"] == 1 else "wrong value"),
                children=[child])
    return child, cyc


def assert_charged(cyc, timeout):
    (op,) = cyc.ops
    assert op.failed
    assert op.op_s == timeout
    assert cyc.request_latencies() == [op.setup_s + timeout]
    m = cyc.metrics(CAP_MB)
    assert m["wall_s"] == timeout
    assert m["peak_rss_mb"] == CAP_MB


def test_ok_op_is_measured(tmp_path):
    child, cyc = run_stub(tmp_path, {"mode": "ok"})
    (op,) = cyc.ops
    assert not op.failed
    assert child.exit_code == 0
    assert 0 <= op.op_s < 1.0
    assert 0 < op.setup_s < child.t_exit - child.t_spawn < 10.0
    assert cyc.metrics(CAP_MB)["peak_rss_mb"] < 200


def test_raising_op_is_charged(tmp_path):
    _, cyc = run_stub(tmp_path, {"mode": "raise"}, timeout=30.0)
    assert "ValueError" in cyc.ops[0].error
    assert not cyc.ops[0].wrong
    assert_charged(cyc, 30.0)


def test_op_past_the_cap_is_charged(tmp_path):
    child, cyc = run_stub(tmp_path, {"mode": "alloc", "mb": 1024}, cap_bytes=512 << 20)
    assert "MemoryError" in cyc.ops[0].error
    assert child.peak_rss_mb < 512
    assert_charged(cyc, 30.0)


def test_op_past_the_timeout_is_killed_and_charged(tmp_path):
    t0 = time.perf_counter()
    child, cyc = run_stub(tmp_path, {"mode": "sleep", "s": 60}, timeout=1.0)
    assert time.perf_counter() - t0 < 10.0
    assert child.timed_out and child.exit_code < 0
    assert_charged(cyc, 1.0)


def test_wrong_answer_is_charged(tmp_path):
    result = tmp_path / "r.jsonl"
    result.write_text(json.dumps({"op": "stub", "t_begin": 1.0, "t_ready": 2.0,
                                  "t_done": 3.0, "outputs": {"value": 2}}) + "\n")
    child, _ = run_stub(tmp_path, {"mode": "ok"})
    ops = child_ops(child, read_lines(result), ["stub"], 30.0,
                    lambda name, out: None if out["value"] == 1 else "wrong value")
    assert ops[0].wrong and ops[0].op_s == 30.0


def test_peak_rss_is_per_child(tmp_path):
    big, _ = run_stub(tmp_path, {"mode": "touch", "mb": 200})
    small, _ = run_stub(tmp_path, {"mode": "ok"})
    assert big.peak_rss_mb > 200
    assert small.peak_rss_mb < big.peak_rss_mb - 150
