"""Write reference.json: the outputs of every checked op at seed 0.

Run from the repository root at the commit whose outputs are the reference:

    python3 perfbench/capture.py

Floats are stored to 12 significant digits; the checks compare at 1e-8.
center_large has no stored entry: its reference is derived from Z(ising)
(see check.product_center), because the op fails at the commit that
captured the rest.
"""

import json
import os
import sys

import check
import run


def rounded(x):
    if isinstance(x, float):
        return float(f"{x:.12g}")
    if isinstance(x, list):
        return [rounded(v) for v in x]
    if isinstance(x, dict):
        return {k: rounded(v) for k, v in x.items()}
    return x


def main():
    captured = {}
    for workload in ("center", "theorem_c", "condense", "cli"):
        runner = run.Runner(os.getcwd(), workload, seed=0, capture=captured)
        try:
            cyc = run.WORKLOADS[workload](runner, False)
        finally:
            runner.cleanup()
        bad = [f"{op.name}: {op.error}" for op in cyc.ops if op.failed]
        if bad:
            sys.exit("capture failed:\n" + "\n".join(bad))
        print(f"{workload}: {len(cyc.ops)} ops captured", file=sys.stderr)
    with open(check.REFERENCE_PATH, "w") as fh:
        json.dump(rounded(captured), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
