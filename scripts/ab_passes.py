#!/usr/bin/env python3
"""Compare one perfbench workload between two source trees, in warm passes.

    python3 scripts/ab_passes.py WORKLOAD SRC_A SRC_B ROUNDS PASSES

WORKLOAD is a perfbench workload (encode-256, survey-small or certify), and
SRC_A and SRC_B are directories that each hold a hypoint package, such as
the src/ of two checkouts. Each round runs one fresh subprocess per tree,
alternating which tree goes first. The subprocess imports hypoint from that
tree's directory alone, builds the workload at seed 1 with
perfbench/workloads.py, runs 2 warm-up passes, then PASSES passes, each
followed by perfbench/tracing.py's reference_loop(3). Its value is the
median over those passes of the pass time over the reference loop's time
per unit, the same scale as perfbench's pass_ref_ratio, so drift of the
host's speed cancels from it.

Prints one JSON line: both medians over the rounds ("a", "b"), their ratio
b / a ("ratio"), the number of rounds in which B read lower ("b_lower"),
"rounds", and every round's value for each tree ("a_rounds", "b_rounds").
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 1
WARMUP = 2
REF_UNITS = 3


def passes(workload: str, n: int) -> dict:
    """Run in the subprocess: n timed passes of the workload on the hypoint
    that the import path finds, which the caller sets to one tree."""
    sys.path.insert(0, str(PERFBENCH))
    from tracing import reference_loop
    from workloads import WORKLOADS, fresh_import

    lib = fresh_import()
    ops = WORKLOADS[workload](SEED).build(lib).ops
    ratios = []
    for i in range(WARMUP + n):
        t0 = perf_counter()
        for op in ops:
            op.fn(*op.args)
        t1 = perf_counter()
        if i >= WARMUP:
            reference_loop(REF_UNITS)
            ratios.append((t1 - t0) / ((perf_counter() - t1) / REF_UNITS))
    return {"value": median(ratios), "hypoint": lib.ff.__file__}


def one_round(workload: str, src: Path, n: int) -> float:
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (f"import sys, json; sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); "
            f"import ab_passes; print(json.dumps(ab_passes.passes({workload!r}, {n})))")
    out = json.loads(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                    stdout=subprocess.PIPE, text=True).stdout)
    # the tree under test, not an installed or inherited hypoint
    if Path(out["hypoint"]).resolve().parents[1] != src:
        raise RuntimeError(f"hypoint came from {out['hypoint']}, not from {src}")
    return out["value"]


def main(argv) -> int:
    if len(argv) != 5:
        print("usage: python3 scripts/ab_passes.py WORKLOAD SRC_A SRC_B ROUNDS PASSES", file=sys.stderr)
        return 2
    workload, src_a, src_b, rounds, n = argv
    srcs = {"a": Path(src_a).resolve(), "b": Path(src_b).resolve()}
    values = {"a": [], "b": []}
    for r in range(int(rounds)):
        for side in ("ab" if r % 2 == 0 else "ba"):
            values[side].append(one_round(workload, srcs[side], int(n)))
    a, b = median(values["a"]), median(values["b"])
    print(json.dumps({"workload": workload, "a": a, "b": b, "ratio": b / a,
                      "b_lower": sum(vb < va for va, vb in zip(values["a"], values["b"])),
                      "rounds": int(rounds), "a_rounds": values["a"], "b_rounds": values["b"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
