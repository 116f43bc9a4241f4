#!/usr/bin/env python3
"""hypoint benchmark: one workload per run, timed or traced.

    python3 perfbench/run.py --workload encode-256 --seed 1 --seconds 30 --trace 0

With --trace 0 the run sets up the workload several times (set-up time is the
median), repeats its seeded operation list for --seconds, checks every output,
and prints every end-to-end metric. With --trace 1 it runs the traced run
instead: all three workloads, each call recorded as a span, plus replay probes
that split each module's share; it writes the spans to perfbench/out/ and
prints every per-module metric with the tracing overhead. --workload all runs
the three timed workloads one after another in this process.

The second-to-last line of standard output is a report (environment, output
digest, workload figures with units, failure details); the last line is the
result object {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

from tracing import PacedRecorder, Recorder, Tracer
from workloads import ROOT, SRC, WORKLOADS, Failed, fresh_import, median

SETUP_REPS = 15
REF_SHARE = 0.1  # reference-loop time per unit of operation time
OUT_DIR = Path(__file__).resolve().parent / "out"


def setup(wl):
    """Import hypoint afresh and build the workload's fields and curves;
    returns (state, seconds)."""
    gc.collect()  # the previous import's modules are garbage; collect outside the timing
    t0 = perf_counter()
    st = wl.build(fresh_import())
    return st, perf_counter() - t0


def run_pass(st, rec):
    """One pass over the operation list; an operation that raises yields Failed."""
    outs = []
    for i, op in enumerate(st.ops):
        with rec.operation(i):
            try:
                outs.append(rec.call(op.name, op.tag, op.fn, *op.args))
            except Exception as exc:  # counted as a failed operation, never fatal
                outs.append(Failed(exc))
    return outs


def timed_pass(st, rec):
    t0 = perf_counter()
    outs = run_pass(st, rec)
    return outs, perf_counter() - t0


class Gate:
    """Checks the reference pass once; later passes must reproduce it exactly."""

    def __init__(self, wl, st, outs):
        self.wl, self.st = wl, st
        self.ref = [self._canon(i, out) for i, out in enumerate(outs)]
        self.reasons = {i: out.text for i, out in enumerate(outs) if isinstance(out, Failed)}
        self.reasons.update(wl.check(st, outs))

    def _canon(self, i, out):
        return out.canon() if isinstance(out, Failed) else self.wl.canon(self.st, i, out)

    def failures(self, outs):
        """Failed operations of one pass: bad in the reference, or different from it."""
        return sum(1 for i, out in enumerate(outs) if i in self.reasons or self._canon(i, out) != self.ref[i])

    def digest(self):
        text = json.dumps(self.ref, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        import cpuinfo
    except ImportError:
        return platform.processor() or None
    return cpuinfo.get_cpu_info().get("brand_raw")


def environment(args):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def with_units(figures):
    return {name: {"value": value, "unit": unit} for name, (value, unit) in figures.items()}


def timed_run(wl, seconds):
    """Returns (result, report) for one untraced workload run."""
    st, first = setup(wl)
    setup_times = [first]
    start = perf_counter()
    deadline = start + seconds * wl.pass_share
    gate = Gate(wl, st, run_pass(st, Recorder()))  # warm-up and reference pass
    failed, passes = len(gate.reasons), 1
    unit_s = PacedRecorder.unit_seconds()
    recs = []
    while perf_counter() < deadline or not recs:
        rec = PacedRecorder(REF_SHARE, unit_s)
        failed += gate.failures(run_pass(st, rec))
        recs.append(rec)
        passes += 1
        # further set-ups spread over the run, so that one slow moment does not set the median
        if perf_counter() >= start + (deadline - start) * len(setup_times) / SETUP_REPS:
            setup_times.append(setup(wl)[1])
    while len(setup_times) < SETUP_REPS:
        setup_times.append(setup(wl)[1])
    attempted = passes * len(st.ops)
    x_attempted, x_failed, x_metrics, x_info = wl.extra(st, seconds * (1 - wl.pass_share))
    attempted += x_attempted
    failed += x_failed
    end_to_end = {
        "setup_s": (median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "pass_ref_ratio": (median([rec.ratio() for rec in recs]), "x"),
    }
    figures, info = wl.metrics(st, recs, gate.ref)
    figures.update(x_metrics)
    info.update(x_info)
    report = {
        "workload": wl.name,
        "digest": gate.digest(),
        "attempted": attempted,
        "failed": failed,
        "failure_reasons": sorted(set(gate.reasons.values()))[:10],
        "metrics": with_units({**end_to_end, "pass_s": (median([rec.work_seconds() for rec in recs]), "s"),
                               "failed_ratio": (failed / attempted, "ratio"), **figures}),
        "counts": {"passes_timed": len(recs), "setup_reps": len(setup_times), "ops_per_pass": len(st.ops),
                   "reference_unit_s": median([rec.ref_unit_seconds() for rec in recs]), **info},
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": with_units(end_to_end)}
    return result, report


def traced_run(workloads, span_file):
    """The traced run over the given workloads; returns (result, report)."""
    metrics, reports, tracers = {}, {}, []
    attempted = failed = 0
    for wl in workloads:
        st, _ = setup(wl)
        gate = Gate(wl, st, run_pass(st, Recorder()))  # warm-up and reference pass
        tr = Tracer()
        traced_outs, traced_s = timed_pass(st, tr)
        plain_outs, plain_s = timed_pass(st, Recorder())
        layer, probe_bad = wl.probe(st, tr, gate.ref)
        attempted += 4 * len(st.ops)
        failed += len(gate.reasons) + gate.failures(traced_outs) + gate.failures(plain_outs) + len(probe_bad)
        metrics.update(layer)
        for module, s in sorted(tr.self_seconds().items()):
            if module not in ("bench", "python"):
                metrics[f"{module}.self_s.{wl.name}"] = (s, "s")
        metrics[f"trace.overhead_s.{wl.name}"] = (traced_s - plain_s, "s")
        tracers.append((wl.name, tr))
        reports[wl.name] = {
            "digest": gate.digest(),
            "pass_s_traced": traced_s,
            "pass_s_untraced": plain_s,
            "spans": len(tr.spans),
            "failure_reasons": sorted(set(gate.reasons.values()) | set(probe_bad.values()))[:10],
        }
    span_file.parent.mkdir(exist_ok=True)
    span_file.unlink(missing_ok=True)
    for name, tr in tracers:
        tr.write(span_file, name)
    report = {"traced": reports, "span_file": os.path.relpath(span_file, ROOT)}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": with_units(metrics)}
    return result, report


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hypoint" / "__init__.py").is_file():
        print(f"error: no hypoint sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.trace:
        span_file = OUT_DIR / f"spans-seed{args.seed}.jsonl"
        result, report = traced_run([cls(args.seed) for cls in WORKLOADS.values()], span_file)
        report = {"workload": args.workload, **report}
        outcomes = [(result, report)]
    else:
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        outcomes = [timed_run(WORKLOADS[name](args.seed), args.seconds) for name in names]
    env = environment(args)  # after measuring: the CPU query spawns a process
    for result, report in outcomes:
        print(json.dumps({"report": {**report, "env": env}}, sort_keys=True))
        print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
