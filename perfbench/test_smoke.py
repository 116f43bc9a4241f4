"""Smoke test of the benchmark itself, at tiny sizes:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracing import Recorder

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
sys.path.insert(0, str(workloads.SRC))

TINY = {
    "encode-256": lambda seed: workloads.Encode256(seed, per_curve=1, cli_min=1, probe_reps=1),
    "survey-small": lambda seed: workloads.SurveySmall(
        seed, prime_fields=("11", "13"), ext_fields=("3^2:1,0,1",), sweep_p=13, encode_sample=10, probe_reps=1),
    "certify": lambda seed: workloads.Certify(seed, n_min=5, n_max=5, extra_degree_cases=1),
}


def declared(kind):
    return {m["name"]: m["unit"] for m in BENCH[kind]}


def test_tiny_workloads_cover_every_workload():
    assert set(TINY) == set(workloads.WORKLOADS) == {w["name"] for w in BENCH["workloads"]}


@pytest.mark.parametrize("name", sorted(TINY))
def test_timed_run_prints_every_end_to_end_metric(name):
    result, report = run.timed_run(TINY[name](1), seconds=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert report["metrics"]["failed_ratio"] == {"value": 0.0, "unit": "ratio"}
    json.dumps(result)


def test_traced_run_prints_every_per_layer_metric(tmp_path):
    span_file = tmp_path / "spans.jsonl"
    result, report = run.traced_run([make(1) for make in TINY.values()], span_file)
    assert result["correct"] and result["failed"] == 0
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == declared("per_layer")
    spans = [json.loads(line) for line in span_file.read_text().splitlines()]
    assert spans and {"name", "start_ns", "end_ns", "parent", "op"} <= set(spans[0])


def reference(wl):
    st = wl.build(workloads.fresh_import())
    return st, run.run_pass(st, Recorder())


def test_gate_flags_a_corrupted_encode_point():
    wl = TINY["encode-256"](1)
    st, outs = reference(wl)
    assert run.Gate(wl, st, outs).reasons == {}
    pt = outs[0]
    outs[0] = st.lib.curves.AffinePoint(pt.x, pt.y + 1)
    gate = run.Gate(wl, st, outs)
    assert set(gate.reasons) == {0}
    assert gate.failures(outs) == 1


def test_gate_flags_a_pass_that_differs_from_the_reference():
    wl = TINY["encode-256"](1)
    st, outs = reference(wl)
    gate = run.Gate(wl, st, outs)
    pt = outs[3]
    outs[3] = st.lib.curves.AffinePoint(pt.x, -pt.y)
    assert gate.failures(outs) == 1


def test_gate_flags_a_wrong_identity_status_and_sweep_counter():
    wl = TINY["certify"](1)
    st, outs = reference(wl)
    outs[0] = not outs[0]
    assert set(run.Gate(wl, st, outs).reasons) == {0}
    wl = TINY["survey-small"](1)
    st, outs = reference(wl)
    outs[-1] = dict(outs[-1], membership_failures=1)
    assert set(run.Gate(wl, st, outs).reasons) == {len(outs) - 1}


def test_same_seed_same_digest():
    digests = []
    for seed in (1, 1, 2):
        wl = TINY["encode-256"](seed)
        st, outs = reference(wl)
        digests.append(run.Gate(wl, st, outs).digest())
    assert digests[0] == digests[1] != digests[2]


def test_fails_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, *BENCH["command"][1:], "--workload", "certify", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120, check=False)
    assert proc.returncode != 0 and proc.stdout == ""
