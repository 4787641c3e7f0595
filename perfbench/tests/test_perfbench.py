"""Tests of the benchmark itself: span arithmetic, the correctness gate,
worker tracing, and a tiny-trial smoke run of every workload.

Run from the checkout root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers     # noqa: E402
import reference  # noqa: E402
import tracer     # noqa: E402


def span(sid, parent, name, start, end, attrs=None):
    return {"id": sid, "parent": parent, "name": name, "start": start,
            "end": end, "attrs": attrs}


def test_self_time_subtracts_union_of_children():
    spans = [
        span("1:0", None, "experiments.run", 0, 100),
        # two pool workers under one dispatching span, overlapping in time
        span("1:1", "1:0", "parallel.map_reduce_chunks", 10, 60),
        span("2:0", "1:1", "walks._sup_moment_chunk", 15, 40),
        span("3:0", "1:1", "walks._sup_moment_chunk", 20, 55),
        span("2:1", "2:0", "sign_families.KWiseSampler.sample_batch", 16, 36),
        # a child that outlives its parent only counts inside the parent
        span("1:2", "1:0", "rng.substream", 90, 130),
    ]
    selfs = tracer.self_times(spans)
    assert selfs == {"1:0": 100 - 50 - 10, "1:1": 50 - 40, "2:0": 25 - 20,
                     "3:0": 35, "2:1": 20, "1:2": 40}
    assert tracer.uncovered_ns(spans[1:], 0, 100) == 100 - 50 - 10


def test_pass_metrics_rates_counts_and_layer_self_times():
    ns = 10 ** 9
    spans = [
        span("1:0", None, "experiments.run", 0, 4 * ns),
        span("1:1", "1:0", "sign_families.KWiseSampler.sample_batch", ns, 2 * ns,
             {"signs": 1000}),
        span("1:2", "1:1", "gf2.signs_from_coefficients", ns, ns + ns // 2,
             {"signs": 1000, "temp_bytes": 32000}),
        span("1:3", "1:0", "sign_families.AdversarialSampler.sample_batch",
             2 * ns, 3 * ns, {"signs": 500, "stage": "H2"}),
        span("1:4", "1:0", "parallel.map_reduce_chunks", 3 * ns, 3 * ns + 10),
        span("1:5", "1:4", "parallel.pool_start", 3 * ns, 3 * ns),
        span("1:6", "1:4", "parallel.pool_submit", 3 * ns, 3 * ns + 1,
             {"arg_bytes": 200}),
        span("1:7", "1:4", "parallel.pool_submit", 3 * ns + 1, 3 * ns + 2,
             {"arg_bytes": 100}),
    ] + [span(f"2:{i}", "1:4", "parallel._run_chunk", 3 * ns + 2, 3 * ns + 9)
         for i in range(3)]
    experiments = {"demo": {"pid": 1, "ready_ns": 0, "done_ns": 5 * ns}}
    out = layers.pass_metrics(spans, experiments)
    assert out["sign_families.kwise_ns_per_sign"] == ns / 1000
    assert out["gf2.signs_ns_per_sign"] == ns / 2 / 1000
    assert out["sign_families.adv_ns_per_sign.H2"] == ns / 500
    assert out["sign_families.adv_ns_per_sign.H1"] == 0.0
    assert out["sign_families.signs_sampled"] == 1500
    assert out["gf2.temp_bytes"] == 32000
    assert (out["parallel.chunks"], out["parallel.pools_started"],
            out["parallel.arg_bytes"]) == (3, 1, 300)
    assert out["gf2.self_s"] == pytest.approx(0.5)
    assert out["sign_families.self_s"] == pytest.approx(0.5 + 1.0)
    assert out["experiments.self_s"] == pytest.approx(2.0 - 1e-8)
    # library spans of the experiment's own process (pid 1) cover [1, 3] s
    # plus 10 ns of the 5 s work interval
    assert out["trace.uncovered_frac"] == pytest.approx((3 * ns - 10) / (5 * ns))
    assert out["experiments.run_s.demo"] == pytest.approx(5.0)
    # the tracing overhead compares whole passes, so it is not per pass
    assert set(layers.metric_units(["demo"])) - {"trace.overhead_s"} == set(out)


def _entry(kind, lines, checks):
    return reference.record_entry(kind, lines, checks)


def test_gate_exact_rows_mask_only_the_seed():
    lines = ["n,quantity,value,seed", "8,trace,24,1", "16,trace,64,1"]
    ref = _entry("matrix-check", lines, [("n=8 trace", True, "")])
    other_seed = [line.replace(",1", ",2") for line in lines]
    assert reference.compare(ref, "matrix-check", other_seed,
                             [("n=8 trace", True, "")], 2, 1) == ([], [])
    changed = lines[:2] + ["16,trace,65,1"]
    problems, _ = reference.compare(ref, "matrix-check", changed,
                                    [("n=8 trace", True, "")], 1, 1)
    assert problems == ["exact rows differ from the reference"]


def test_gate_monte_carlo_rows_use_both_stderrs():
    header = "n,moment_order,mean,stderr,trials,seed"
    ref = _entry("walk-scaling", [header, "16,1,4.0,0.1,100,1"], [])
    # 5 * sqrt(0.1^2 + 0.1^2) = 0.707
    near = [header, "16,1,4.7,0.1,100,2"]
    far = [header, "16,1,4.8,0.1,100,2"]
    assert reference.compare(ref, "walk-scaling", near, [], 2, 1) == ([], [])
    problems, _ = reference.compare(ref, "walk-scaling", far, [], 2, 1)
    assert len(problems) == 1 and "combined stderr" in problems[0]
    # the columns beside the estimate are exact, at any seed
    fewer_trials = [header, "16,1,4.0,0.1,99,2"]
    problems, _ = reference.compare(ref, "walk-scaling", fewer_trials, [], 2, 1)
    assert problems == ["exact rows differ from the reference"]
    # maximal-mc's other columns come from the seed's profile, except hits
    # and fitted_constant, which move with the estimate
    header = ("lambda,hits,trials,empirical_p,stderr,variance_bound,"
              "fitted_constant,seed")
    ref = _entry("maximal-mc", [header, "2.5,30,1000,0.03,0.005,0.25,0.12,1"], [])
    moved = [header, "2.5,32,1000,0.032,0.005,0.25,0.128,1"]
    assert reference.compare(ref, "maximal-mc", moved, [], 1, 1) == ([], [])
    bound = [header, "2.5,30,1000,0.03,0.005,0.26,0.115,1"]
    problems, _ = reference.compare(ref, "maximal-mc", bound, [], 1, 1)
    assert problems == ["seeded rows differ from the reference"]
    other_seed = [header, "2.6,30,1000,0.03,0.005,0.26,0.115,2"]
    assert reference.compare(ref, "maximal-mc", other_seed, [], 2, 1) == ([], [])


def test_gate_verdicts_pass_to_fail_fails_and_fail_to_pass_is_noted():
    lines = ["tree,n,seed", "0,64,1"]
    checks = [("stays", True, ""), ("criterion", False, ""), ("drops", True, "")]
    ref = _entry("interval-trees", lines, checks)
    now = [("stays", True, ""), ("criterion", True, ""), ("drops", False, "")]
    problems, notes = reference.compare(ref, "interval-trees", lines, now, 1, 1)
    assert problems == ["check 'drops' turned PASS -> FAIL"]
    assert notes == ["check 'criterion' turned FAIL -> PASS"]
    # seeded rows are compared at the reference seed only
    moved = ["tree,n,seed", "0,65,2"]
    assert reference.compare(ref, "interval-trees", moved, checks, 2, 1) == ([], [])
    problems, _ = reference.compare(ref, "interval-trees", moved, checks, 1, 1)
    assert problems == ["seeded rows differ from the reference"]


def test_gate_judges_monte_carlo_verdicts_at_the_reference_seed_only():
    header = "n,moment_order,mean,stderr,trials,seed"
    lines = [header, "16,1,4.0,0.1,100,1"]
    ref = _entry("walk-scaling", lines, [("fit quality", True, "")])
    failing = [("fit quality", False, "")]
    problems, _ = reference.compare(ref, "walk-scaling", lines, failing, 1, 1)
    assert problems == ["check 'fit quality' turned PASS -> FAIL"]
    problems, notes = reference.compare(ref, "walk-scaling", lines, failing, 2, 1)
    assert problems == [] and "Monte Carlo verdict" in notes[0]


def test_traced_pool_workers_write_spans_under_the_dispatching_span(tmp_path):
    script = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {str(BENCH)!r})
        import tracer
        t = tracer.install({str(tmp_path)!r})
        from kwalks import walks
        from kwalks.sign_families import FamilySpec
        spec = FamilySpec(kind="AdversarialStage", n=16, stage="H1")
        walks.estimate_sup_moment(spec, 1, 3000, seed=5, workers=2)
        t.write()
    """)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", script], env=env, check=True,
                   timeout=120)
    spans = tracer.load_spans(tmp_path)
    by_id = {sp["id"]: sp for sp in spans}
    pids = {sp["id"].split(":")[0] for sp in spans}
    assert len(pids) >= 2
    (dispatch,) = [sp for sp in spans if sp["name"] == "parallel.map_reduce_chunks"]
    (pool,) = [sp for sp in spans if sp["name"] == "parallel.pool_start"]
    submits = [sp for sp in spans if sp["name"] == "parallel.pool_submit"]
    assert pool["parent"] == dispatch["id"]
    assert submits and all(sp["attrs"]["arg_bytes"] > 0 for sp in submits)
    chunks = [sp for sp in spans if sp["name"] == "parallel._run_chunk"]
    assert len(chunks) == 3
    for sp in chunks:
        assert sp["id"].split(":")[0] != dispatch["id"].split(":")[0]
        assert by_id[sp["parent"]] is dispatch
    samples = [sp for sp in spans
               if sp["name"] == "sign_families.AdversarialSampler.sample_batch"]
    assert sum(sp["attrs"]["signs"] for sp in samples) == 3000 * 16


def _bench_json():
    with open(ROOT / "BENCHMARK.json") as src:
        return json.load(src)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in _bench_json()["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _bench_json()["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}


def test_refuses_a_directory_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kwise-mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "lacks" in proc.stderr
