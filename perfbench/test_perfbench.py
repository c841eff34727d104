"""Self-test of the benchmark on shrunk inputs: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import run
import satgen
import workloads
from common import REPO, SpanRecorder, child_env, union_seconds


@pytest.fixture
def ctx(tmp_path):
    return workloads.Context(work=tmp_path, env=child_env(tmp_path), golden=workloads.load_golden())


def test_benchmark_json_matches_run_py():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")


def test_generated_pair_labels_are_verified():
    pair = satgen.generate_pair(40, random.Random(5))
    certificate = set(pair["sat_certificate"])
    assert satgen.satisfies(pair["sat"], certificate)
    assert not satgen.satisfies(pair["unsat"], certificate)
    assert pair["unsat"][:-1] == pair["sat"][:-1]
    assert satgen.generate_pair(40, random.Random(5)) == pair


def test_pool_digest_rejects_an_edited_pool(tmp_path):
    pool = satgen.load_pool()
    pool["instances"][0]["clauses"][0][0] *= -1
    edited = tmp_path / "pool.json"
    edited.write_text(json.dumps(pool))
    with pytest.raises(ValueError, match="digest"):
        satgen.load_pool(edited)


def test_speed_probe_samples_while_a_pass_runs(tmp_path):
    import time

    from common import REFERENCE_SPIN_S, SpeedProbe, serial_cpu

    with SpeedProbe([serial_cpu()], child_env(tmp_path), tmp_path, tmp_path) as probe:
        time.sleep(0.5)
    assert probe.samples and all(sample > 0 for sample in probe.samples)
    assert probe.factor == pytest.approx(
        REFERENCE_SPIN_S * sum(1 / s for s in probe.samples) / len(probe.samples))


def test_span_totals_and_coverage():
    assert union_seconds([(0, 2), (1, 3), (5, 6)]) == 4
    recorder = SpanRecorder()
    with recorder.span("a"):
        with recorder.span("a"):
            pass
        with recorder.span("b"):
            pass
    outer, inner, child = recorder.spans
    assert inner["parent"] == outer["id"] and child["parent"] == outer["id"]
    totals = recorder.totals()
    assert totals["a"] == pytest.approx(outer["end"] - outer["start"])
    assert recorder.covered(["b"]) == pytest.approx(child["end"] - child["start"])


def test_wrap_function_patches_every_reference_and_restores():
    import repro.experiments.sequential as sequential
    from repro.simulation import rare_nets

    original = rare_nets.extract_rare_nets
    recorder = SpanRecorder()
    assert recorder.wrap_function(original, "x") >= 2
    assert sequential.extract_rare_nets is not original
    recorder.restore()
    assert sequential.extract_rare_nets is original and rare_nets.extract_rare_nets is original


def test_sat_random_shrunk_pass_checks_verdicts(ctx):
    workload = workloads.SatRandom(indices=[1, 5])  # the two fastest SAT instances
    rep = workload.rep(ctx, workload.inputs(3), 0)
    assert rep.failures == {} and rep.attempted == 2 and len(rep.op_latencies) == 2
    assert 0 < rep.setup_s < rep.wall_s
    bad = [{"index": 1, "name": "n130-sat", "satisfiable": True, "true_vars": [], "seconds": 0.0,
            "stats": {}}]
    assert workload.check_outcomes(ctx, bad).failed_ops == 1  # the empty model violates a clause


def test_seq_detect_one_cell_matches_golden_and_detects_a_change(ctx):
    workload = workloads.SeqDetect(cycles=[4], modes=["consecutive"], counts=[2])
    rep = workload.rep(ctx, workload.inputs(0), 0)
    assert rep.failures == {}, rep.failures
    assert rep.attempted == 1 and rep.counters["sat.solver.decisions"] > 0
    golden = json.loads(json.dumps(ctx.golden))
    cell = golden["seq_detect"]["cells"]["s13207_like-c4-consecutive-k2"]
    cell["result"]["sat_coverage_percent"] += 1.0
    mutated = workloads.Context(ctx.work, ctx.env, golden)
    again = workload.rep(mutated, workload.inputs(0), 1)
    assert again.failed_ops == 1
    assert "differs from golden" in again.failures["s13207_like-c4-consecutive-k2"]


def test_less_work_for_the_same_outputs_is_correct(ctx):
    record = {"cells": [{"cell": "s13207_like-c4-consecutive-k2", "params": {}, "elapsed_seconds": 1.0,
                         "result": {**ctx.golden["seq_detect"]["cells"]["s13207_like-c4-consecutive-k2"]
                                    ["result"], "solver_stats": {"decisions": 1}}}],
              "cache_stats": {"hits": 0, "misses": 1, "stores": 1}}
    outputs = {c["cell"]: {"result": workloads.without_solver_stats(c["result"])} for c in record["cells"]}
    golden = {k: {"result": v["result"]} for k, v in ctx.golden["seq_detect"]["cells"].items()}
    assert workloads.compare_outputs(outputs, golden, "cell") == {}


def test_failed_counts_operations_not_messages():
    rep = workloads.Rep(1.0, 1.0, [], attempted=3)
    rep.fail("a", "first")
    rep.fail("a", "second")
    assert rep.failed_ops == 1 and rep.failures == {"a": "first"}
    rep.fail(workloads.ALL_OPS, "the pass crashed")
    assert rep.failed_ops == 3


def test_run_prints_the_result_object(monkeypatch, capsys, tmp_path):
    monkeypatch.setitem(workloads.WORKLOADS, "sat_random", lambda: workloads.SatRandom(indices=[1, 5]))
    code = run.main(["--workload", "sat_random", "--seed", "4", "--seconds", "1", "--trace", "0",
                     "--results-dir", str(tmp_path)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    document = json.loads(next(tmp_path.glob("sat_random-s4-t0-*.json")).read_text())
    assert document["fingerprint"]["python"] and document["loadavg_end"]


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "seq_detect", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and '"correct"' not in proc.stdout


def _doc(workload, trace, values, correct=True):
    return {"workload": workload, "trace": trace, "correct": correct, "failed": 0 if correct else 1,
            "metrics": {name: {"value": value, "unit": "s"} for name, value in values.items()}}


def test_compare_flags_a_regression_beyond_the_bound():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    base = {"wall_s": 10.0, "setup_s": 1.0, "peak_rss_mb": 50.0}
    parent = [_doc("seq_detect", 0, {k: v * (1 + 0.01 * i) for k, v in base.items()}) for i in range(5)]
    same = [_doc("seq_detect", 0, {k: v * (1 + 0.01 * i) for k, v in base.items()}) for i in range(5)]
    slow = [_doc("seq_detect", 0, {**base, "wall_s": 13.0}) for _ in range(5)]
    text, regressed = compare.compare(parent, same, spec)
    assert not regressed and "within bound" in text
    text, regressed = compare.compare(parent, slow, spec)
    assert regressed and "REGRESSION" in text and "% of 10.2" in text
    traced = [_doc("seq_detect", 1, {"sat.solver.solve_s": 4.0})]
    text, _ = compare.compare(parent + traced, same + [_doc("seq_detect", 1, {"sat.solver.solve_s": 3.0})], spec)
    assert "sat.solver.solve_s" in text and "-25.0% of 4" in text
    fast_but_wrong = [_doc("seq_detect", 0, {**base, "wall_s": 5.0}, correct=i > 0) for i in range(5)]
    text, regressed = compare.compare(parent, fast_but_wrong, spec)
    assert regressed and "MORE FAILURES" in text and "1/5 runs, 1 ops" in text


def test_result_documents_load(tmp_path):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(_doc("sat_random", 0, {"wall_s": 1.0})))
    (tmp_path / "ignored.json").write_text("{}")
    assert len(compare.load_results(Path(tmp_path))) == 1
