"""Tests of the benchmark itself: span arithmetic, failure counting, seeded
inputs, repeatable traced counts, and agreement with BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import experiments
import run
from tracer import Tracer, layer_totals, self_times, COUNTS


def test_self_time_of_nested_spans():
    # root [0, 10] holds A [1, 4] (which holds [2, 3]) and B [5, 9], whose
    # hot-leaf calls took 1 s; C and D overlap inside E, as threads would.
    spans = [
        ["root", 0.0, 10.0, -1, 0, {}],
        ["A", 1.0, 4.0, 0, 0, {}],
        ["A.child", 2.0, 3.0, 1, 0, {}],
        ["B", 5.0, 9.0, 0, 0, {"leaf_s": 1.0}],
        ["E", 20.0, 30.0, -1, 1, {}],
        ["C", 21.0, 25.0, 4, 1, {}],
        ["D", 23.0, 27.0, 4, 1, {}],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 3.0, 4.0, 4.0, 4.0]


def _mini_experiments(tmp_path):
    """Small versions of each kind of workload experiment."""
    cfg = tmp_path / "iid.json"
    cfg.write_text(json.dumps({"kind": "iid", "family": "lsv", "support": [0.5, 0.8],
                               "probs": [0.3, 0.7], "seed": 5}))
    E = experiments.Experiment
    return [
        E("tails", experiments.tails, {"argv": ["--config", str(cfg), "--n-max", "120", "--k", "1,2"],
                                       "files": ["tails_k1_mk.csv", "tails_k2_mk.csv"]}),
        E("pikovsky-mc", experiments.tails, {
            "argv": ["--family", "pikovsky", "--gamma", "2.0", "--base", "lebesgue", "--n-max", "40",
                     "--mc-samples", "2000", "--seed", "3"],
            "files": ["tails_k1_lebesgue.csv"], "mc_ks": [1]}),
        E("memloss", experiments.memloss_curve, {"argv": [
            "--family", "lsv", "--gamma", "0.5", "--grid", "1024", "--n-max", "20"]}),
        E("dp-mc", experiments.dp_mc_poly, {"beta_prime": 2.0, "n_max": 40, "samples": 10_000,
                                            "seed": 1}),
        E("nonstationary", experiments.nonstationary_dp_mc, {"dp_n": 30, "mc_n": 20,
                                                             "samples": 10_000, "seed": 2}),
    ]


def test_impossible_gate_counts_as_failed_and_the_pass_completes(tmp_path):
    def crash(out):
        raise RuntimeError("boom")

    exps = [
        experiments.Experiment("impossible", experiments.tails, {"argv": [
            "--family", "lsv", "--gamma", "0.5", "--n-max", "100", "--expect-slope", "-7", "--tol", "0.1"],
            "files": []}),
        experiments.Experiment("crash", crash, {}),
        *_mini_experiments(tmp_path)[:1],
    ]
    _, results = run.run_pass(exps, str(tmp_path / "out"))
    assert [r["name"] for r in results] == ["impossible", "crash", "tails"]
    assert [r["error"] is not None for r in results] == [True, True, False]
    assert "exited 1" in results[0]["error"]


@pytest.mark.parametrize("workload", sorted(experiments.WORKLOADS))
def test_seed_changes_inputs_not_the_experiment_list(tmp_path, workload):
    def generated(seed, sub):
        inputs = tmp_path / sub
        exps = experiments.build(workload, seed, str(inputs))
        params = json.dumps([e.params for e in exps]).replace(str(inputs), "<inputs>")
        files = {p.name: p.read_text() for p in sorted(inputs.iterdir())}
        return [e.name for e in exps], params, files

    names1, params1, files1 = generated(1, "a")
    names2, params2, files2 = generated(2, "b")
    assert names1 == names2
    assert (params1, files1) != (params2, files2)
    assert generated(1, "c")[1:] == (params1, files1)


def _counts(tracer):
    return {name: {k: v for k, v in row.items() if k == "calls" or k in COUNTS}
            for name, row in layer_totals(tracer).items()}


def test_traced_counts_repeat_and_names_are_restored(tmp_path):
    import memloss.transfer

    original = memloss.transfer.push_density
    exps = _mini_experiments(tmp_path)
    counts = []
    for i in range(2):
        with Tracer() as tracer:
            _, results = run.run_pass(exps, str(tmp_path / f"out{i}"), tracer)
        assert all(r["error"] is None for r in results), results
        counts.append(_counts(tracer))
    assert counts[0] == counts[1]
    assert memloss.transfer.push_density is original
    for layer in ("maps.inverse_branch_array", "maps.eval_map_array", "rootfind.vec_newton_from_above",
                  "rootfind.vec_bisect_newton", "transfer.push_density", "partitions.return_time_tail",
                  "sequences.param_at", "coupling.s_tail_dp", "coupling.conditional_tail",
                  "csvio.write_columns", "csvio.read_csv", "cli.run_cli"):
        assert counts[0][layer]["calls"] > 0, layer
    assert counts[0]["rootfind.vec_bisect_newton"]["f_evals"] > 0
    assert counts[0]["coupling.s_tail_mc"]["samples"] == 20_000
    metrics = run.layer_metrics(tracer, 1.0, 1.0, 1.0)
    assert list(metrics) == list(run.per_layer_units())


def test_benchmark_json_matches_the_reported_metrics():
    with open(Path(__file__).resolve().parent.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(experiments.WORKLOADS) == set(run.PASS_SECONDS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert spec["command"] == ["python3", "bench/run.py"] and spec["paths"] == ["bench"]
