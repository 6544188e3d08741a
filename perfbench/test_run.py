"""Tests of the benchmark's tracing and metric tables.

Run with ``python -m pytest perfbench/``; the repository's own test run
collects only ``tests/``.
"""

import importlib.util
import json
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent


def _run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_json_matches_the_reported_metrics():
    run = _run_module()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS
    import workloads

    assert tuple(w["name"] for w in bench["workloads"]) == workloads.WORKLOADS


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["a", -1, 0.0, 10.0, None],
        ["b", 0, 1.0, 4.0, None],
        ["c", 1, 2.0, 3.0, None],
        ["b", 0, 5.0, 6.0, None],
    ]
    summary = tracing.summarize(spans)
    assert summary["a"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert summary["b"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert summary["c"]["self_s"] == 1.0


def test_restarts_at_best_groups_by_roof_call():
    spans = [
        ["roof.optimize_roof", -1, 0, 1, None],
        ["_kernels.roof_descent", 0, 0, 1, (1.0, True)],
        ["_kernels.roof_descent", 0, 0, 1, (1.0 + 5e-7, True)],
        ["_kernels.roof_descent", 0, 0, 1, (1.1, False)],
        ["roof.optimize_roof", -1, 0, 1, None],
        ["_kernels.roof_descent", 4, 0, 1, (2.0, True)],
    ]
    assert tracing.restarts_at_best(spans) == (3, 4)


def test_tracer_wraps_every_binding_and_restores_them():
    import cohrand
    from cohrand import _kernels, rng

    original = _kernels.toeplitz_gf2
    assert rng.toeplitz_gf2 is original
    tracer = tracing.Tracer(_run_module().TRACED)
    try:
        assert rng.toeplitz_gf2 is not original
        assert _kernels.toeplitz_gf2 is rng.toeplitz_gf2
        psi = cohrand.pure_state([0.8**0.5, 0.2**0.5])
        cohrand.pipeline_compare(psi, n_groups=4, group_n=50, seed=0)
    finally:
        tracer.remove()
    assert rng.toeplitz_gf2 is original and _kernels.toeplitz_gf2 is original
    names = [s[0] for s in tracer.spans]
    assert names[0] == "rng.pipeline_compare"
    hash_span = names.index("_kernels.toeplitz_gf2")
    parent = tracer.spans[hash_span][1]
    assert tracer.spans[parent][0] == "rng.toeplitz_extract"
    assert tracer.spans[parent][4] > 0  # output bits recorded
    assert "distill.distill_simulate" in names
