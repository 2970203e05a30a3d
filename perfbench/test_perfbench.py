"""Self-tests of the benchmark: tiny-size runs through the same code path,
generator determinism, and metric names and units against BENCHMARK.json.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Metrics that must repeat bit-for-bit across runs with one seed.
DETERMINISTIC = {
    0: ("output_err", "ok_frac"),
    1: ("quant.act_rel_mse", "gaussanalysis.normality.ks", "allocator.budget_overrun",
        "allocator.dp_allocate.states", "tensorio.bytes_written", "deploy.packed_bytes",
        "hadamard.transform_tokens.calls", "hadamard.fold_into_weights.calls",
        "quant.quantize_tokens.calls", "quant.ternarize.calls",
        "lowrank.truncated_svd.calls", "profiler.loss_and_grads.calls",
        "allocator.dp_allocate.calls"),
}


def bench(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expected_units(trace):
    return {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_run_prints_every_metric_and_repeats(workload, trace):
    first = bench(workload, trace)
    assert set(first) == {"correct", "attempted", "failed", "metrics"}
    assert first["correct"] is True
    assert first["attempted"] >= 1 and 0 <= first["failed"] <= first["attempted"]
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected_units(trace)
    second = bench(workload, trace)
    for name in DETERMINISTIC[trace]:
        assert first["metrics"][name] == second["metrics"][name], name


def test_declared_metrics_match_benchmark_json():
    for key, declared in (("end_to_end", run.END_TO_END), ("per_layer", spans.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in SPEC[key]] == [
            (name, unit, better) for name, (unit, better) in declared.items()]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


def test_generators_are_deterministic_and_seeded():
    sizes = workloads.TINY
    a = workloads.dit_block_weights(5, 1, sizes)
    b = workloads.dit_block_weights(5, 1, sizes)
    c = workloads.dit_block_weights(6, 1, sizes)
    assert all(np.array_equal(a[k], b[k]) for k in a)
    assert not any(np.array_equal(a[k], c[k]) for k in a)
    assert np.array_equal(workloads.token_batch(5, 0, sizes), workloads.token_batch(5, 0, sizes))
    assert not np.array_equal(workloads.token_batch(5, 0, sizes),
                              workloads.token_batch(5, 1, sizes))
    t1, t2 = workloads.dit_sensitivity_table(5), workloads.dit_sensitivity_table(5)
    assert len(t1.layers) == 112 and np.array_equal(t1.delta_loss, t2.delta_loss)
    assert np.all(np.diff(t1.delta_loss, axis=1) < 0)  # gaps fall with the bit width
    assert workloads.sub_seed(5, 0) == workloads.sub_seed(5, 0) != workloads.sub_seed(5, 1)


def test_power_law_spectrum():
    rng = np.random.default_rng(0)
    w = workloads.power_law(rng, 96, 32)
    s = np.linalg.svd(w, compute_uv=False)
    expected = np.arange(1, 33) ** -workloads.POWER_LAW_EXPONENT
    assert np.allclose(s / s[0], expected, rtol=1e-10)
    assert np.isclose(np.sum(w * w), 96.0)


def test_within_budget_is_the_continuous_weighted_average():
    weights = {"a": 3.0, "b": 1.0}
    assert workloads.within_budget({"a": 2, "b": 2}, weights, 2.0)
    assert not workloads.within_budget({"a": 2, "b": 3}, weights, 2.0)  # 2.25 > 2


def test_self_time_excludes_children():
    recorded = [["outer", 0.0, 10.0, -1, spans.SETUP, None],
                ["inner", 1.0, 4.0, 0, spans.SETUP, None],
                ["inner", 5.0, 6.0, 0, spans.SETUP, None],
                ["inner", 7.0, 9.0, -1, 3, None]]  # a pass not counted
    stats = spans.layer_stats(recorded, passes=set())
    assert stats["outer"]["self_s"] == 6.0
    assert stats["inner"]["calls"] == 2 and stats["inner"]["self_s"] == 4.0


def test_tracer_patches_every_importer_and_restores():
    import robuq
    from robuq import hadamard, lowrank, profiler

    original = hadamard.transform_tokens
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert lowrank.transform_tokens is hadamard.transform_tokens is robuq.transform_tokens
        assert profiler.transform_tokens is not original
        x = np.ones((2, 8))
        lowrank.transform_tokens(x)
        with tracer.paused():
            hadamard.transform_tokens(x)
    finally:
        tracer.uninstall()
    assert hadamard.transform_tokens is original and profiler.transform_tokens is original
    assert [s[0] for s in tracer.spans] == ["hadamard.transform_tokens"]
    assert tracer.spans[0][5] == {"elements": 16}


def test_exits_nonzero_without_robuq_sources():
    bare = run.WORKDIR / "bare-checkout"  # only BENCHMARK.json and perfbench/
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dit-forward", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
