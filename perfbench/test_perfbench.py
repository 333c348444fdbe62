"""Tests of the benchmark itself: metric set, seeding, determinism, gates.

Run from the repository root with ``python3 -m pytest perfbench``.  Most tests
use shrunken copies of the workloads (same cells, small shapes) so they take
seconds; one runs the real command on dense-desk.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import tracer  # noqa: E402
from blockcd import DenseMatrix  # noqa: E402

SMALL_PROBLEMS = {
    "dense-desk": {"kind": "gaussian", "m": 400, "n": 40},
    "sparse-5pct": {"kind": "sparse-gaussian", "m": 2000, "n": 50, "density": 0.1},
    "tall-cs": {"kind": "gaussian", "m": 4000, "n": 20},
}
SMALL = {
    name: dataclasses.replace(w, problem=SMALL_PROBLEMS[name], instances=2, setup_builds=3)
    for name, w in harness.WORKLOADS.items()
}


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_workloads_and_metric_names_match_benchmark_json():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == harness.layer_metric_names()
    assert [m["unit"] for m in spec["per_layer"]] == [
        harness.layer_unit(m["name"]) for m in spec["per_layer"]
    ]


@pytest.mark.parametrize("name", list(SMALL))
def test_every_workload_prints_the_full_metric_sets(name):
    workload = SMALL[name]
    values, _, ledger = harness.run_end_to_end(workload, seed=1, seconds=0.01)
    assert ledger.failures == []
    for metric, _ in harness.END_TO_END:
        assert values[metric] > 0
    traced, ledger = harness.run_traced(workload, seed=1, passes=1)
    assert ledger.failures == []
    gated = harness.gated_layer_metrics(workload, traced)
    assert list(gated) == harness.layer_metric_names()
    for cell in harness.GATED_CELLS:
        assert gated[f"{cell}.matrix.transpose_matvec.calls"] > 0


def test_seed_changes_instances_but_not_metric_set():
    workload = SMALL["sparse-5pct"]
    one, _ = harness.build_instances(workload, 1)
    two, _ = harness.build_instances(workload, 2)
    again, _ = harness.build_instances(workload, 1)
    assert not np.array_equal(one[0].problem.b, two[0].problem.b)
    assert np.array_equal(one[0].problem.b, again[0].problem.b)
    v1, _, _ = harness.run_end_to_end(workload, seed=1, seconds=0.01)
    v2, _, _ = harness.run_end_to_end(workload, seed=2, seconds=0.01)
    assert set(v1) == set(v2)


def test_iterations_and_call_counts_repeat_exactly():
    workload = SMALL["dense-desk"]
    first, _, _ = harness.run_end_to_end(workload, seed=3, seconds=0.05)
    second, _, _ = harness.run_end_to_end(workload, seed=3, seconds=0.2)
    assert first["iterations"] == second["iterations"]
    t1, _ = harness.run_traced(workload, seed=3, passes=1)
    t2, _ = harness.run_traced(workload, seed=3, passes=1)
    counts = [k for k in t1 if k.endswith((".calls", ".columns", ".bytes", ".flops", ".iterations"))]
    assert counts
    assert {k: t1[k] for k in counts} == {k: t2[k] for k in counts}


def test_outside_check_rejects_a_wrong_answer():
    workload = SMALL["tall-cs"]
    (inst, *_), _ = harness.build_instances(workload, 5)
    cell = next(c for c in workload.cells if c.name == "cs-madbcd-d2n")
    good = harness.solve(cell, inst, 0)
    assert inst.check(good.report) is None
    bad = dataclasses.replace(good.report, x_final=good.report.x_final * 1.01)
    assert "rse" in inst.check(bad)
    unconverged = dataclasses.replace(good.report, converged=False, stop_reason="max iterations")
    assert "did not converge" in inst.check(unconverged)


def test_ledger_fails_a_solve_whose_iteration_count_changes():
    workload = SMALL["dense-desk"]
    (inst, *_), _ = harness.build_instances(workload, 4)
    cell = workload.cells[0]
    ledger = harness.Ledger()
    first = ledger.run(cell, inst, 0, 0)
    assert first is not None and ledger.failures == []
    ledger.iterations[(cell.name, 0)] += 1
    assert ledger.run(cell, inst, 0, 0) is None
    assert ledger.attempted == 2 and "differ" in ledger.failures[0]


def test_outside_check_uses_the_original_sparse_matrix():
    workload = SMALL["sparse-5pct"]
    (inst, *_), _ = harness.build_instances(workload, 2)
    A = inst.problem.A
    x = np.random.default_rng(0).standard_normal(A.cols)
    r = np.random.default_rng(1).standard_normal(A.rows)
    dense = A.to_dense()
    assert np.allclose(inst.a_times(x), dense @ x)
    assert np.allclose(inst.at_times(r), dense.T @ r)


def test_tracer_wraps_only_inside_its_block():
    assert tracer.wrapped_targets() == []
    with tracer.Tracer() as t:
        assert len(tracer.wrapped_targets()) == len(tracer.TARGETS)
        with pytest.raises(RuntimeError, match="wrapped"):
            harness.run_end_to_end(SMALL["dense-desk"], seed=1, seconds=0.01)
        A = DenseMatrix(np.ones((30, 4)))
        A.transpose_matvec(np.ones(30))
        A.restricted_matvec(np.array([1, 3]), np.ones(2))
    assert tracer.wrapped_targets() == []
    setup = {name: dict(entry) for (cell, name), entry in t.stats.items() if cell == "setup"}
    assert setup["matrix.transpose_matvec"]["calls"] == 1
    assert setup["matrix.transpose_matvec"]["bytes"] == 8 * (30 * 4 + 30 + 4)
    assert setup["matrix.restricted_matvec"]["columns"] == 2
    assert setup["matrix.restricted_matvec"]["bytes"] == 8 * (30 * 2 + 30 + 2 * 2)


def test_reference_pass_is_seeded_and_matches_the_workload_shape():
    for name, workload in SMALL.items():
        ref = harness.ReferencePass(workload.problem, seed=3)
        again = harness.ReferencePass(workload.problem, seed=3)
        other = harness.ReferencePass(workload.problem, seed=4)
        assert np.array_equal(ref.run(), again.run())
        assert not np.array_equal(ref.run(), other.run())
        assert ref.run().shape == (workload.problem["n"],)
        assert ref.time() > 0
    sparse = harness.ReferencePass(SMALL["sparse-5pct"].problem, seed=3)
    values, rows, cols, _, m = sparse.csc
    dense = np.zeros((m, len(sparse.x)))
    dense[rows, cols] = values
    assert np.allclose(sparse.run(), dense.T @ (sparse.b - dense @ sparse.x))


def test_tail_percentile_leaves_ten_samples_beyond():
    assert harness.tail_percentile(list(range(10))) is None
    p, value = harness.tail_percentile([float(v) for v in range(100)])
    assert p == 90 and sum(v > value for v in range(100)) == 10


def _run_cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_cli_fails_without_printing_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = _run_cli(tmp_path, "--workload", "dense-desk", "--seed", "1", "--seconds", "1",
                   "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_cli_prints_the_end_to_end_result_last():
    out = _run_cli(ROOT, "--workload", "dense-desk", "--seed", "1", "--seconds", "1",
                   "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [name for name, _ in harness.END_TO_END]
    assert '"blas_threads": 1' in out.stdout
