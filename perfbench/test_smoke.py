"""Smoke test of the benchmark harness on shrunken inputs; takes seconds.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def workdir():
    path = run.OUT / "smoke"
    shutil.rmtree(path, ignore_errors=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("name", list(workloads.SMOKE))
def test_timed_run_reports_every_end_to_end_metric(name, workdir):
    record = run.timed_run(workloads.SMOKE[name], seed=3, seconds=1, workdir=workdir)
    again = run.timed_run(workloads.SMOKE[name], seed=3, seconds=1, workdir=workdir)
    assert record["correct"], record["failures"]
    assert len(record["digests"]) >= workloads.SMOKE[name].quality_jobs
    n = min(len(record["digests"]), len(again["digests"]))
    assert record["digests"][:n] == again["digests"][:n]
    for metric in ("coverage_gap", "nrmse"):
        assert record["metrics"][metric]["value"] == again["metrics"][metric]["value"]
    assert record["failed"] == 0 and record["metrics"]["fail_ratio"]["value"] == 0
    line = run.final_line(record)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [m for m, _, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in line["metrics"].values())
    json.dumps(line, allow_nan=False)


@pytest.mark.parametrize("name", list(workloads.SMOKE))
def test_traced_counts_repeat_exactly(name, workdir):
    first = run.traced_run(workloads.SMOKE[name], seed=5, workdir=workdir)
    second = run.traced_run(workloads.SMOKE[name], seed=5, workdir=workdir)
    assert first["correct"] and second["correct"], first["failures"] + second["failures"]
    assert list(first["metrics"]) == [m for m, _, _ in spans.PER_LAYER]
    assert first["digest"] == second["digest"]
    for metric, unit, _ in spans.PER_LAYER:
        if unit in ("count", "bytes"):
            assert first["metrics"][metric]["value"] == second["metrics"][metric]["value"], metric
    assert first["metrics"]["pooling.rubin_pool.calls"]["value"] > 0
    assert first["metrics"]["models.predict.rows"]["value"] > 0


def _smoke_outcome(name: str, workdir: Path):
    wl = workloads.SMOKE[name]
    inputs = wl.setup(7, 0, workdir)
    outcome = wl.collect(inputs, workdir, wl.job(inputs, workdir))
    assert gate.check_outcome(outcome, inputs, outcome.digest).failed == 0
    return inputs, outcome


@pytest.mark.parametrize("name", ["long-horizon", "long-record"])
def test_gate_fires_on_a_corrupted_pooled_result(name, workdir):
    inputs, outcome = _smoke_outcome(name, workdir)
    cell = outcome.cells[-1]
    cell.total_var = cell.total_var.copy()
    cell.total_var[len(cell.total_var) // 2] *= 1.0 + 1e-9
    result = gate.check_outcome(outcome, inputs, outcome.digest)
    assert result.failures == [f"{cell.cell_id}: pooling"]


def test_gate_fires_on_bad_bounds_counts_and_digests(workdir):
    inputs, outcome = _smoke_outcome("demo-grid", workdir)
    gamma = next(c for c in outcome.cells if c.interval_family == "gamma")
    gamma.lower = gamma.lower.copy()
    gamma.lower[0] = -1e-3
    normal = next(c for c in outcome.cells if c.interval_family == "normal")
    normal.n_evaluated += 1
    result = gate.check_outcome(outcome, inputs, "another digest")
    assert sorted(result.failures) == sorted([
        f"{gamma.cell_id}: bounds", f"{normal.cell_id}: scored", "determinism",
    ])


def test_single_round_must_have_zero_between_variance(workdir):
    inputs, outcome = _smoke_outcome("long-horizon", workdir)
    single = next(c for c in outcome.cells if c.n_rounds == 1)
    single.between_var = single.between_var + 1e-3
    single.total_var = single.within_var + 2.0 * single.between_var
    assert gate.check_outcome(outcome, inputs, outcome.digest).failures == [
        f"{single.cell_id}: pooling"
    ]


def test_benchmark_json_matches_the_harness():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert doc["paths"] == [HERE.name]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == spans.PER_LAYER


def test_exits_without_a_result_outside_a_checkout(workdir):
    bare = workdir / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "long-record", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
