"""Self-checks of the benchmark, at tiny sizes.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402

run.import_psc()
import psc  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY_GRID = ["--gamma-grid", "0.3,0.7", "--c0-grid", "0.5,2"]


def tiny(name, workdir, seed=3):
    if name == "fit-wide":
        return workloads.FitWorkload(seed, shape=(300, 20, 10), training_sets=2, test=(20, 20))
    return workloads.CvWorkload(name.split("-", 1)[1], seed, workdir, shape=(40, 12, 20),
                                cli_args=TINY_GRID)


def traced_unit(work):
    work.setup()
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        unit = work.unit()
    return unit, tracer.spans


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_each_workload_calls_and_bypasses_its_layers(name, tmp_path):
    unit, spans = traced_unit(tiny(name, tmp_path))
    assert unit.failed == 0
    calls = tracing.layer_calls(spans)
    assert {layer for layer in run.CALLED[name] if calls[layer] == 0} == set()
    assert {layer: calls[layer] for layer in run.BYPASSED[name] if calls[layer]} == {}


def test_every_wrap_point_is_reached(tmp_path):
    # a refactor that rebinds a name (``from .smw import gram``) leaves its
    # wrapper uncalled; this fails instead of the layer reading 0 s
    _, spans = traced_unit(tiny("cv-psc", tmp_path))
    assert {s.name for s in spans} == {name for _, _, name, _ in tracing.WRAP_POINTS}


def test_wrappers_are_removed_after_tracing():
    def current():
        return [getattr(module, attr) for module, attr, _, _ in tracing.WRAP_POINTS]

    before = current()
    with tracing.installed(tracing.Tracer()):
        assert all(now is not then for now, then in zip(current(), before))
    assert current() == before


def test_self_time_subtracts_the_children():
    Span = tracing.Span
    spans = [Span("a", 0.0, -1, end=10.0), Span("b", 1.0, 0, end=4.0),
             Span("c", 5.0, 0, end=6.0), Span("d", 2.0, 1, end=3.0)]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert tracing.layer_metrics(spans, 10.5)["unattributed_s"] == pytest.approx(0.5)


def scatter_free_data(outlier: bool):
    """Rows all equal except, optionally, one positive row. A training set
    without that row has zero scatter, so its fit raises."""
    X = np.tile(np.arange(1.0, 7.0), (30, 1))
    if outlier:
        X[0, 0] += 1.0
    return psc.LabeledMatrix(X, np.array([1] * 10 + [-1] * 20))


def test_failed_fits_count_as_failed_cells_and_folds(tmp_path):
    work = workloads.CvWorkload("psc", 3, tmp_path, cli_args=TINY_GRID,
                                data=scatter_free_data(outlier=True))
    unit, spans = traced_unit(work)
    # the outer fold that holds the outlier out trains on identical rows only
    assert (unit.attempted, unit.failed) == (5, 1)
    metrics = tracing.layer_metrics(spans, unit.wall_s)
    assert metrics["crossval.cells_failed"] > 0
    assert metrics["classifier.fit_errors"] >= metrics["crossval.cells_failed"]


def test_crashed_cv_call_is_a_failed_unit(tmp_path):
    # every fold fails, and cv_run then fails to pool zero folds
    work = workloads.CvWorkload("psc", 3, tmp_path, cli_args=TINY_GRID,
                                data=scatter_free_data(outlier=False))
    work.setup()
    unit = work.unit()
    assert (unit.attempted, unit.failed) == (5, 5)


def test_same_seed_must_give_the_same_counts(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    problems = []
    run.check_against_earlier_runs("cv-psc", 1, {"qp.smo_iterations": 10, "bccr": 0.5}, problems)
    run.check_against_earlier_runs("cv-psc", 1, {"qp.smo_iterations": 10, "bccr": 0.5}, problems)
    run.check_against_earlier_runs("cv-psc", 2, {"qp.smo_iterations": 11}, problems)
    assert problems == []
    run.check_against_earlier_runs("cv-psc", 1, {"qp.smo_iterations": 11}, problems)
    assert len(problems) == 1


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
    units = [workloads.Unit(0.2, 8, 0, 0.5, [20.0] * 8) for _ in range(4)]
    reported = run.end_to_end("fit-wide", units, 1.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_, unit) in reported.items()}


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "cv-psc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
