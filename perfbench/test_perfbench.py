"""Self-tests of the benchmark's tracer, work counters and checks.

    python3 -m pytest perfbench -q

The counts pinned here are those of the code the benchmark was defined
on. A change that alters them on purpose states the new counts in its
own record; these tests then say which counter moved.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys

import pytest

import run

run.import_package()

import workloads as w  # noqa: E402
from tracer import Tracer  # noqa: E402

from eps_planner import chooser, data, experiments, losses, sensitivity, trainer  # noqa: E402
from eps_planner.model import NoiseDraw, PrivacyBudget  # noqa: E402


def _calls(trace, key):
    return trace.stats(key).calls


def test_every_binding_is_wrapped_and_restored():
    original = losses.aggregate
    with Tracer() as tracer:
        assert tracer.missed_bindings() == []
        # the `from .losses import aggregate` bindings are wrapped too
        assert trainer.aggregate is not original
        assert sensitivity.aggregate is trainer.aggregate is losses.aggregate
    assert losses.aggregate is trainer.aggregate is sensitivity.aggregate is original
    assert trainer.cho_factor is sensitivity.cho_factor


def test_logistic_exact_plan_counts():
    # the reference case: 20000 x 50, tight logistic, eps 0.25, default tolerance
    d = data.gen_synthetic(20000, 50, 2.0, 0)
    spec = losses.make_loss_spec("logistic", d.p, "tight")
    cfg = trainer.TrainConfig(reg_lambda=0.01, solver_mode="exact")
    target = w.probe_target(d, spec, cfg, seed=1)
    with Tracer() as tracer:
        chooser.plan(d, spec, cfg, w.MEASURE_EPS, w.DELTA, target, seed=0)
    t = tracer.trace
    assert _calls(t, "losses.aggregate") == 11
    assert _calls(t, "linalg.cho_factor") == 9
    assert t.counts["linalg.cho_factor.calls.trainer"] == 7
    assert t.counts["linalg.cho_factor.calls.sensitivity"] == 2
    assert t.counts["trainer.newton_steps"] == 7
    assert t.counts["trainer.backtracks"] == 0
    assert _calls(t, "trainer.train") == 1


def test_sgd_training_counts():
    d = w.table_dataset(0)
    spec = losses.make_loss_spec("logistic", d.p, "tight")
    cfg = trainer.TrainConfig(reg_lambda=0.01, solver_mode="sgd_repro")
    with Tracer() as tracer:
        trainer.train(d, spec, cfg, PrivacyBudget(0.25, 1e-3), NoiseDraw.generate(d.p, 0))
    t = tracer.trace
    assert _calls(t, "losses.aggregate") == 101
    assert t.counts["trainer.sgd_steps"] == 100
    assert _calls(t, "linalg.cho_factor") == 0


def test_table_counts():
    grid = len(w.TABLE_GRID)
    with Tracer() as tracer:
        experiments.experiment_measuring_sweep(w.table_config(0), w.table_dataset(0))
    t = tracer.trace
    # actual means and estimates each train once per grid point and repeat
    trainings = 2 * grid * w.TABLE_REPEATS
    assert t.counts["experiments.trainings"] == trainings
    assert _calls(t, "trainer.train") == trainings
    # 101 per sgd training, plus assemble_w and utility_slope per estimate
    assert _calls(t, "losses.aggregate") == 101 * trainings + 2 * grid * w.TABLE_REPEATS
    assert t.counts["linalg.cho_factor.calls.sensitivity"] == 2 * grid * w.TABLE_REPEATS


@pytest.mark.parametrize("name", ["plan-wide", "cli-ingest"])
def test_traced_passes_repeat_their_counts(name, tmp_path):
    wl = w.WORKLOADS[name]
    state = wl.setup(3, str(tmp_path))
    counts = []
    for _ in range(2):
        with Tracer() as tracer:
            for i in wl.trace_pass:
                wl.request(state, 3, i)[1]()
        counts.append(tracer.trace.work_counts())
    assert counts[0] == counts[1]
    assert counts[0]["losses.aggregate.calls"] > 0


@pytest.mark.parametrize("name", sorted(w.WORKLOADS))
def test_reference_kernels_call_no_package_code(name):
    # a change to eps_planner must not move the kernels the latencies are divided by
    kernel = w.WORKLOADS[name].reference()
    with Tracer() as tracer:
        kernel()
    assert dict(tracer.trace.functions) == {}


def test_table_check_rejects_a_changed_row():
    wl = w.TablesSgd()
    state = wl.setup(0, "")
    rows = [{"measure_eps": e, "avg_abs_error": v} for e, v in state.reference[5]]
    wl.check(state, 5, 0, rows)
    rows[3] = dict(rows[3], avg_abs_error=rows[3]["avg_abs_error"] * (1 + 1e-6))
    with pytest.raises(w.CheckFailed):
        wl.check(state, 5, 0, rows)


def test_refuses_to_run_without_the_package(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(here), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables-sgd",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
