"""Golden rows: two tiny experiment tables pinned against stored output.

The stored rows in tests/data/golden_rows.json were written by the code
before `measure()` took over the measuring pipeline; the tables must
keep reproducing them, so a silent drift in any emitted number shows up
here. Regenerate (only for a change that alters the tables on purpose,
and say why in CHANGES.md) with

    PYTHONPATH=src python tests/test_golden_rows.py
"""
import json
import os

import pytest

from eps_planner.experiments import (
    ExperimentConfig,
    SyntheticSpec,
    experiment_estimate_vs_actual,
    oracle_compare,
)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_rows.json")
REL_TOL = 1e-12

TABLES = {
    "estimate_sgd": (
        experiment_estimate_vs_actual,
        ExperimentConfig(
            synthetic=SyntheticSpec(400, 4, 1.5),
            solver_mode="sgd_repro",
            measure_eps_list=(0.1, 0.5),
            target_grid=(0.2, 0.5, 1.0),
            repeats=2,
            base_seed=3,
        ),
    ),
    "oracle": (
        oracle_compare,
        ExperimentConfig(
            synthetic=SyntheticSpec(200, 4, 2.0),
            measure_eps_list=(0.25, 1.0),
            repeats=2,
            base_seed=1,
        ),
    ),
}


def compute(name: str) -> list[dict]:
    fn, cfg = TABLES[name]
    return fn(cfg)


@pytest.mark.parametrize("name", sorted(TABLES))
def test_rows_match_golden(name):
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        want = json.load(fh)[name]
    got = compute(name)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert list(g) == list(w)
        for key, value in w.items():
            if isinstance(value, float):
                assert g[key] == pytest.approx(value, rel=REL_TOL, abs=0.0), key
            else:
                assert g[key] == value, key


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump({name: compute(name) for name in sorted(TABLES)}, fh, indent=1)
        fh.write("\n")
