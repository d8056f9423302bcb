"""Recompute the tables-sgd reference rows into reference_tables.json.

    python3 perfbench/make_reference.py

Run from the root of a checkout whose tables are known to be right: the
tables-sgd workload counts every later table that differs from these
rows as a failed request.
"""
from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.pin_environment()
    run.import_package()
    import workloads as w

    tables = []
    for k in range(w.TABLE_CONFIGS):
        rows = w.experiments.experiment_measuring_sweep(w.table_config(k), w.table_dataset(k))
        tables.append([[r["measure_eps"], r["avg_abs_error"]] for r in rows])
    body = ",\n  ".join(json.dumps(t) for t in tables)
    with open(w.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        fh.write(f'{{"header": {json.dumps(w.reference_header())},\n "tables": [\n  {body}\n]}}\n')
    print(f"wrote {len(tables)} tables to {w.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
