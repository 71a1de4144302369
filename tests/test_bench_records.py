"""Shape of the committed benchmark records BENCH_*.json at the repo root.

Each record holds the last JSON line that `perfbench/run.py` prints per
workload, for the parent commit and for the change, so the trajectory
of every end-to-end metric stays readable.  Only the shape is checked:
a noisy host must not fail the suite, so no value is bounded here.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_records_have_parent_and_change_with_declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = sorted(m["name"] for m in spec["end_to_end"])
    workloads = {w["name"] for w in spec["workloads"]}
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths, "no BENCH_*.json record at the repo root"
    for path in paths:
        record = json.loads(path.read_text())
        for key in ("command", "cores", "python"):
            assert key in record, (path.name, key)
        for side in ("parent", "change"):
            runs = record[side]["runs"]
            assert isinstance(record[side]["src_lines"], int), (path.name, side)
            assert runs and set(runs) <= workloads, (path.name, side, sorted(runs))
            for workload, line in runs.items():
                assert sorted(line["metrics"]) == names, (path.name, side, workload)
                assert {"correct", "attempted", "failed"} <= set(line), (path.name, side)
