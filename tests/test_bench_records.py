"""The committed perf trajectory: every BENCH_*.json at the root of the repo.

Each file records, per workload of BENCHMARK.json, the parent and change
values of the metrics a change measured, so a perf claim cites numbers rather
than an estimate.
"""

import json
from numbers import Real
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
METRICS = {m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_at_least_one_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_names_benchmark_metrics_with_parent_and_change_values(path):
    record = json.loads(path.read_text())
    assert isinstance(record["command"], str) and record["command"]
    assert record["host"]
    assert record["workloads"]
    for workload, metrics in record["workloads"].items():
        assert workload in WORKLOADS, workload
        assert metrics, workload
        for name, values in metrics.items():
            assert name in METRICS, (workload, name)
            for side in ("parent", "change"):
                value = values[side]
                assert isinstance(value, Real) and not isinstance(value, bool), (
                    workload, name, side, value)
