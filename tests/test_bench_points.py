"""Every ``BENCH_*.json`` point at the repository root has the shape that
``BENCHMARK.json`` declares: each workload, each end-to-end metric, with
its unit, quartiles in order and one run per pair."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
POINTS = sorted(ROOT.glob("BENCH_*.json"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_points_exist():
    assert POINTS


@pytest.mark.parametrize("path", POINTS, ids=[p.name for p in POINTS])
def test_point_conforms(path):
    point = json.loads(path.read_text())
    for key in ("label", "method", "environment"):
        assert point[key], key
    assert set(point["workloads"]) >= {w["name"] for w in SPEC["workloads"]}
    for name, workload in point["workloads"].items():
        metrics = workload["metrics"]
        for spec in SPEC["end_to_end"]:
            m = metrics[spec["name"]]
            where = f"{name}.{spec['name']}"
            assert m["unit"] == spec["unit"], where
            assert m["q1"] <= m["median"] <= m["q3"], where
            assert len(m["runs"]) == workload["pairs"], where
