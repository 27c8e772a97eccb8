"""Every committed BENCH_<n>.json record has the form a performance claim is
read from: {commit, python, cpus, workloads: {name: {plain, traced}}}, with
one correct plain run of each workload that BENCHMARK.json declares."""

import json
from numbers import Real
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[path.name for path in RECORDS])
def test_a_record_holds_a_correct_plain_run_of_every_declared_workload(path):
    record = json.loads(path.read_text())
    assert record.keys() == {"commit", "python", "cpus", "workloads"}
    assert isinstance(record["commit"], str) and isinstance(record["python"], str) and type(record["cpus"]) is int
    assert record["workloads"].keys() == {w["name"] for w in BENCHMARK["workloads"]}
    for name, runs in record["workloads"].items():
        assert runs.keys() == {"plain", "traced"}, name
        plain = runs["plain"]
        assert plain["correct"] is True and plain["failed"] == 0, name
        for metric in BENCHMARK["end_to_end"]:
            value = plain["metrics"][metric["name"]]
            assert isinstance(value["value"], Real) and value["unit"] == metric["unit"], (name, metric["name"])
