"""BENCHMARK.json agrees with the benchmark and with its own format rules."""

import json
import os
import re

from workloads import NAMES

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_top_level_shape():
    contract = load()
    assert sorted(contract) == [
        "command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads",
    ]
    assert contract["command"] == ["python3", "perfbench/run.py"]
    assert contract["paths"] == ["perfbench"]
    assert 1 <= contract["run_seconds"] <= 60


def test_workloads_are_the_benchmarks_own():
    workloads = load()["workloads"]
    assert [w["name"] for w in workloads] == list(NAMES)
    for workload in workloads:
        assert sorted(workload) == ["name", "why"]
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_metrics_are_well_formed_and_named_once():
    contract = load()
    names = [w["name"] for w in contract["workloads"]]
    for metric in contract["end_to_end"]:
        assert sorted(metric) == ["better", "bound", "name", "unit"]
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert sorted(metric) == ["better", "name", "unit"]
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
        names.append(metric["name"])
    assert len(names) == len(set(names))


def test_setup_time_has_the_largest_bound():
    metrics = {m["name"]: m for m in load()["end_to_end"]}
    setup = metrics["setup_s"]
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in metrics.values())
