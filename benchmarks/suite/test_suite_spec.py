"""``BENCHMARK.json`` schema and the per-layer -> end-to-end map."""

import copy

import pytest

import spec
from layers import LAYER_ENTRIES
from workload import CAMPAIGNS


@pytest.fixture
def bench():
    return spec.load()


def test_benchmark_file_is_valid(bench):
    assert spec.validate(bench) == []
    assert bench["paths"] == ["benchmarks/suite"]
    assert bench["command"][1].startswith(bench["paths"][0] + "/")


def test_every_layer_metric_names_a_target(bench):
    assert spec.layer_problems(bench) == []


def test_workloads_are_the_implemented_ones(bench):
    assert [w["name"] for w in bench["workloads"]] == list(CAMPAIGNS) + ["serve"]


def test_layer_entries_feed_declared_metrics(bench):
    declared = {metric["name"] for metric in bench["per_layer"]}
    assert set(LAYER_ENTRIES.values()) <= declared


@pytest.mark.parametrize("mutate, message", [
    (lambda b: b["workloads"].__setitem__(slice(1, None), []), "workloads: 1"),
    (lambda b: b["workloads"].extend([{"name": f"w{i}", "why": "x"} for i in range(5)]),
     "workloads: 9"),
    (lambda b: b["end_to_end"].extend(
        [{"name": f"m{i}", "unit": "s", "better": "lower", "bound": 0.1} for i in range(11)]),
     "end_to_end: 17"),
    (lambda b: b["per_layer"].extend(
        [{"name": f"l{i}", "unit": "s", "better": "lower"}
         for i in range(129 - len(b["per_layer"]))]),
     "per_layer: 129"),
    (lambda b: b["per_layer"][0].__setitem__("name", "bad name!"), "does not match"),
    (lambda b: b["per_layer"][1].__setitem__("name", b["per_layer"][0]["name"]),
     "more than once"),
    (lambda b: b["end_to_end"][1].__setitem__("bound", 0.3), "bound outside"),
    (lambda b: b["end_to_end"].pop(0), "setup_s"),
    (lambda b: b["end_to_end"][0].__setitem__("bound", 0.01), "largest bound"),
    (lambda b: b.__setitem__("extra", 1), "keys"),
    (lambda b: b["command"].append("/abs/path"), "absolute"),
    (lambda b: b.__setitem__("run_seconds", 61), "run_seconds"),
    (lambda b: b["per_layer"][0].__setitem__("unit", "a unit"), "unit"),
])
def test_validate_rejects(bench, mutate, message):
    broken = copy.deepcopy(bench)
    mutate(broken)
    assert any(message in problem for problem in spec.validate(broken))


def test_layer_map_rejects_unknown_targets(bench):
    broken = copy.deepcopy(bench)
    broken["end_to_end"] = [m for m in broken["end_to_end"] if m["name"] != "wall_s"]
    assert any("unknown end-to-end metric wall_s" in p for p in spec.layer_problems(broken))
    broken = copy.deepcopy(bench)
    broken["workloads"] = [w for w in broken["workloads"] if w["name"] != "serve"]
    assert any("unknown workload serve" in p for p in spec.layer_problems(broken))
