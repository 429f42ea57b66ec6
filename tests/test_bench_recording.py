"""The shared bench-time recorder: sample shape and history cap."""

import importlib.util
import json
import pathlib

_PERF_PATH = pathlib.Path(__file__).parent.parent / "benchmarks" / "_perf.py"
_spec = importlib.util.spec_from_file_location("bench_perf_helper", _PERF_PATH)
_perf = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_perf)


def test_sample_records_scale_and_revision(tmp_path, monkeypatch):
    monkeypatch.setattr(_perf, "RESULTS_DIR", tmp_path)
    path = _perf.record_bench_time("unit", 1.25, scenario="small-240d",
                                   extra={"vantages": 3})
    data = json.loads(path.read_text())
    assert data["name"] == "unit"
    (sample,) = data["runs"]
    assert sample["seconds"] == 1.25
    assert sample["scale"] == {
        "scenario": "small-240d",
        "address_scale": _perf.ADDRESS_SCALE,
        "prefix_scale": _perf.PREFIX_SCALE,
    }
    assert sample["vantages"] == 3
    # measured inside the repo checkout, so the revision must resolve
    assert isinstance(sample["revision"], str) and sample["revision"]


def test_history_capped_at_50(tmp_path, monkeypatch):
    monkeypatch.setattr(_perf, "RESULTS_DIR", tmp_path)
    monkeypatch.setattr(_perf, "git_revision", lambda: "abc1234")
    for index in range(60):
        path = _perf.record_bench_time("capped", float(index))
    runs = json.loads(path.read_text())["runs"]
    assert len(runs) == _perf.MAX_RUNS == 50
    # the cap drops the *oldest* samples
    assert runs[0]["seconds"] == 10.0
    assert runs[-1]["seconds"] == 59.0


def test_corrupt_history_file_is_replaced(tmp_path, monkeypatch):
    monkeypatch.setattr(_perf, "RESULTS_DIR", tmp_path)
    monkeypatch.setattr(_perf, "git_revision", lambda: "abc1234")
    (tmp_path / "BENCH_broken.json").write_text("{not json")
    path = _perf.record_bench_time("broken", 2.0)
    runs = json.loads(path.read_text())["runs"]
    assert [sample["seconds"] for sample in runs] == [2.0]


def test_load_latest(tmp_path, monkeypatch):
    monkeypatch.setattr(_perf, "RESULTS_DIR", tmp_path)
    monkeypatch.setattr(_perf, "git_revision", lambda: "abc1234")
    assert _perf.load_latest("never") is None
    _perf.record_bench_time("series", 1.0)
    _perf.record_bench_time("series", 3.0)
    assert _perf.load_latest("series")["seconds"] == 3.0
