"""The shared bench-time recorder: sample shape and history cap."""

import importlib.util
import json
import pathlib
import subprocess

_PERF_PATH = pathlib.Path(__file__).parent.parent / "benchmarks" / "_perf.py"
_spec = importlib.util.spec_from_file_location("bench_perf_helper", _PERF_PATH)
_perf = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_perf)


def test_sample_records_scale_and_revision(tmp_path, monkeypatch):
    monkeypatch.setattr(_perf, "RESULTS_DIR", tmp_path)
    monkeypatch.setattr(_perf, "git_revision", lambda: "abc1234")
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
    assert sample["revision"] == "abc1234"


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


def _fake_git(monkeypatch, rev="abc1234\n", status="", returncode=0):
    """Stub ``subprocess.run``: ``rev-parse`` and ``status`` answer as given."""
    calls = []

    def run(args, **kwargs):
        calls.append(args[1])
        out = rev if args[1] == "rev-parse" else status
        return subprocess.CompletedProcess(args, returncode, stdout=out, stderr="")

    monkeypatch.setattr(_perf.subprocess, "run", run)
    return calls


def test_revision_of_a_clean_tree(monkeypatch):
    calls = _fake_git(monkeypatch)
    assert _perf.git_revision() == "abc1234"
    assert calls == ["rev-parse", "status"]


def test_revision_of_a_dirty_tree_is_marked(monkeypatch):
    _fake_git(monkeypatch, status=" M src/repro/scan/loss.py\n")
    assert _perf.git_revision() == "abc1234+dirty"


def test_revision_is_none_when_git_fails(monkeypatch):
    _fake_git(monkeypatch, rev="", returncode=128)
    assert _perf.git_revision() is None


def test_revision_is_none_without_git(monkeypatch):
    def run(args, **kwargs):
        raise FileNotFoundError("git")

    monkeypatch.setattr(_perf.subprocess, "run", run)
    assert _perf.git_revision() is None
