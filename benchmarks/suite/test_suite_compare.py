"""``compare.py`` on synthetic parent/change runs."""

import json

import pytest

import compare
import spec


def runs(base, step=0.01, n=10):
    """``n`` values around ``base`` with a small, even spread."""
    return [base * (1 + step * (i - n / 2) / n) for i in range(n)]


@pytest.mark.parametrize("parent, change, better, expected", [
    # lower is better: 10% faster in every pair, far outside the spread
    (runs(10.0), runs(9.0), "lower", "gain"),
    # higher is better: 10% more requests per second
    (runs(100.0), runs(110.0), "higher", "gain"),
    # 20% slower against a 10% bound
    (runs(10.0), runs(12.0), "lower", "REGRESSION"),
    (runs(100.0), runs(80.0), "higher", "REGRESSION"),
    # 2% slower: within the bound, no gain
    (runs(10.0), runs(10.2), "lower", "same"),
    # 40% spread on the change side: cannot be told apart
    (runs(10.0), runs(10.0, step=0.8), "lower", "unresolved"),
    # wide spread, yet every change run beats every parent run
    (runs(10.0, step=0.5), runs(5.0, step=0.5), "lower", "gain"),
])
def test_verdicts(parent, change, better, expected):
    assert compare.verdict(parent, change, better, 0.1)["verdict"] == expected


def test_gain_needs_nine_in_ten_pairs():
    parent = runs(10.0)
    change = [value * 0.9 for value in parent]
    change[0] = change[1] = 11.0  # two pairs lost
    assert compare.verdict(parent, change, "lower", 0.1)["wins"] == 8
    assert compare.verdict(parent, change, "lower", 0.1)["verdict"] != "gain"


def test_gain_needs_a_gap_beyond_the_parent_spread():
    parent = [10.0, 10.5, 11.0, 11.5, 12.0, 10.2, 10.7, 11.2, 11.7, 11.9]
    change = [value - 0.1 for value in parent]  # wins every pair, by little
    result = compare.verdict(parent, change, "lower", 0.25)
    assert result["wins"] == 10
    assert result["verdict"] == "same"


def test_gain_needs_ten_pairs():
    assert compare.verdict(runs(10.0, n=5), runs(9.0, n=5), "lower", 0.1)["verdict"] == "same"


def record(workload, seed, scale=1.0, failed=0, digest="d"):
    bench = spec.load()
    return {
        "workload": workload, "seed": seed, "trace": False,
        "attempted": 100, "failed": failed,
        "end_to_end": {m["name"]: scale * (1 + seed / 1000) for m in bench["end_to_end"]},
        "outputs": {"digest": digest, "counts": {}},
    }


def write(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def test_one_row_per_workload_and_exit_codes(tmp_path, capsys):
    parent, change = tmp_path / "parent.jsonl", tmp_path / "change.jsonl"
    write(parent, [record(w, s) for s in range(10) for w in ("steady", "serve")])
    write(change, [record(w, s) for s in range(10) for w in ("steady", "serve")])
    assert compare.main([str(parent), str(change)]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert [row.split(":")[0] for row in rows] == ["serve", "steady"]
    assert all(" same " in row for row in rows)

    # wall time up 30% on one workload only
    write(change, [record("steady", s, scale=1.3) for s in range(10)]
          + [record("serve", s) for s in range(10)])
    assert compare.main([str(parent), str(change)]) == 1
    rows = capsys.readouterr().out.strip().splitlines()
    assert "REGRESSION" in rows[1] and "REGRESSION" not in rows[0]


def test_runs_pair_by_seed_not_by_position(tmp_path, capsys):
    parent, change = tmp_path / "parent.jsonl", tmp_path / "change.jsonl"
    write(parent, [record("steady", s) for s in range(10)])
    # the same runs in reverse order: paired by seed, they are identical
    write(change, [record("steady", s) for s in reversed(range(10))])
    assert compare.main([str(parent), str(change)]) == 0
    row = capsys.readouterr().out
    assert " same " in row and "(0/10)" in row


def test_unpaired_runs_are_reported(tmp_path, capsys):
    parent, change = tmp_path / "parent.jsonl", tmp_path / "change.jsonl"
    write(parent, [record("steady", s) for s in range(10)] + [record("steady", 4)])
    write(change, [record("steady", s) for s in range(1, 10)])
    assert compare.main([str(parent), str(change)]) == 1
    out = capsys.readouterr().out
    assert "unpaired: parent run 1 of seed 0" in out
    assert "unpaired: parent run 2 of seed 4" in out
    assert "only 9 pairs" in out


def test_failed_share_must_not_rise(tmp_path, capsys):
    parent, change = tmp_path / "parent.jsonl", tmp_path / "change.jsonl"
    write(parent, [record("steady", s) for s in range(10)])
    write(change, [record("steady", s, failed=1) for s in range(10)])
    assert compare.main([str(parent), str(change)]) == 1
    assert "failed share rose" in capsys.readouterr().out


def test_outputs_must_match_per_seed(tmp_path, capsys):
    parent, change = tmp_path / "parent.jsonl", tmp_path / "change.jsonl"
    write(parent, [record("steady", s) for s in range(10)])
    write(change, [record("steady", s, digest="other" if s == 3 else "d") for s in range(10)])
    assert compare.main([str(parent), str(change)]) == 1
    assert "seed 3: outputs differ" in capsys.readouterr().out
