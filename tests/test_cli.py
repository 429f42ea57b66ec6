"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.net.address import parse_ipv6
from repro.net.prefix import parse_prefix


class TestConfigCommand:
    def test_dump_and_round_trip(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        assert main(["config", "--preset", "small", "--seed", "5",
                     "-o", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["seed"] == 5
        # feed it back through --config
        out2 = tmp_path / "cfg2.json"
        assert main(["config", "--config", str(path), "-o", str(out2)]) == 0
        assert json.loads(out2.read_text()) == data

    def test_dump_to_stdout(self, capsys):
        assert main(["config", "--preset", "small"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["generic_as_count"] > 0


class TestGenerateCommand:
    def test_distance_clustering_end_to_end(self, tmp_path):
        base = parse_ipv6("2001:db8::")
        seeds = tmp_path / "seeds.txt"
        seeds.write_text(
            "\n".join(str_addr(base + i * 10) for i in range(12)) + "\n"
        )
        output = tmp_path / "candidates.txt"
        assert main(["generate", "distance-clustering", str(seeds),
                     "-o", str(output)]) == 0
        lines = [l for l in output.read_text().splitlines() if l]
        assert lines
        for line in lines:
            value = parse_ipv6(line)
            assert base <= value <= base + 110

    def test_empty_seed_file(self, tmp_path, capsys):
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("\n")
        assert main(["generate", "6graph", str(seeds)]) == 1

    def test_budget_respected(self, tmp_path):
        seeds = tmp_path / "seeds.txt"
        base = parse_ipv6("2001:db8::")
        seeds.write_text("\n".join(str_addr(base + i) for i in range(30)) + "\n")
        output = tmp_path / "out.txt"
        assert main(["generate", "distance-clustering", str(seeds),
                     "--budget", "5", "-o", str(output)]) == 0
        assert len(output.read_text().splitlines()) <= 5


class TestAggregateCommand:
    def test_merges_siblings(self, tmp_path):
        source = tmp_path / "prefixes.txt"
        source.write_text("2001:db8::/33\n2001:db8:8000::/33\n")
        output = tmp_path / "agg.txt"
        assert main(["aggregate", str(source), "-o", str(output)]) == 0
        assert output.read_text().strip() == "2001:db8::/32"


class TestSimulateCommand:
    def test_small_simulation(self, tmp_path, capsys):
        outdir = tmp_path / "run"
        assert main([
            "simulate", "--preset", "small", "--seed", "3",
            "--days", "60", "--interval", "10", "-o", str(outdir),
        ]) == 0
        responsive = (outdir / "responsive.txt").read_text().splitlines()
        assert responsive
        for line in responsive[:10]:
            parse_ipv6(line)
        prefixes = (outdir / "aliased-prefixes.txt").read_text().splitlines()
        assert prefixes
        parse_prefix(prefixes[0])
        report = (outdir / "report.txt").read_text()
        assert "Table 1" in report
        assert "Figure 10" in report
        scenario = json.loads((outdir / "scenario.json").read_text())
        assert scenario["seed"] == 3
        figures = outdir / "figures"
        assert (figures / "fig3_timeline.csv").exists()
        assert (figures / "fig10_protocol_overlap.csv").exists()
        assert "validation" in (outdir / "validation.txt").read_text().lower()
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["format_version"] == 1
        assert summary["snapshots"]

    @pytest.mark.parametrize("command", [
        ["simulate", "--preset", "small"],
        ["scenario", "run", "residential-eui64"],
    ], ids=["simulate", "scenario-run"])
    def test_trace_shows_output_writers(self, tmp_path, command):
        """The report and figure writers run after the campaign and get
        top-level spans of their own in the ``--trace`` file."""
        trace = tmp_path / "trace.json"
        # the scenario's invariants need a longer run to hold; its exit
        # code says so, and the trace is written before they are checked
        main([*command, "--days", "14", "--interval", "7",
              "--trace", str(trace), "-o", str(tmp_path / "run")])
        spans = json.loads(trace.read_text())["spans"]
        top = [span["name"] for span in spans if span["depth"] == 0]
        assert top[-2:] == ["report", "figures"]
        assert all(span["duration"] >= 0 for span in spans)

    def test_compare_two_runs(self, tmp_path, capsys):
        for seed, name in ((8, "a"), (9, "b")):
            assert main([
                "simulate", "--preset", "small", "--seed", str(seed),
                "--days", "40", "--interval", "10",
                "-o", str(tmp_path / name),
            ]) == 0
        capsys.readouterr()
        assert main([
            "compare",
            str(tmp_path / "a" / "summary.json"),
            str(tmp_path / "b" / "summary.json"),
        ]) == 0
        out = capsys.readouterr().out
        assert "Run comparison" in out
        assert "accumulated input" in out

    def test_small_evaluation(self, tmp_path):
        outdir = tmp_path / "eval"
        assert main([
            "evaluate", "--preset", "small", "--seed", "4",
            "--days", "50", "--interval", "10", "-o", str(outdir),
        ]) == 0
        report = (outdir / "report.txt").read_text()
        assert "Tables 3-4" in report
        assert (outdir / "new-responsive.txt").exists()
        assert (outdir / "figures" / "fig7_source_overlap.csv").exists()


def str_addr(value: int) -> str:
    from repro.net.address import format_ipv6

    return format_ipv6(value)


class TestRuntimeFlags:
    def test_checkpoint_faults_and_resume(self, tmp_path, capsys):
        faults = tmp_path / "faults.json"
        faults.write_text(json.dumps({
            "seed": 3,
            "vantage_outages": [{"start_day": 30, "end_day": 35}],
            "source_outages": [
                {"source": "atlas", "start_day": 10, "end_day": 20}
            ],
        }))
        ckpt = tmp_path / "ckpt"
        outdir = tmp_path / "run"
        assert main([
            "simulate", "--preset", "small", "--seed", "3",
            "--days", "60", "--interval", "10",
            "--faults", str(faults), "--retry-attempts", "2",
            "--checkpoint-dir", str(ckpt),
            "-o", str(outdir),
        ]) == 0
        capsys.readouterr()
        checkpoints = sorted(ckpt.glob("checkpoint-day*.ckpt"))
        assert len(checkpoints) == 7  # one per scan (days 0..60 step 10)
        baseline = json.loads((outdir / "summary.json").read_text())
        degraded = [s for s in baseline["snapshots"] if s["degraded"]]
        assert degraded, "fault plan left no degraded scans"

        # resume from a mid-run checkpoint: identical artefacts
        outdir2 = tmp_path / "resumed"
        assert main([
            "simulate", "--resume", str(checkpoints[3]), "-o", str(outdir2),
        ]) == 0
        resumed = json.loads((outdir2 / "summary.json").read_text())
        assert resumed == baseline
        assert (
            (outdir2 / "responsive.txt").read_text()
            == (outdir / "responsive.txt").read_text()
        )

    @pytest.mark.parametrize("flag,value", [
        ("--scan-workers", "2"),
        ("--scan-chunk-size", "512"),
    ])
    def test_removed_scan_flags_are_usage_errors(
        self, tmp_path, capsys, flag, value
    ):
        """The scan engine has no worker pool or chunk knob to set."""
        with pytest.raises(SystemExit) as exit_info:
            main([
                "simulate", "--preset", "small", "--days", "14",
                flag, value, "-o", str(tmp_path / "out"),
            ])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [
        ["simulate", "--preset", "small"],
        ["scenario", "run", "residential-eui64"],
    ], ids=["simulate", "scenario-run"])
    @pytest.mark.parametrize("flags", [
        ["--days", "0", "--interval", "30"],
        ["--interval", "0"],
        ["--days", "-5"],
        ["--interval", "-7", "--days", "20"],
        ["--retry-attempts", "-1"],
        ["--retry-attempts", "0"],
        ["--refresh-interval", "0"],
        ["--checkpoint-every", "0"],
        ["--vantages", "0"],
    ], ids=" ".join)
    def test_bad_run_flag_is_a_usage_error(
        self, tmp_path, capsys, command, flags
    ):
        """A run flag below 1 fails at parse time: nothing is built,
        scanned or written, and no value falls back to a default."""
        outdir = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            main([*command, *flags, "-o", str(outdir)])
        assert exit_info.value.code == 2
        flag, value = next(
            (flag, value) for flag, value in zip(flags[::2], flags[1::2])
            if int(value) < 1
        )
        assert f"argument {flag}: must be >= 1, got {value}" in (
            capsys.readouterr().err)
        assert not outdir.exists()

    @pytest.mark.parametrize("vantages,faults,message", [
        ("1", "vp0:14-35", "vp0; a single vantage takes no vantage-scoped"),
        ("1", "vp1:14-35", "vp1; a single vantage takes no vantage-scoped"),
        ("3", "vp1:14-20,vp7:14-35", "vp7; fleet members are vp0, vp1, vp2"),
    ])
    def test_vantage_faults_must_name_fleet_members(
        self, tmp_path, vantages, faults, message
    ):
        """A fault scoped to a vantage the run does not have fails the
        run at config time instead of being dropped without a trace."""
        with pytest.raises(ValueError, match=message):
            main([
                "simulate", "--preset", "small", "--days", "56",
                "--interval", "7", "--vantages", vantages,
                "--vantage-faults", faults, "-o", str(tmp_path / "run"),
            ])
        assert not (tmp_path / "run" / "summary.json").exists()

    def test_resume_rejects_corrupted_checkpoint(self, tmp_path):
        from repro.runtime import CheckpointError

        ckpt = tmp_path / "ckpt"
        assert main([
            "simulate", "--preset", "small", "--seed", "3",
            "--days", "20", "--interval", "10",
            "--checkpoint-dir", str(ckpt),
            "-o", str(tmp_path / "run"),
        ]) == 0
        victim = sorted(ckpt.glob("*.ckpt"))[-1]
        blob = bytearray(victim.read_bytes())
        blob[-1] ^= 0xFF
        victim.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            main(["simulate", "--resume", str(victim), "-o", str(tmp_path / "x")])


@pytest.fixture(scope="module")
def short_checkpoints(tmp_path_factory):
    """A 14-day single-vantage run checkpointed after every scan."""
    root = tmp_path_factory.mktemp("resume-flags")
    ckpt = root / "ckpt"
    assert main([
        "simulate", "--preset", "small", "--days", "14", "--interval", "7",
        "--checkpoint-dir", str(ckpt), "-o", str(root / "run"),
    ]) == 0
    return sorted(ckpt.glob("checkpoint-day*.ckpt"))


class TestResumeFlags:
    @pytest.mark.parametrize("flag,value,message", [
        ("--vantages", "3", "--vantages 3 differs from the checkpoint's vantages 1"),
        ("--scan-mode", "incremental",
         "--scan-mode incremental differs from the checkpoint's scan_mode full"),
        ("--retry-attempts", "2",
         "--retry-attempts 2 differs from the checkpoint's retry_attempts 1"),
        ("--quorum", "strict", "--quorum strict differs from the checkpoint's quorum majority"),
        ("--refresh-interval", "3",
         "--refresh-interval 3 differs from the checkpoint's refresh_interval 10"),
        ("--sample-rate", "0.5",
         "--sample-rate 0.5 differs from the checkpoint's sample_rate 0.03125"),
        ("--days", "200", "--days 200 cannot apply"),
        ("--interval", "2", "--interval 2 cannot apply"),
        ("--faults", "faults.json", "--faults faults.json cannot apply"),
        ("--vantage-faults", "vp1:3-5", "--vantage-faults vp1:3-5 cannot apply"),
    ])
    def test_disagreeing_flag_stops_before_any_scan(
        self, tmp_path, short_checkpoints, flag, value, message
    ):
        """A flag the resumed run would ignore stops it instead, naming
        the flag, the given value and the checkpoint's own value."""
        before = {path: path.read_bytes() for path in short_checkpoints}
        outdir = tmp_path / "resumed"
        with pytest.raises(SystemExit, match=message):
            main(["simulate", "--resume", str(short_checkpoints[0]),
                  flag, value, "-o", str(outdir)])
        assert not outdir.exists()
        after = sorted(short_checkpoints[0].parent.glob("*.ckpt"))
        assert {path: path.read_bytes() for path in after} == before

    def test_agreeing_flags_resume(self, tmp_path, short_checkpoints):
        """Flags equal to the checkpoint's settings change nothing."""
        outdir = tmp_path / "resumed"
        assert main([
            "simulate", "--resume", str(short_checkpoints[-1]),
            "--vantages", "1", "--scan-mode", "full", "--retry-attempts", "1",
            "--quorum", "majority", "-o", str(outdir),
        ]) == 0
        assert (outdir / "summary.json").exists()


class TestServeCommand:
    def test_serve_end_to_end(self, tmp_path):
        """The default (one in-process event loop) serves over a real
        socket and exits cleanly on SIGTERM."""
        import urllib.request

        from repro.publish.store import SnapshotStore
        from tests.publish.conftest import cli_server

        store_dir = tmp_path / "store"
        SnapshotStore(str(store_dir)).commit(0, {"responsive": "::1\n"})
        with cli_server(str(store_dir), tmp_path / "port") as port:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/v1/latest/responsive", timeout=5
            ) as response:
                assert response.read() == b"::1\n"
                assert response.headers["ETag"].startswith('"')

    @pytest.mark.parametrize("flag,value,message", [
        ("--workers", "0", "argument --workers: must be >= 1, got 0"),
        ("--rate", "-1", "argument --rate: must be > 0, got -1"),
        ("--rate", "0", "argument --rate: must be > 0, got 0"),
        ("--burst", "0.5", "argument --burst: must be >= 1, got 0.5"),
        ("--cache-mb", "-1", "argument --cache-mb: must be >= 0, got -1"),
    ])
    def test_bad_serve_flag_is_a_usage_error(
        self, tmp_path, capsys, flag, value, message
    ):
        """A bad flag fails at parse time, before the store is opened."""
        store_dir = tmp_path / "store"
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", flag, value, "--store", str(store_dir)])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv,shown", [
        (["--store", "missing"], "missing"),
        (["--store", "empty"], "empty"),
        ([], "publish-store"),
    ])
    def test_serve_needs_an_existing_store(
        self, tmp_path, capsys, monkeypatch, argv, shown
    ):
        """A missing path or an empty directory is not a store, and
        serving it creates nothing (the default path included)."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "empty").mkdir()
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", *argv])
        assert exit_info.value.code == 2
        assert f"argument --store: {shown} is not a snapshot store" in (
            capsys.readouterr().err)
        assert [path.name for path in tmp_path.rglob("*")] == ["empty"]

    def test_simulate_publish_dir_writes_a_store(self, tmp_path):
        from repro.publish.store import SnapshotStore

        store_dir = tmp_path / "store"
        assert main([
            "simulate", "--preset", "small", "--seed", "3",
            "--days", "30", "--interval", "10",
            "--publish-dir", str(store_dir),
            "-o", str(tmp_path / "run"),
        ]) == 0
        store = SnapshotStore(str(store_dir))
        manifests = store.manifests()
        assert [m.scan_day for m in manifests] == [0, 10, 20, 30]
        published = store.read_artifact(store.head_id(), "responsive")
        assert published == (tmp_path / "run" / "responsive.txt").read_text()


class TestServiceSettingFlags:
    """Omitted service flags keep the ServiceSettings defaults; set ones win."""

    @staticmethod
    def _settings_for(monkeypatch, argv):
        import repro.cli as cli

        class Captured(Exception):
            pass

        def capture(internet, config, settings=None, fault_plan=None):
            raise Captured(settings)

        monkeypatch.setattr(cli, "build_internet", lambda config: None)
        monkeypatch.setattr(cli, "HitlistService", capture)
        args = cli.build_parser().parse_args(argv)
        with pytest.raises(Captured) as caught:
            cli._run_pipeline(args)
        return caught.value.args[0]

    def test_omitted_flags_yield_settings_defaults(self, monkeypatch, tmp_path):
        from repro.hitlist.service import ServiceSettings
        from repro.simnet import small_config

        settings = self._settings_for(monkeypatch, [
            "simulate", "--scan-mode", "incremental", "-o", str(tmp_path),
        ])
        assert settings == ServiceSettings(
            gfw_filter_deploy_day=small_config().gfw_filter_deploy_day,
            scan_mode="incremental",
        )

    def test_set_flags_override_defaults(self, monkeypatch, tmp_path):
        settings = self._settings_for(monkeypatch, [
            "simulate", "--scan-mode", "incremental", "--refresh-interval", "6",
            "--sample-rate", "0", "--retry-attempts", "2", "-o", str(tmp_path),
        ])
        assert settings.refresh_interval == 6
        assert settings.sample_rate == 0.0
        assert settings.retry_attempts == 2
