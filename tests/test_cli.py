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

    def test_scan_workers_flag_is_output_invisible(self, tmp_path, capsys):
        """--scan-workers shards the probe stage without changing one bit."""
        summaries = {}
        for workers in ("1", "3"):
            outdir = tmp_path / f"w{workers}"
            assert main([
                "simulate", "--preset", "small", "--seed", "3",
                "--days", "40", "--interval", "10",
                "--scan-workers", workers,
                "-o", str(outdir),
            ]) == 0
            capsys.readouterr()
            summaries[workers] = (
                json.loads((outdir / "summary.json").read_text()),
                (outdir / "responsive.txt").read_text(),
            )
        assert summaries["1"] == summaries["3"]

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


class TestServeCommand:
    def test_serve_end_to_end(self, tmp_path):
        """The default (asyncio) backend serves over a real socket and
        exits cleanly on SIGTERM."""
        import os
        import pathlib
        import signal
        import subprocess
        import sys
        import time
        import urllib.request

        from repro.publish.store import SnapshotStore

        store_dir = tmp_path / "store"
        SnapshotStore(str(store_dir)).commit(0, {"responsive": "::1\n"})

        port_file = tmp_path / "port"
        repo_root = pathlib.Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(repo_root / "src") + os.pathsep + env.get("PYTHONPATH", "")
        ).rstrip(os.pathsep)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--store", str(store_dir), "--port", "0",
             "--port-file", str(port_file)],
            env=env, cwd=str(repo_root),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            for _ in range(200):
                if port_file.exists() and port_file.read_text().strip():
                    break
                assert process.poll() is None, "serve exited prematurely"
                time.sleep(0.05)
            port = int(port_file.read_text())
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/v1/latest/responsive", timeout=5
            ) as response:
                assert response.read() == b"::1\n"
                assert response.headers["ETag"].startswith('"')
        finally:
            process.send_signal(signal.SIGTERM)
            try:
                assert process.wait(timeout=10) == 0
            except subprocess.TimeoutExpired:
                process.kill()
                raise

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
